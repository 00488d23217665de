"""Spectrum containers, k-grid handling, window functions, and the k->r transform.

K-space spectra live on uniform grids of photoelectron wavenumber k (inverse
Angstrom).  The k->r transform is the windowed, k-weighted, zero-padded
discrete Fourier transform conventional in XAFS analysis, with output
distances r_m = m*pi/(n_fft*delta_k).  It is linear in chi, so it is applied
as one real matrix per (KGrid, FTConfig), built once and cached.
"""

from __future__ import annotations

import bisect
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# 2m/hbar^2 in eV^-1 Angstrom^-2: converts an energy-origin shift (eV) into
# a shift of k^2 (Angstrom^-2).
EV_TO_KSQ = 0.2624682917


class SpectrumError(ValueError):
    """Invalid spectrum data or incompatible grids."""


class TransformConfigError(ValueError):
    """Invalid Fourier-transform configuration."""


# Most points a KGrid may hold.  The largest grid of the tests, demos and
# benchmark workloads holds 1201.
MAX_GRID_POINTS = 4096


@dataclass(frozen=True)
class KGrid:
    """Uniform wavenumber grid k_min + i*delta_k, i in [0, n_points), of the
    whole steps from k_min that do not pass k_max (within 1e-9 of a step),
    at most MAX_GRID_POINTS (4096) of them."""

    k_min: float
    k_max: float
    delta_k: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k_min, self.k_max, self.delta_k))):
            raise SpectrumError("k_min, k_max and delta_k must be finite")
        if self.k_min < 0:
            raise SpectrumError(f"k_min must be >= 0, got {self.k_min}")
        if self.k_max <= self.k_min:
            raise SpectrumError("k_max must exceed k_min")
        if self.delta_k <= 0:
            raise SpectrumError("delta_k must be positive")
        if not math.isfinite((self.k_max - self.k_min) / self.delta_k):
            raise SpectrumError("(k_max - k_min) / delta_k overflows")
        if self.n_points > MAX_GRID_POINTS:
            raise SpectrumError(
                f"grid has {self.n_points} points, more than {MAX_GRID_POINTS}"
            )

    @property
    def n_points(self) -> int:
        return int(math.floor((self.k_max - self.k_min) / self.delta_k + 1e-9)) + 1

    @cached_property
    def ks(self) -> np.ndarray:
        k = self.k_min + self.delta_k * np.arange(self.n_points)
        k.setflags(write=False)
        return k


@dataclass(frozen=True)
class KSpectrum:
    """chi(k) sampled on a uniform KGrid."""

    grid: KGrid
    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=float)
        if chi.shape != (self.grid.n_points,):
            raise SpectrumError(
                f"chi has length {chi.shape}, grid has {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(chi)):
            raise SpectrumError("chi contains non-finite values")
        chi = chi.copy()
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class FTConfig:
    """Parameters of the windowed k->r transform.

    k_range selects the transformed interval; window_sill is the taper width
    at each end of that interval.
    """

    k_range: tuple[float, float]
    r_range: tuple[float, float] = (0.0, 6.0)
    k_weight: int = 2
    window_sill: float = 1.0
    n_fft: int = 2048

    def __post_init__(self):
        if self.k_weight not in (0, 1, 2, 3):
            raise TransformConfigError(f"k_weight must be in 0..3, got {self.k_weight}")
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise TransformConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if not all(map(math.isfinite, (*self.k_range, *self.r_range, self.window_sill))):
            raise TransformConfigError("k_range, r_range and window_sill must be finite")
        if self.k_range[1] <= self.k_range[0]:
            raise TransformConfigError("empty k_range")
        if self.r_range[0] < 0 or self.r_range[1] <= self.r_range[0]:
            raise TransformConfigError("invalid r_range")
        if self.window_sill < 0:
            raise TransformConfigError("window_sill must be >= 0")
        if 2 * self.window_sill > (self.k_range[1] - self.k_range[0]):
            raise TransformConfigError("window_sill wider than half the fit range")


@dataclass(frozen=True)
class RSpectrum:
    """Complex chi(r) on a uniform r-grid, with magnitude."""

    r: np.ndarray
    chi_r: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.chi_r)


def in_k_range(k: np.ndarray, config: FTConfig) -> np.ndarray:
    """Mask of the wavenumbers k within 1e-9 of config.k_range: the rule by
    which check_k_range takes grid points into the fit."""
    lo, hi = config.k_range
    return (k >= lo - 1e-9) & (k <= hi + 1e-9)


def window_weights(k: np.ndarray, config: FTConfig) -> np.ndarray:
    """Hanning-sill window evaluated at arbitrary wavenumbers.

    1 on the plateau [k_lo+sill, k_hi-sill], cosine-squared taper over the
    sills, 0 outside in_k_range; a point just past an end weighs as the end.
    """
    k_lo, k_hi = config.k_range
    sill = config.window_sill
    k = np.asarray(k, dtype=float)
    inside = in_k_range(k, config)
    if sill == 0:
        return inside.astype(float)
    edge = np.clip(np.minimum(k - k_lo, k_hi - k), 0.0, sill)
    return np.where(inside, np.sin(0.5 * np.pi * edge / sill) ** 2, 0.0)


def check_k_range(config: FTConfig, grid: KGrid) -> slice:
    """The slice of grid points in config.k_range; TransformConfigError unless
    that range lies on grid (within 1e-9) and holds 1 to config.n_fft points.
    A point within 1e-9 of an end counts as inside (in_k_range), so an end
    written as a grid point's decimal holds that point whichever way it rounds."""
    lo, hi = config.k_range
    if lo < grid.k_min - 1e-9 or hi > grid.k_max + 1e-9:
        raise TransformConfigError(
            f"k_range [{lo}, {hi}] extends beyond the grid [{grid.k_min}, {grid.k_max}]"
        )
    inside = np.flatnonzero(in_k_range(grid.ks, config))
    if not inside.size:
        raise TransformConfigError(f"k_range [{lo}, {hi}] contains no grid samples")
    start, stop = int(inside[0]), int(inside[-1]) + 1
    if config.n_fft < stop - start:
        raise TransformConfigError(f"n_fft={config.n_fft} smaller than {stop - start} "
                                   "in-range samples")
    return slice(start, stop)


def check_r_range(config: FTConfig, grid: KGrid) -> slice:
    """The slice of r-points m*pi/(n_fft*delta_k), 0 <= m < n_fft/2, in
    config.r_range; TransformConfigError if it holds none.  No r-point falls
    as m grows, so two bisections find the slice without building them."""
    n_r, span = config.n_fft // 2, config.n_fft * grid.delta_k

    def r(m: int) -> float:
        return m * np.pi / span

    start = bisect.bisect_left(range(n_r), config.r_range[0], key=r)
    stop = bisect.bisect_right(range(n_r), config.r_range[1], key=r)
    if stop == start:
        raise TransformConfigError(f"r_range {list(config.r_range)} holds no r-point "
                                   f"m*pi/(n_fft*delta_k) = m*{r(1):.6g}, 0 <= m < {n_r}")
    return slice(start, stop)


class KToRMap:
    """The k->r transform of one (KGrid, FTConfig) as a linear map on chi(k)
    arrays: chi(r) = M @ chi(k), applied as matrix @ chi(k)[columns].

    The complex matrix M folds the linear interpolation of chi onto
    n*delta_k (a point within 1e-9 past the grid's end reads the end value,
    as np.interp does), the window, k^w, the i*delta_k/sqrt(pi*n_fft)
    factor and the DFT rows of the r-points inside r_range.  columns spans
    M's columns from the first that holds a nonzero entry to the last (an
    empty slice at the fit slice's start when M is all zero): chi elsewhere
    has no effect.  matrix is real, of shape (2*n_r, n_columns): rows 2m and
    2m+1 hold Re M[m] and Im M[m] on those columns, so chi is never cast to
    complex and the product's memory already is chi(r) as complex numbers.
    r and matrix are read-only.
    """

    __slots__ = ("r", "columns", "matrix")

    def __init__(self, r: np.ndarray, columns: slice, matrix: np.ndarray):
        self.r, self.columns, self.matrix = r, columns, matrix

    def __call__(self, chi: np.ndarray) -> np.ndarray:
        """Complex chi(r) on self.r of a float chi(k) array on the map's grid.

        Nothing is checked: chi is read on the map's columns (a chi too
        short for them fails in the product), and a non-finite chi gives a
        non-finite chi(r).  transform_k_to_r is the checked, spectrum-level
        call."""
        return (self.matrix @ chi[self.columns]).view(np.complex128)


@lru_cache(maxsize=16)
def k_to_r_map(grid: KGrid, config: FTConfig) -> KToRMap:
    """The KToRMap of (grid, config), built once and cached (16 entries).
    TransformConfigError unless check_k_range and check_r_range pass.

    A caller that transforms many chi(k) arrays on one grid, such as a
    fitness objective, binds the map once and calls it on each array."""
    fit = check_k_range(config, grid)
    r_points = check_r_range(config, grid)
    k = grid.ks
    n_fft = config.n_fft
    n = np.arange(n_fft)
    kk = grid.delta_k * n
    keep_n = in_k_range(kk, config)
    n, kk = n[keep_n], kk[keep_n]
    # Row i of interp holds the weights np.interp gives chi at kk[i]; a kk
    # past an end of the grid (check_k_range allows 1e-9) reads that end.
    x = np.clip(kk, k[0], k[-1])
    j = np.clip(np.searchsorted(k, x, side="right") - 1, 0, k.size - 2)
    t = (x - k[j]) / (k[j + 1] - k[j])
    rows = np.arange(kk.size)
    interp = np.zeros((kk.size, k.size))
    interp[rows, j] = 1.0 - t
    interp[rows, j + 1] += t
    m = np.arange(r_points.start, r_points.stop)
    r = m * np.pi / (n_fft * grid.delta_k)
    # exp(2i pi n m / n_fft), with n*m reduced mod n_fft for an exact phase.
    dft = np.exp(2j * np.pi * (np.outer(m, n) % n_fft) / n_fft)
    weight = window_weights(kk, config) * kk**config.k_weight
    matrix = (1j * grid.delta_k / np.sqrt(np.pi * n_fft)) * (dft * weight) @ interp
    read = np.flatnonzero(np.any(matrix != 0, axis=0))
    start, stop = (int(read[0]), int(read[-1]) + 1) if read.size else (fit.start, fit.start)
    # An index array, not a slice: the gather sets the layout of real, and
    # with it the last bits of the product.
    cols = np.arange(start, stop)
    real = np.stack([matrix.real[:, cols], matrix.imag[:, cols]], axis=1)
    real = real.reshape(2 * r.size, cols.size)
    for a in (r, real):
        a.setflags(write=False)
    return KToRMap(r, slice(start, stop), real)


def transform_k_to_r(spec: KSpectrum, config: FTConfig) -> RSpectrum:
    """Windowed discrete Fourier transform from k-space to r-space.

    chi(r_m) = (i*delta_k/sqrt(pi*n_fft)) * sum_n f_n exp(2i*pi*n*m/n_fft)
    with f_n the windowed, k^w-weighted chi linearly interpolated at
    n*delta_k (0 outside k_range; a point within 1e-9 past the grid's end
    reads the end value), r_m = m*pi/(n_fft*delta_k), and the output
    cropped to r_range.

    The sum is applied as the cached k_to_r_map of (spec.grid, config), one
    real (2*n_r, n_columns) matrix times chi on its columns, so a call
    costs O(n_r * n_columns) instead of an FFT's O(n_fft log n_fft), after
    5-33 ms to build the matrix once per (grid, config).  It wins while
    r_range and the grid are short: with n_fft = 2048 on a 0.05 A^-1 grid
    over 0.5-13 A^-1 and k_range 2.5-12.5, 17-20 us per call against the
    FFT's 108-125 us at r <= 6 A and 27-32 against 137-153 us at r <= 10 A;
    on a 0.025 A^-1 grid at r <= 31 A it takes 143-157 us against 122-144 us
    (single-threaded BLAS on an Intel Xeon core, range over three runs).

    This is the spectrum-level call: spec was checked when it was built.
    A per-row caller that has just made a finite chi on the grid, as
    SpectrumObjective.evaluate_genes has, calls the map itself and gets the
    same numbers without the KSpectrum and RSpectrum around them.
    """
    to_r = k_to_r_map(spec.grid, config)
    return RSpectrum(r=to_r.r, chi_r=to_r(spec.chi))


def resample_onto(spec: KSpectrum, grid: KGrid) -> KSpectrum:
    """Linear interpolation of chi onto a new uniform grid (no extrapolation)."""
    src = spec.grid
    if grid.k_min < src.k_min - 1e-9 or grid.k_max > src.k_max + 1e-9:
        raise SpectrumError(
            f"target grid [{grid.k_min}, {grid.k_max}] extends beyond "
            f"source range [{src.k_min}, {src.k_max}]"
        )
    return KSpectrum(grid=grid, chi=np.interp(grid.ks, src.ks, spec.chi))


def read_chi_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (k, chi) text file.

    Whitespace- or comma-delimited; lines starting with '#' are ignored.
    Returns raw (k, chi) arrays; every value must be finite and k
    non-negative and strictly increasing.
    """
    ks, chis = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
                raise SpectrumError(f"{path}:{lineno}: expected two columns")
            try:
                k, chi = float(parts[0]), float(parts[1])
            except ValueError:
                raise SpectrumError(f"{path}:{lineno}: non-numeric value") from None
            if not (math.isfinite(k) and math.isfinite(chi)):
                raise SpectrumError(f"{path}:{lineno}: non-finite value")
            if k < 0:
                raise SpectrumError(f"{path}:{lineno}: negative k")
            if ks and k <= ks[-1]:
                raise SpectrumError(f"{path}:{lineno}: k not strictly increasing")
            ks.append(k)
            chis.append(chi)
    if len(ks) < 2:
        raise SpectrumError(f"{path}: fewer than two data rows")
    return np.asarray(ks), np.asarray(chis)


def load_data(path, grid: KGrid) -> KSpectrum:
    """Read a two-column (k, chi) file and interpolate it linearly onto grid.

    The file's k need not be uniform, but must cover the grid."""
    k, chi = read_chi_file(path)
    if grid.k_min < k[0] - 1e-9 or grid.k_max > k[-1] + 1e-9:
        raise SpectrumError(f"{path}: run grid extends beyond data range [{k[0]}, {k[-1]}]")
    return KSpectrum(grid=grid, chi=np.interp(grid.ks, k, chi))


def atomic_write(path, text: str) -> None:
    """Write text to path via a temporary file in the same directory and a
    rename, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def chi_file_lines(k: np.ndarray, chi: np.ndarray, header: str = "") -> list[str]:
    """Lines of a two-column (k, chi) text file: each header line as a '#'
    comment, a '# k chi' line, then one row per point at full precision."""
    lines = [f"# {line}" for line in header.splitlines()] + ["# k chi"]
    return lines + [f"{ki:.17g} {ci:.17g}" for ki, ci in zip(k, chi)]


def write_chi_file(path, k: np.ndarray, chi: np.ndarray, header: str = "") -> None:
    """Write a two-column (k, chi) text file, atomically."""
    atomic_write(path, "\n".join(chi_file_lines(k, chi, header)) + "\n")
