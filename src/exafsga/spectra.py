"""Spectrum containers, k-grid handling, window functions, and the k->r transform.

K-space spectra live on uniform grids of photoelectron wavenumber k (inverse
Angstrom).  The k->r transform is the windowed, k-weighted, zero-padded
discrete Fourier transform conventional in XAFS analysis, with output
distances r_m = m*pi/(n_fft*delta_k).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# 2m/hbar^2 in eV^-1 Angstrom^-2: converts an energy-origin shift (eV) into
# a shift of k^2 (Angstrom^-2).
EV_TO_KSQ = 0.2624682917


class SpectrumError(ValueError):
    """Invalid spectrum data or incompatible grids."""


class TransformConfigError(ValueError):
    """Invalid Fourier-transform configuration."""


@dataclass(frozen=True)
class KGrid:
    """Uniform wavenumber grid [k_min, k_max] with spacing delta_k."""

    k_min: float
    k_max: float
    delta_k: float

    def __post_init__(self):
        if self.k_min < 0:
            raise SpectrumError(f"k_min must be >= 0, got {self.k_min}")
        if self.k_max <= self.k_min:
            raise SpectrumError("k_max must exceed k_min")
        if self.delta_k <= 0:
            raise SpectrumError("delta_k must be positive")

    @property
    def n_points(self) -> int:
        return int(round((self.k_max - self.k_min) / self.delta_k)) + 1

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
    window: str = "hanning"
    window_sill: float = 1.0
    n_fft: int = 2048

    def __post_init__(self):
        if self.k_weight not in (0, 1, 2, 3):
            raise TransformConfigError(f"k_weight must be in 0..3, got {self.k_weight}")
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise TransformConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.k_range[1] <= self.k_range[0]:
            raise TransformConfigError("empty k_range")
        if self.r_range[0] < 0 or self.r_range[1] <= self.r_range[0]:
            raise TransformConfigError("invalid r_range")
        if self.window_sill < 0:
            raise TransformConfigError("window_sill must be >= 0")
        if self.window not in ("hanning",):
            raise TransformConfigError(f"unknown window {self.window!r}")
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


def window_weights(k: np.ndarray, config: FTConfig) -> np.ndarray:
    """Hanning-sill window evaluated at arbitrary wavenumbers.

    1 on the plateau [k_lo+sill, k_hi-sill], cosine-squared taper over the
    sills, 0 outside [k_lo, k_hi].
    """
    k_lo, k_hi = config.k_range
    sill = config.window_sill
    k = np.asarray(k, dtype=float)
    w = np.zeros_like(k)
    inside = (k >= k_lo) & (k <= k_hi)
    w[inside] = 1.0
    if sill > 0:
        lo_taper = inside & (k < k_lo + sill)
        w[lo_taper] = np.sin(0.5 * np.pi * (k[lo_taper] - k_lo) / sill) ** 2
        hi_taper = inside & (k > k_hi - sill)
        w[hi_taper] = np.sin(0.5 * np.pi * (k_hi - k[hi_taper]) / sill) ** 2
    return w


def make_window(config: FTConfig, grid: KGrid) -> np.ndarray:
    """Window weights at the grid points."""
    if config.k_range[0] < grid.k_min - 1e-9 or config.k_range[1] > grid.k_max + 1e-9:
        raise TransformConfigError("k_range extends beyond the grid")
    return window_weights(grid.ks, config)


def _padded_input(spec: KSpectrum, config: FTConfig) -> np.ndarray:
    """Windowed, k-weighted chi interpolated onto n = 0..n_fft-1 times delta_k."""
    grid = spec.grid
    k = grid.ks
    in_range = (k >= config.k_range[0]) & (k <= config.k_range[1])
    n_in = int(np.count_nonzero(in_range))
    if n_in == 0:
        raise TransformConfigError("k_range contains no grid samples")
    if config.n_fft < n_in:
        raise TransformConfigError(
            f"n_fft={config.n_fft} smaller than {n_in} in-range samples"
        )
    kk = grid.delta_k * np.arange(config.n_fft)
    chi = np.interp(kk, k, spec.chi, left=0.0, right=0.0)
    f = chi * window_weights(kk, config) * kk**config.k_weight
    f[(kk < config.k_range[0]) | (kk > config.k_range[1])] = 0.0
    return f


def transform_k_to_r(spec: KSpectrum, config: FTConfig) -> RSpectrum:
    """Windowed discrete Fourier transform from k-space to r-space.

    chi(r_m) = (i*delta_k/sqrt(pi*n_fft)) * sum_n f_n exp(2i*pi*n*m/n_fft)
    with f_n the windowed, k^w-weighted, zero-padded input and
    r_m = m*pi/(n_fft*delta_k); the output is cropped to r_range.
    """
    f = _padded_input(spec, config)
    n_fft = config.n_fft
    # sum_n f_n exp(+2i pi n m / N) == N * ifft(f)
    full = (1j * spec.grid.delta_k / np.sqrt(np.pi * n_fft)) * n_fft * np.fft.ifft(f)
    r = np.arange(n_fft // 2) * np.pi / (n_fft * spec.grid.delta_k)
    chi_r = full[: n_fft // 2]
    keep = (r >= config.r_range[0]) & (r <= config.r_range[1])
    return RSpectrum(r=r[keep], chi_r=chi_r[keep])


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
    Returns raw (k, chi) arrays; k must be strictly increasing.
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
                ks.append(float(parts[0]))
                chis.append(float(parts[1]))
            except ValueError:
                raise SpectrumError(f"{path}:{lineno}: non-numeric value") from None
    if len(ks) < 2:
        raise SpectrumError(f"{path}: fewer than two data rows")
    k = np.asarray(ks)
    if not np.all(np.diff(k) > 0):
        bad = int(np.argmax(np.diff(k) <= 0))
        raise SpectrumError(f"{path}: k not strictly increasing near row {bad + 1}")
    return k, np.asarray(chis)


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


def write_chi_file(path, k: np.ndarray, chi: np.ndarray, header: str = "") -> None:
    """Write a two-column (k, chi) text file, atomically."""
    lines = [f"# {line}" for line in header.splitlines()] + ["# k chi"]
    lines += [f"{ki:.17g} {ci:.17g}" for ki, ci in zip(k, chi)]
    atomic_write(path, "\n".join(lines) + "\n")
