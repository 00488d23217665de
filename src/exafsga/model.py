"""Forward EXAFS model: per-path contributions and their sum.

chi_i(k') = S0^2 N F(k') / (k' R^2) * exp(-2 sigma^2 k'^2)
            * exp(-2R/lambda(k')) * sin(2k'R + phi(k') + delta_c(k'))

with R = r_eff + delta_r and k' the energy-shifted wavenumber.  Theory
arrays are linearly interpolated at k'.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .paths import INTERPOLATED, PathSet, ScatteringPath, interval_slopes
from .spectra import EV_TO_KSQ, KGrid, KSpectrum, SpectrumError


class ModelError(ValueError):
    """Unphysical parameters or out-of-range evaluation."""


@dataclass(frozen=True)
class PathParams:
    """Fitted parameters of a single path: S0^2, sigma^2 (A^2), delta_r (A), in
    gene order (PATH_GENES); NON_NEGATIVE names those that must be >= 0."""

    s02: float
    sigma2: float
    delta_r: float

    def __post_init__(self):
        for name in NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be non-negative, got {getattr(self, name)}")


PATH_GENES = tuple(f.name for f in fields(PathParams))
NON_NEGATIVE = ("s02", "sigma2")


def shift_k(grid: KGrid, delta_e0: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift the k-grid by an energy-origin correction.

    k' = sqrt(max(k^2 - c*delta_e0, 0)) with c = 2m/hbar^2 in eV^-1 A^-2.
    Returns (k_shifted, valid) where points driven to k' <= 0 are invalid
    and must be excluded from evaluation and fitness.  The grid ascends from
    k >= 0, so k_shifted is nondecreasing and valid is a suffix of the grid:
    the first valid point holds the smallest valid k' and the last point the
    largest.
    """
    radicand = shifted_k_squared(grid.ks, delta_e0)
    valid = radicand > 0
    return np.sqrt(np.maximum(radicand, 0.0)), valid


def shifted_k_squared(k, delta_e0):
    """k^2 - c*delta_e0, elementwise: shift_k's k'^2, valid where positive."""
    return k**2 - EV_TO_KSQ * delta_e0


def path_contribution(
    path: ScatteringPath,
    params: PathParams,
    delta_e0: float,
    grid: KGrid,
) -> np.ndarray:
    """One summand of the EXAFS equation on the grid; invalid points are 0."""
    genes = [delta_e0, *astuple(params)]
    return ModelEvaluator(PathSet(paths=(path,)), grid).evaluate_paths(genes)[0][0]


def evaluate_model_masked(
    paths: PathSet, chromosome, grid: KGrid
) -> tuple[np.ndarray, int]:
    """Model chi(k) plus the index of its first valid point, as
    ModelEvaluator.evaluate_genes returns them.  A path whose contribution
    overflows is a SpectrumError that names it.

    `chromosome` provides .to_genes() (a flat gene vector, see
    ModelEvaluator.evaluate_genes).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms, first = ModelEvaluator(paths, grid).evaluate_paths(chromosome.to_genes())
        chi = terms.sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(terms).all(axis=1))
    if bad.size:
        raise SpectrumError(f"path {paths.paths[bad[0]].label}: model chi is not finite")
    return chi, first


def evaluate_model(paths: PathSet, chromosome, grid: KGrid) -> KSpectrum:
    """Sum of all path contributions sharing one global delta_e0."""
    chi, _ = evaluate_model_masked(paths, chromosome, grid)
    return KSpectrum(grid=grid, chi=chi)


class ModelEvaluator:
    """Vectorized model evaluation over a fixed (paths, grid) pair: the one
    implementation of the EXAFS equation.

    Interpolation tables depend only on delta_e0, which is quantized in the
    genetic search, so they are cached per value, up to cache_size tables
    (the oldest is dropped first).  A table holds every factor of the kernel
    that depends on delta_e0 alone (2k', deg*F/k', the summed phases,
    -2/lambda and -2k'^2), so a scored row computes only what its own genes
    change, vectorized across paths.  Paths whose k_theory arrays are
    byte-equal share one theory grid: their f_eff, phase_scatter,
    phase_central and lam rows are stacked, with the slopes of each
    interval, so a table costs one searchsorted and one gather per theory
    grid.  The gather computes slope[j]*(k' - kt[j]) + fp[j], the formula
    np.interp uses, so the tables equal np.interp's bit for bit.

    The energy shift invalidates a prefix of the grid (shift_k); each table
    states it as first, the index of the first valid point (n_points when
    none is).  points, a slice of the grid of step 1 (default: the whole
    grid), names the points that are evaluated; the model is 0 at the
    others and at the invalid ones.  A caller that reads only some points
    of the model passes them here.  The theory-range check still covers the
    whole grid, so first and every ModelError do not depend on points.
    """

    def __init__(
        self, paths: PathSet, grid: KGrid, cache_size: int = 4096, points=slice(None)
    ):
        self.paths = paths
        self.grid = grid
        self.n_paths = len(paths)
        self._n_points = grid.n_points
        self._start, self._stop, step = points.indices(self._n_points)
        if step != 1 or self._start >= self._stop:
            raise ModelError(f"points {points} is not a nonempty slice of step 1")
        self.deg = np.array([p.degeneracy for p in paths])
        self.r_eff = np.array([p.r_eff for p in paths])
        # The theory range each path admits for shifted k, with 1e-9 slack,
        # and the range every path admits.
        self._kp_min = np.array([p.k_theory[0] for p in paths]) - 1e-9
        self._kp_max = np.array([p.k_theory[-1] for p in paths]) + 1e-9
        self._kp_lo, self._kp_hi = float(self._kp_min.max()), float(self._kp_max.min())
        by_grid: dict[bytes, list[int]] = {}
        for i, p in enumerate(paths):
            by_grid.setdefault(p.k_theory.tobytes(), []).append(i)
        # Per theory grid: (path indices, kt, fp, slope), fp and slope of
        # shape (4, n_group_paths, len(kt)) over (f_eff, phase_scatter,
        # phase_central, lam); slope[..., -1] is 0.
        self._groups = []
        for idx in by_grid.values():
            kt = paths.paths[idx[0]].k_theory
            fp = np.array(
                [[getattr(paths.paths[i], name) for i in idx] for name in INTERPOLATED]
            )
            slope = np.zeros_like(fp)
            slope[..., :-1] = interval_slopes(kt, fp)
            self._groups.append((idx, kt, fp, slope))
        self._cache: dict = {}
        self._cache_size = cache_size

    def _tables(self, delta_e0: float):
        key = float(delta_e0)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        kp, valid = shift_k(self.grid, delta_e0)
        first = valid.size - np.count_nonzero(valid)
        if first < valid.size:
            # kp is nondecreasing (shift_k): the ends of the valid part are
            # its smallest and largest shifted k.
            lo, hi = kp[first], kp[-1]
            if lo < self._kp_lo or hi > self._kp_hi:
                bad = self.paths.paths[int(np.argmax((lo < self._kp_min) | (hi > self._kp_max)))]
                raise ModelError(
                    f"path {bad.label}: shifted k in [{lo:.3f}, {hi:.3f}] outside theory"
                    f" range [{bad.k_theory[0]:.3f}, {bad.k_theory[-1]:.3f}]"
                )
        used = slice(max(first, self._start), self._stop)
        kv = kp[used]
        # (f_eff, phase_scatter, phase_central, lam) at kv, one row per path.
        # With one theory grid the gather's output is already in path order;
        # scattering it into a new array would double the table's build time.
        if len(self._groups) == 1:
            interp = self._gather(*self._groups[0][1:], kv)
        else:
            interp = np.empty((4, self.n_paths, kv.size))
            for idx, kt, fp, slope in self._groups:
                interp[:, idx] = self._gather(kt, fp, slope, kv)
        f, phase_scatter, phase_central, lam = interp
        # The per-row kernel's constants: 2k, deg*F/k, phase, -2/lambda and -2k^2.
        entry = (
            first,
            used,
            2.0 * kv,
            self.deg[:, None] * f / kv,
            phase_scatter + phase_central,
            -2.0 / lam,
            -2.0 * kv**2,
        )
        self._cache[key] = entry
        if len(self._cache) > self._cache_size:
            del self._cache[next(iter(self._cache))]  # the oldest table
        return entry

    @staticmethod
    def _gather(kt, fp, slope, x):
        """np.interp(x, kt, fp) along the last axis of fp, with x within 1e-9
        of [kt[0], kt[-1]] clamped to the end values as np.interp does."""
        x = np.minimum(np.maximum(x, kt[0]), kt[-1])
        j = np.searchsorted(kt, x, side="right") - 1
        out = np.take(slope, j, axis=-1)
        out *= x - kt[j]
        out += np.take(fp, j, axis=-1)
        return out

    def _terms(self, genes: np.ndarray) -> tuple[np.ndarray, int, slice]:
        """Per-path summands at the evaluated points, shape (n_paths, n_used),
        the first valid index and the slice of evaluated points."""
        n = len(PATH_GENES)
        if genes.size != 1 + n * self.n_paths:
            raise ModelError(f"{genes.size} genes for {self.n_paths} paths")
        first, used, two_k, deg_f_k, phase, neg2_inv_lam, neg2_k2 = self._tables(genes[0])
        if two_k.size == 0:
            return np.empty((self.n_paths, 0)), first, used
        s02 = genes[1::n]
        sigma2 = genes[2::n]
        r = self.r_eff + genes[3::n]
        if np.minimum.reduce(r) <= 0:
            bad = int(np.argmax(r <= 0))
            raise ModelError(
                f"path {self.paths.paths[bad].label}: r_eff + delta_r = {r[bad]}"
                " must be positive"
            )
        # exp(-2 sigma^2 k^2 - 2R/lambda) and sin(2kR + phase), each in place;
        # osc holds -2R/lambda until the exponent has it.
        rc = r[:, None]
        terms = sigma2[:, None] * neg2_k2
        osc = rc * neg2_inv_lam
        terms += osc
        np.exp(terms, out=terms)
        np.multiply(rc, two_k, out=osc)
        osc += phase
        terms *= np.sin(osc, out=osc)
        terms *= deg_f_k
        terms *= (s02 / r**2)[:, None]
        return terms, first, used

    def evaluate_genes(self, genes: np.ndarray) -> tuple[np.ndarray, int]:
        """chi(k) and the first valid index from a flat gene vector
        [delta_e0, (s02, sigma2, delta_r) per path]; chi is 0 at invalid
        points and outside points."""
        terms, first, used = self._terms(np.asarray(genes, dtype=float))
        out = np.zeros(self._n_points)
        np.add.reduce(terms, axis=0, out=out[used])
        return out, first

    def evaluate_paths(self, genes) -> tuple[np.ndarray, int]:
        """Unsummed model: one chi(k) row per path (0 at invalid points and
        outside points), and the first valid index."""
        terms, first, used = self._terms(np.asarray(genes, dtype=float))
        out = np.zeros((self.n_paths, self._n_points))
        out[:, used] = terms
        return out, first
