"""Forward EXAFS model: per-path contributions and their sum.

chi_i(k') = S0^2 N F(k') / (k' R^2) * exp(-2 sigma^2 k'^2)
            * exp(-2R/lambda(k')) * sin(2k'R + phi(k') + delta_c(k'))

with R = r_eff + delta_r and k' the energy-shifted wavenumber.  Theory
arrays are linearly interpolated at k'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import PathSet, ScatteringPath
from .spectra import EV_TO_KSQ, KGrid, KSpectrum


class ModelError(ValueError):
    """Unphysical parameters or out-of-range evaluation."""


@dataclass(frozen=True)
class PathParams:
    """Fitted parameters of a single path: S0^2, sigma^2 (A^2), delta_r (A)."""

    s02: float
    sigma2: float
    delta_r: float

    def __post_init__(self):
        if self.s02 < 0:
            raise ModelError(f"s02 must be non-negative, got {self.s02}")
        if self.sigma2 < 0:
            raise ModelError(f"sigma2 must be non-negative, got {self.sigma2}")


def shift_k(grid: KGrid, delta_e0: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift the k-grid by an energy-origin correction.

    k' = sqrt(max(k^2 - c*delta_e0, 0)) with c = 2m/hbar^2 in eV^-1 A^-2.
    Returns (k_shifted, valid) where points driven to k' <= 0 are invalid
    and must be excluded from evaluation and fitness.
    """
    radicand = grid.ks**2 - EV_TO_KSQ * delta_e0
    valid = radicand > 0
    return np.sqrt(np.clip(radicand, 0.0, None)), valid


def path_contribution(
    path: ScatteringPath,
    params: PathParams,
    delta_e0: float,
    grid: KGrid,
) -> np.ndarray:
    """One summand of the EXAFS equation on the grid; invalid points are 0."""
    genes = [delta_e0, params.s02, params.sigma2, params.delta_r]
    return ModelEvaluator(PathSet(paths=(path,)), grid).evaluate_paths(genes)[0][0]


def evaluate_model_masked(
    paths: PathSet, chromosome, grid: KGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Model chi(k) plus the validity mask from the energy shift.

    `chromosome` provides .to_genes() (a flat gene vector, see
    ModelEvaluator.evaluate_genes).
    """
    terms, valid = ModelEvaluator(paths, grid).evaluate_paths(chromosome.to_genes())
    return terms.sum(axis=0), valid


def evaluate_model(paths: PathSet, chromosome, grid: KGrid) -> KSpectrum:
    """Sum of all path contributions sharing one global delta_e0."""
    chi, _ = evaluate_model_masked(paths, chromosome, grid)
    return KSpectrum(grid=grid, chi=chi)


class ModelEvaluator:
    """Vectorized model evaluation over a fixed (paths, grid) pair: the one
    implementation of the EXAFS equation.

    Interpolation tables depend only on delta_e0, which is quantized in the
    genetic search, so they are cached per value; the remaining arithmetic
    is vectorized across paths.
    """

    def __init__(self, paths: PathSet, grid: KGrid, cache_size: int = 4096):
        from collections import OrderedDict

        self.paths = paths
        self.grid = grid
        self.n_paths = len(paths)
        self.deg = np.array([p.degeneracy for p in paths])
        self.r_eff = np.array([p.r_eff for p in paths])
        self._cache: "OrderedDict" = OrderedDict()
        self._cache_size = cache_size

    def _tables(self, delta_e0: float):
        key = round(float(delta_e0), 12)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        kp, valid = shift_k(self.grid, delta_e0)
        kv = kp[valid]
        n = kv.size
        f = np.empty((self.n_paths, n))
        phase = np.empty((self.n_paths, n))
        lam = np.empty((self.n_paths, n))
        if n:
            for i, p in enumerate(self.paths):
                kt = p.k_theory
                if kv.min() < kt[0] - 1e-9 or kv.max() > kt[-1] + 1e-9:
                    raise ModelError(
                        f"path {p.label}: shifted k in [{kv.min():.3f}, {kv.max():.3f}]"
                        f" outside theory range [{kt[0]:.3f}, {kt[-1]:.3f}]"
                    )
                f[i] = np.interp(kv, kt, p.f_eff)
                phase[i] = np.interp(kv, kt, p.phase_scatter) + np.interp(
                    kv, kt, p.phase_central
                )
                lam[i] = np.interp(kv, kt, p.lam)
        entry = (valid, kv, kv**2, f, phase, lam)
        self._cache[key] = entry
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return entry

    def _terms(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-path summands at the valid points, shape (n_paths, n_valid),
        and the validity mask."""
        valid, kv, kv2, f, phase, lam = self._tables(genes[0])
        if kv.size == 0:
            return np.empty((self.n_paths, 0)), valid
        s02 = genes[1::3]
        sigma2 = genes[2::3]
        r = self.r_eff + genes[3::3]
        if np.any(r <= 0):
            bad = int(np.argmax(r <= 0))
            raise ModelError(
                f"path {self.paths.paths[bad].label}: r_eff + delta_r = {r[bad]}"
                " must be positive"
            )
        amp = (s02 * self.deg)[:, None] * f / (kv[None, :] * (r**2)[:, None])
        damping = np.exp(-2.0 * sigma2[:, None] * kv2[None, :]) * np.exp(
            -2.0 * r[:, None] / lam
        )
        osc = np.sin(2.0 * kv[None, :] * r[:, None] + phase)
        return amp * damping * osc, valid

    def evaluate_genes(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """chi(k) and validity mask from a flat gene vector
        [delta_e0, (s02, sigma2, delta_r) per path]."""
        terms, valid = self._terms(np.asarray(genes, dtype=float))
        out = np.zeros(self.grid.n_points)
        out[valid] = terms.sum(axis=0)
        return out, valid

    def evaluate_paths(self, genes) -> tuple[np.ndarray, np.ndarray]:
        """Unsummed model: one chi(k) row per path (0 at invalid points),
        and the validity mask."""
        genes = np.asarray(genes, dtype=float)
        if genes.size != 1 + 3 * self.n_paths:
            raise ModelError(f"{genes.size} genes for {self.n_paths} paths")
        terms, valid = self._terms(genes)
        out = np.zeros((self.n_paths, self.grid.n_points))
        out[:, valid] = terms
        return out, valid
