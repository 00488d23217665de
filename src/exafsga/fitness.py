"""Chi-squared objective in K- and/or R-space, plus report metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelEvaluator
from .paths import PathSet
from .spectra import FTConfig, KSpectrum, transform_k_to_r


class FitnessError(ValueError):
    """Invalid fitness configuration or incomparable arrays."""


@dataclass(frozen=True)
class FitnessConfig:
    """Objective configuration.

    space: "K", "R", or "K+R".  n_indep defaults to the number of compared
    points (stepwise-collected data); epsilon is a scalar or per-point
    uncertainty.  ft supplies the fit k-range, k-weight, and (for R-space)
    the transform parameters.
    """

    ft: FTConfig
    space: str = "K"
    n_indep: int | None = None
    epsilon: float | np.ndarray = 1.0
    k_weight: int = 2

    def __post_init__(self):
        if self.space not in ("K", "R", "K+R"):
            raise FitnessError(f"space must be K, R, or K+R, got {self.space!r}")
        if self.n_indep is not None and self.n_indep <= 0:
            raise FitnessError("n_indep must be positive")
        if np.any(np.asarray(self.epsilon) <= 0):
            raise FitnessError("epsilon must be positive everywhere")


def chi2(model: np.ndarray, data: np.ndarray, config: FitnessConfig) -> float:
    """(n_indep/N) * sum((model - data)^2 / epsilon^2) over the fit range.

    The result is 0 only when model == data element-wise.  Nonzero residuals
    whose squares underflow to a zero sum return the smallest positive double
    instead, so a wrong fit never ties with an exact one; every nonzero sum is
    returned unchanged.
    """
    model = np.asarray(model, dtype=float)
    data = np.asarray(data, dtype=float)
    if model.shape != data.shape:
        raise FitnessError(f"length mismatch: {model.shape} vs {data.shape}")
    n = model.size
    if n == 0:
        raise FitnessError("zero-length fit range")
    n_indep = n if config.n_indep is None else min(config.n_indep, n)
    resid = (model - data) / np.asarray(config.epsilon, dtype=float)
    value = float(n_indep / n * np.sum(resid**2))
    if value == 0.0 and not np.array_equal(model, data):
        return float(np.finfo(float).smallest_subnormal)
    return value


def metrics(model: np.ndarray, data: np.ndarray) -> dict[str, float]:
    """R2, MAE, and RMSE of a model against data."""
    model = np.asarray(model, dtype=float)
    data = np.asarray(data, dtype=float)
    if model.shape != data.shape or model.size < 2:
        raise FitnessError("need two arrays of equal length >= 2")
    resid = data - model
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    if ss_tot == 0:
        raise FitnessError("data is constant; R2 undefined")
    return {
        "r2": 1.0 - float(np.sum(resid**2)) / ss_tot,
        "mae": float(np.mean(np.abs(resid))),
        "rmse": float(np.sqrt(np.mean(resid**2))),
    }


def estimate_epsilon(spec: KSpectrum, tail_fraction: float = 0.15) -> float:
    """Scalar noise estimate: std of k^3 chi(k) over the top tail of the k-range."""
    k = spec.grid.ks
    cut = k.min() + (1.0 - tail_fraction) * (k.max() - k.min())
    tail = k >= cut
    if np.count_nonzero(tail) < 2:
        raise FitnessError("too few points in the tail for epsilon estimation")
    return float(np.std(k[tail] ** 3 * spec.chi[tail]))


class SpectrumObjective:
    """Callable chi^2 objective comparing a chromosome's model to data.

    Caches the data-side comparison vectors; evaluation excludes grid points
    invalidated by the energy shift (K-space) and transforms both spectra
    before comparing magnitudes over r_range (R-space).
    """

    def __init__(self, data: KSpectrum, paths: PathSet, config: FitnessConfig):
        self.data = data
        self.paths = paths
        self.config = config
        self.grid = data.grid
        self._evaluator = ModelEvaluator(paths, data.grid)
        k = self.grid.ks
        lo, hi = config.ft.k_range
        self._k_mask = (k >= lo) & (k <= hi)
        if not np.any(self._k_mask):
            raise FitnessError("fit k_range contains no data samples")
        self._kw = k**config.k_weight
        if config.space in ("R", "K+R"):
            self._data_r = transform_k_to_r(data, config.ft).magnitude
        else:
            self._data_r = None

    def evaluate_genes(self, genes: np.ndarray) -> float:
        chi, valid = self._evaluator.evaluate_genes(genes)
        total = 0.0
        if self.config.space in ("K", "K+R"):
            m = self._k_mask & valid
            total += chi2(
                self._kw[m] * chi[m], self._kw[m] * self.data.chi[m], self.config
            )
        if self.config.space in ("R", "K+R"):
            spec = KSpectrum(grid=self.grid, chi=np.where(valid, chi, 0.0))
            mag = transform_k_to_r(spec, self.config.ft).magnitude
            total += chi2(mag, self._data_r, self.config)
        return total

    def __call__(self, chromosome) -> float:
        return self.evaluate_genes(chromosome.to_genes())
