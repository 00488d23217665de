"""Chi-squared objective in K- and/or R-space, plus report metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelEvaluator
from .paths import PathSet
from .spectra import (
    FTConfig, KSpectrum, TransformConfigError, check_k_range, k_to_r_map, transform_k_to_r,
)


class FitnessError(ValueError):
    """Invalid fitness configuration or incomparable arrays."""


@dataclass(frozen=True)
class FitnessConfig:
    """Objective configuration.

    space: "K", "R", or "K+R".  n_indep defaults to the number of compared
    points (stepwise-collected data); epsilon, a positive scalar, is the
    uncertainty of every point.  ft supplies the fit k-range and the
    transform parameters; its k_weight weights only the transform: the
    R-space chi^2, metrics_r and model_r.csv.  k_weight weights K space: the
    K-space chi^2, metrics_k and cutoff_select's areas.
    """

    ft: FTConfig
    space: str = "K"
    n_indep: int | None = None
    epsilon: float = 1.0
    k_weight: int = 2

    def __post_init__(self):
        if self.k_weight not in (0, 1, 2, 3):
            raise FitnessError(f"k_weight must be in 0..3, got {self.k_weight}")
        if self.space not in ("K", "R", "K+R"):
            raise FitnessError(f"space must be K, R, or K+R, got {self.space!r}")
        if self.n_indep is not None and self.n_indep <= 0:
            raise FitnessError("n_indep must be positive")
        if np.ndim(self.epsilon) != 0 or not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise FitnessError(f"epsilon must be a finite positive scalar, got {self.epsilon!r}")


def chi2(model: np.ndarray, data: np.ndarray, config: FitnessConfig) -> float:
    """(min(n_indep, N)/N) * sum((model - data)^2 / epsilon^2) over the fit
    range: the factor applies only when n_indep < N.

    The result is 0 only when model == data element-wise.  Nonzero residuals
    whose squares underflow to a zero sum return the smallest positive double
    instead, so a wrong fit never ties with an exact one; every nonzero sum is
    returned unchanged.

    Where epsilon or min(n_indep, N)/N is 1, dividing or multiplying by it
    is an exact no-op and is skipped; np.add.reduce is the pairwise sum
    np.sum makes, so the value equals the formula's bit for bit.
    """
    model = np.asarray(model, dtype=float)
    data = np.asarray(data, dtype=float)
    if model.shape != data.shape:
        raise FitnessError(f"length mismatch: {model.shape} vs {data.shape}")
    n = model.size
    if n == 0:
        raise FitnessError("zero-length fit range")
    resid = model - data
    if config.epsilon != 1.0:
        resid /= config.epsilon
    value = np.add.reduce(np.multiply(resid, resid, out=resid))
    if config.n_indep is not None and config.n_indep < n:
        value = config.n_indep / n * value
    value = float(value)
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


class SpectrumObjective:
    """Chi^2 objective comparing the model of a gene vector
    [delta_e0, (s02, sigma2, delta_r) per path] to data.

    Caches the data-side comparison vectors; K-space terms read the fit
    range from the evaluator's first valid index on, and R-space terms
    transform both spectra before comparing magnitudes over r_range.  The
    fit k_range must pass check_k_range on the data's grid (FitnessError).

    The model is evaluated only on the slice of the grid these comparisons
    read: the hull of the fit k_range and the columns of the k->r transform
    (KToRMap.columns), in every space, since report() reads both.  That is
    exact: K-space chi^2 reads the same elements in the same order, and the
    model points left out meet only exact zeros of the transform matrix.

    evaluate_genes, called once per gene vector, applies the cached k->r map
    (spectra.k_to_r_map) to the model chi the evaluator has just made,
    without the checks and copy of a KSpectrum, and gives the numbers of
    the spectrum-level composition bit for bit.  The data transform and
    report() go through transform_k_to_r, which validates its spectrum.
    """

    def __init__(self, data: KSpectrum, paths: PathSet, config: FitnessConfig):
        self.data, self.paths, self.config, self.grid = data, paths, config, data.grid
        try:
            fit = check_k_range(config.ft, self.grid)
        except TransformConfigError as exc:
            raise FitnessError(f"fit {exc}") from exc
        self._lo, self._hi = fit.start, fit.stop
        self._kw = self.grid.ks**config.k_weight
        self._kw_data = self._kw * data.chi
        self._data_r = transform_k_to_r(data, config.ft).magnitude
        self._to_r = k_to_r_map(self.grid, config.ft)
        cols = self._to_r.columns
        points = slice(min(fit.start, cols.start), max(fit.stop, cols.stop))
        self._evaluator = ModelEvaluator(paths, self.grid, points=points)
        self._in_k = config.space in ("K", "K+R")
        self._in_r = config.space in ("R", "K+R")

    def evaluate_genes(self, genes: np.ndarray) -> float:
        chi, first = self._evaluator.evaluate_genes(genes)
        total = 0.0
        if self._in_k:
            m = slice(max(first, self._lo), self._hi)
            total += chi2(self._kw[m] * chi[m], self._kw_data[m], self.config)
        if self._in_r:
            # The evaluator writes an exact 0 at the points the shift invalidates.
            total += chi2(np.abs(self._to_r(chi)), self._data_r, self.config)
        return total

    def report(self, genes) -> tuple[dict, dict]:
        """(metrics_k, metrics_r) of a gene vector's model, its path rows summed
        as evaluate_model sums them: k-weighted over the fit range (unweighted
        under "unweighted"), and R-space magnitudes.  A comparison that is
        undefined (constant data) is left out."""
        terms, first = self._evaluator.evaluate_paths(genes)
        chi = terms.sum(axis=0)
        m = slice(max(first, self._lo), self._hi)
        metrics_k, metrics_r = {}, {}
        try:
            metrics_k = metrics(self._kw[m] * chi[m], self._kw_data[m])
            metrics_k["unweighted"] = metrics(chi[m], self.data.chi[m])
        except FitnessError:
            pass
        try:
            model_r = transform_k_to_r(KSpectrum(grid=self.grid, chi=chi), self.config.ft)
            metrics_r = metrics(model_r.magnitude, self._data_r)
        except FitnessError:
            pass
        return metrics_k, metrics_r
