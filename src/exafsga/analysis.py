"""Fit post-processing: path-significance cutoff, ensemble error estimation,
operator attribution, and synthetic-data generation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fitness import FitnessConfig
from .ga import (
    Chromosome, FitResult, GAConfig, GAError, check_gene_specs, default_gene_specs, run_ga,
)
from .model import ModelError, ModelEvaluator, evaluate_model
from .paths import PathSet
from .spectra import KGrid, KSpectrum, check_k_range


class AnalysisError(ValueError):
    """Invalid analysis request or degenerate inputs."""


@dataclass(frozen=True)
class CutoffReport:
    """Per-path spectral-area fractions and the paths surviving the cutoff.

    best_before is the chromosome the fractions come from.  cutoff_sweep fills
    in its fitness chi2_before, and best_after and chi2_after, the refit's best
    on the pruned set.
    """

    labels: tuple[str, ...]
    fractions: np.ndarray
    cutoff_percent: float
    selected: tuple[str, ...]
    pruned: PathSet
    chi2_before: float | None = None
    chi2_after: float | None = None
    best_before: Chromosome | None = None
    best_after: Chromosome | None = None


@dataclass(frozen=True)
class ErrorReport:
    """Dispersion of best-fit parameters over randomized-hyperparameter runs."""

    parameter_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    covariance: np.ndarray
    manifest: tuple[dict, ...]
    best_chromosomes: tuple[Chromosome, ...]
    fitness_traces: tuple[np.ndarray, ...]
    n_failed: int = 0


def synth_generate(
    paths: PathSet,
    true_chromosome: Chromosome,
    grid: KGrid,
    snr: float | None,
    seed: int = 0,
) -> KSpectrum:
    """Forward-model spectrum with Gaussian noise added in k^2-weighted space.

    The noise standard deviation is RMS(k^2 chi)/snr; snr=None (or inf)
    returns the noiseless model spectrum.
    """
    clean = evaluate_model(paths, true_chromosome, grid)
    if snr is None or not np.isfinite(snr):
        return clean
    if snr <= 0:
        raise AnalysisError("snr must be positive")
    k = grid.ks
    w = k**2
    weighted = w * clean.chi
    sigma = float(np.sqrt(np.mean(weighted**2))) / snr
    rng = np.random.default_rng(seed)
    noise_w = rng.normal(0.0, sigma, grid.n_points)
    noise = np.divide(noise_w, w, out=np.zeros_like(noise_w), where=w > 0)
    return KSpectrum(grid=grid, chi=clean.chi + noise)


def cutoff_select(
    paths: PathSet,
    chromosome: Chromosome,
    grid: KGrid,
    fitness_config: FitnessConfig,
    cutoff_percent: float,
) -> CutoffReport:
    """Score each path by its k-weighted absolute spectral area fraction.

    area_i = integral of |k^w chi_i(k)| (trapezoidal) over the points and
    weight the fit reads: check_k_range(fitness_config.ft, grid) and
    w = fitness_config.k_weight.  Paths whose fraction of the total area
    reaches cutoff_percent/100 are kept in the pruned set.
    """
    if cutoff_percent < 0:
        raise AnalysisError("cutoff_percent must be non-negative")
    fit = check_k_range(fitness_config.ft, grid)
    if fit.stop - fit.start < 2:
        raise AnalysisError("fit range selects fewer than two grid points")
    k = grid.ks[fit]
    terms, _ = ModelEvaluator(paths, grid).evaluate_paths(chromosome.to_genes())
    areas = np.trapezoid(np.abs(k**fitness_config.k_weight * terms[:, fit]), k, axis=1)
    total = areas.sum()
    if total <= 0:
        raise AnalysisError("all path contributions are zero; nothing to prune")
    fractions = areas / total
    selected = tuple(
        p.label for p, f in zip(paths, fractions) if f >= cutoff_percent / 100.0
    )
    if not selected:
        raise AnalysisError(f"cutoff {cutoff_percent}% removes every path")
    return CutoffReport(
        labels=tuple(paths.labels()),
        fractions=fractions,
        cutoff_percent=cutoff_percent,
        selected=selected,
        pruned=paths.subset(selected),
        best_before=chromosome,
    )


def _derived_seed(base: int, *branch: int) -> int:
    return int(np.random.SeedSequence([int(base), *map(int, branch)]).generate_state(1)[0])


def check_cutoff_design(percents, n_repeat: int) -> list:
    """cutoff_sweep's rules, checked before its first fit: one or more percents,
    each from 0 to 100 (above 100 % a cutoff removes every path), and n_repeat
    at least 1; a breach is an AnalysisError.  Returns the percents as a list."""
    percents = list(percents)
    if not percents:
        raise AnalysisError("percents must be non-empty")
    if not all(0 <= p <= 100 for p in percents):
        raise AnalysisError(f"percents must be non-negative and at most 100, got {percents}")
    if n_repeat < 1:
        raise AnalysisError(f"n_repeat must be at least 1, got {n_repeat}")
    return percents


def cutoff_sweep(
    data: KSpectrum,
    paths: PathSet,
    ga_config: GAConfig,
    fitness_config: FitnessConfig,
    percents,
    gene_specs=None,
    n_repeat: int = 3,
    gene_spec_builder=None,
):
    """Fit, prune at each cutoff, refit on the pruned set; report mean chi^2.

    Returns a list of dicts with keys percent, mean_chi2, n_paths_kept (the
    size of the first repeat's pruned set; repeats can keep different sets)
    and reports, the per-repeat CutoffReports with both fits' best chromosomes.
    gene_spec_builder(n_paths) customizes the gene specs of the second-round
    fits (defaults to default_gene_specs).
    """
    percents = check_cutoff_design(percents, n_repeat)
    if gene_spec_builder is None:
        gene_spec_builder = default_gene_specs
    if gene_specs is None:
        gene_specs = gene_spec_builder(len(paths))
    rows = []
    for p_idx, percent in enumerate(percents):
        reports = []
        for rep in range(n_repeat):
            seed1 = _derived_seed(ga_config.rng_seed, p_idx, rep, 0)
            seed2 = _derived_seed(ga_config.rng_seed, p_idx, rep, 1)
            first = run_ga(
                data, paths, replace(ga_config, rng_seed=seed1), fitness_config, gene_specs
            )
            report = cutoff_select(paths, first.best, data.grid, fitness_config, percent)
            second = run_ga(
                data,
                report.pruned,
                replace(ga_config, rng_seed=seed2),
                fitness_config,
                gene_spec_builder(len(report.pruned)),
            )
            reports.append(replace(report, chi2_before=first.best_fitness,
                                   chi2_after=second.best_fitness, best_after=second.best))
        rows.append(
            {
                "percent": percent,
                "mean_chi2": float(np.mean([r.chi2_after for r in reports])),
                "n_paths_kept": len(reports[0].pruned),
                "reports": reports,
            }
        )
    return rows


DEFAULT_HYPER_RANGES = {
    "population": (100, 5000),
    "generations": (10, 50),
    "mutation_rate": (0.0, 100.0),
}
# The least population and generation count a GAConfig accepts.
MIN_HYPER = {"population": 2, "generations": 1}


def check_error_design(n_runs: int, ranges: dict | None) -> dict:
    """error_analysis's rules, checked before its first member: n_runs at
    least 2, and ranges keyed by DEFAULT_HYPER_RANGES' keys, each (low, high)
    with low <= high and low at least its MIN_HYPER value, if it has one; a
    breach is an AnalysisError.  Returns DEFAULT_HYPER_RANGES updated by ranges."""
    if n_runs < 2:
        raise AnalysisError("n_runs must be at least 2")
    unknown = sorted(set(ranges or ()) - set(DEFAULT_HYPER_RANGES))
    if unknown:
        raise AnalysisError(f"unknown ranges keys {unknown}; the keys are "
                            f"{', '.join(DEFAULT_HYPER_RANGES)}")
    ranges = {**DEFAULT_HYPER_RANGES, **(ranges or {})}
    for name in DEFAULT_HYPER_RANGES:
        low, high = ranges[name]
        if high < low:
            raise AnalysisError(f"{name} range {ranges[name]} is reversed")
        if low < MIN_HYPER.get(name, low):
            raise AnalysisError(f"{name} range {ranges[name]} starts below {MIN_HYPER[name]}")
    return ranges


def error_analysis(
    data: KSpectrum,
    paths: PathSet,
    ga_config: GAConfig,
    fitness_config: FitnessConfig,
    n_runs: int = 20,
    ranges: dict | None = None,
    seed: int = 0,
    gene_specs=None,
) -> ErrorReport:
    """Repeat the fit under randomized GA hyperparameters and aggregate.

    Each run samples (population size, generation count, mutation rate)
    uniformly from the ranges check_error_design(n_runs, ranges) returns and
    gets its own seed, derived from `seed` alone;
    ga_config.rng_seed is never read, as each run's seed replaces it.  The
    rate is clamped to ga_config.mutation_rate_bounds, and the manifest
    records the clamped rate the run used.  Gene specs that check_gene_specs
    rejects raise its GAError before the first run; a run that fails with a
    model or GA error is recorded in the manifest and counted in n_failed;
    any other exception, such as a bad fit range's FitnessError, propagates.
    """
    ranges = check_error_design(n_runs, ranges)
    if gene_specs is None:
        gene_specs = default_gene_specs(len(paths))
    check_gene_specs(gene_specs, len(paths))
    names = tuple(s.name for s in gene_specs)

    lo, hi = ga_config.mutation_rate_bounds
    sampler = np.random.default_rng(seed)
    manifest, chroms, traces = [], [], []
    n_failed = 0
    for run_idx in range(n_runs):
        pop = int(sampler.integers(ranges["population"][0], ranges["population"][1] + 1))
        gens = int(sampler.integers(ranges["generations"][0], ranges["generations"][1] + 1))
        rate = min(max(float(sampler.uniform(*ranges["mutation_rate"])), lo), hi)
        run_seed = _derived_seed(seed, run_idx)
        cfg = replace(
            ga_config,
            population_size=pop,
            max_generations=gens,
            initial_mutation_rate=rate,
            rng_seed=run_seed,
        )
        entry = {
            "run": run_idx,
            "population": pop,
            "generations": gens,
            "mutation_rate": rate,
            "seed": run_seed,
        }
        try:
            result = run_ga(data, paths, cfg, fitness_config, gene_specs)
        except (ModelError, GAError) as exc:
            n_failed += 1
            entry["error"] = str(exc)
            manifest.append(entry)
            continue
        entry["best_fitness"] = result.best_fitness
        manifest.append(entry)
        chroms.append(result.best)
        traces.append(result.history["best_fitness"])
    if len(chroms) < 2:
        raise AnalysisError(f"only {len(chroms)} successful runs; need at least 2")

    samples = np.array([c.to_genes() for c in chroms])
    cov = np.cov(samples, rowvar=False, ddof=1)
    return ErrorReport(
        parameter_names=names,
        means=samples.mean(axis=0),
        stds=samples.std(axis=0, ddof=1),
        covariance=np.atleast_2d(cov),
        manifest=tuple(manifest),
        best_chromosomes=tuple(chroms),
        fitness_traces=tuple(traces),
        n_failed=n_failed,
    )


def attribute_operators(result: FitResult) -> np.ndarray:
    """Operator-stage fitness deltas per generation: a view of result.history."""
    return result.history[
        ["generation", "d_crossover", "d_mutation", "d_crossover_mean", "d_mutation_mean"]
    ]
