"""Prune negligible paths by spectral area, then estimate parameter errors.

Builds a model with 3 strong shells and 7 near-zero clutter paths, shows
that a 1% area cutoff keeps only the strong shells, and finishes with a
small randomized-hyperparameter ensemble to put error bars on the fit.

Run:  python demos/03_cutoff_and_uncertainty.py
"""

import numpy as np

from exafsga import (
    Chromosome,
    FitnessConfig,
    FTConfig,
    GAConfig,
    KGrid,
    PathParams,
    PathSet,
    cutoff_select,
    default_gene_specs,
    error_analysis,
    run_ga,
    synth_generate,
    synth_path,
)

grid = KGrid(k_min=0.5, k_max=13.0, delta_k=0.05)
amps = [1.0, 0.8, 0.6] + [0.005] * 7
paths = PathSet(
    paths=tuple(
        synth_path(2.2 + 0.25 * i, 6.0, grid, amp_scale=a, label=f"path{i}")
        for i, a in enumerate(amps)
    )
)
truth = Chromosome(-0.5, tuple(PathParams(0.7, 0.004, 0.01) for _ in amps))
data = synth_generate(paths, truth, grid, snr=20.0, seed=9)
fitness = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.5)))


def specs_for(n):
    return default_gene_specs(
        n,
        e0_bounds=(-3.0, 3.0, 0.01),
        s02_bounds=(0.0, 1.0, 0.01),
        sigma2_bounds=(0.0, 0.01, 2e-4),
        delta_r_bounds=(-0.05, 0.05, 2e-3),
    )


# first-pass fit on all 10 paths, then rank by area fraction
first = run_ga(
    data, paths,
    GAConfig(population_size=150, max_generations=15, rng_seed=1, patience=15),
    fitness, specs_for(len(paths)),
)
report = cutoff_select(paths, first.best, grid, fitness, cutoff_percent=1.0)
print("area fractions (%):")
for label, frac in zip(report.labels, report.fractions):
    marker = "kept" if label in report.selected else "pruned"
    print(f"  {label:<8} {100 * frac:7.3f}  {marker}")

# refit the pruned set and estimate parameter uncertainties
pruned = report.pruned
ensemble = error_analysis(
    data, pruned,
    GAConfig(population_size=150, max_generations=20, patience=20),
    fitness,
    n_runs=8,
    ranges={"population": (100, 400), "generations": (15, 30)},
    seed=3,
    gene_specs=specs_for(len(pruned)),
)
print()
print("ensemble estimates (mean +/- std over 8 randomized runs):")
for name, m, s in zip(ensemble.parameter_names, ensemble.means, ensemble.stds):
    print(f"  {name:<12} {m:9.4f} +/- {s:.4f}")
