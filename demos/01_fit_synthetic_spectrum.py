"""Fit a noisy synthetic spectrum and inspect the recovered parameters.

Generates two synthetic scattering shells with known parameters, adds
SNR-20 Gaussian noise, and runs the genetic search. Prints the truth next
to the best-fit chromosome plus the usual quality metrics.

Run:  python demos/01_fit_synthetic_spectrum.py
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
    default_gene_specs,
    run_ga,
    synth_generate,
    synth_path,
)

grid = KGrid(k_min=0.5, k_max=13.0, delta_k=0.05)
paths = PathSet(
    paths=(
        synth_path(r_eff=2.3, degeneracy=6.0, grid=grid, label="first-shell"),
        synth_path(r_eff=3.1, degeneracy=12.0, grid=grid, label="second-shell"),
    )
)

truth = Chromosome(
    delta_e0=-0.8,
    per_path=(
        PathParams(s02=0.70, sigma2=0.004, delta_r=0.03),
        PathParams(s02=0.55, sigma2=0.006, delta_r=-0.02),
    ),
)
data = synth_generate(paths, truth, grid, snr=20.0, seed=42)

fitness = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.5)), space="K")
specs = default_gene_specs(
    len(paths),
    e0_bounds=(-3.0, 3.0, 0.01),
    s02_bounds=(0.0, 1.0, 0.005),
    sigma2_bounds=(0.0, 0.02, 1e-4),
    delta_r_bounds=(-0.1, 0.1, 1e-3),
)
config = GAConfig(population_size=300, max_generations=60, rng_seed=7, patience=60)

result = run_ga(data, paths, config, fitness, specs)

print(f"exit: {result.exit_reason} after {result.n_generations} generations")
print(f"best chi^2 = {result.best_fitness:.4f}")
print(f"k-space metrics: {result.metrics_k}")
print()
print(f"{'parameter':<14} {'truth':>10} {'fitted':>10}")
print(f"{'delta_e0':<14} {truth.delta_e0:>10.3f} {result.best.delta_e0:>10.3f}")
for i, (t, f) in enumerate(zip(truth.per_path, result.best.per_path)):
    for name in ("s02", "sigma2", "delta_r"):
        print(
            f"{name + f'[{i}]':<14} {getattr(t, name):>10.4f} "
            f"{getattr(f, name):>10.4f}"
        )

trace = result.history["best_fitness"]
print()
print(f"fitness trace: {trace[0]:.2f} -> {trace[-1]:.4f} over {len(trace)} generations")
