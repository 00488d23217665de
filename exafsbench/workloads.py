"""The three workloads: their inputs, the timed operation, and its checks.

Inputs are made by the benchmark from the workload seed with the reference
EXAFS equation, written as a chi file, FEFF-format path files and a
manifest, and read back through exafsga's public loaders.  The program sees
only those files (and, for the library workloads, the objects its loaders
return).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace

import numpy as np

import checks
import reference as ref

K_MIN, K_MAX, DK = 0.5, 13.0, 0.05
FIT_RANGE = (2.5, 12.5)
TF = ref.Transform(k_range=FIT_RANGE, r_range=(0.0, 6.0), k_weight=2, sill=1.0, n_fft=2048)
K_WEIGHT = 2
SNR = 20.0
# Theory arrays run 2 A^-1 past the data so that |dE0| <= 5 eV stays in range.
K_THEORY_PAD = 2.0

# The acceptance synthetic-recovery shells: (r_eff, degeneracy), and the true
# [dE0, (S0^2, sigma^2, dR) per shell].
FIVE_SHELLS = [(2.55, 12.0), (3.1, 6.0), (3.9, 48.0), (4.4, 48.0), (5.0, 24.0)]
FIVE_SHELL_TRUTH = [-0.91,
                    0.62, 0.004, 0.05,
                    0.66, 0.001, 0.01,
                    0.74, 0.014, 0.08,
                    0.45, 0.009, 0.00,
                    0.14, 0.005, 0.05]
FIVE_SHELL_BOUNDS = {
    "delta_e0": (-5.0, 5.0, 0.01),
    "s02": (0.0, 1.0, 0.005),
    "sigma2": (0.0, 0.02, 1e-4),
    "delta_r": (-0.1, 0.1, 1e-3),
}

# The acceptance cutoff fixture: 5 significant and 15 negligible paths.
SWEEP_AMPS = [1.0, 0.9, 0.8, 0.25, 0.2] + [0.005] * 15
SWEEP_TRUTH_PATH = (0.7, 0.004, 0.01)
SWEEP_TRUTH_E0 = -0.5
SWEEP_BOUNDS = {
    "delta_e0": (-3.0, 3.0, 0.01),
    "s02": (0.0, 1.0, 0.01),
    "sigma2": (0.0, 0.01, 2e-4),
    "delta_r": (-0.05, 0.05, 2e-3),
}

# fit-k-5shell: one `exafsga fit`, population 500, patience = generations so
# every fit runs all of them.
FIT_POPULATION = 500
FIT_GENERATIONS = 30
# The k-weighted r^2 every fit must exceed; over seeds 1-20 fits reached
# 0.974-0.993 (best chi^2 at 0.7-2.6% of the zero-model chi^2).
FIT_R2_FLOOR = 0.95

# errors-kr-5shell: a small ensemble.  error_analysis draws each member's
# hyperparameters and seed from its own seed argument; that draw is fixed
# here, so every workload seed times the same ensemble design on a different
# spectrum (whose noise comes from the workload seed).  Drawn from the
# workload seed, the members' total work varies by +-6% between seeds.
ERR_RUNS = 6
ERR_ENSEMBLE_SEED = 2022
ERR_RANGES = {"population": (60, 70), "generations": (14, 16), "mutation_rate": (15.0, 25.0)}

# sweep-k-20path: fit -> prune -> refit chains, as in the acceptance check.
SWEEP_POPULATION = 100
SWEEP_GENERATIONS = 12
SWEEP_PERCENTS = [1.0, 10.0]
SWEEP_REPEATS = 2

FIT_ARTIFACTS = ("model_k.csv", "model_r.csv", "traces.csv", "summary.txt")


def grid_k() -> np.ndarray:
    n = int(round((K_MAX - K_MIN) / DK)) + 1
    return K_MIN + DK * np.arange(n)


def analytic_path(label: str, r_eff: float, degeneracy: float, amp: float = 1.0) -> ref.Path:
    """F = amp k exp(-k^2/100), phi = -0.3 k, delta_c = 0, lambda = 10 A."""
    k = DK * np.arange(int(round((K_MAX + K_THEORY_PAD) / DK)) + 1)
    return ref.Path(
        label=label, degeneracy=degeneracy, r_eff=r_eff, k=k,
        f_eff=amp * k * np.exp(-(k**2) / 100.0), phase_scatter=-0.3 * k,
        phase_central=np.zeros_like(k), lam=np.full_like(k, 10.0),
    )


@dataclass
class Problem:
    paths: list
    bounds: dict
    k: np.ndarray
    chi: np.ndarray
    ga_seed: int

    def spec_arrays(self, n_paths: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, step) per gene of [dE0, (S0^2, sigma^2, dR) * n_paths]."""
        rows = [self.bounds["delta_e0"]] + [
            self.bounds[name] for _ in range(n_paths) for name in ("s02", "sigma2", "delta_r")
        ]
        return tuple(np.array(col) for col in zip(*rows))


def make_problem(paths, truth, bounds, seed: int) -> Problem:
    """Reference spectrum at the truth plus Gaussian noise at SNR 20 in k^2 chi."""
    k = grid_k()
    clean, _ = ref.model_chi(paths, truth, k)
    rng = np.random.default_rng(seed)
    sigma = float(np.sqrt(np.mean((k**2 * clean) ** 2))) / SNR
    chi = clean + rng.normal(0.0, sigma, k.size) / k**2
    return Problem(list(paths), bounds, k, chi, ga_seed=int(rng.integers(2**31)))


def five_shell_problem(seed: int) -> Problem:
    paths = [analytic_path(f"shell{i}.dat", r, deg) for i, (r, deg) in enumerate(FIVE_SHELLS)]
    return make_problem(paths, FIVE_SHELL_TRUTH, FIVE_SHELL_BOUNDS, seed)


def twenty_path_problem(seed: int) -> Problem:
    paths = [analytic_path(f"p{i}.dat", 2.0 + 0.1 * i, 6.0, a) for i, a in enumerate(SWEEP_AMPS)]
    truth = [SWEEP_TRUTH_E0] + list(SWEEP_TRUTH_PATH) * len(paths)
    return make_problem(paths, truth, SWEEP_BOUNDS, seed)


def _triple(t) -> str:
    return " ".join(repr(float(v)) for v in t)


def write_inputs(problem: Problem, d: str) -> dict:
    """chi.dat, one FEFF-format file per path, paths.manifest and fit.ini."""
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "chi.dat"), "w") as fh:
        fh.write("# k chi\n")
        fh.writelines(f"{k!r} {c!r}\n" for k, c in zip(problem.k.tolist(), problem.chi.tolist()))
    for p in problem.paths:
        lines = [f" {p.label} analytic path", " " + "-" * 70,
                 f"   2 {p.degeneracy!r} {p.r_eff!r}    nleg, deg, reff",
                 "       k   real[2*phc]   mag[feff]  phase[feff] red factor   lambda     real[p]"]
        cols = zip(p.k.tolist(), p.phase_central.tolist(), p.f_eff.tolist(),
                   p.phase_scatter.tolist(), p.lam.tolist())
        lines += [f" {k!r} {pc!r} {f!r} {ps!r} 1.0 {lam!r} {k!r}" for k, pc, f, ps, lam in cols]
        with open(os.path.join(d, p.label), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    with open(os.path.join(d, "paths.manifest"), "w") as fh:
        fh.write("".join(f"{p.label}\n" for p in problem.paths))
    b = problem.bounds
    ini = f"""[run]
mode = fit
output_dir = {os.path.join(d, "out")}
data_file = {os.path.join(d, "chi.dat")}
path_manifest = {os.path.join(d, "paths.manifest")}

[grid]
k_min = {K_MIN!r}
k_max = {K_MAX!r}
delta_k = {DK!r}

[ft]
k_min_fit = {FIT_RANGE[0]!r}
k_max_fit = {FIT_RANGE[1]!r}
r_min = {TF.r_range[0]!r}
r_max = {TF.r_range[1]!r}
k_weight = {TF.k_weight}
window_sill = {TF.sill!r}
n_fft = {TF.n_fft}

[fitness]
space = K
k_weight = {K_WEIGHT}

[ga]
population_size = {FIT_POPULATION}
max_generations = {FIT_GENERATIONS}
patience = {FIT_GENERATIONS}
rng_seed = {problem.ga_seed}

[genes]
delta_e0 = {_triple(b["delta_e0"])}
s02 = {_triple(b["s02"])}
sigma2 = {_triple(b["sigma2"])}
delta_r = {_triple(b["delta_r"])}
"""
    with open(os.path.join(d, "fit.ini"), "w") as fh:
        fh.write(ini)
    return {name: os.path.join(d, name) for name in ("chi.dat", "paths.manifest", "fit.ini", "out")}


def load_inputs(exafsga, problem: Problem, files: dict):
    """Read the inputs back through the program's public loaders and confirm
    they hold what was written."""
    from exafsga import cli

    cfg = cli.parse_config(files["fit.ini"])
    paths = exafsga.load_manifest(files["paths.manifest"])
    data = cli.load_data(files["chi.dat"], cfg.grid)
    for mine, theirs in zip(problem.paths, paths):
        if not (np.array_equal(mine.k, theirs.k_theory) and np.array_equal(mine.f_eff, theirs.f_eff)
                and mine.r_eff == theirs.r_eff and mine.degeneracy == theirs.degeneracy):
            raise RuntimeError(f"path file {mine.label} did not load back as written")
    if len(paths) != len(problem.paths) or not np.allclose(data.chi, problem.chi, rtol=0, atol=1e-15):
        raise RuntimeError("inputs did not load back as written")
    return paths, data


def gene_specs(exafsga, bounds: dict, n_paths: int):
    return exafsga.default_gene_specs(
        n_paths, e0_bounds=bounds["delta_e0"], s02_bounds=bounds["s02"],
        sigma2_bounds=bounds["sigma2"], delta_r_bounds=bounds["delta_r"],
    )


class Workload:
    """make(seed) -> Problem; setup(dir) writes and loads the inputs; op()
    runs the timed operation; check(out) compares one output against the
    reference and returns failure messages; same(a, b) tells whether two
    outputs are equal."""

    name = ""

    def __init__(self, exafsga, seed: int):
        self.exafsga = exafsga
        self.seed = seed

    def setup(self, d: str) -> None:
        self.problem = self.make(self.seed)
        self.files = write_inputs(self.problem, d)
        self.paths, self.data = load_inputs(self.exafsga, self.problem, self.files)


class FitK5Shell(Workload):
    name = "fit-k-5shell"
    make = staticmethod(five_shell_problem)

    def op(self):
        from exafsga import cli

        out = self.files["out"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["fit", "--config", self.files["fit.ini"], "--out", out])
        if code != 0:
            raise RuntimeError(f"exafsga fit exited {code}: {err.getvalue().strip()}")
        arts = {}
        for name in FIT_ARTIFACTS:
            with open(os.path.join(out, name), "rb") as fh:
                arts[name] = fh.read()
        return arts

    def check(self, arts) -> list[str]:
        return checks.check_fit(arts, self.problem, TF, K_WEIGHT, FIT_R2_FLOOR)

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class ErrorsKR5Shell(Workload):
    name = "errors-kr-5shell"
    make = staticmethod(five_shell_problem)

    def setup(self, d: str) -> None:
        super().setup(d)
        ex = self.exafsga
        # Population, generations and seed are drawn per member; patience
        # above every generation count makes each member run all of them.
        self.ga_config = ex.GAConfig(
            crossover_method="or", mutation_method="metropolis",
            patience=ERR_RANGES["generations"][1],
        )
        self.fitness = ex.FitnessConfig(
            ft=ex.FTConfig(k_range=TF.k_range, r_range=TF.r_range, k_weight=TF.k_weight,
                           window_sill=TF.sill, n_fft=TF.n_fft),
            space="K+R", k_weight=K_WEIGHT,
        )
        self.specs = gene_specs(ex, self.problem.bounds, len(self.paths))

    def op(self):
        from exafsga import analysis

        report = analysis.error_analysis(
            self.data, self.paths, self.ga_config, self.fitness, n_runs=ERR_RUNS,
            ranges=ERR_RANGES, seed=ERR_ENSEMBLE_SEED, gene_specs=self.specs,
        )
        if report.n_failed:
            raise RuntimeError(f"{report.n_failed} ensemble members failed")
        return report

    def check(self, report) -> list[str]:
        return checks.check_errors(report, self.problem, TF, K_WEIGHT, ERR_RANGES, ERR_RUNS)

    @staticmethod
    def same(a, b) -> bool:
        return (
            a.manifest == b.manifest
            and all(np.array_equal(x, y) for x, y in
                    [(a.means, b.means), (a.stds, b.stds), (a.covariance, b.covariance)])
            and all(np.array_equal(x, y) for x, y in zip(a.fitness_traces, b.fitness_traces))
        )


class SweepK20Path(Workload):
    name = "sweep-k-20path"
    make = staticmethod(twenty_path_problem)

    def setup(self, d: str) -> None:
        super().setup(d)
        ex = self.exafsga
        self.ga_config = ex.GAConfig(
            population_size=SWEEP_POPULATION, max_generations=SWEEP_GENERATIONS,
            mutation_method="nested", patience=SWEEP_GENERATIONS, rng_seed=self.problem.ga_seed,
        )
        self.fitness = ex.FitnessConfig(
            ft=ex.FTConfig(k_range=TF.k_range, r_range=TF.r_range, k_weight=TF.k_weight,
                           window_sill=TF.sill, n_fft=TF.n_fft),
            space="K", k_weight=K_WEIGHT,
        )

    def specs_for(self, n: int):
        return gene_specs(self.exafsga, self.problem.bounds, n)

    def op(self):
        from exafsga import analysis

        return analysis.cutoff_sweep(
            self.data, self.paths, self.ga_config, self.fitness, SWEEP_PERCENTS,
            gene_specs=self.specs_for(len(self.paths)), n_repeat=SWEEP_REPEATS,
            gene_spec_builder=self.specs_for,
        )

    def chains(self, rows) -> list[checks.Chain]:
        """Re-run each chain's two fits alone to recover their best genes.

        cutoff_sweep keeps only their chi^2; the fits are deterministic in
        their seeds, which it derives from (seed, percent index, repeat, 0 or
        1) with analysis._derived_seed.  The check confirms the re-run
        reproduces both chi^2 values exactly before it uses the genes.
        """
        from exafsga import analysis, ga

        out = []
        for p_idx, row in enumerate(rows):
            for rep, report in enumerate(row["reports"]):
                fits = []
                for stage, paths in ((0, self.paths), (1, report.pruned)):
                    seed = analysis._derived_seed(self.ga_config.rng_seed, p_idx, rep, stage)
                    fits.append(ga.run_ga(self.data, paths, replace(self.ga_config, rng_seed=seed),
                                          self.fitness, self.specs_for(len(paths))))
                out.append(checks.Chain(
                    first_genes=fits[0].best.to_genes(), first_chi2=fits[0].best_fitness,
                    refit_genes=fits[1].best.to_genes(), refit_chi2=fits[1].best_fitness,
                ))
        return out

    def check(self, rows) -> list[str]:
        return checks.check_sweep(rows, self.problem, TF, K_WEIGHT, SWEEP_PERCENTS,
                                  SWEEP_REPEATS, self.chains(rows))

    @staticmethod
    def same(a, b) -> bool:
        def flat(rows):
            return [(r["percent"], r["mean_chi2"], r["n_paths_kept"],
                     [(x.selected, x.fractions.tolist(), x.chi2_before, x.chi2_after)
                      for x in r["reports"]]) for r in rows]
        return flat(a) == flat(b)


WORKLOADS = {w.name: w for w in (FitK5Shell, ErrorsKR5Shell, SweepK20Path)}
