"""Command-line pipeline: INI configuration, batch orchestration, artifacts.

Subcommands: fit | cutoff-sweep | error-analysis | synth | benchmark, each
taking --config <file> plus optional --seed and --out overrides.  All
artifacts are CSV/text; files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import cutoff_sweep, error_analysis, synth_generate
from .fitness import FitnessConfig
from .ga import Chromosome, GAConfig, GeneSpec, default_gene_specs, run_ga
from .model import PathParams, evaluate_model
from .paths import PathSet, load_manifest, synth_path
from .spectra import (
    FTConfig,
    KGrid,
    KSpectrum,
    SpectrumError,
    atomic_write,
    read_chi_file,
    resample_onto,
    transform_k_to_r,
    write_chi_file,
)

MODES = ("fit", "cutoff-sweep", "error-analysis", "synth", "benchmark")


class ConfigError(ValueError):
    """Bad or incomplete run configuration."""


@dataclass
class RunConfig:
    mode: str
    output_dir: str
    grid: KGrid
    ga: GAConfig
    fitness: FitnessConfig
    gene_bounds: dict
    data_file: str | None = None
    path_manifest: str | None = None
    synth_paths: list | None = None
    truth: Chromosome | None = None
    snr: float | None = None
    synth_seed: int = 0
    cutoff_percents: list | None = None
    cutoff_repeats: int = 3
    error_runs: int = 20
    error_ranges: dict | None = None
    benchmark_n_paths: list | None = None
    benchmark_generations: int = 5


def _get(cp, section: str, key: str, cast=str, default=None, required=False):
    if section not in cp or key not in cp[section]:
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default
    raw = cp[section][key]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r}") from None


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


def _triple(raw: str) -> tuple[float, float, float]:
    vals = _floats(raw)
    if len(vals) != 3:
        raise ValueError("needs 'lower upper step'")
    return tuple(vals)


def _optional_int(raw: str) -> int | None:
    return int(raw) if raw else None


# (section, key, field, cast, default) of every setting that fills KGrid,
# FTConfig, FitnessConfig, GAConfig and the gene bounds.  Keys that name the
# same field fill it as a (lower, upper) pair, in table order.
SETTINGS = (
    ("grid", "k_min", "k_min", float, 0.5),
    ("grid", "k_max", "k_max", float, 12.5),
    ("grid", "delta_k", "delta_k", float, 0.05),
    ("ft", "k_min_fit", "k_range", float, 2.5),
    ("ft", "k_max_fit", "k_range", float, 12.0),
    ("ft", "r_min", "r_range", float, 0.0),
    ("ft", "r_max", "r_range", float, 6.0),
    ("ft", "k_weight", "k_weight", int, 2),
    ("ft", "window", "window", str, "hanning"),
    ("ft", "window_sill", "window_sill", float, 1.0),
    ("ft", "n_fft", "n_fft", int, 2048),
    ("fitness", "space", "space", str, "K"),
    ("fitness", "n_indep", "n_indep", _optional_int, None),
    ("fitness", "epsilon", "epsilon", float, 1.0),
    ("fitness", "k_weight", "k_weight", int, 2),
    ("ga", "population_size", "population_size", int, 200),
    ("ga", "max_generations", "max_generations", int, 100),
    ("ga", "elite_fraction", "elite_fraction", float, 0.2),
    ("ga", "random_fraction", "random_fraction", float, 0.2),
    ("ga", "crossover_method", "crossover_method", str, "uniform"),
    ("ga", "mutation_method", "mutation_method", str, "maximum"),
    ("ga", "initial_mutation_rate", "initial_mutation_rate", float, 20.0),
    ("ga", "mutation_rate_min", "mutation_rate_bounds", float, 1.0),
    ("ga", "mutation_rate_max", "mutation_rate_bounds", float, 90.0),
    ("ga", "rechenberg_factor", "rechenberg_factor", float, 0.9),
    ("ga", "patience", "patience", int, 20),
    ("ga", "rng_seed", "rng_seed", int, 0),
    ("genes", "delta_e0", "delta_e0", _triple, (-10.0, 10.0, 0.01)),
    ("genes", "s02", "s02", _triple, (0.0, 1.2, 0.005)),
    ("genes", "sigma2", "sigma2", _triple, (0.0, 0.02, 1e-4)),
    ("genes", "delta_r", "delta_r", _triple, (-0.2, 0.2, 1e-3)),
)


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if "run" not in cp:
        raise ConfigError(f"{path}: missing [run] section")

    run = cp["run"]
    mode = _get(cp, "run", "mode", required=True)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    fields = {"grid": {}, "ft": {}, "fitness": {}, "ga": {}, "genes": {}}
    for section, key, field, cast, default in SETTINGS:
        value = _get(cp, section, key, cast, default)
        kwargs = fields[section]
        kwargs[field] = (kwargs[field], value) if field in kwargs else value
    grid = KGrid(**fields["grid"])
    fitness = FitnessConfig(ft=FTConfig(**fields["ft"]), **fields["fitness"])

    cfg = RunConfig(
        mode=mode,
        output_dir=run.get("output_dir", "out"),
        grid=grid,
        ga=GAConfig(**fields["ga"]),
        fitness=fitness,
        gene_bounds=fields["genes"],
        data_file=run.get("data_file"),
        path_manifest=run.get("path_manifest"),
    )

    if "synth_paths" in cp:
        cfg.synth_paths = []
        for key, raw in cp["synth_paths"].items():
            vals = _floats(raw)
            if len(vals) not in (3, 4):
                raise ConfigError(
                    f"[synth_paths] '{key}' needs 'r_eff degeneracy amp [lambda]'"
                )
            cfg.synth_paths.append((key, *vals))

    if "synth" in cp:
        s = cp["synth"]
        n_paths = len(cfg.synth_paths or []) or None
        s02 = _floats(s.get("s02", ""))
        sigma2 = _floats(s.get("sigma2", ""))
        delta_r = _floats(s.get("delta_r", ""))
        if not (len(s02) == len(sigma2) == len(delta_r)):
            raise ConfigError("[synth] s02, sigma2, delta_r lists must match in length")
        if n_paths is not None and s02 and len(s02) != n_paths:
            raise ConfigError("[synth] parameter lists must match [synth_paths] count")
        if s02:
            cfg.truth = Chromosome(
                delta_e0=float(s.get("delta_e0", 0.0)),
                per_path=tuple(
                    PathParams(s02=a, sigma2=b, delta_r=c)
                    for a, b, c in zip(s02, sigma2, delta_r)
                ),
            )
        snr_raw = s.get("snr", "inf")
        cfg.snr = None if snr_raw in ("inf", "none") else float(snr_raw)
        cfg.synth_seed = int(s.get("seed", 0))

    if "cutoff" in cp:
        c = cp["cutoff"]
        cfg.cutoff_percents = _floats(c.get("percents", "10 5 2 1 0.67 0.5 0.3"))
        cfg.cutoff_repeats = int(c.get("repeats", 3))
    if "error" in cp:
        e = cp["error"]
        cfg.error_runs = int(e.get("n_runs", 20))
        cfg.error_ranges = {
            "population": tuple(int(x) for x in _floats(e.get("population", "100 5000"))),
            "generations": tuple(int(x) for x in _floats(e.get("generations", "10 50"))),
            "mutation_rate": tuple(_floats(e.get("mutation_rate", "0 100"))),
        }
    if "benchmark" in cp:
        b = cp["benchmark"]
        cfg.benchmark_n_paths = [int(x) for x in _floats(b.get("n_paths", "5 10 20 40 80"))]
        cfg.benchmark_generations = int(b.get("generations", 5))
    return cfg


def load_data(path: str, grid: KGrid) -> KSpectrum:
    """Read a two-column spectrum file and resample it onto the run grid."""
    k, chi = read_chi_file(path)
    src_grid = KGrid(k_min=k[0], k_max=k[-1], delta_k=(k[-1] - k[0]) / (len(k) - 1))
    dk = np.diff(k)
    if np.max(np.abs(dk - dk[0])) > 1e-6 * dk[0]:
        # Non-uniform input: interpolate directly onto the run grid.
        if grid.k_min < k[0] - 1e-9 or grid.k_max > k[-1] + 1e-9:
            raise SpectrumError(
                f"{path}: run grid extends beyond data range [{k[0]}, {k[-1]}]"
            )
        return KSpectrum(grid=grid, chi=np.interp(grid.ks, k, chi))
    return resample_onto(KSpectrum(grid=src_grid, chi=chi), grid)


def build_paths(cfg: RunConfig) -> PathSet:
    if cfg.path_manifest:
        return load_manifest(cfg.path_manifest)
    if cfg.synth_paths:
        return PathSet(
            paths=tuple(
                synth_path(
                    r_eff=vals[0],
                    degeneracy=vals[1],
                    grid=cfg.grid,
                    amp_scale=vals[2],
                    lambda_const=vals[3] if len(vals) > 3 else 10.0,
                    label=key,
                )
                for key, *vals in cfg.synth_paths
            ),
            source="synthetic",
        )
    raise ConfigError("either path_manifest or a [synth_paths] section is required")


def gene_specs(cfg: RunConfig, n_paths: int) -> list[GeneSpec]:
    """Gene layout for n_paths paths under the configured [genes] bounds."""
    b = cfg.gene_bounds
    return default_gene_specs(n_paths, b["delta_e0"], b["s02"], b["sigma2"], b["delta_r"])


def load_inputs(cfg: RunConfig) -> tuple[PathSet, KSpectrum, list[GeneSpec]]:
    """Paths, data on the run grid and gene specs of a fitting mode."""
    paths = build_paths(cfg)
    if not cfg.data_file:
        raise ConfigError(f"{cfg.mode} mode requires data_file")
    return paths, load_data(cfg.data_file, cfg.grid), gene_specs(cfg, len(paths))


def _write_lines(out: str, name: str, lines) -> str:
    """Write text lines to out/name atomically; returns the path."""
    path = os.path.join(out, name)
    atomic_write(path, "\n".join(lines) + "\n")
    return path


def _write_csv(out: str, name: str, header: str, rows) -> str:
    """CSV with every float at full precision (%.17g) and other cells as str."""
    def cell(v) -> str:
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    return _write_lines(out, name, [header, *(",".join(map(cell, row)) for row in rows)])


def _chromosome_lines(chrom: Chromosome, labels) -> list[str]:
    names = ["delta_e0"]
    for lbl in labels:
        names += [f"s02[{lbl}]", f"sigma2[{lbl}]", f"delta_r[{lbl}]"]
    return [f"{name} = {g:.6g}" for name, g in zip(names, chrom.to_genes())]


def _write_fit_artifacts(out: str, cfg: RunConfig, data, paths, result) -> list[str]:
    model = evaluate_model(paths, result.best, cfg.grid)
    r_model = transform_k_to_r(model, cfg.fitness.ft)
    r_data = transform_k_to_r(data, cfg.fitness.ft)
    traces = result.history[
        ["generation", "best_fitness", "sigma", "success_ratio", "d_crossover", "d_mutation"]
    ]
    summary = [
        f"exafsga {__version__} fit summary",
        f"exit_reason = {result.exit_reason}",
        f"generations = {result.n_generations}",
        f"best_fitness = {result.best_fitness:.17g}",
        "",
        "best parameters:",
        *_chromosome_lines(result.best, paths.labels()),
        "",
        "metrics (k-weighted K-space): "
        + json.dumps({k: v for k, v in result.metrics_k.items() if k != "unweighted"}),
        "metrics (unweighted K-space): "
        + json.dumps(result.metrics_k.get("unweighted", {})),
        "metrics (R-space magnitude): " + json.dumps(result.metrics_r),
    ]
    return [
        _write_csv(out, "model_k.csv", "k,chi_data,chi_model",
                   zip(cfg.grid.ks, data.chi, model.chi)),
        _write_csv(out, "model_r.csv", "r,re_model,im_model,mag_model,mag_data",
                   ((r, c.real, c.imag, abs(c), mag)
                    for r, c, mag in zip(r_model.r, r_model.chi_r, r_data.magnitude))),
        _write_csv(out, "traces.csv", ",".join(traces.dtype.names), traces.tolist()),
        _write_lines(out, "summary.txt", summary),
    ]


def _run_fit(cfg: RunConfig, out: str) -> list[str]:
    paths, data, specs = load_inputs(cfg)
    result = run_ga(data, paths, cfg.ga, cfg.fitness, specs)
    return _write_fit_artifacts(out, cfg, data, paths, result)


def _run_synth(cfg: RunConfig, out: str) -> list[str]:
    paths = build_paths(cfg)
    if cfg.truth is None:
        raise ConfigError("synth mode requires a [synth] section with truth parameters")
    spec = synth_generate(paths, cfg.truth, cfg.grid, cfg.snr, seed=cfg.synth_seed)
    p = os.path.join(out, "synthetic_chi.dat")
    header = f"synthetic spectrum (snr={cfg.snr}, seed={cfg.synth_seed})"
    write_chi_file(p, cfg.grid.ks, spec.chi, header=header)
    return [p]


def _run_cutoff_sweep(cfg: RunConfig, out: str) -> list[str]:
    paths, data, specs = load_inputs(cfg)
    rows = cutoff_sweep(
        data,
        paths,
        cfg.ga,
        cfg.fitness,
        cfg.cutoff_percents or [10, 5, 2, 1, 0.67, 0.5, 0.3],
        gene_specs=specs,
        n_repeat=cfg.cutoff_repeats,
        gene_spec_builder=lambda n: gene_specs(cfg, n),
    )
    return [_write_csv(out, "cutoff_sweep.csv", "percent,mean_chi2,n_paths_kept",
                       ((r["percent"], r["mean_chi2"], r["n_paths_kept"]) for r in rows))]


def _run_error_analysis(cfg: RunConfig, out: str) -> list[str]:
    paths, data, specs = load_inputs(cfg)
    report = error_analysis(
        data,
        paths,
        cfg.ga,
        cfg.fitness,
        n_runs=cfg.error_runs,
        ranges=cfg.error_ranges,
        seed=cfg.ga.rng_seed,
        gene_specs=specs,
    )
    names = report.parameter_names
    return [
        _write_csv(out, "error_report.csv", "parameter,mean,std",
                   zip(names, report.means, report.stds)),
        _write_csv(out, "covariance.csv", "," + ",".join(names),
                   ((n, *row) for n, row in zip(names, report.covariance))),
        _write_csv(out, "run_manifest.csv",
                   "run,population,generations,mutation_rate,seed,best_fitness",
                   ((e["run"], e["population"], e["generations"], e["mutation_rate"],
                     e["seed"], str(e.get("best_fitness", "failed"))) for e in report.manifest)),
    ]


def benchmark_scaling(
    cfg: RunConfig, n_paths_list, generations: int = 5
) -> list[tuple[int, float]]:
    """Seconds per generation as a function of path count, fixed population."""
    rows = []
    for n in n_paths_list:
        paths = PathSet(
            paths=tuple(
                synth_path(
                    r_eff=2.0 + 0.1 * i,
                    degeneracy=6.0,
                    grid=cfg.grid,
                    amp_scale=1.0,
                    label=f"bench_{i}",
                )
                for i in range(n)
            ),
            source="benchmark",
        )
        truth = Chromosome(
            delta_e0=0.0,
            per_path=tuple(PathParams(0.8, 0.003, 0.0) for _ in range(n)),
        )
        data = synth_generate(paths, truth, cfg.grid, snr=None)
        ga_cfg = replace(
            cfg.ga, max_generations=generations + 1, patience=generations + 1
        )
        t0 = time.perf_counter()
        result = run_ga(data, paths, ga_cfg, cfg.fitness, gene_specs(cfg, n))
        elapsed = time.perf_counter() - t0
        rows.append((n, elapsed / result.n_generations))
    return rows


def _run_benchmark(cfg: RunConfig, out: str) -> list[str]:
    rows = benchmark_scaling(
        cfg, cfg.benchmark_n_paths or [5, 10, 20, 40], cfg.benchmark_generations
    )
    return [_write_csv(out, "benchmark.csv", "n_paths,seconds_per_generation", rows)]


def run(cfg: RunConfig) -> list[str]:
    """Execute the configured mode; returns the artifact file list."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    dispatch = {
        "fit": _run_fit,
        "synth": _run_synth,
        "cutoff-sweep": _run_cutoff_sweep,
        "error-analysis": _run_error_analysis,
        "benchmark": _run_benchmark,
    }
    files = dispatch[cfg.mode](cfg, out)
    manifest = {
        "mode": cfg.mode,
        "version": __version__,
        "seed": cfg.ga.rng_seed,
        "artifacts": [os.path.basename(f) for f in files],
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True)
    return files + [_write_lines(out, "manifest.json", [manifest_text])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exafsga",
        description="Genetic-algorithm EXAFS spectrum fitting",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg.mode = args.mode
    if args.seed is not None:
        cfg.ga = replace(cfg.ga, rng_seed=args.seed)
        cfg.synth_seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out

    try:
        files = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
