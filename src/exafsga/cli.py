"""Command-line pipeline: INI configuration, batch orchestration, artifacts.

Subcommands: fit | cutoff-sweep | error-analysis | synth | benchmark, each
taking --config <file> plus optional --seed and --out overrides.  A mode
returns its CSV/text artifacts as lines; run writes them, and the manifest,
only once the mode has returned, each atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

from . import __version__
from .analysis import (
    DEFAULT_HYPER_RANGES, check_cutoff_design, check_error_design, cutoff_sweep,
    error_analysis, synth_generate,
)
from .fitness import FitnessConfig
from .ga import (
    GENE_BOUNDS, Chromosome, GAConfig, GeneSpec, check_gene_specs, default_gene_specs, run_ga,
)
from .model import NON_NEGATIVE, PATH_GENES, PathParams, evaluate_model
from .paths import PathParseError, PathSet, load_manifest, synth_path
from .spectra import (
    FTConfig, KGrid, KSpectrum, SpectrumError, atomic_write, check_k_range, check_r_range,
    chi_file_lines, load_data, transform_k_to_r,
)

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
    cutoff_percents: tuple[float, ...] = (10.0, 5.0, 2.0, 1.0, 0.67, 0.5, 0.3)
    cutoff_repeats: int = 3
    error_runs: int = 20
    error_ranges: dict | None = None  # None: analysis.DEFAULT_HYPER_RANGES
    benchmark_n_paths: tuple[int, ...] = (5, 10, 20, 40, 80)
    benchmark_generations: int = 5


def _get(cp, section: str, key: str, cast=str, default=None):
    if section not in cp or key not in cp[section]:
        return default
    raw = cp[section][key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r}: {exc}") from exc


def _number(cast=float, minimum=None):
    """Cast of one finite number, at least minimum when it is given."""
    def parse(raw: str):
        value = cast(raw)
        if not -math.inf < value < math.inf:
            raise ValueError("not a finite number")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}")
        return value

    return parse


def _list(cast=float, lengths=None, minimum=None):
    """Cast of a whitespace- or comma-separated list of finite numbers, each
    at least minimum where given: as many as one of lengths (one or more when
    None)."""
    number = _number(cast, minimum)

    def parse(raw: str) -> tuple:
        vals = tuple(number(x) for x in raw.replace(",", " ").split())
        if not vals or lengths and len(vals) not in lengths:
            raise ValueError(f"needs {' or '.join(map(str, lengths or ['one or more']))} values")
        return vals

    return parse


def _gene_bounds(name: str, minimum=None):
    """Cast of a 'lower upper step' triple that GeneSpec accepts."""
    def parse(raw: str) -> tuple[float, float, float]:
        spec = GeneSpec(name, *_list(float, (3,), minimum)(raw))
        return spec.lower, spec.upper, spec.step

    return parse


def _optional_int(raw: str) -> int | None:
    return int(raw) if raw else None


def _snr(raw: str) -> float | None:
    if raw in ("inf", "none"):
        return None
    value = float(raw)
    if not value > 0:
        raise ValueError("must be positive, 'inf' or 'none'")
    return value


# [ga]'s cast per GAConfig field type; a pair <x>_bounds has keys <x>_min, <x>_max.
_CASTS = {"int": int, "float": _number(), "str": str, "tuple[float, float]": _number()}

# (section, key, field, cast, default) of every setting but the [synth_paths]
# labels.  [grid], [ft], [fitness] and [ga] fill KGrid, FTConfig, FitnessConfig
# and GAConfig, [genes] the gene bounds, the other sections RunConfig's fields.
# Keys that name the same field fill it as a (lower, upper) pair, in order.
# A default is the one of the type the row fills, where that type has one.
SETTINGS = (
    ("run", "mode", "mode", str, None),
    ("run", "output_dir", "output_dir", str, "out"),
    ("run", "data_file", "data_file", str, RunConfig.data_file),
    ("run", "path_manifest", "path_manifest", str, RunConfig.path_manifest),
    ("grid", "k_min", "k_min", _number(), 0.5),
    ("grid", "k_max", "k_max", _number(), 12.5),
    ("grid", "delta_k", "delta_k", _number(), 0.05),
    ("ft", "k_min_fit", "k_range", _number(), 2.5),
    ("ft", "k_max_fit", "k_range", _number(), 12.0),
    ("ft", "r_min", "r_range", _number(), FTConfig.r_range[0]),
    ("ft", "r_max", "r_range", _number(), FTConfig.r_range[1]),
    ("ft", "k_weight", "k_weight", int, FTConfig.k_weight),
    ("ft", "window_sill", "window_sill", _number(), FTConfig.window_sill),
    ("ft", "n_fft", "n_fft", int, FTConfig.n_fft),
    ("fitness", "space", "space", str, FitnessConfig.space),
    ("fitness", "n_indep", "n_indep", _optional_int, FitnessConfig.n_indep),
    ("fitness", "epsilon", "epsilon", _number(), FitnessConfig.epsilon),
    ("fitness", "k_weight", "k_weight", int, FitnessConfig.k_weight),
    *(("ga", key, f.name, _CASTS[f.type], default) for f in fields(GAConfig)
      for key, default in (zip([f.name.replace("bounds", e) for e in ("min", "max")], f.default)
                           if f.type.startswith("tuple") else [(f.name, f.default)])),
    *(("genes", name, name, _gene_bounds(name, 0.0 if name in NON_NEGATIVE else None), bounds)
      for name, bounds in GENE_BOUNDS.items()),
    *(("synth", name, name, _list(), ()) for name in PATH_GENES),
    ("synth", "delta_e0", "delta_e0", _number(), 0.0),
    ("synth", "snr", "snr", _snr, RunConfig.snr),
    ("synth", "seed", "synth_seed", _number(int, 0), RunConfig.synth_seed),
    ("cutoff", "percents", "cutoff_percents", _list(), RunConfig.cutoff_percents),
    ("cutoff", "repeats", "cutoff_repeats", int, RunConfig.cutoff_repeats),
    ("error", "n_runs", "error_runs", int, RunConfig.error_runs),
    *(("error", name, name, _list(cast, (2,)), DEFAULT_HYPER_RANGES[name])
      for name, cast in (("population", int), ("generations", int), ("mutation_rate", float))),
    ("benchmark", "n_paths", "benchmark_n_paths", _list(int, minimum=1),
     RunConfig.benchmark_n_paths),
    ("benchmark", "generations", "benchmark_generations", _number(int, 0),
     RunConfig.benchmark_generations),
)

# The keys parse_config reads, per section.  [synth_paths] is not listed: its
# keys are path labels, and every one is read.
KEYS = {section: {k for s, k, *_ in SETTINGS if s == section} for section, *_ in SETTINGS}


def _build(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError it raises reported as a ConfigError
    under [section]."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if "run" not in cp:
        raise ConfigError(f"{path}: missing [run] section")
    if cp.defaults():
        raise ConfigError(f"{path}: unknown section [{cp.default_section}]")
    for section in cp.sections():
        if section == "synth_paths":
            continue
        if section not in KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in KEYS[section]:
                raise ConfigError(f"[{section}] unknown key '{key}'")

    values = {section: {} for section in KEYS}
    for section, key, field, cast, default in SETTINGS:
        value = _get(cp, section, key, cast, default)
        kwargs = values[section]
        kwargs[field] = (kwargs[field], value) if field in kwargs else value
    if values["run"]["mode"] not in MODES:
        raise ConfigError(f"[run] mode must be one of {MODES}, got {values['run']['mode']!r}")
    grid = _build("grid", KGrid, **values["grid"])
    ft = _build("ft", FTConfig, **values["ft"])
    _build("ft", check_k_range, ft, grid)
    _build("ft", check_r_range, ft, grid)
    fitness = _build("fitness", FitnessConfig, ft=ft, **values["fitness"])
    ga = _build("ga", GAConfig, **values["ga"])

    synth_paths = None
    if "synth_paths" in cp:
        synth_paths = [(key, *_get(cp, "synth_paths", key, _list(lengths=(3, 4))))
                       for key in cp["synth_paths"]]
    synth = values["synth"]
    lists = [synth.pop(key) for key in PATH_GENES]
    delta_e0 = synth.pop("delta_e0")
    if len({len(v) for v in lists}) != 1:
        raise ConfigError(f"[synth] {', '.join(PATH_GENES)} lists must match in length")
    if synth_paths and lists[0] and len(lists[0]) != len(synth_paths):
        raise ConfigError("[synth] parameter lists must match [synth_paths] count")
    per_path = _build("synth", lambda: tuple(map(PathParams, *lists)))
    truth = Chromosome(delta_e0, per_path) if per_path else None
    cutoff, error = values["cutoff"], values["error"]
    _build("cutoff", check_cutoff_design, cutoff["cutoff_percents"], cutoff["cutoff_repeats"])
    error_ranges = _build("error", check_error_design, error["error_runs"],
                          {name: error.pop(name) for name in DEFAULT_HYPER_RANGES})
    return RunConfig(
        grid=grid, ga=ga, fitness=fitness, gene_bounds=values["genes"],
        synth_paths=synth_paths, truth=truth, error_ranges=error_ranges,
        **values["run"], **synth, **cutoff, **error, **values["benchmark"],
    )


def build_paths(cfg: RunConfig) -> PathSet:
    if cfg.path_manifest:
        return load_manifest(cfg.path_manifest)
    if cfg.synth_paths:
        paths = []
        for key, *vals in cfg.synth_paths:
            try:
                paths.append(synth_path(vals[0], vals[1], cfg.grid, *vals[2:], label=key))
            except PathParseError as exc:
                raise ConfigError(f"[synth_paths] '{key}': {exc}") from exc
        return PathSet(paths=tuple(paths))
    raise ConfigError("either path_manifest or a [synth_paths] section is required")


def gene_specs(cfg: RunConfig, n_paths: int) -> list[GeneSpec]:
    """Gene layout for n_paths paths under the configured [genes] bounds."""
    return default_gene_specs(n_paths, *(cfg.gene_bounds[name] for name in GENE_BOUNDS))


def checked_gene_specs(cfg: RunConfig, paths: PathSet) -> list[GeneSpec]:
    """The paths' gene specs under [genes]; specs that check_gene_specs
    rejects on the run grid are a ConfigError under [genes]."""
    specs = gene_specs(cfg, len(paths))
    _build("genes", check_gene_specs, specs, paths, cfg.grid)
    return specs


def load_inputs(cfg: RunConfig) -> tuple[PathSet, KSpectrum, list[GeneSpec]]:
    """Paths, data on the run grid and checked_gene_specs of a fitting mode."""
    paths = build_paths(cfg)
    if not cfg.data_file:
        raise ConfigError(f"{cfg.mode} mode requires data_file")
    specs = checked_gene_specs(cfg, paths)
    return paths, load_data(cfg.data_file, cfg.grid), specs


def _csv(header: str, rows) -> list[str]:
    """CSV lines with every float at full precision (%.17g) and other cells as str."""
    def cell(v) -> str:
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    return [header, *(",".join(map(cell, row)) for row in rows)]


def _chromosome_lines(chrom: Chromosome, labels) -> list[str]:
    names = ["delta_e0", *(f"{name}[{lbl}]" for lbl in labels for name in PATH_GENES)]
    return [f"{name} = {g:.6g}" for name, g in zip(names, chrom.to_genes())]


def _run_fit(cfg: RunConfig) -> dict[str, list[str]]:
    paths, data, specs = load_inputs(cfg)
    result = run_ga(data, paths, cfg.ga, cfg.fitness, specs)
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
    return {
        "model_k.csv": _csv("k,chi_data,chi_model", zip(cfg.grid.ks, data.chi, model.chi)),
        "model_r.csv": _csv("r,re_model,im_model,mag_model,mag_data",
                            ((r, c.real, c.imag, abs(c), mag)
                             for r, c, mag in zip(r_model.r, r_model.chi_r, r_data.magnitude))),
        "traces.csv": _csv(",".join(traces.dtype.names), traces.tolist()),
        "summary.txt": summary,
    }


def _run_synth(cfg: RunConfig) -> dict[str, list[str]]:
    paths = build_paths(cfg)
    if cfg.truth is None:
        raise ConfigError("synth mode requires a [synth] section with truth parameters")
    spec = synth_generate(paths, cfg.truth, cfg.grid, cfg.snr, seed=cfg.synth_seed)
    header = f"synthetic spectrum (snr={cfg.snr}, seed={cfg.synth_seed})"
    return {"synthetic_chi.dat": chi_file_lines(cfg.grid.ks, spec.chi, header)}


def _run_cutoff_sweep(cfg: RunConfig) -> dict[str, list[str]]:
    paths, data, _ = load_inputs(cfg)
    rows = cutoff_sweep(data, paths, cfg.ga, cfg.fitness, cfg.cutoff_percents,
                        n_repeat=cfg.cutoff_repeats,
                        gene_spec_builder=lambda n: gene_specs(cfg, n))
    return {"cutoff_sweep.csv": _csv("percent,mean_chi2,n_paths_kept",
                                     ((r["percent"], r["mean_chi2"], r["n_paths_kept"])
                                      for r in rows))}


def _run_error_analysis(cfg: RunConfig) -> dict[str, list[str]]:
    paths, data, specs = load_inputs(cfg)
    report = error_analysis(data, paths, cfg.ga, cfg.fitness, n_runs=cfg.error_runs,
                            ranges=cfg.error_ranges, seed=cfg.ga.rng_seed, gene_specs=specs)
    names = report.parameter_names
    return {
        "error_report.csv": _csv("parameter,mean,std", zip(names, report.means, report.stds)),
        "covariance.csv": _csv("," + ",".join(names),
                               ((n, *row) for n, row in zip(names, report.covariance))),
        "run_manifest.csv": _csv(
            "run,population,generations,mutation_rate,seed,best_fitness",
            ((e["run"], e["population"], e["generations"], e["mutation_rate"],
              e["seed"], str(e.get("best_fitness", "failed"))) for e in report.manifest)),
    }


def benchmark_scaling(
    cfg: RunConfig, n_paths_list, generations: int = 5
) -> list[tuple[int, float]]:
    """CPU seconds per generation of this process as a function of path count,
    fixed population.  Each path set's checked_gene_specs are built before its
    fit is timed; every set holds bench_0, so bad [genes] fail the first."""
    rows = []
    for n in n_paths_list:
        paths = PathSet(paths=tuple(synth_path(2.0 + 0.1 * i, 6.0, cfg.grid, label=f"bench_{i}")
                                    for i in range(n)))
        specs = checked_gene_specs(cfg, paths)
        truth = Chromosome(0.0, tuple(PathParams(0.8, 0.003, 0.0) for _ in range(n)))
        data = synth_generate(paths, truth, cfg.grid, snr=None)
        ga_cfg = replace(cfg.ga, max_generations=generations + 1, patience=generations + 1)
        t0 = time.process_time()
        result = run_ga(data, paths, ga_cfg, cfg.fitness, specs)
        elapsed = time.process_time() - t0
        rows.append((n, elapsed / result.n_generations))
    return rows


def _run_benchmark(cfg: RunConfig) -> dict[str, list[str]]:
    rows = benchmark_scaling(cfg, cfg.benchmark_n_paths, cfg.benchmark_generations)
    return {"benchmark.csv": _csv("n_paths,seconds_per_generation", rows)}


# Each mode's runner, which returns its artifacts by file name; the order is
# that of the subcommands and of MODES.
RUNNERS = {
    "fit": _run_fit,
    "cutoff-sweep": _run_cutoff_sweep,
    "error-analysis": _run_error_analysis,
    "synth": _run_synth,
    "benchmark": _run_benchmark,
}
MODES = tuple(RUNNERS)


def run(cfg: RunConfig) -> list[str]:
    """Execute the configured mode, then make the output directory and write
    the mode's artifacts and manifest.json (with the seed the mode drew from)
    into it, each atomically; returns the written paths.  A failed mode writes nothing."""
    artifacts = RUNNERS[cfg.mode](cfg)
    manifest = {
        "mode": cfg.mode,
        "version": __version__,
        "seed": cfg.synth_seed if cfg.mode == "synth" else cfg.ga.rng_seed,
        "artifacts": list(artifacts),
    }
    artifacts["manifest.json"] = [json.dumps(manifest, indent=2, sort_keys=True)]
    os.makedirs(cfg.output_dir, exist_ok=True)
    files = [os.path.join(cfg.output_dir, name) for name in artifacts]
    for path, lines in zip(files, artifacts.values()):
        atomic_write(path, "\n".join(lines) + "\n")
    return files


def _seed(raw: str) -> int:
    """argparse type of --seed: an integer of at least 0."""
    try:
        return _number(int, 0)(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {raw!r}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exafsga",
        description="Genetic-algorithm EXAFS spectrum fitting",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=_seed, default=None)
        sp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        cfg.mode = args.mode
        if args.seed is not None:
            cfg.ga = replace(cfg.ga, rng_seed=args.seed)
            cfg.synth_seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        files = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PathParseError, SpectrumError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(*files, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
