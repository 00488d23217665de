"""Output checks: each returns a list of failures, empty when the output is
correct.  Every check is against the reference implementation or a property
the method must have, never against a stored copy of an earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref

# Program and reference compute the same sums in a different order (and
# chi(r) by FFT instead of a direct sum); they agree to about 1e-15.
RTOL = 1e-9


def close(a, b, rtol: float = RTOL) -> bool:
    """Equal within rtol of the larger magnitude in b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rtol * max(float(np.max(np.abs(b), initial=0.0)), 1e-300)))


def lattice_failures(genes, lower, upper, step, tol_steps: float) -> list[str]:
    """Genes outside [lower, upper] or more than tol_steps steps off lower + i*step."""
    genes = np.asarray(genes, dtype=float)
    if genes.shape != lower.shape:
        return [f"{genes.size} genes, expected {lower.size}"]
    idx = (genes - lower) / step
    out = []
    for i in np.nonzero((genes < lower - tol_steps * step) | (genes > upper + tol_steps * step))[0]:
        out.append(f"gene {i} = {genes[i]!r} outside [{lower[i]}, {upper[i]}]")
    for i in np.nonzero(np.abs(idx - np.rint(idx)) > tol_steps)[0]:
        out.append(f"gene {i} = {genes[i]!r} is off its lattice {lower[i]} + i*{step[i]}")
    return out


def non_increasing(trace, what: str) -> list[str]:
    bad = np.nonzero(np.diff(np.asarray(trace, dtype=float)) > 0)[0]
    return [f"{what}: best fitness rises at generation {int(bad[0]) + 2}"] if bad.size else []


def _csv(text: bytes) -> tuple[list[str], np.ndarray]:
    lines = text.decode().strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _summary(text: bytes) -> tuple[float, np.ndarray]:
    best, genes = None, []
    for line in text.decode().splitlines():
        name, sep, value = line.partition(" = ")
        if not sep:
            continue
        if name == "best_fitness":
            best = float(value)
        elif name == "delta_e0" or name.startswith(("s02[", "sigma2[", "delta_r[")):
            genes.append(float(value))
    return best, np.array(genes)


def check_fit(arts: dict, problem, tf: ref.Transform, k_weight: int, r2_floor: float) -> list[str]:
    """Artifacts of one `exafsga fit` (file name -> bytes)."""
    fails = []
    best, printed = _summary(arts["summary.txt"])
    lower, upper, step = problem.spec_arrays(len(problem.paths))
    # summary.txt prints 6 significant digits: within 1e-3 step of a lattice
    # point, which then gives the exact gene the program held.
    fails += lattice_failures(printed, lower, upper, step, tol_steps=1e-3)
    if fails or best is None:
        return fails + (["summary.txt has no best_fitness"] if best is None else [])
    genes = lower + np.rint((printed - lower) / step) * step

    k = problem.k
    model, valid = ref.model_chi(problem.paths, genes, k)
    want = ref.chi2_k(k, model, valid, problem.chi, tf.k_range, k_weight)
    if not close(best, want):
        fails.append(f"best_fitness {best!r} != reference chi2 {want!r}")

    head, mk = _csv(arts["model_k.csv"])
    if head != ["k", "chi_data", "chi_model"] or mk.shape != (k.size, 3):
        return fails + [f"model_k.csv has columns {head} and shape {mk.shape}"]
    if not close(mk[:, 0], k, 1e-12) or not close(mk[:, 1], problem.chi, 1e-12):
        fails.append("model_k.csv k or chi_data differ from the input spectrum")
    if not close(mk[:, 2], model):
        fails.append("model_k.csv chi_model differs from the reference model")

    head, mr = _csv(arts["model_r.csv"])
    r, model_r = ref.transform(k, model, tf)
    _, data_r = ref.transform(k, problem.chi, tf)
    if head != ["r", "re_model", "im_model", "mag_model", "mag_data"] or mr.shape != (r.size, 5):
        return fails + [f"model_r.csv has columns {head} and shape {mr.shape}"]
    if not close(mr[:, 0], r, 1e-12):
        fails.append("model_r.csv r differs from the reference r grid")
    got = np.concatenate([mr[:, 1], mr[:, 2], mr[:, 3]])
    if not close(got, np.concatenate([model_r.real, model_r.imag, np.abs(model_r)])):
        fails.append("model_r.csv model chi(r) differs from the reference transform")
    if not close(mr[:, 4], np.abs(data_r)):
        fails.append("model_r.csv mag_data differs from the reference transform")

    head, tr = _csv(arts["traces.csv"])
    if not head or head[1] != "best_fitness" or tr.ndim != 2:
        return fails + ["traces.csv has no best_fitness column"]
    fails += non_increasing(tr[:, 1], "traces.csv")
    if tr[-1, 1] != best:
        fails.append(f"traces.csv ends at {tr[-1, 1]!r}, not at best_fitness {best!r}")

    m = ref.fit_mask(k, tf.k_range, valid)
    kw = k[m] ** k_weight
    r2 = ref.r_squared(kw * model[m], kw * problem.chi[m])
    if not r2 > r2_floor:
        fails.append(f"k-weighted r2 {r2:.4f} is not above the floor {r2_floor}")
    return fails


def check_errors(report, problem, tf: ref.Transform, k_weight: int, ranges: dict, n_runs: int) -> list[str]:
    """An ErrorReport from error_analysis on the K+R objective."""
    fails = []
    members = [e for e in report.manifest if "error" not in e]
    if len(report.manifest) != n_runs or len(members) != len(report.best_chromosomes):
        return [f"{len(report.manifest)} manifest entries and {len(report.best_chromosomes)} "
                f"members for {n_runs} runs"]
    lower, upper, step = problem.spec_arrays(len(problem.paths))
    k = problem.k
    samples = []
    for entry, chrom, trace in zip(members, report.best_chromosomes, report.fitness_traces):
        run = entry["run"]
        for key in ("population", "generations", "mutation_rate"):
            lo, hi = ranges[key]
            if not lo <= entry[key] <= hi:
                fails.append(f"run {run}: {key} {entry[key]} outside [{lo}, {hi}]")
        if len(trace) != entry["generations"]:
            fails.append(f"run {run}: {len(trace)} generations traced, {entry['generations']} drawn")
        fails += non_increasing(trace, f"run {run}")
        genes = chrom.to_genes()
        samples.append(genes)
        fails += [f"run {run}: {f}" for f in lattice_failures(genes, lower, upper, step, 1e-6)]
        model, valid = ref.model_chi(problem.paths, genes, k)
        want = ref.chi2_kr(k, model, valid, problem.chi, tf, k_weight)
        if not close(entry["best_fitness"], want):
            fails.append(f"run {run}: best_fitness {entry['best_fitness']!r} != reference {want!r}")
        if trace[-1] != entry["best_fitness"]:
            fails.append(f"run {run}: trace ends at {trace[-1]!r}, not at best_fitness")
    samples = np.array(samples)
    for name, got, want in (
        ("means", report.means, samples.mean(axis=0)),
        ("stds", report.stds, samples.std(axis=0, ddof=1)),
        ("covariance", report.covariance, np.cov(samples, rowvar=False, ddof=1)),
    ):
        if not close(got, want, 1e-12):
            fails.append(f"{name} differ from the aggregation of the members' best genes")
    return fails


@dataclass(frozen=True)
class Chain:
    """Best genes and chi^2 of one fit -> prune -> refit chain's two fits."""

    first_genes: np.ndarray
    first_chi2: float
    refit_genes: np.ndarray
    refit_chi2: float


def check_sweep(rows, problem, tf: ref.Transform, k_weight: int, percents, n_repeat: int,
                chains: list) -> list[str]:
    """cutoff_sweep rows, given each chain's fits re-run alone (see Chain)."""
    fails = []
    if [r["percent"] for r in rows] != list(percents):
        return [f"rows for percents {[r['percent'] for r in rows]}, expected {list(percents)}"]
    labels = tuple(p.label for p in problem.paths)
    by_label = dict(zip(labels, problem.paths))
    k = problem.k
    chains = iter(chains)
    for row in rows:
        pct = row["percent"]
        reports = row["reports"]
        if len(reports) != n_repeat:
            fails.append(f"{pct}%: {len(reports)} repeats, expected {n_repeat}")
        after = []
        for rep, report in enumerate(reports):
            where = f"{pct}% repeat {rep}"
            chain = next(chains)
            if report.chi2_before != chain.first_chi2 or report.chi2_after != chain.refit_chi2:
                fails.append(f"{where}: the chain's fits did not reproduce when re-run alone")
                continue
            if tuple(report.labels) != labels:
                fails.append(f"{where}: labels {report.labels} are not the input paths")
            want = ref.area_fractions(problem.paths, chain.first_genes, k, tf.k_range, k_weight)
            if not close(report.fractions, want):
                fails.append(f"{where}: area fractions differ from the reference")
            if abs(float(np.sum(report.fractions)) - 1.0) > 1e-12:
                fails.append(f"{where}: area fractions sum to {np.sum(report.fractions)!r}")
            keep = ref.selected(labels, want, pct)
            if tuple(report.selected) != keep:
                fails.append(f"{where}: selected {report.selected}, reference keeps {keep}")
            if tuple(report.pruned.labels()) != tuple(report.selected):
                fails.append(f"{where}: pruned set {report.pruned.labels()} is not the selection")
            model, valid = ref.model_chi(problem.paths, chain.first_genes, k)
            want_before = ref.chi2_k(k, model, valid, problem.chi, tf.k_range, k_weight)
            if not close(report.chi2_before, want_before):
                fails.append(f"{where}: chi2_before {report.chi2_before!r} != reference {want_before!r}")
            kept = [by_label[lbl] for lbl in report.selected if lbl in by_label]
            if len(chain.refit_genes) != 1 + 3 * len(kept):
                fails.append(f"{where}: refit has {len(chain.refit_genes)} genes for "
                             f"{len(kept)} selected paths")
                continue
            model, valid = ref.model_chi(kept, chain.refit_genes, k)
            want_after = ref.chi2_k(k, model, valid, problem.chi, tf.k_range, k_weight)
            if not close(report.chi2_after, want_after):
                fails.append(f"{where}: refit chi2 {report.chi2_after!r} != reference {want_after!r}")
            after.append(report.chi2_after)
        if after and not close(row["mean_chi2"], np.mean(after), 1e-12):
            fails.append(f"{pct}%: mean_chi2 {row['mean_chi2']!r} is not the mean of the refits")
        if reports and row["n_paths_kept"] != len(reports[0].pruned):
            fails.append(f"{pct}%: n_paths_kept {row['n_paths_kept']} != first repeat's pruned set")
    return fails
