"""Each output check passes on the program's real output and fails when one
value of it is perturbed.  Runs one operation of each workload (seed 1)."""

from dataclasses import replace

import numpy as np
import pytest

import exafsga
import checks
import tracing
import workloads


def setup_op(cls, tmp_path_factory):
    d = str(tmp_path_factory.mktemp(cls.name))
    w = cls(exafsga, 1)
    w.setup(d)
    return w, w.op()


def fails_with(fails, text):
    return any(text in f for f in fails)


# -- fit-k-5shell -----------------------------------------------------------


@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    return setup_op(workloads.FitK5Shell, tmp_path_factory)


def edit(arts, name, old, new):
    text = arts[name].decode()
    assert old in text
    return {**arts, name: text.replace(old, new, 1).encode()}


def test_fit_output_passes(fit):
    w, arts = fit
    assert w.check(arts) == []
    assert w.same(arts, w.op())


def test_fit_best_chi2_off_by_1e6_relative(fit):
    w, arts = fit
    line = next(ln for ln in arts["summary.txt"].decode().splitlines() if ln.startswith("best_fitness"))
    best = float(line.split(" = ")[1])
    bad = edit(arts, "summary.txt", line, f"best_fitness = {best * (1 + 1e-6)!r}")
    assert fails_with(w.check(bad), "!= reference chi2")


def test_fit_parameter_off_lattice(fit):
    w, arts = fit
    line = next(ln for ln in arts["summary.txt"].decode().splitlines() if ln.startswith("s02["))
    value = float(line.split(" = ")[1])
    bad = edit(arts, "summary.txt", line, f"{line.split(' = ')[0]} = {value + 0.0025:.6g}")
    assert fails_with(w.check(bad), "off its lattice")


def test_fit_model_k_perturbed(fit):
    w, arts = fit
    lines = arts["model_k.csv"].decode().splitlines()
    k, d, m = lines[100].split(",")
    bad = edit(arts, "model_k.csv", lines[100], f"{k},{d},{float(m) + 1e-6 * abs(float(m)) + 1e-9!r}")
    assert fails_with(w.check(bad), "chi_model differs")


def test_fit_model_r_perturbed(fit):
    w, arts = fit
    lines = arts["model_r.csv"].decode().splitlines()
    cols = lines[40].split(",")
    cols[3] = repr(float(cols[3]) * (1 + 1e-6))
    bad = edit(arts, "model_r.csv", lines[40], ",".join(cols))
    assert fails_with(w.check(bad), "differs from the reference transform")


def test_fit_trace_rises(fit):
    w, arts = fit
    lines = arts["traces.csv"].decode().splitlines()
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[1]) * 10)
    bad = edit(arts, "traces.csv", lines[5], ",".join(cols))
    assert fails_with(w.check(bad), "rises")


def test_fit_r2_floor(fit):
    w, arts = fit
    assert fails_with(
        checks.check_fit(arts, w.problem, workloads.TF, workloads.K_WEIGHT, 0.99999), "r2"
    )


def test_fit_artifacts_not_identical(fit):
    w, arts = fit
    lines = arts["traces.csv"].decode().splitlines()
    assert not w.same(arts, edit(arts, "traces.csv", lines[-1], lines[-1] + "0"))


# -- errors-kr-5shell -------------------------------------------------------


@pytest.fixture(scope="module")
def errors(tmp_path_factory):
    return setup_op(workloads.ErrorsKR5Shell, tmp_path_factory)


def with_member(report, i, **entry):
    manifest = [dict(e) for e in report.manifest]
    manifest[i].update(entry)
    return replace(report, manifest=tuple(manifest))


def test_errors_output_passes(errors):
    w, report = errors
    assert report.n_failed == 0
    assert w.check(report) == []


def test_errors_member_chi2_off_by_1e6_relative(errors):
    w, report = errors
    bad = with_member(report, 1, best_fitness=report.manifest[1]["best_fitness"] * (1 + 1e-6))
    assert fails_with(w.check(bad), "run 1: best_fitness")


def test_errors_aggregates_perturbed(errors):
    w, report = errors
    for field in ("means", "stds", "covariance"):
        value = getattr(report, field).copy()
        value.flat[0] += 1e-6 * max(abs(value.flat[0]), 1e-3)
        assert fails_with(w.check(replace(report, **{field: value})), field)


def test_errors_hyperparameter_out_of_range(errors):
    w, report = errors
    bad = with_member(report, 0, population=workloads.ERR_RANGES["population"][1] + 1)
    assert fails_with(w.check(bad), "population")


def test_errors_member_off_lattice(errors):
    w, report = errors
    genes = report.best_chromosomes[2].to_genes()
    genes[3] += 0.3e-3
    chroms = list(report.best_chromosomes)
    chroms[2] = exafsga.Chromosome.from_genes(genes)
    assert fails_with(w.check(replace(report, best_chromosomes=tuple(chroms))), "off its lattice")


def test_errors_trace_rises(errors):
    w, report = errors
    traces = [t.copy() for t in report.fitness_traces]
    traces[0][3] = traces[0][2] * 2
    assert fails_with(w.check(replace(report, fitness_traces=tuple(traces))), "rises")


# -- sweep-k-20path ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    w, rows = setup_op(workloads.SweepK20Path, tmp_path_factory)
    return w, rows, w.chains(rows)


def sweep_check(w, rows, chains):
    return checks.check_sweep(rows, w.problem, workloads.TF, workloads.K_WEIGHT,
                              workloads.SWEEP_PERCENTS, workloads.SWEEP_REPEATS, chains)


def with_report(rows, p, rep, **fields):
    rows = [dict(r, reports=list(r["reports"])) for r in rows]
    rows[p]["reports"][rep] = replace(rows[p]["reports"][rep], **fields)
    return rows


def test_sweep_output_passes(sweep):
    w, rows, chains = sweep
    assert sweep_check(w, rows, chains) == []


def test_sweep_fractions_perturbed(sweep):
    w, rows, chains = sweep
    f = rows[0]["reports"][0].fractions.copy()
    f[0] *= 1 + 1e-6
    assert fails_with(sweep_check(w, with_report(rows, 0, 0, fractions=f), chains), "area fractions")


def test_sweep_path_dropped_from_pruned_set(sweep):
    w, rows, chains = sweep
    report = rows[0]["reports"][1]
    kept = report.selected[:-1]
    bad = with_report(rows, 0, 1, selected=kept, pruned=w.paths.subset(kept))
    assert fails_with(sweep_check(w, bad, chains), "reference keeps")


def test_sweep_refit_chi2_off_by_1e6_relative(sweep):
    w, rows, chains = sweep
    chains = list(chains)
    chains[3] = replace(chains[3], refit_chi2=chains[3].refit_chi2 * (1 + 1e-6))
    bad = with_report(rows, 1, 1, chi2_after=chains[3].refit_chi2)
    assert fails_with(sweep_check(w, bad, chains), "refit chi2")


def test_sweep_chi2_before_off_by_1e6_relative(sweep):
    w, rows, chains = sweep
    chains = list(chains)
    chains[0] = replace(chains[0], first_chi2=chains[0].first_chi2 * (1 + 1e-6))
    bad = with_report(rows, 0, 0, chi2_before=chains[0].first_chi2)
    assert fails_with(sweep_check(w, bad, chains), "chi2_before")


def test_sweep_mean_chi2_perturbed(sweep):
    w, rows, chains = sweep
    bad = [dict(r) for r in rows]
    bad[1]["mean_chi2"] *= 1 + 1e-6
    assert fails_with(sweep_check(w, bad, chains), "mean_chi2")


def test_sweep_unreproducible_chain(sweep):
    w, rows, chains = sweep
    chains = list(chains)
    chains[2] = replace(chains[2], first_chi2=chains[2].first_chi2 + 1.0)
    assert fails_with(sweep_check(w, rows, chains), "did not reproduce")


# -- tracing ----------------------------------------------------------------


def test_tracer_restores_and_counts(fit):
    w, arts = fit
    originals = (exafsga.ga.run_ga, exafsga.cli.run_ga, exafsga.model.ModelEvaluator.evaluate_genes,
                 exafsga.model.shift_k, exafsga.shift_k)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert exafsga.cli.run_ga is not originals[1]
        traced = w.op()
    finally:
        tracer.uninstall()
    assert (exafsga.ga.run_ga, exafsga.cli.run_ga, exafsga.model.ModelEvaluator.evaluate_genes,
            exafsga.model.shift_k, exafsga.shift_k) == originals
    assert traced == arts
    m = tracer.metrics()
    assert set(m) | {"trace.overhead_s"} == set(tracing.METRICS)
    assert m["ga.fits"] == 1 and m["ga.generations"] == workloads.FIT_GENERATIONS
    assert m["fitness.objective_calls"] == m["model.evaluate_calls"] > 0
    assert 0 < m["model.e0_tables_built"] <= 1001
    assert m["spectra.transform_calls"] == 4  # two in run_ga's metrics, two in model_r.csv
    assert 1.0 < m["ga.evals_per_individual"] < 2.0
    assert 0.5 < m["ga.distinct_eval_ratio"] <= 1.0


def test_tables_built_follow_the_program_cache(fit):
    """A one-entry table cache rebuilds a ΔE0 value it has seen before, and a
    grid shift outside ModelEvaluator builds no table."""
    w, _ = fit
    evaluator = exafsga.model.ModelEvaluator(w.paths, w.data.grid, cache_size=1)
    genes = np.array(workloads.FIVE_SHELL_TRUTH)
    other = genes.copy()
    other[0] += 0.01
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for g in (genes, other, genes, genes):
            evaluator.evaluate_genes(g)
        exafsga.model.path_contribution(w.paths.paths[0], exafsga.model.PathParams(*genes[1:4]),
                                        genes[0], w.data.grid)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["model.evaluate_calls"] == 4
    assert m["model.e0_tables_built"] == 3


# -- scaling to the probe ---------------------------------------------------


def test_scaling_cancels_host_speed():
    """An operation and the probes around it slowed by the same factor read
    the same scaled time; cpu times scale by the probes' cpu times."""
    import run

    fast = run.scaled([2.0], [(0.2, 0.1), (0.2, 0.1)], 0)
    slow = run.scaled([2.6], [(0.26, 0.13), (0.26, 0.13)], 0)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx([2.0 * run.PROBE_NOMINAL_S / 0.2])
    assert run.scaled([1.0, 3.0], [(9.0, 0.1), (9.0, 0.3), (9.0, 0.2)], 1) == pytest.approx(
        [run.PROBE_NOMINAL_S / 0.2, 3.0 * run.PROBE_NOMINAL_S / 0.25])
