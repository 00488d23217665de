"""Regenerate the README's figures: steadiness sets, traced runs and the
ensemble-size comparison.

    python3 exafsbench/report.py

Each of SETS sets runs every workload in BENCHMARK.json once per seed in
SEEDS, seed-major, with BENCHMARK.json's run_seconds.  For each end-to-end
metric, and for the unscaled wall and CPU medians and the probe's that
run.py logs, it prints the median, the quartiles and their distance as a
share of the median (the spread), and for the second set the change of the
median against the first.  Then it makes one traced run per workload (TRACE_SEED)
and traces one errors-kr-5shell ensemble at the workload's size and one at
USER_ENSEMBLE's.  Raw result lines go to exafsbench/results/.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)
TRACE_SEED = 1
# What run.py logs besides its result: the medians before scaling, and the
# probe's (see run.Probe).
UNSCALED = ("wall_s", "cpu_s", "probe")
# errors-kr-5shell runs 6 small members so that one ensemble takes a few
# seconds.  error_analysis's defaults are 20 members drawn from population
# 100-5000, generations 10-50 and mutation rate 0-100 %; this ensemble takes
# the default member count and ranges with the population range cut to
# 100-500, so that it is traced in a few minutes.
USER_ENSEMBLE = {"n_runs": 20,
                 "ranges": {"population": (100, 500), "generations": (10, 50),
                            "mutation_rate": (0.0, 100.0)}}


def machine() -> str:
    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return (f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("exafsbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, run_s=time.perf_counter() - t0)
    # run.py logs the unscaled medians and the probe's: "<workload> unscaled:
    # wall_s = 2.5 s, cpu_s = 2.4 s, probe = 0.19 s".
    for line in proc.stderr.splitlines():
        if line.startswith(f"{workload} unscaled: "):
            result["unscaled"] = {
                name: float(value.split()[0]) for name, _, value in
                (item.partition(" = ") for item in line.split(": ", 1)[1].split(", "))
            }
    return result


def summary(rows: list, names, key: str = "metrics") -> dict:
    """metric -> (median, q1, q3, spread) over the rows' rows[key]."""
    out = {}
    for name in names:
        vals = [r[key][name] for r in rows]
        vals = [v["value"] if isinstance(v, dict) else v for v in vals]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = (med, q1, q3, (q3 - q1) / med)
    return out


def ensemble_sizes() -> None:
    """Trace one errors-kr-5shell ensemble at the workload's size and one at
    USER_ENSEMBLE's, and print each layer's share of the traced wall time."""
    import run as bench_run
    import tracing
    import workloads

    exafsga, _ = bench_run.import_exafsga()
    from exafsga import analysis

    work = os.path.join(HERE, "_work", "ensemble-sizes")
    w = workloads.ErrorsKR5Shell(exafsga, TRACE_SEED)
    w.setup(work)
    shutil.rmtree(work)
    sizes = {
        "workload": (w.ga_config, {"n_runs": workloads.ERR_RUNS, "ranges": workloads.ERR_RANGES}),
        "user": (replace(w.ga_config, patience=USER_ENSEMBLE["ranges"]["generations"][1]),
                 USER_ENSEMBLE),
    }
    rows = {}
    for size, (cfg, kw) in sizes.items():
        tracer = tracing.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            rep = analysis.error_analysis(w.data, w.paths, cfg, w.fitness, gene_specs=w.specs,
                                          seed=workloads.ERR_ENSEMBLE_SEED, **kw)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        m = tracer.metrics()
        if rep.n_failed:
            raise SystemExit(f"{size} ensemble: {rep.n_failed} members failed")
        ga_s = m["ga.self_s"] + m["ga.crossover_s"] + m["ga.mutation_s"] + m["ga.random_draw_s"]
        rows[size] = {
            "traced wall s": wall,
            "fits": m["ga.fits"],
            "generations per fit": m["ga.generations"] / m["ga.fits"],
            "spectra.transform_s share": m["spectra.transform_s"] / wall,
            "model.evaluate_s share": m["model.evaluate_s"] / wall,
            "fitness (objective self + chi2) share":
                (m["fitness.objective_self_s"] + m["fitness.chi2_s"]) / wall,
            "ga.*_s share": ga_s / wall,
            "model.e0_tables_built per fit": m["model.e0_tables_built"] / m["ga.fits"],
            "model.e0_table_hit_ratio": m["model.e0_table_hit_ratio"],
            "ga.evals_per_individual": m["ga.evals_per_individual"],
            "ga.distinct_eval_ratio": m["ga.distinct_eval_ratio"],
        }
    print(f"\nerrors-kr-5shell ensemble sizes (seed {TRACE_SEED}, one traced ensemble each; "
          f"user size: {USER_ENSEMBLE})")
    print("| figure | workload size | user size |")
    print("| --- | ---: | ---: |")
    for name in rows["workload"]:
        print(f"| {name} | {rows['workload'][name]:.4g} | {rows['user'][name]:.4g} |")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    print(f"machine: {machine()}; run_seconds {seconds}")

    sets = []
    for s in range(SETS):
        rows = []
        path = os.path.join(HERE, "results", f"{stamp}-set{s + 1}.jsonl")
        with open(path, "w") as fh:
            for seed in SEEDS:
                for wl in workloads:
                    r = run(wl, seed, seconds, 0)
                    fh.write(json.dumps(r) + "\n")
                    fh.flush()
                    rows.append(r)
        sets.append(rows)
        print(f"\nset {s + 1} (seeds {SEEDS.start}-{SEEDS.stop - 1}, "
              f"raw: {os.path.relpath(path, ROOT)})")
        print("| workload | metric | median | q1 | q3 | spread | bound | vs set 1 |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for wl in workloads:
            mine = [r for r in rows if r["workload"] == wl]
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            ok = all(r["correct"] for r in mine)
            stats = summary(mine, e2e)
            base = summary([r for r in sets[0] if r["workload"] == wl], e2e)
            for name, (med, q1, q3, spread) in stats.items():
                shift = f"{med / base[name][0] - 1:+.3f}" if s else ""
                print(f"| {wl} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} "
                      f"| {e2e[name]['bound']} | {shift} |")
            raw = summary(mine, UNSCALED, "unscaled")
            raw_base = summary([r for r in sets[0] if r["workload"] == wl], UNSCALED, "unscaled")
            for name, (med, q1, q3, spread) in raw.items():
                shift = f"{med / raw_base[name][0] - 1:+.3f}" if s else ""
                print(f"| {wl} | unscaled {name} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {spread:.3f} | | {shift} |")
            print(f"| {wl} | operations | {attempted} attempted, {failed} failed, "
                  f"correct {ok} | | | | | |")

    print(f"\ntraced runs (seed {TRACE_SEED})")
    traced = {wl: run(wl, TRACE_SEED, seconds, 1) for wl in workloads}
    with open(os.path.join(HERE, "results", f"{stamp}-traced.jsonl"), "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in traced.values())
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("| --- | --- |" + " --- |" * len(workloads))
    for m in bench["per_layer"]:
        vals = [traced[wl]["metrics"][m["name"]]["value"] for wl in workloads]
        fmt = ".0f" if m["unit"] == "count" else ".4g"
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(f"{v:{fmt}}" for v in vals) + " |")

    ensemble_sizes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
