"""exafsga benchmark: one workload, timed end to end or traced layer by layer.

    python3 exafsbench/run.py --workload fit-k-5shell --seed 1 --seconds 40 --trace 0

Run from the repository root.  The benchmark imports exafsga from ./src,
makes the workload's inputs from --seed, then repeats the workload's
operation for --seconds (at least MIN_OPS times), checking every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the operations;
wall_s and cpu_s scaled to a nominal host speed by Probe, see scaled).
--trace 1 traces every set-up and alternates untraced and traced
operations.  It reports the loaders' metrics from the set-ups, every other
per-layer metric from the traced operations, and the tracing overhead: the
median difference in wall time between each traced operation and the
untraced one before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

# Load comes from this one thread: numpy's BLAS would otherwise start a
# thread per core when numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Named here rather than read from workloads.py, whose import would load
# numpy before the timed import of exafsga.
WORKLOAD_NAMES = ("fit-k-5shell", "errors-kr-5shell", "sweep-k-20path")
# Set-up is repeated and its median reported, so that work moved into set-up
# shows without the noise of a single measurement.
SETUP_REPEATS = 5
MIN_OPS = 3
# wall_s and cpu_s are scaled to a host on which one probe (see Probe) takes
# PROBE_NOMINAL_S, about its duration on the reference machine.
PROBE_REPEATS = 50
PROBE_NOMINAL_S = 0.2


def cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (s.ru_maxrss + c.ru_maxrss) / 1024.0


class Probe:
    """A fixed computation timed before every operation and after the last:
    PROBE_REPEATS evaluations of sweep-k-20path's EXAFS model at its true
    parameters, by the benchmark's own reference code.  No change to exafsga
    alters it, so its duration follows the speed the shared host gives this
    process, which drifts by tens of percent over a minute."""

    def __init__(self):
        import reference
        import workloads

        problem = workloads.twenty_path_problem(0)
        self.model, self.paths, self.k = reference.model_chi, problem.paths, problem.k
        self.genes = ([workloads.SWEEP_TRUTH_E0]
                      + list(workloads.SWEEP_TRUTH_PATH) * len(problem.paths))
        self()  # warm-up

    def __call__(self) -> tuple[float, float]:
        """(wall, cpu) seconds of one probe."""
        c0, w0 = cpu_s(), time.perf_counter()
        for _ in range(PROBE_REPEATS):
            self.model(self.paths, self.genes, self.k)
        return time.perf_counter() - w0, cpu_s() - c0


def scaled(times, probes, which: int) -> list[float]:
    """Each operation's time times PROBE_NOMINAL_S over the mean of the
    probes just before and just after it (which: 0 wall, 1 cpu)."""
    return [t * 2 * PROBE_NOMINAL_S / (probes[i][which] + probes[i + 1][which])
            for i, t in enumerate(times)]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_exafsga():
    """Import exafsga from ./src and nowhere else; seconds it took."""
    src = os.path.join(ROOT, "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import exafsga
    import exafsga.cli  # noqa: F401  (the fit workload's entry point)

    seconds = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(exafsga.__file__), src]) != src:
        raise ImportError(f"exafsga was imported from {exafsga.__file__}, not from {src}")
    return exafsga, seconds


def run_ops(w, seconds: float, traced_too: bool, tracing, probe=None):
    """Repeat the operation (alternating untraced and traced ones when
    traced_too) for `seconds`, and each kind at least MIN_OPS times, running
    `probe`, if given, before every operation and after the last.  A round
    starts only if half a round of median length still fits in `seconds`, so
    that the run ends, on average, when `seconds` have passed."""
    kinds = (False, True) if traced_too else (False,)
    walls = {k: [] for k in kinds}
    cpus = {k: [] for k in kinds}
    layer, probes = [], []
    attempted = failed = 0
    correct = True
    first, first_ok = None, False
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < MIN_OPS or (
        time.perf_counter() - t_start + statistics.median(rounds) / 2 <= seconds
    ):
        t_round = time.perf_counter()
        for traced in kinds:
            tracer = tracing.Tracer() if traced else None
            gc.collect()
            if probe:
                probes.append(probe())
            if tracer:
                tracer.install()
            attempted += 1
            c0, w0 = cpu_s(), time.perf_counter()
            try:
                out = w.op()
            except Exception as exc:
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            else:
                error = None
            finally:
                wall, cpu = time.perf_counter() - w0, cpu_s() - c0
                if tracer:
                    tracer.uninstall()
            walls[traced].append(wall)
            cpus[traced].append(cpu)
            fails = []
            if error is None:
                if first is None:
                    try:
                        fails = w.check(out)
                    except Exception as exc:
                        fails = [f"check raised {type(exc).__name__}: {exc}"]
                    first, first_ok = out, not fails
                elif not w.same(out, first):
                    fails = ["output differs from the run's first output for the same inputs"]
                elif not first_ok:
                    fails = ["output repeats the run's first output, which failed its checks"]
            if fails:
                correct = False
                error = "; ".join(fails)
            if error:
                failed += 1
            elif tracer:
                layer.append(tracer.metrics())
            kind = "traced" if traced else "untraced"
            log(f"op {attempted} ({kind}): wall {wall:.4f} s, cpu {cpu:.4f} s"
                + (f", FAILED: {error}" if error else ", ok"))
        rounds.append(time.perf_counter() - t_round)
    if probe:
        probes.append(probe())
    return walls, cpus, layer, probes, attempted, failed, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        exafsga, import_s = import_exafsga()
    except ImportError as exc:
        log(f"exafsbench: cannot import exafsga: {exc}")
        return 1
    import tracing
    import workloads

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        setup_times, setup_layer = [], []
        for i in range(SETUP_REPEATS):
            tracer = tracing.Tracer() if args.trace else None
            gc.collect()
            t0 = time.perf_counter()
            w = workloads.WORKLOADS[args.workload](exafsga, args.seed)
            if tracer:
                tracer.install()
            try:
                w.setup(os.path.join(work, f"setup{i}"))
            finally:
                if tracer:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                setup_layer.append(tracer.metrics())
        probe = None if args.trace else Probe()
        walls, cpus, layer, probes, attempted, failed, correct = run_ops(
            w, args.seconds, bool(args.trace), tracing, probe
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if args.trace:
        # Paired with the untraced operation just before it, each traced one
        # sees about the same host speed.
        overhead = med(t - u for u, t in zip(walls[False], walls[True]))
        values = {name: med(m[name] for m in layer) if layer else 0.0
                  for name in tracing.METRICS if name != "trace.overhead_s"}
        values.update({name: med(m[name] for m in setup_layer) for name in tracing.SETUP_METRICS})
        values["trace.overhead_s"] = overhead
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": import_s + med(setup_times), "unit": "s"},
            "wall_s": {"value": med(scaled(walls[False], probes, 0)), "unit": "s"},
            "cpu_s": {"value": med(scaled(cpus[False], probes, 1)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        log(f"{args.workload} unscaled: wall_s = {med(walls[False]):.6g} s, "
            f"cpu_s = {med(cpus[False]):.6g} s, probe = {med(p[0] for p in probes):.6g} s")
    for name, m in metrics.items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
