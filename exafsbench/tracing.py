"""Outside-in tracing: wrap exafsga's public functions where the program
looks them up (module globals and class attributes), record a span per
call, and turn the spans into the per-layer metrics.

A span's self time is its duration minus the durations of the traced calls
made inside it.  Nothing is wrapped until install() and everything is put
back by uninstall(), so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function; "Class.method" names a class
# attribute.  Every binding of the same function object in any exafsga module
# is replaced, so callers that imported it by name see the wrapper too.
TARGETS = [
    ("cli", "main"),
    ("cli", "parse_config"),
    ("paths", "load_manifest"),
    ("spectra", "read_chi_file"),
    ("spectra", "transform_k_to_r"),
    ("model", "ModelEvaluator.evaluate_genes"),
    ("model", "evaluate_model"),
    ("model", "evaluate_model_masked"),
    ("model", "path_contribution"),
    ("model", "shift_k"),
    ("fitness", "SpectrumObjective.evaluate_genes"),
    ("fitness", "chi2"),
    ("ga", "run_ga"),
    ("ga", "crossover_uniform"),
    ("ga", "crossover_and"),
    ("ga", "crossover_or"),
    ("ga", "mutate_maximum"),
    ("ga", "mutate_nested"),
    ("ga", "mutate_metropolis"),
    ("ga", "GeneCodec.random"),
    ("analysis", "error_analysis"),
    ("analysis", "cutoff_sweep"),
    ("analysis", "cutoff_select"),
    ("analysis", "attribute_operators"),
]

# Per-layer metric -> unit.  Times are per operation (one fit, ensemble or
# sweep), those of SETUP_METRICS per set-up; a layer the workload never
# calls reads 0.
METRICS = {
    "cli.parse_config_s": "s",
    "paths.load_manifest_s": "s",
    "spectra.read_chi_file_s": "s",
    "cli.self_s": "s",
    "spectra.transform_calls": "count",
    "spectra.transform_s": "s",
    "model.evaluate_calls": "count",
    "model.evaluate_s": "s",
    "model.evaluate_us_per_call": "us",
    "model.e0_tables_built": "count",
    "model.e0_table_hit_ratio": "ratio",
    "model.scalar_s": "s",
    "fitness.objective_calls": "count",
    "fitness.objective_self_s": "s",
    "fitness.chi2_s": "s",
    "ga.fits": "count",
    "ga.generations": "count",
    "ga.self_s": "s",
    "ga.crossover_s": "s",
    "ga.mutation_s": "s",
    "ga.random_draw_s": "s",
    "ga.evals_per_individual": "ratio",
    "ga.distinct_eval_ratio": "ratio",
    "analysis.self_s": "s",
    "analysis.cutoff_select_s": "s",
    "analysis.member_fit_s_max": "s",
    "trace.overhead_s": "s",
}

# Metrics of the input loaders, taken from traced set-ups rather than from
# the operations, so that they time the loads setup_s counts.
SETUP_METRICS = ("cli.parse_config_s", "paths.load_manifest_s", "spectra.read_chi_file_s")

ENSEMBLES = ("analysis.error_analysis", "analysis.cutoff_sweep")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack = []  # [span name, time spent in traced children]
        self._fits = []  # per active run_ga: [fitness calls, distinct gene vectors]
        self.fit_calls = 0
        self.fit_distinct = 0
        self.individuals = 0
        self.generations = 0
        self.member_fit_max = 0.0
        self.e0_tables = 0
        self.e0_table_s = 0.0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if after is not None:
                    after(args, kwargs, result, d, parent)

        return wrapper

    # -- counters at the layer boundaries ----------------------------------

    def _objective_call(self, args, kwargs):
        genes = args[1] if len(args) > 1 else kwargs["genes"]
        if self._fits:
            fit = self._fits[-1]
            fit[0] += 1
            fit[1].add(genes.tobytes())

    def _shift_end(self, args, kwargs, result, duration, parent):
        # ModelEvaluator shifts the grid only when it builds a ΔE0 table (a
        # miss in its table cache); the scalar model functions shift on
        # every call.
        if parent == "model.ModelEvaluator.evaluate_genes":
            self.e0_tables += 1
            self.e0_table_s += duration

    def _fit_start(self, args, kwargs):
        self._fits.append([0, set()])

    def _fit_end(self, args, kwargs, result, duration, parent):
        calls, distinct = self._fits.pop()
        if result is None:
            return
        self.fit_calls += calls
        self.fit_distinct += len(distinct)
        cfg = args[2] if len(args) > 2 else kwargs["ga_config"]
        p = cfg.population_size
        n_elite = max(1, int(p * cfg.elite_fraction))
        self.individuals += p + (result.n_generations - 1) * (p - n_elite)
        self.generations += result.n_generations
        if parent in ENSEMBLES:
            self.member_fit_max = max(self.member_fit_max, duration)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        hooks = {
            "fitness.SpectrumObjective.evaluate_genes": (self._objective_call, None),
            "model.shift_k": (None, self._shift_end),
            "ga.run_ga": (self._fit_start, self._fit_end),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "exafsga" or n.startswith("exafsga."))]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = sys.modules[f"exafsga.{mod_name}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                bindings = [(owner, method)]
            else:
                fn = getattr(owner, method)
                bindings = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            original = vars(bindings[0][0])[bindings[0][1]]
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for where, a in bindings:
                self._restore.append((where, a, vars(where)[a]))
                setattr(where, a, wrapper)

    def uninstall(self):
        while self._restore:
            where, a, original = self._restore.pop()
            setattr(where, a, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, c = self.self_s, self.calls
        evals = c["model.ModelEvaluator.evaluate_genes"]
        # The grid shifts made while building tables are evaluate_genes' own work.
        evaluate_s = s["model.ModelEvaluator.evaluate_genes"] + self.e0_table_s
        return {
            "cli.parse_config_s": s["cli.parse_config"],
            "paths.load_manifest_s": s["paths.load_manifest"],
            "spectra.read_chi_file_s": s["spectra.read_chi_file"],
            "cli.self_s": s["cli.main"],
            "spectra.transform_calls": c["spectra.transform_k_to_r"],
            "spectra.transform_s": s["spectra.transform_k_to_r"],
            "model.evaluate_calls": evals,
            "model.evaluate_s": evaluate_s,
            "model.evaluate_us_per_call": 1e6 * evaluate_s / evals if evals else 0.0,
            "model.e0_tables_built": self.e0_tables,
            "model.e0_table_hit_ratio": 1.0 - self.e0_tables / evals if evals else 0.0,
            "model.scalar_s": s["model.evaluate_model"] + s["model.evaluate_model_masked"]
            + s["model.path_contribution"] + s["model.shift_k"] - self.e0_table_s,
            "fitness.objective_calls": c["fitness.SpectrumObjective.evaluate_genes"],
            "fitness.objective_self_s": s["fitness.SpectrumObjective.evaluate_genes"],
            "fitness.chi2_s": s["fitness.chi2"],
            "ga.fits": c["ga.run_ga"],
            "ga.generations": self.generations,
            "ga.self_s": s["ga.run_ga"],
            "ga.crossover_s": s["ga.crossover_uniform"] + s["ga.crossover_and"] + s["ga.crossover_or"],
            "ga.mutation_s": s["ga.mutate_maximum"] + s["ga.mutate_nested"] + s["ga.mutate_metropolis"],
            "ga.random_draw_s": s["ga.GeneCodec.random"],
            "ga.evals_per_individual": self.fit_calls / self.individuals if self.individuals else 0.0,
            "ga.distinct_eval_ratio": self.fit_distinct / self.fit_calls if self.fit_calls else 0.0,
            "analysis.self_s": s["analysis.error_analysis"] + s["analysis.cutoff_sweep"]
            + s["analysis.attribute_operators"],
            "analysis.cutoff_select_s": s["analysis.cutoff_select"],
            "analysis.member_fit_s_max": self.member_fit_max,
        }
