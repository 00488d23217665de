import numpy as np
import pytest

from exafsga import analysis
from exafsga.analysis import (
    DEFAULT_HYPER_RANGES,
    AnalysisError,
    attribute_operators,
    cutoff_select,
    cutoff_sweep,
    error_analysis,
    synth_generate,
)
from exafsga.fitness import FitnessConfig, FitnessError, SpectrumObjective
from exafsga.ga import Chromosome, GAConfig, GAError, GeneSpec, default_gene_specs, run_ga
from exafsga.model import ModelError, PathParams, evaluate_model
from exafsga.paths import PathSet, synth_path
from exafsga.spectra import FTConfig, KGrid, check_k_range


GRID = KGrid(0.5, 13.0, 0.05)
FIT_RANGE = (2.5, 12.5)
FITNESS = FitnessConfig(ft=FTConfig(k_range=FIT_RANGE))


def make_paths(amp_scales, start=2.3, spacing=0.7):
    return PathSet(
        paths=tuple(
            synth_path(
                start + spacing * i, 6.0, GRID, amp_scale=a, label=f"p{i}"
            )
            for i, a in enumerate(amp_scales)
        )
    )


def flat_chromosome(n_paths, s02=0.7, sigma2=0.003, delta_r=0.0, delta_e0=0.0):
    return Chromosome(
        delta_e0, tuple(PathParams(s02, sigma2, delta_r) for _ in range(n_paths))
    )


class TestSynthGenerate:
    def test_noiseless_matches_model(self):
        paths = make_paths([1.0, 1.0])
        chrom = flat_chromosome(2)
        spec = synth_generate(paths, chrom, GRID, snr=None, seed=0)
        model = evaluate_model(paths, chrom, GRID)
        np.testing.assert_allclose(spec.chi, model.chi, rtol=0, atol=1e-15)

    def test_snr_calibration(self):
        paths = make_paths([1.0, 0.8, 0.5])
        chrom = flat_chromosome(3)
        clean = synth_generate(paths, chrom, GRID, snr=None, seed=0).chi
        w = GRID.ks ** 2
        signal_rms = np.sqrt(np.mean((w * clean) ** 2))
        ratios = []
        for seed in range(40):
            noisy = synth_generate(paths, chrom, GRID, snr=10.0, seed=seed).chi
            noise_rms = np.std(w * (noisy - clean))
            ratios.append(signal_rms / noise_rms)
        assert abs(np.mean(ratios) - 10.0) < 0.5

    def test_seed_determinism_and_independence(self):
        paths = make_paths([1.0])
        chrom = flat_chromosome(1)
        a = synth_generate(paths, chrom, GRID, snr=5.0, seed=11).chi
        b = synth_generate(paths, chrom, GRID, snr=5.0, seed=11).chi
        c = synth_generate(paths, chrom, GRID, snr=5.0, seed=12).chi
        assert np.array_equal(a, b)
        clean = synth_generate(paths, chrom, GRID, snr=None, seed=0).chi
        # compare in k^2-weighted space where the noise is homoscedastic
        w = GRID.ks ** 2
        na, nc = w * (a - clean), w * (c - clean)
        rho = np.corrcoef(na, nc)[0, 1]
        assert abs(rho) < 0.2

    def test_infinite_snr_is_clean(self):
        paths = make_paths([1.0])
        chrom = flat_chromosome(1)
        clean = synth_generate(paths, chrom, GRID, snr=None, seed=0).chi
        inf = synth_generate(paths, chrom, GRID, snr=np.inf, seed=3).chi
        assert np.array_equal(clean, inf)

    @pytest.mark.parametrize("snr", [0.0, -5.0])
    def test_non_positive_snr_rejected(self, snr):
        with pytest.raises(AnalysisError, match="^snr must be positive$"):
            synth_generate(make_paths([1.0]), flat_chromosome(1), GRID, snr=snr)


class TestCutoffSelect:
    def test_all_kept_at_zero_percent(self):
        paths = make_paths([1.0, 0.01, 0.5])
        report = cutoff_select(paths, flat_chromosome(3), GRID, FITNESS, 0.0)
        assert report.selected == ("p0", "p1", "p2")
        assert len(report.pruned.paths) == 3

    def test_threshold_prunes_small_contributions(self):
        paths = make_paths([1.0, 0.001, 0.8])
        report = cutoff_select(paths, flat_chromosome(3), GRID, FITNESS, 5.0)
        assert "p1" not in report.selected
        assert "p0" in report.selected and "p2" in report.selected

    def test_fractions_scale_invariant(self):
        paths = make_paths([1.0, 0.3, 0.1])
        r1 = cutoff_select(paths, flat_chromosome(3, s02=0.4), GRID, FITNESS, 1.0)
        r2 = cutoff_select(paths, flat_chromosome(3, s02=0.9), GRID, FITNESS, 1.0)
        np.testing.assert_allclose(r1.fractions, r2.fractions, rtol=1e-10)

    def test_fractions_sum_to_one(self):
        paths = make_paths([1.0, 0.3, 0.1, 0.6])
        report = cutoff_select(paths, flat_chromosome(4), GRID, FITNESS, 1.0)
        assert np.sum(report.fractions) == pytest.approx(1.0, abs=1e-12)

    def test_area_against_rectangle_rule(self):
        paths = make_paths([1.0, 0.5])
        chrom = flat_chromosome(2)
        report = cutoff_select(paths, chrom, GRID, FITNESS, 0.0)
        ks = GRID.ks
        mask = (ks >= FIT_RANGE[0]) & (ks <= FIT_RANGE[1])
        areas = []
        for i in range(2):
            single = PathSet(paths=(paths.paths[i],))
            sub = Chromosome(chrom.delta_e0, (chrom.per_path[i],))
            contrib = evaluate_model(single, sub, GRID).chi
            y = np.abs(ks[mask] ** 2 * contrib[mask])
            areas.append(np.sum(y) * GRID.delta_k)
        expected = np.array(areas) / np.sum(areas)
        np.testing.assert_allclose(report.fractions, expected, atol=1e-3)

    def test_empty_selection_raises(self):
        paths = make_paths([1.0, 1.0])
        with pytest.raises(AnalysisError):
            cutoff_select(paths, flat_chromosome(2), GRID, FITNESS, 80.0)

    def test_zero_model_raises(self):
        paths = make_paths([1.0])
        chrom = flat_chromosome(1, s02=0.0)
        with pytest.raises(AnalysisError):
            cutoff_select(paths, chrom, GRID, FITNESS, 1.0)

    @pytest.mark.parametrize("fitness, percent, message", [
        (FITNESS, -1.0, "^cutoff_percent must be non-negative$"),
        (FitnessConfig(ft=FTConfig(k_range=(2.5, 2.52), window_sill=0.0)), 1.0,
         "^fit range selects fewer than two grid points$"),
    ], ids=["negative-cutoff", "one-point-fit-range"])
    def test_bad_cutoff_or_fit_range_raises(self, fitness, percent, message):
        with pytest.raises(AnalysisError, match=message):
            cutoff_select(make_paths([1.0, 0.5]), flat_chromosome(2), GRID, fitness, percent)

    def test_prunes_over_the_points_the_fit_reads(self):
        # grid.ks[239] is 12.450000000000001, above the 12.45 that ends the
        # range: the fit holds that point, so the areas must too.
        paths = make_paths([1.0, 0.5, 0.2])
        chrom = flat_chromosome(3, delta_e0=-0.5)
        fitness = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.45)))
        fit = check_k_range(fitness.ft, GRID)
        assert GRID.ks[239] > 12.45 and fit == slice(40, 240)
        data = synth_generate(paths, chrom, GRID, snr=None)
        objective = SpectrumObjective(data, paths, fitness)
        assert (objective._lo, objective._hi) == (fit.start, fit.stop)
        k = GRID.ks[fit]
        areas = []
        for i in range(3):
            single = PathSet(paths=(paths.paths[i],))
            sub = Chromosome(chrom.delta_e0, (chrom.per_path[i],))
            contrib = evaluate_model(single, sub, GRID).chi[fit]
            areas.append(np.trapezoid(np.abs(k**2 * contrib), k))
        report = cutoff_select(paths, chrom, GRID, fitness, 0.0)
        np.testing.assert_allclose(report.fractions, np.array(areas) / np.sum(areas),
                                   rtol=1e-12)


def small_problem(n_paths=2, snr=20.0, seed=0):
    paths = make_paths([1.0] * n_paths)
    truth = flat_chromosome(n_paths, delta_e0=-0.5)
    data = synth_generate(paths, truth, GRID, snr=snr, seed=seed)
    fitness = FitnessConfig(ft=FTConfig(k_range=FIT_RANGE))
    ga = GAConfig(population_size=30, max_generations=6, rng_seed=1, patience=6)
    return paths, truth, data, fitness, ga


class TestErrorAnalysis:
    def test_shapes_and_manifest(self):
        paths, truth, data, fitness, ga = small_problem()
        report = error_analysis(
            data, paths, ga, fitness, n_runs=4,
            ranges={"population": (20, 40), "generations": (4, 6)}, seed=5,
        )
        n_genes = truth.n_genes
        assert report.means.shape == (n_genes,)
        assert report.stds.shape == (n_genes,)
        assert report.covariance.shape == (n_genes, n_genes)
        assert len(report.manifest) == 4
        assert len(report.best_chromosomes) == 4
        assert all(c.n_genes == n_genes for c in report.best_chromosomes)
        for entry in report.manifest:
            assert 20 <= entry["population"] <= 40
            assert 4 <= entry["generations"] <= 6

    def test_covariance_diagonal_matches_variance(self):
        paths, truth, data, fitness, ga = small_problem()
        report = error_analysis(
            data, paths, ga, fitness, n_runs=5,
            ranges={"population": (20, 40), "generations": (4, 6)}, seed=2,
        )
        np.testing.assert_allclose(np.diag(report.covariance), report.stds ** 2,
                                   rtol=1e-10)

    def test_determinism(self):
        paths, truth, data, fitness, ga = small_problem()
        kwargs = dict(
            n_runs=3, ranges={"population": (20, 30), "generations": (4, 5)}, seed=9
        )
        a = error_analysis(data, paths, ga, fitness, **kwargs)
        b = error_analysis(data, paths, ga, fitness, **kwargs)
        assert a.best_chromosomes == b.best_chromosomes
        assert np.array_equal(a.means, b.means)

    def test_too_few_runs(self):
        paths, truth, data, fitness, ga = small_problem()
        with pytest.raises(AnalysisError):
            error_analysis(data, paths, ga, fitness, n_runs=1,
                           ranges={"population": (20, 20)}, seed=0)

    def test_manifest_records_clamped_rate(self):
        # Seed 4 draws mutation rates 94.3, 51.1, 97.6 and 8.1 from the default
        # range (0, 100); the first and third runs run at the upper bound, 90.
        paths, truth, data, fitness, ga = small_problem()
        report = error_analysis(
            data, paths, ga, fitness, n_runs=4,
            ranges={"population": (20, 20), "generations": (3, 3)}, seed=4,
        )
        rates = [e["mutation_rate"] for e in report.manifest]
        assert rates[0] == rates[2] == ga.mutation_rate_bounds[1] == 90.0
        assert rates[1] == pytest.approx(51.1, abs=0.05)
        assert rates[3] == pytest.approx(8.1, abs=0.05)

    def test_unexpected_error_propagates(self, monkeypatch):
        paths, truth, data, fitness, ga = small_problem()

        def broken(self, genes):
            raise TypeError("bug in the objective")

        monkeypatch.setattr(SpectrumObjective, "evaluate_genes", broken)
        with pytest.raises(TypeError, match="bug in the objective"):
            error_analysis(data, paths, ga, fitness, n_runs=2,
                           ranges={"population": (20, 20)}, seed=0)

    @pytest.mark.parametrize("name, low_high", [("population", (0, 1)), ("generations", (0, 3))])
    def test_range_below_minimum_raises_before_any_member(self, monkeypatch, name, low_high):
        paths, truth, data, fitness, ga = small_problem()

        def no_fit(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(analysis, "run_ga", no_fit)
        with pytest.raises(AnalysisError, match=name):
            error_analysis(data, paths, ga, fitness, n_runs=2, ranges={name: low_high})

    @pytest.mark.parametrize("name, low_high", [
        ("population", (20, 10)), ("generations", (6, 4)), ("mutation_rate", (30.0, 10.0)),
    ])
    def test_reversed_range_raises_before_any_member(self, monkeypatch, name, low_high):
        paths, truth, data, fitness, ga = small_problem()

        def no_fit(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(analysis, "run_ga", no_fit)
        expected = rf"^{name} range \({low_high[0]}, {low_high[1]}\) is reversed$"
        with pytest.raises(AnalysisError, match=expected):
            error_analysis(data, paths, ga, fitness, n_runs=2, ranges={name: low_high})

    @pytest.mark.parametrize("specs, message", [
        ([GeneSpec(s.name, -0.1, 1.0, 0.005) if s.name == "s02_1" else s
          for s in default_gene_specs(2)], r"^s02_1: lower bound -0\.1 admits a negative s02$"),
        (default_gene_specs(3), r"^gene specs \(10\) do not match 3\*2 \+ 1 genes$"),
    ], ids=["negative-s02", "three-paths-on-two"])
    def test_bad_gene_layout_raises_before_any_member(self, monkeypatch, specs, message):
        paths, truth, data, fitness, ga = small_problem()

        def no_fit(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(analysis, "run_ga", no_fit)
        with pytest.raises(GAError, match=message):
            error_analysis(data, paths, ga, fitness, n_runs=2, gene_specs=specs)

    def test_unknown_range_key_raises_before_any_member(self, monkeypatch):
        paths, truth, data, fitness, ga = small_problem()

        def no_fit(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(analysis, "run_ga", no_fit)
        expected = (r"^unknown ranges keys \['populaton'\]; "
                    r"the keys are population, generations, mutation_rate$")
        with pytest.raises(AnalysisError, match=expected):
            error_analysis(data, paths, ga, fitness, n_runs=2, seed=1,
                           ranges={"populaton": (20, 30), "generations": (2, 3)})

    def test_fewer_than_two_successful_members_raises(self, monkeypatch):
        paths, truth, data, fitness, ga = small_problem()
        calls = []

        def first_fails(*args):
            calls.append(args)
            if len(calls) == 1:
                raise GAError("no convergence")
            return run_ga(*args)

        monkeypatch.setattr(analysis, "run_ga", first_fails)
        with pytest.raises(AnalysisError, match="^only 1 successful runs; need at least 2$"):
            error_analysis(data, paths, ga, fitness, n_runs=2, seed=0,
                           ranges={"population": (20, 20), "generations": (3, 3)})
        assert len(calls) == 2

    def test_failed_members_are_recorded_and_left_out(self, monkeypatch):
        paths, truth, data, fitness, ga = small_problem()
        failures = {1: GAError("no convergence"), 2: ModelError("bad shift"),
                    4: GAError("no convergence")}
        calls, kept = [], []

        def flaky(*args):
            calls.append(args)
            if len(calls) - 1 in failures:
                raise failures[len(calls) - 1]
            result = run_ga(*args)
            kept.append(result.best.to_genes())
            return result

        monkeypatch.setattr(analysis, "run_ga", flaky)
        report = error_analysis(data, paths, ga, fitness, n_runs=6, seed=3,
                                ranges={"population": (20, 30), "generations": (3, 4)})
        assert report.n_failed == 3 and len(calls) == 6 and len(kept) == 3
        for entry in report.manifest:
            if entry["run"] in failures:
                assert entry["error"] == str(failures[entry["run"]])
                assert "best_fitness" not in entry
            else:
                assert "error" not in entry and "best_fitness" in entry
        assert [c.to_genes().tolist() for c in report.best_chromosomes] == \
            [g.tolist() for g in kept]
        assert np.array_equal(report.means, np.mean(kept, axis=0))
        assert np.array_equal(report.stds, np.std(kept, axis=0, ddof=1))

    def test_fit_range_without_a_grid_point_raises_from_the_first_member(self, monkeypatch):
        paths, truth, data, _, ga = small_problem()
        fitness = FitnessConfig(ft=FTConfig(k_range=(2.501, 2.509), window_sill=0.0))
        calls = []

        def counted(*args):
            calls.append(args)
            return run_ga(*args)

        monkeypatch.setattr(analysis, "run_ga", counted)
        with pytest.raises(FitnessError, match="contains no grid samples"):
            error_analysis(data, paths, ga, fitness, n_runs=3,
                           ranges={"population": (20, 20)}, seed=0)
        assert len(calls) == 1

    def test_default_ranges_exposed(self):
        assert DEFAULT_HYPER_RANGES["population"] == (100, 5000)
        assert DEFAULT_HYPER_RANGES["generations"] == (10, 50)
        assert DEFAULT_HYPER_RANGES["mutation_rate"] == (0.0, 100.0)


class TestCutoffSweep:
    def test_rows_and_monotone_path_count(self):
        paths = make_paths([1.0, 0.8, 0.002, 0.001])
        truth = flat_chromosome(4, delta_e0=-0.5)
        data = synth_generate(paths, truth, GRID, snr=20.0, seed=0)
        fitness = FitnessConfig(ft=FTConfig(k_range=FIT_RANGE))
        ga = GAConfig(population_size=30, max_generations=5, rng_seed=1, patience=5)
        rows = cutoff_sweep(
            data, paths, ga, fitness, percents=(0.0, 5.0), n_repeat=2
        )
        assert [r["percent"] for r in rows] == [0.0, 5.0]
        assert rows[0]["n_paths_kept"] == 4
        assert rows[1]["n_paths_kept"] < 4
        for row in rows:
            assert np.isfinite(row["mean_chi2"])
            assert len(row["reports"]) == 2

    @pytest.mark.parametrize("percents, n_repeat, message", [
        ((5.0,), 0, "n_repeat must be at least 1"),
        ((5.0, -1.0), 2, "percents must be non-negative"),
        ((float("nan"),), 2, "percents must be non-negative"),
        ((5.0, 150.0), 2, "at most 100"),
        ((), 2, "percents must be non-empty"),
    ])
    def test_arguments_checked_before_any_fit(self, monkeypatch, percents, n_repeat, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(analysis, "run_ga", no_fit)
        paths = make_paths([1.0, 0.8])
        data = synth_generate(paths, flat_chromosome(2), GRID, snr=None)
        fitness = FitnessConfig(ft=FTConfig(k_range=FIT_RANGE))
        with pytest.raises(AnalysisError, match=message):
            cutoff_sweep(data, paths, GAConfig(), fitness, percents, n_repeat=n_repeat)

    def test_reports_carry_best_chromosomes(self):
        paths = make_paths([1.0, 0.8, 0.002])
        data = synth_generate(paths, flat_chromosome(3, delta_e0=-0.5), GRID, snr=20.0, seed=0)
        fitness = FitnessConfig(ft=FTConfig(k_range=FIT_RANGE))
        ga = GAConfig(population_size=20, max_generations=4, rng_seed=3, patience=4)
        rows = cutoff_sweep(data, paths, ga, fitness, percents=(5.0,), n_repeat=2)
        for report in rows[0]["reports"]:
            before = SpectrumObjective(data, paths, fitness)
            after = SpectrumObjective(data, report.pruned, fitness)
            assert before.evaluate_genes(report.best_before.to_genes()) == report.chi2_before
            assert after.evaluate_genes(report.best_after.to_genes()) == report.chi2_after


class TestAttribution:
    def test_telescoping_identity(self):
        paths, truth, data, fitness, ga = small_problem()
        result = run_ga(data, paths, ga, fitness)
        trace = attribute_operators(result)
        total = trace["d_crossover"] + trace["d_mutation"]
        best = result.history["best_fitness"]
        np.testing.assert_allclose(total[1:], np.diff(best), atol=1e-12)
        assert list(trace["generation"]) == list(range(1, len(best) + 1))
