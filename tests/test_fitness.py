import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exafsga.fitness import (
    FitnessConfig,
    FitnessError,
    SpectrumObjective,
    chi2,
    metrics,
)
from exafsga.ga import Chromosome, GAConfig, GAError, GeneCodec, default_gene_specs, evolve
from exafsga.model import ModelError, ModelEvaluator, PathParams, evaluate_model, shift_k
from exafsga.paths import PathSet, ScatteringPath, synth_path
from exafsga.spectra import (
    EV_TO_KSQ,
    FTConfig,
    KGrid,
    KSpectrum,
    TransformConfigError,
    k_to_r_map,
    transform_k_to_r,
)
from test_spectra import direct_transform


@pytest.fixture
def config():
    return FitnessConfig(ft=FTConfig(k_range=(2.0, 11.0)))


class TestChi2:
    def test_exact_fit_is_zero(self, config):
        a = np.linspace(0, 1, 20)
        assert chi2(a, a, config) == 0.0

    def test_hand_value(self):
        cfg = FitnessConfig(ft=FTConfig(k_range=(2.0, 11.0)), n_indep=2, epsilon=1.0)
        # residuals (1, 2): (2/2) * (1 + 4) = 5
        assert chi2(np.array([1.0, 2.0]), np.array([0.0, 0.0]), cfg) == pytest.approx(5.0)

    def test_epsilon_scaling(self):
        model = np.array([1.0, 3.0, -2.0])
        data = np.array([0.5, 2.0, 1.0])
        base = chi2(model, data, FitnessConfig(ft=FTConfig(k_range=(2, 11)), epsilon=1.0))
        doubled = chi2(model, data, FitnessConfig(ft=FTConfig(k_range=(2, 11)), epsilon=2.0))
        assert doubled == pytest.approx(base / 4.0)

    @pytest.mark.parametrize("k_weight", [-2, 4, 7, 400])
    def test_k_weight_must_be_0_to_3(self, k_weight):
        with pytest.raises(FitnessError, match=rf"k_weight must be in 0\.\.3, got {k_weight}$"):
            FitnessConfig(ft=FTConfig(k_range=(2, 11)), k_weight=k_weight)

    @pytest.mark.parametrize(
        "epsilon", [0.0, -1.0, float("nan"), float("inf"), np.full(241, 1.0)]
    )
    def test_epsilon_must_be_positive_scalar(self, epsilon):
        # A per-point array cannot follow the fit mask, which subsets the grid.
        with pytest.raises(FitnessError, match="positive scalar"):
            FitnessConfig(ft=FTConfig(k_range=(2, 11)), epsilon=epsilon)

    def test_length_mismatch(self, config):
        with pytest.raises(FitnessError):
            chi2(np.zeros(3), np.zeros(4), config)

    def test_empty(self, config):
        with pytest.raises(FitnessError):
            chi2(np.zeros(0), np.zeros(0), config)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 10, elements=st.floats(-1e3, 1e3)),
        arrays(np.float64, 10, elements=st.floats(-1e3, 1e3)),
    )
    # Residuals whose squares underflow to zero must still score above an exact fit.
    @example(np.zeros(10), np.full(10, 9.03885534e-288))
    def test_nonnegative_iff_zero_residual(self, m, d):
        cfg = FitnessConfig(ft=FTConfig(k_range=(2, 11)))
        val = chi2(m, d, cfg)
        assert val >= 0.0
        assert (val == 0.0) == bool(np.all(m == d))

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    @pytest.mark.parametrize("drop", [None, 5])
    @pytest.mark.parametrize("m, d", [
        (np.random.default_rng(1).normal(size=201), np.random.default_rng(2).normal(size=201)),
        (np.linspace(-3.0, 40.0, 37), np.zeros(37)),
        (np.zeros(10), np.full(10, 9.03885534e-288)),
    ])
    def test_equals_the_formula_bit_for_bit(self, m, d, epsilon, drop):
        n_indep = None if drop is None else m.size - drop
        cfg = FitnessConfig(ft=FTConfig(k_range=(2, 11)), n_indep=n_indep, epsilon=epsilon)
        n = m.size
        expected = float((n_indep or n) / n * np.sum(((m - d) / epsilon) ** 2))
        if expected == 0.0:  # the underflow example
            expected = float(np.finfo(float).smallest_subnormal)
        assert chi2(m, d, cfg) == expected


class TestMetrics:
    def test_exact_fit(self):
        d = np.array([1.0, 2.0, 3.0])
        out = metrics(d, d)
        assert out == {"r2": 1.0, "mae": 0.0, "rmse": 0.0}

    def test_hand_value(self):
        out = metrics(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert out["mae"] == pytest.approx(1.0)
        assert out["rmse"] == pytest.approx(1.0)
        assert out["r2"] == pytest.approx(0.0)

    def test_constant_data_rejected(self):
        with pytest.raises(FitnessError):
            metrics(np.array([1.0, 2.0]), np.array([5.0, 5.0]))

    @pytest.mark.parametrize("m, d", [([1.0], [2.0]), ([], []), ([1.0, 2.0], [1.0, 2.0, 3.0])],
                             ids=["one-point", "empty", "unequal-lengths"])
    def test_fewer_than_two_points_or_unequal_lengths_rejected(self, m, d):
        with pytest.raises(FitnessError, match=r"^need two arrays of equal length >= 2$"):
            metrics(np.array(m), np.array(d))

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 12, elements=st.floats(-100, 100)),
        arrays(np.float64, 12, elements=st.floats(-100, 100)),
    )
    def test_rmse_at_least_mae(self, m, d):
        if np.sum((d - d.mean()) ** 2) == 0:
            return
        out = metrics(m, d)
        assert out["rmse"] >= out["mae"] - 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        m, d = rng.normal(size=10), rng.normal(size=10)
        base = metrics(m, d)
        shifted = metrics(m + 5.0, d + 5.0)
        assert shifted["mae"] == pytest.approx(base["mae"])
        assert shifted["rmse"] == pytest.approx(base["rmse"])


class TestSpectrumObjective:
    def make(self, space="K"):
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(
            paths=tuple(synth_path(2.5 + i, 12, grid, label=f"p{i}") for i in range(2))
        )
        truth = Chromosome(
            -0.5, (PathParams(0.7, 0.003, 0.02), PathParams(0.5, 0.006, -0.01))
        )
        from exafsga.model import evaluate_model

        data = evaluate_model(paths, truth, grid)
        cfg = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.0)), space=space)
        return SpectrumObjective(data, paths, cfg), truth

    @pytest.mark.parametrize("space", ["K", "R", "K+R"])
    def test_truth_scores_zero(self, space):
        obj, truth = self.make(space)
        assert obj.evaluate_genes(truth.to_genes()) == pytest.approx(0.0, abs=1e-18)

    def test_wrong_params_score_positive(self):
        obj, truth = self.make()
        other = Chromosome(
            truth.delta_e0,
            (PathParams(0.2, 0.003, 0.02), truth.per_path[1]),
        )
        assert obj.evaluate_genes(other.to_genes()) > 0.0

    @pytest.mark.parametrize("n_genes", [4, 10])
    def test_wrong_gene_count_rejected(self, n_genes):
        # Two paths take 7 genes; 10 would read as three paths, 4 as one.
        obj, truth = self.make()
        genes = np.resize(truth.to_genes(), n_genes)
        with pytest.raises(ModelError, match=rf"^{n_genes} genes for 2 paths$"):
            obj.evaluate_genes(genes)

    def test_report_on_constant_data_leaves_every_comparison_out(self):
        # chi(k) = 0: the k-weighted and unweighted data and the data's
        # |chi(r)| are constant, so no r2 is defined.
        obj, truth = self.make("K+R")
        zero = KSpectrum(obj.grid, np.zeros(obj.grid.n_points))
        obj = SpectrumObjective(zero, obj.paths, obj.config)
        assert obj.report(truth.to_genes()) == ({}, {})

    @pytest.mark.parametrize("space", ["R", "K+R"])
    def test_r_space_matches_direct_transform(self, space):
        # The objective against chi^2 summed by hand, with both magnitudes
        # from the O(N^2) direct sum instead of the library's transform.
        obj, truth = self.make(space)
        rng = np.random.default_rng(11)
        data = KSpectrum(obj.grid, obj.data.chi + rng.normal(0.0, 0.01, obj.grid.n_points))
        obj = SpectrumObjective(data, obj.paths, obj.config)
        ft = obj.config.ft
        data_r = np.abs(direct_transform(data, ft)[1])
        k = obj.grid.ks
        codec = GeneCodec(default_gene_specs(2, e0_bounds=(-3.0, 3.0, 0.01)))
        for genes in codec.decode(codec.random(rng, 4)):
            chi, first = ModelEvaluator(obj.paths, obj.grid).evaluate_genes(genes)
            valid = np.arange(obj.grid.n_points) >= first
            model = KSpectrum(obj.grid, np.where(valid, chi, 0.0))
            expected = np.sum((np.abs(direct_transform(model, ft)[1]) - data_r) ** 2)
            if space == "K+R":
                m = (k >= ft.k_range[0]) & (k <= ft.k_range[1]) & valid
                expected += np.sum((k[m] ** 2 * (chi[m] - data.chi[m])) ** 2)
            assert obj.evaluate_genes(genes) == pytest.approx(expected, rel=1e-12)


class TestRestrictedEvaluation:
    """The objective evaluates the model only at the fit range and the
    transform's columns; its results equal a full-grid evaluation exactly."""

    # Grid points at 0.52 + 0.05 i, transform samples at 0.05 n: with no sill
    # the transform reads 2.52 and 11.97, just outside the fit k-range.
    GRID = KGrid(0.52, 12.52, 0.05)
    FT = FTConfig(k_range=(2.53, 11.96), window_sill=0.0)

    def make(self, space, ft):
        grid = self.GRID
        paths = PathSet(
            paths=tuple(synth_path(2.2 + 0.6 * i, 6, grid, label=f"p{i}") for i in range(3))
        )
        truth = np.concatenate([[-0.4], [0.7, 0.004, 0.01] * 3])
        rng = np.random.default_rng(3)
        chi = ModelEvaluator(paths, grid).evaluate_genes(truth)[0]
        data = KSpectrum(grid, chi + rng.normal(0.0, 0.01, grid.n_points))
        return SpectrumObjective(data, paths, FitnessConfig(ft=ft, space=space)), rng

    def test_support_reaches_outside_the_fit_range(self):
        k = self.GRID.ks
        k_mask = (k >= self.FT.k_range[0]) & (k <= self.FT.k_range[1])
        read = np.zeros(k.size, dtype=bool)
        read[k_to_r_map(self.GRID, self.FT).columns] = True
        assert np.count_nonzero(read & ~k_mask) == 2

    @pytest.mark.parametrize("sill", [0.0, 1.0])
    @pytest.mark.parametrize("space", ["K", "R", "K+R"])
    def test_equals_full_grid_evaluation(self, space, sill):
        ft = FTConfig(k_range=self.FT.k_range, window_sill=sill)
        obj, rng = self.make(space, ft)
        full = ModelEvaluator(obj.paths, obj.grid)
        k = obj.grid.ks
        k_mask = (k >= ft.k_range[0]) & (k <= ft.k_range[1])
        kw = k**obj.config.k_weight
        data_r = transform_k_to_r(obj.data, ft).magnitude
        codec = GeneCodec(default_gene_specs(3, e0_bounds=(-5.0, 5.0, 0.01)))
        for genes in codec.decode(codec.random(rng, 8)):
            chi, first = full.evaluate_genes(genes)
            valid = np.arange(obj.grid.n_points) >= first
            model_r = transform_k_to_r(KSpectrum(obj.grid, np.where(valid, chi, 0.0)), ft)
            m = k_mask & valid
            expected = 0.0
            if space in ("K", "K+R"):
                expected += chi2(kw[m] * chi[m], kw[m] * obj.data.chi[m], obj.config)
            if space in ("R", "K+R"):
                expected += chi2(model_r.magnitude, data_r, obj.config)
            assert obj.evaluate_genes(genes) == expected
            metrics_k, metrics_r = obj.report(genes)
            assert metrics_k == {
                **metrics(kw[m] * chi[m], kw[m] * obj.data.chi[m]),
                "unweighted": metrics(chi[m], obj.data.chi[m]),
            }
            assert metrics_r == metrics(model_r.magnitude, data_r)

    def test_shift_past_theory_range_outside_points_raises(self):
        # The theory arrays end at 12.6; a -10 eV shift takes only the
        # grid's last points, outside the fit range and the transform's
        # columns, past that end.
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p", k_pad=0.1),))
        data = evaluate_model(paths, Chromosome(0.0, (PathParams(0.7, 0.004, 0.0),)), grid)
        ft = FTConfig(k_range=(2.0, 11.0))
        obj = SpectrumObjective(data, paths, FitnessConfig(ft=ft))
        k = grid.ks
        points = (k >= 2.0) & (k <= 11.0)
        points[k_to_r_map(grid, ft).columns] = True
        genes = np.array([-10.0, 0.7, 0.004, 0.0])
        assert not points[-1]
        assert np.sqrt(k[points][-1] ** 2 + 10.0 * EV_TO_KSQ) < paths.paths[0].k_theory[-1]
        with pytest.raises(ModelError, match="theory range"):
            ModelEvaluator(paths, grid).evaluate_genes(genes)
        with pytest.raises(ModelError, match="theory range"):
            obj.evaluate_genes(genes)


class TestPerRowPath:
    """evaluate_genes applies the cached k->r map to the evaluator's chi and
    reads the valid part of the fit range as one slice; it equals the
    spectrum-level composition of chi2, KSpectrum and transform_k_to_r bit
    for bit."""

    GRID = KGrid(0.5, 12.5, 0.05)
    FT = FTConfig(k_range=(2.0, 11.0))
    SHIFT_PAST_FIT_START = 20.0  # eV: k' <= 0 below k = 2.29, inside the fit range
    SHIFT_PAST_FIT_END = 500.0  # eV: k' <= 0 below k = 11.46, past the fit range

    def make(self, space, fit_paths=None, **settings):
        """Objective on noisy three-path data, fitting fit_paths (default:
        the data's own paths); settings are further FitnessConfig fields."""
        grid = self.GRID
        paths = PathSet(
            paths=tuple(synth_path(2.2 + 0.6 * i, 6, grid, label=f"p{i}") for i in range(3))
        )
        truth = np.concatenate([[-0.4], [0.7, 0.004, 0.01] * 3])
        rng = np.random.default_rng(5)
        chi = ModelEvaluator(paths, grid).evaluate_genes(truth)[0]
        data = KSpectrum(grid, chi + rng.normal(0.0, 0.01, grid.n_points))
        cfg = FitnessConfig(ft=self.FT, space=space, **settings)
        return SpectrumObjective(data, fit_paths or paths, cfg), rng

    def composed(self, obj, genes):
        chi, first = ModelEvaluator(obj.paths, obj.grid).evaluate_genes(genes)
        k = obj.grid.ks
        kw = k**obj.config.k_weight
        valid = np.arange(k.size) >= first
        m = (k >= self.FT.k_range[0]) & (k <= self.FT.k_range[1]) & valid
        total = 0.0
        if obj.config.space in ("K", "K+R"):
            total += chi2(kw[m] * chi[m], kw[m] * obj.data.chi[m], obj.config)
        if obj.config.space in ("R", "K+R"):
            model_r = transform_k_to_r(KSpectrum(obj.grid, chi), self.FT).magnitude
            data_r = transform_k_to_r(obj.data, self.FT).magnitude
            total += chi2(model_r, data_r, obj.config)
        return total

    @pytest.mark.parametrize("space", ["K", "R", "K+R"])
    def test_equals_spectrum_level_composition(self, space):
        obj, rng = self.make(space)
        codec = GeneCodec(default_gene_specs(3, e0_bounds=(-20.0, 20.0, 0.01)))
        rows = codec.decode(codec.random(rng, 40))
        rows[0, 0] = self.SHIFT_PAST_FIT_START
        _, valid = shift_k(self.GRID, rows[0, 0])
        fit = (self.GRID.ks >= 2.0) & (self.GRID.ks <= 11.0)
        assert valid[fit].any() and not valid[fit].all()  # the shift cuts into the fit range
        for genes in rows:
            assert obj.evaluate_genes(genes) == self.composed(obj, genes)

    @pytest.mark.parametrize("epsilon,n_indep", [(1.0, None), (0.37, None), (1.0, 17), (0.37, 17)])
    @pytest.mark.parametrize("space", ["K", "R", "K+R"])
    def test_equals_report_composition(self, space, epsilon, n_indep):
        """The dE0-only constants evaluate_genes reads give report()'s
        numbers: the path rows of evaluate_paths summed, then compared in
        full, bit for bit.  dE0 spans shifts that leave the fit range whole
        and shifts that cut into it (first > _lo)."""
        obj, rng = self.make(space, epsilon=epsilon, n_indep=n_indep)
        codec = GeneCodec(default_gene_specs(3, e0_bounds=(-10.0, 30.0, 0.01)))
        rows = codec.decode(codec.random(rng, 100))
        k = self.GRID.ks
        kw = k**obj.config.k_weight
        data_r = transform_k_to_r(obj.data, self.FT).magnitude
        lo, hi = np.flatnonzero((k >= self.FT.k_range[0]) & (k <= self.FT.k_range[1]))[[0, -1]]
        firsts = []
        for genes in rows:
            terms, first = obj._evaluator.evaluate_paths(genes)
            chi = terms.sum(axis=0)
            expected = 0.0
            if space in ("K", "K+R"):
                m = slice(max(first, lo), hi + 1)
                expected += chi2(kw[m] * chi[m], kw[m] * obj.data.chi[m], obj.config)
            if space in ("R", "K+R"):
                model_r = transform_k_to_r(KSpectrum(self.GRID, chi), self.FT).magnitude
                expected += chi2(model_r, data_r, obj.config)
            assert obj.evaluate_genes(genes) == expected
            firsts.append(first)
        assert min(firsts) <= lo < max(firsts)  # the fit range whole and cut

    @pytest.mark.parametrize("space", ["K", "K+R"])
    def test_fit_range_all_invalid_names_generation_and_individual(self, space):
        obj, _ = self.make(space)
        e0 = (self.SHIFT_PAST_FIT_END, self.SHIFT_PAST_FIT_END + 1.0, 0.5)
        specs = default_gene_specs(3, e0_bounds=e0)
        cfg = GAConfig(population_size=10, max_generations=2, rng_seed=0)
        with pytest.raises(GAError, match=r"generation \d+, individual \d+: zero-length fit range"):
            evolve(obj.evaluate_genes, specs, cfg)

    def test_non_finite_r_space_model_fails_the_fitness_check(self):
        # deg * F / k overflows, so the model chi is non-finite; its chi(r)
        # and chi^2 are too, and evolve rejects the fitness.
        kt = np.arange(0.0, 15.0, 0.05)
        huge = ScatteringPath(
            label="huge", degeneracy=12.0, r_eff=2.5, k_theory=kt,
            f_eff=np.full_like(kt, 1e308), phase_scatter=np.zeros_like(kt),
            phase_central=np.zeros_like(kt), lam=np.full_like(kt, 10.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            obj, _ = self.make("R", PathSet(paths=(huge,)))
            specs = default_gene_specs(1, e0_bounds=(-1.0, 1.0, 0.01))
            cfg = GAConfig(population_size=10, max_generations=2, rng_seed=0)
            with pytest.raises(GAError, match=r"fitness [-a-z]+ at generation \d+, individual 0"):
                evolve(obj.evaluate_genes, specs, cfg)


class TestFitRangeOnGrid:
    @pytest.mark.parametrize("k_range", [(2.0, 20.0), (0.1, 11.0)])
    def test_k_range_beyond_grid_rejected(self, k_range):
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p"),))
        data = KSpectrum(grid, np.zeros(grid.n_points))
        cfg = FitnessConfig(ft=FTConfig(k_range=k_range))
        expected = rf"k_range \[{k_range[0]}, {k_range[1]}\] extends beyond the grid \[0.5, 12.5\]"
        with pytest.raises(FitnessError, match=expected):
            SpectrumObjective(data, paths, cfg)

    def test_rejection_keeps_the_transform_error_as_its_cause(self):
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p"),))
        data = KSpectrum(grid, np.zeros(grid.n_points))
        with pytest.raises(FitnessError) as info:
            SpectrumObjective(data, paths, FitnessConfig(ft=FTConfig(k_range=(2.0, 20.0))))
        assert isinstance(info.value.__cause__, TransformConfigError)
        assert str(info.value) == f"fit {info.value.__cause__}"

    def test_range_between_grid_points_rejected(self):
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p"),))
        data = KSpectrum(grid, np.zeros(grid.n_points))
        cfg = FitnessConfig(ft=FTConfig(k_range=(2.501, 2.509), window_sill=0.0))
        with pytest.raises(FitnessError,
                           match=r"^fit k_range \[2\.501, 2\.509\] contains no grid samples$"):
            SpectrumObjective(data, paths, cfg)

    @pytest.mark.parametrize("space", ["K", "R", "K+R"])
    def test_r_range_without_an_r_point_rejected_in_every_space(self, space):
        grid = KGrid(0.5, 12.5, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p"),))
        data = KSpectrum(grid, np.zeros(grid.n_points))
        cfg = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.0), r_range=(0.01, 0.02)), space=space)
        with pytest.raises(TransformConfigError, match=r"^r_range \[0\.01, 0\.02\] holds no r-point"):
            SpectrumObjective(data, paths, cfg)

    def test_empty_transform_support_evaluates_the_fit_range(self):
        # Grid points sit at odd multiples of 0.025 and the transform at
        # multiples of 0.05, so k_range holds one grid point (2.525) and no
        # transformed point: the map reads no column, an empty slice at the
        # fit's start.
        grid = KGrid(0.525, 12.525, 0.05)
        paths = PathSet(paths=(synth_path(2.5, 6, grid, label="p"),))
        truth = Chromosome(0.0, (PathParams(0.8, 0.004, 0.0),))
        data = evaluate_model(paths, truth, grid)
        ft = FTConfig(k_range=(2.52, 2.53), window_sill=0.0)
        assert k_to_r_map(grid, ft).columns == slice(40, 40)
        obj = SpectrumObjective(data, paths, FitnessConfig(ft=ft))
        trial = Chromosome(0.0, (PathParams(0.6, 0.004, 0.0),))
        model = evaluate_model(paths, trial, grid).chi
        kw = grid.ks[40:41] ** 2
        expected = chi2(kw * model[40:41], kw * data.chi[40:41], obj.config)
        assert expected > 0 and obj.evaluate_genes(trial.to_genes()) == expected
