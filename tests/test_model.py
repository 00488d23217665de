import numpy as np
import pytest

from exafsga.ga import Chromosome
from exafsga.model import (
    ModelError,
    ModelEvaluator,
    PATH_GENES,
    PathParams,
    evaluate_model,
    evaluate_model_masked,
    path_contribution,
    shift_k,
)
from exafsga.paths import PathSet, ScatteringPath, synth_path
from exafsga.spectra import EV_TO_KSQ, KGrid, SpectrumError


def flat_amplitude_path(grid, r_eff=2.0, lam=1e14):
    """Path with F(k) pinned to 1, zero phases, huge mean free path."""
    k = np.arange(0.0, grid.k_max + 2.0, grid.delta_k)
    return ScatteringPath(
        label="flat",
        degeneracy=1.0,
        r_eff=r_eff,
        k_theory=k,
        f_eff=np.ones_like(k),
        phase_scatter=np.zeros_like(k),
        phase_central=np.zeros_like(k),
        lam=np.full_like(k, lam),
    )


def naive_model(ps, delta_e0, params, grid):
    """Independent, literal coding of the full model equation, point by point."""
    expected = np.zeros(grid.n_points)
    for j, kj in enumerate(grid.ks):
        rad = kj**2 - EV_TO_KSQ * delta_e0
        if rad <= 0:
            continue
        kp = np.sqrt(rad)
        for p, pp in zip(ps, params):
            r = p.r_eff + pp.delta_r
            f = np.interp(kp, p.k_theory, p.f_eff)
            phi = np.interp(kp, p.k_theory, p.phase_scatter)
            dc = np.interp(kp, p.k_theory, p.phase_central)
            lam = np.interp(kp, p.k_theory, p.lam)
            expected[j] += (
                pp.s02
                * p.degeneracy
                * f
                / (kp * r**2)
                * np.exp(-2 * pp.sigma2 * kp**2)
                * np.exp(-2 * r / lam)
                * np.sin(2 * kp * r + phi + dc)
            )
    return expected


class TestPathParams:
    def test_fields_are_the_path_genes_in_order(self):
        assert PATH_GENES == ("s02", "sigma2", "delta_r")
        assert PathParams(0.7, 0.003, -0.02).sigma2 == 0.003

    @pytest.mark.parametrize("values, message", [
        ((-0.1, 0.003, 0.0), r"^s02 must be non-negative, got -0\.1$"),
        ((0.7, -0.003, 0.0), r"^sigma2 must be non-negative, got -0\.003$"),
    ])
    def test_negative_s02_or_sigma2_rejected(self, values, message):
        with pytest.raises(ModelError, match=message):
            PathParams(*values)


class TestShiftK:
    def test_zero_shift_is_identity(self):
        grid = KGrid(0.5, 12.0, 0.05)
        kp, valid = shift_k(grid, 0.0)
        assert np.array_equal(kp, grid.ks)
        assert np.all(valid)

    def test_hand_value(self):
        grid = KGrid(2.0, 3.0, 1.0)
        kp, valid = shift_k(grid, 3.81)
        # k'^2 = 4 - 0.2624682917*3.81 = 4 - 1.00000419...
        assert kp[0] == pytest.approx(np.sqrt(4.0 - EV_TO_KSQ * 3.81), rel=1e-12)
        assert kp[0] == pytest.approx(1.7320, abs=2e-4)
        assert valid[0]

    def test_negative_radicand_clamped_and_flagged(self):
        grid = KGrid(1.0, 2.0, 1.0)
        kp, valid = shift_k(grid, 10.0)
        assert kp[0] == 0.0
        assert not valid[0]
        assert valid[1]

    def test_negative_shift_raises_k(self):
        grid = KGrid(1.0, 2.0, 1.0)
        kp, valid = shift_k(grid, -5.0)
        assert np.all(kp > grid.ks)
        assert np.all(valid)


class TestPathContribution:
    def test_zero_s02(self):
        grid = KGrid(0.5, 12.0, 0.05)
        path = synth_path(2.5, 12, grid)
        chi = path_contribution(path, PathParams(0.0, 0.001, 0.0), 0.0, grid)
        assert np.all(chi == 0.0)

    def test_scalar_hand_value(self):
        # F = 1, phases 0, lambda huge, sigma2 = 0, N = 1, R = 2 at k = 3:
        # chi = sin(12)/(3*4)
        grid = KGrid(3.0, 4.0, 1.0)
        path = flat_amplitude_path(grid, r_eff=2.0)
        chi = path_contribution(path, PathParams(1.0, 0.0, 0.0), 0.0, grid)
        assert chi[0] == pytest.approx(np.sin(12.0) / 12.0, rel=1e-9)
        assert chi[0] == pytest.approx(-0.044714, abs=1e-6)

    def test_sigma2_damping_ratio(self):
        grid = KGrid(0.5, 12.0, 0.05)
        path = synth_path(2.5, 12, grid)
        base = path_contribution(path, PathParams(0.8, 0.002, 0.01), 0.5, grid)
        damped = path_contribution(path, PathParams(0.8, 0.004, 0.01), 0.5, grid)
        kp, valid = shift_k(grid, 0.5)
        expected = np.exp(-2.0 * 0.002 * kp[valid] ** 2)
        nz = base[valid] != 0
        np.testing.assert_allclose(
            (damped[valid] / np.where(nz, base[valid], 1.0))[nz], expected[nz], rtol=1e-10
        )

    def test_monotone_damping(self):
        grid = KGrid(0.5, 12.0, 0.05)
        path = synth_path(2.5, 12, grid)
        lo = path_contribution(path, PathParams(0.8, 0.001, 0.0), 0.0, grid)
        hi = path_contribution(path, PathParams(0.8, 0.015, 0.0), 0.0, grid)
        assert np.all(np.abs(hi) <= np.abs(lo) + 1e-15)

    def test_nonpositive_r_rejected(self):
        grid = KGrid(0.5, 12.0, 0.05)
        path = synth_path(2.5, 12, grid)
        with pytest.raises(ModelError):
            path_contribution(path, PathParams(0.8, 0.001, -2.5), 0.0, grid)

    def test_shifted_k_out_of_theory_range(self):
        grid = KGrid(0.5, 12.0, 0.05)
        k = np.arange(0.0, 12.05, 0.05)  # no headroom above k_max
        path = ScatteringPath(
            label="tight",
            degeneracy=1.0,
            r_eff=2.0,
            k_theory=k,
            f_eff=np.ones_like(k),
            phase_scatter=np.zeros_like(k),
            phase_central=np.zeros_like(k),
            lam=np.ones_like(k),
        )
        with pytest.raises(ModelError, match="theory range"):
            path_contribution(path, PathParams(0.8, 0.001, 0.0), -10.0, grid)


class TestEvaluateModel:
    def make_set(self, grid, n=5):
        return PathSet(
            paths=tuple(
                synth_path(2.0 + 0.7 * i, 6.0 + 2 * i, grid, label=f"p{i}")
                for i in range(n)
            )
        )

    def test_all_zero_amplitudes(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = self.make_set(grid)
        chrom = Chromosome(0.0, tuple(PathParams(0.0, 0.001, 0.0) for _ in range(5)))
        spec = evaluate_model(ps, chrom, grid)
        assert np.all(spec.chi == 0.0)

    def test_additivity(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = self.make_set(grid, n=2)
        params = (PathParams(0.7, 0.003, 0.02), PathParams(0.5, 0.008, -0.01))
        chrom = Chromosome(-1.0, params)
        total = evaluate_model(ps, chrom, grid).chi
        parts = sum(
            path_contribution(p, pp, -1.0, grid) for p, pp in zip(ps, params)
        )
        np.testing.assert_allclose(total, parts, rtol=1e-12, atol=1e-15)

    def test_matches_naive_summation(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = self.make_set(grid)
        rng = np.random.default_rng(11)
        params = tuple(
            PathParams(rng.uniform(0.1, 1), rng.uniform(0, 0.01), rng.uniform(-0.1, 0.1))
            for _ in range(5)
        )
        delta_e0 = -1.7
        chrom = Chromosome(delta_e0, params)
        got = evaluate_model(ps, chrom, grid).chi
        expected = naive_model(ps, delta_e0, params, grid)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-16)

    def test_wrong_param_count(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = self.make_set(grid)
        chrom = Chromosome(0.0, (PathParams(0.5, 0.001, 0.0),))
        with pytest.raises(ModelError):
            evaluate_model(ps, chrom, grid)

    def test_bitwise_stable(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = self.make_set(grid)
        chrom = Chromosome(0.0, tuple(PathParams(0.6, 0.004, 0.03) for _ in range(5)))
        a = evaluate_model(ps, chrom, grid).chi
        b = evaluate_model(ps, chrom, grid).chi
        assert np.array_equal(a, b)

    def test_overflowing_path_is_named(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.0, 6.0, grid, label="small"),
                            synth_path(2.3, 1e300, grid, label="big")))
        chrom = Chromosome(0.0, (PathParams(0.8, 0.003, 0.0), PathParams(1e300, 0.003, 0.0)))
        with pytest.raises(SpectrumError, match="^path big: model chi is not finite$"):
            evaluate_model(ps, chrom, grid)


class TestModelEvaluator:
    def test_matches_reference_path(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(
            paths=tuple(
                synth_path(2.0 + 0.7 * i, 6.0 + i, grid, label=f"p{i}")
                for i in range(4)
            )
        )
        rng = np.random.default_rng(2)
        ev = ModelEvaluator(ps, grid)
        for _ in range(10):
            genes = np.concatenate(
                [
                    [rng.uniform(-4, 4)],
                    rng.uniform([0.1, 0, -0.1] * 4, [1, 0.01, 0.1] * 4),
                ]
            )
            chrom = Chromosome.from_genes(genes)
            fast, first = ev.evaluate_genes(genes)
            valid = np.arange(grid.n_points) >= first
            assert np.array_equal(valid, shift_k(grid, genes[0])[1])
            ref = naive_model(ps, chrom.delta_e0, chrom.per_path, grid)
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-16)
            rows, first_p = ev.evaluate_paths(genes)
            assert rows.shape == (4, grid.n_points) and first_p == first
            np.testing.assert_allclose(rows.sum(axis=0), fast, rtol=1e-12, atol=1e-16)

    def test_cache_consistency(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.5, 12, grid, label="p"),))
        ev = ModelEvaluator(ps, grid)
        genes = np.array([1.5, 0.8, 0.004, 0.02])
        first, _ = ev.evaluate_genes(genes)
        second, _ = ev.evaluate_genes(genes)
        assert np.array_equal(first, second)

    def test_cache_is_keyed_by_the_exact_delta_e0(self):
        # 1.5 + 2e-13 is not the float 1.5, so it gets a table of its own.
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.5, 12, grid, label="p"),))
        ev = ModelEvaluator(ps, grid)
        ev.evaluate_genes(np.array([1.5, 0.8, 0.004, 0.02]))
        genes = np.array([1.5 + 2e-13, 0.8, 0.004, 0.02])
        cached, _ = ev.evaluate_genes(genes)
        assert np.array_equal(cached, ModelEvaluator(ps, grid).evaluate_genes(genes)[0])

    def test_full_cache_drops_the_oldest_table(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.5, 12, grid, label="p"),))
        ev = ModelEvaluator(ps, grid, cache_size=2)
        for delta_e0 in (1.0, 2.0, 1.0, 3.0):
            ev.evaluate_genes(np.array([delta_e0, 0.8, 0.004, 0.02]))
        assert list(ev._cache) == [2.0, 3.0]
        genes = np.array([1.0, 0.8, 0.004, 0.02])
        assert np.array_equal(ev.evaluate_genes(genes)[0],
                              ModelEvaluator(ps, grid).evaluate_genes(genes)[0])
        assert list(ev._cache) == [3.0, 1.0]

    @pytest.mark.parametrize("n_genes", [3, 7])
    def test_gene_count_checked_by_both_entries(self, n_genes):
        grid = KGrid(0.5, 12.0, 0.05)
        ev = ModelEvaluator(PathSet(paths=(synth_path(2.5, 12, grid, label="p"),)), grid)
        genes = np.resize([0.5, 0.8, 0.004, 0.02], n_genes)
        for entry in (ev.evaluate_genes, ev.evaluate_paths):
            with pytest.raises(ModelError, match=rf"^{n_genes} genes for 1 paths$"):
                entry(genes)

    @pytest.mark.parametrize("delta_e0", [-5.0, 10.0, 12.0**2 / EV_TO_KSQ + 1.0])
    def test_first_counts_the_invalid_points(self, delta_e0):
        # None, some and all of the grid's points invalid.
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(flat_amplitude_path(grid),))
        genes = [delta_e0, 0.8, 0.001, 0.0]
        n_invalid = np.count_nonzero(~shift_k(grid, delta_e0)[1])
        assert ModelEvaluator(ps, grid).evaluate_genes(genes)[1] == n_invalid
        assert ModelEvaluator(ps, grid).evaluate_paths(genes)[1] == n_invalid
        chrom = Chromosome.from_genes(np.array(genes))
        assert evaluate_model_masked(ps, chrom, grid)[1] == n_invalid


def theory_path(label, kt, seed, r_eff=2.5):
    """Path on the theory grid kt with random smooth-ish theory rows."""
    rng = np.random.default_rng(seed)
    n = kt.size
    return ScatteringPath(
        label=label,
        degeneracy=float(rng.integers(1, 13)),
        r_eff=r_eff,
        k_theory=kt,
        f_eff=rng.uniform(0.0, 1.0, n),
        phase_scatter=rng.uniform(-3.0, 3.0, n),
        phase_central=rng.uniform(-3.0, 3.0, n),
        lam=rng.uniform(2.0, 12.0, n),
    )


class TestTables:
    """ΔE0 tables against np.interp path by path, bit for bit."""

    @staticmethod
    def assert_tables_match_interp(ps, grid, delta_e0):
        ev = ModelEvaluator(ps, grid)
        first, used, two_k, deg_f_k, phase, neg2_inv_lam, _ = ev._tables(delta_e0)
        kp, valid_ref = shift_k(grid, delta_e0)
        np.testing.assert_array_equal(np.arange(grid.n_points) >= first, valid_ref)
        assert used == slice(first, grid.n_points)
        np.testing.assert_array_equal(two_k, 2.0 * kp[valid_ref])
        kv = kp[valid_ref]
        for i, p in enumerate(ps):
            kt = p.k_theory
            np.testing.assert_array_equal(
                deg_f_k[i], p.degeneracy * np.interp(kv, kt, p.f_eff) / kv
            )
            np.testing.assert_array_equal(
                phase[i],
                np.interp(kv, kt, p.phase_scatter) + np.interp(kv, kt, p.phase_central),
            )
            np.testing.assert_array_equal(neg2_inv_lam[i], -2.0 / np.interp(kv, kt, p.lam))

    def test_shared_uniform_grid(self):
        grid = KGrid(0.5, 12.0, 0.05)
        kt = np.arange(0.0, 14.0, 0.05)
        ps = PathSet(paths=tuple(theory_path(f"p{i}", kt, i) for i in range(6)))
        for delta_e0 in (-4.99, -1.7, 0.0, 0.03, 2.5, 4.37):
            self.assert_tables_match_interp(ps, grid, delta_e0)

    def test_two_non_uniform_grids_interleaved(self):
        grid = KGrid(0.5, 12.0, 0.05)
        rng = np.random.default_rng(5)
        kt_a = np.sort(np.concatenate([[0.0, 14.0], rng.uniform(0.0, 14.0, 150)]))
        kt_b = np.geomspace(0.1, 15.0, 90)
        ps = PathSet(
            paths=(
                theory_path("a0", kt_a, 1),
                theory_path("b0", kt_b, 2),
                theory_path("a1", kt_a, 3),
                theory_path("b1", kt_b, 4),
                theory_path("a2", kt_a, 5),
            )
        )
        for delta_e0 in (-3.3, 0.0, 0.77, 5.0):
            self.assert_tables_match_interp(ps, grid, delta_e0)

    def test_shifted_k_on_the_grid_ends(self):
        grid = KGrid(0.5, 12.0, 0.05)
        kt = grid.ks.copy()
        kp, _ = shift_k(grid, 0.0)
        assert kp[0] == kt[0] and kp[-1] == kt[-1]
        ps = PathSet(paths=(theory_path("p0", kt, 0), theory_path("p1", kt, 1)))
        self.assert_tables_match_interp(ps, grid, 0.0)

    def test_shifted_k_within_tolerance_outside_the_grid(self):
        grid = KGrid(0.5, 12.0, 0.05)
        kt = grid.ks + np.linspace(5e-10, -5e-10, grid.n_points)
        assert kt[0] > grid.k_min and kt[-1] < grid.k_max
        ps = PathSet(paths=(theory_path("p0", kt, 0), theory_path("p1", kt, 1)))
        self.assert_tables_match_interp(ps, grid, 0.0)

    def test_out_of_range_names_the_first_bad_path(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(
            paths=(
                theory_path("wide", np.arange(0.0, 16.0, 0.05), 0),
                theory_path("tight", np.arange(0.0, 12.3, 0.05), 1),
                theory_path("tighter", np.arange(0.0, 12.1, 0.05), 2),
            )
        )
        genes = np.concatenate([[-30.0], [0.8, 0.001, 0.0] * 3])
        with pytest.raises(ModelError, match="^path tight: shifted k"):
            ModelEvaluator(ps, grid).evaluate_genes(genes)


class TestTheoryRange:
    """The theory-range check reads the ends of the valid shifted grid and
    names the first bad path with the smallest and largest valid k'."""

    @staticmethod
    def expected_message(ps, grid, delta_e0):
        kp, valid = shift_k(grid, delta_e0)
        lo, hi = kp[valid].min(), kp[valid].max()
        for p in ps:
            kt_lo, kt_hi = p.k_theory[0], p.k_theory[-1]
            if lo < kt_lo - 1e-9 or hi > kt_hi + 1e-9:
                return (f"path {p.label}: shifted k in [{lo:.3f}, {hi:.3f}]"
                        f" outside theory range [{kt_lo:.3f}, {kt_hi:.3f}]")
        raise AssertionError("no path out of range")

    @pytest.mark.parametrize(
        "k_min, delta_e0",
        [
            (3.0, -30.0),  # past the high end: two bad paths, the first is named
            (3.0, 34.0),  # past the low end, every point valid
            (0.5, 5.0),  # past the low end, the grid's first points invalid
        ],
    )
    def test_message_names_first_bad_path_and_valid_range(self, k_min, delta_e0):
        grid = KGrid(k_min, 12.0, 0.05)
        ps = PathSet(
            paths=(
                theory_path("wide", np.arange(0.0, 16.0, 0.05), 0),
                theory_path("tight_lo", np.arange(0.3, 16.0, 0.05), 1),
                theory_path("tight_hi", np.arange(0.0, 12.3, 0.05), 2),
                theory_path("tighter_hi", np.arange(0.0, 12.1, 0.05), 3),
            )
        )
        expected = self.expected_message(ps, grid, delta_e0)
        genes = np.concatenate([[delta_e0], [0.8, 0.001, 0.0] * 4])
        with pytest.raises(ModelError) as info:
            ModelEvaluator(ps, grid).evaluate_genes(genes)
        assert str(info.value) == expected

    def test_every_point_invalid_is_not_checked(self):
        # k'^2 <= 0 on the whole grid: no shifted k to check, the model is 0.
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(theory_path("tight_lo", np.arange(2.0, 16.0, 0.05), 0),))
        delta_e0 = 12.0**2 / EV_TO_KSQ + 1.0
        chi, first = ModelEvaluator(ps, grid).evaluate_genes([delta_e0, 0.8, 0.001, 0.0])
        assert first == grid.n_points and not chi.any()


class TestPoints:
    # 1.3 eV invalidates the grid's first point, before the points; 95 eV
    # the points below k = 5, inside them; 381 eV every point of them.
    @pytest.mark.parametrize("delta_e0", [1.3, 95.0, 381.0])
    def test_model_is_zero_outside_points_and_equal_inside(self, delta_e0):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(
            paths=tuple(synth_path(2.0 + 0.5 * i, 6.0, grid, label=f"p{i}") for i in range(3))
        )
        inside = (grid.ks >= 3.0) & (grid.ks <= 9.0)
        points = slice(np.argmax(inside), grid.n_points - np.argmax(inside[::-1]))
        assert np.array_equal(np.arange(grid.n_points)[points], np.flatnonzero(inside))
        full = ModelEvaluator(ps, grid)
        part = ModelEvaluator(ps, grid, points=points)
        genes = np.concatenate([[delta_e0], [0.8, 0.004, 0.02] * 3])
        chi_full, first_full = full.evaluate_genes(genes)
        chi, first = part.evaluate_genes(genes)
        assert first == first_full
        np.testing.assert_array_equal(chi[inside], chi_full[inside])
        assert np.all(chi[~inside] == 0.0)

    @pytest.mark.parametrize(
        "points", [slice(5, 5), slice(9, 3), slice(500, None), slice(0, None, 2)]
    )
    def test_points_must_be_a_nonempty_unit_step_slice(self, points):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.5, 6.0, grid, label="p"),))
        with pytest.raises(ModelError, match="points"):
            ModelEvaluator(ps, grid, points=points)
