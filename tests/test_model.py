import numpy as np
import pytest

from exafsga.ga import Chromosome
from exafsga.model import (
    ModelError,
    ModelEvaluator,
    PathParams,
    evaluate_model,
    path_contribution,
    shift_k,
)
from exafsga.paths import PathSet, ScatteringPath, synth_path
from exafsga.spectra import EV_TO_KSQ, KGrid


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
            fast, valid = ev.evaluate_genes(genes)
            assert np.array_equal(valid, shift_k(grid, genes[0])[1])
            ref = naive_model(ps, chrom.delta_e0, chrom.per_path, grid)
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-16)
            rows, valid_p = ev.evaluate_paths(genes)
            assert rows.shape == (4, grid.n_points) and np.array_equal(valid_p, valid)
            np.testing.assert_allclose(rows.sum(axis=0), fast, rtol=1e-12, atol=1e-16)

    def test_cache_consistency(self):
        grid = KGrid(0.5, 12.0, 0.05)
        ps = PathSet(paths=(synth_path(2.5, 12, grid, label="p"),))
        ev = ModelEvaluator(ps, grid)
        genes = np.array([1.5, 0.8, 0.004, 0.02])
        first, _ = ev.evaluate_genes(genes)
        second, _ = ev.evaluate_genes(genes)
        assert np.array_equal(first, second)
