import numpy as np
import pytest

from exafsga.fitness import FitnessConfig
from exafsga.ga import (
    Chromosome,
    GAConfig,
    GAError,
    GAState,
    GeneCodec,
    GeneSpec,
    cooling_rate,
    crossover_and,
    crossover_or,
    crossover_uniform,
    default_gene_specs,
    mutate_maximum,
    mutate_metropolis,
    mutate_nested,
    rechenberg_update,
    run_ga,
    select,
)
from exafsga.model import ModelError, PathParams
from exafsga.paths import PathSet, synth_path
from exafsga.spectra import FTConfig, KGrid


SPECS = default_gene_specs(2)


def small_codec():
    return GeneCodec([GeneSpec("g", 0.0, 7.0, 1.0), GeneSpec("h", 0.0, 7.0, 1.0)])


class TestGeneSpec:
    def test_n_levels(self):
        assert GeneSpec("x", 0.0, 1.0, 0.1).n_levels == 11
        assert GeneSpec("x", 0.0, 1.0, 1.0).n_levels == 2

    def test_invalid(self):
        with pytest.raises(GAError):
            GeneSpec("x", 1.0, 0.0, 0.1)
        with pytest.raises(GAError):
            GeneSpec("x", 0.0, 1.0, -0.1)
        with pytest.raises(GAError):
            GeneSpec("x", 0.0, 1.0, 2.0)


class TestInitPopulation:
    """run_ga draws its initial population with GeneCodec.random(rng, size)."""

    def test_bounds(self):
        codec = GeneCodec(SPECS)
        for seed in range(10):
            assert codec.contains(codec.random(np.random.default_rng(seed), 1000))

    def test_determinism(self):
        codec = GeneCodec(SPECS)
        a = codec.random(np.random.default_rng(42), 50)
        b = codec.random(np.random.default_rng(42), 50)
        assert np.array_equal(a, b)

    def test_two_level_gene_exhaustive(self):
        specs = [GeneSpec("delta_e0", 0.0, 1.0, 1.0)] + default_gene_specs(1)[1:]
        pop = GeneCodec(specs).random(np.random.default_rng(0), 5000)
        values = set(pop[:, 0])
        assert values == {0.0, 1.0}

    def test_spec_count_checked(self):
        fx = FitFixture(n_paths=3)
        with pytest.raises(GAError, match="gene specs"):
            run_ga(fx.data, fx.paths, GAConfig(), fx.fitness, SPECS)


class TestSelect:
    def test_elite_count(self):
        cfg = GAConfig(population_size=10, elite_fraction=0.2)
        fits = np.arange(10.0)[::-1]  # best (lowest) fitness is the last row
        assert list(select(fits, cfg)) == [9, 8]

    def test_stable_tie_break(self):
        cfg = GAConfig(population_size=4, elite_fraction=0.5)
        fits = np.array([5.0, 1.0, 1.0, 0.5])
        # fitness ties (rows 1 and 2) keep original order
        assert list(select(fits, cfg)) == [3, 1]

    def test_too_small(self):
        with pytest.raises(GAError):
            select(np.zeros(1), GAConfig())


class TestCrossover:
    def test_uniform_identical_parents(self):
        rng = np.random.default_rng(0)
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(crossover_uniform(p, p, rng), p)

    def test_uniform_membership(self):
        rng = np.random.default_rng(1)
        a = np.zeros(20)
        b = np.ones(20)
        for _ in range(100):
            child = crossover_uniform(a, b, rng)
            assert np.all((child == 0.0) | (child == 1.0))

    def test_uniform_frequency(self):
        rng = np.random.default_rng(2)
        a, b = np.zeros(4), np.ones(4)
        picks = np.zeros(4)
        n = 10_000
        for _ in range(n):
            picks += crossover_uniform(a, b, rng)
        freq = picks / n
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_and_or_idempotent(self):
        codec = small_codec()
        p = np.array([5.0, 3.0])
        assert np.array_equal(crossover_and(p, p, codec), p)
        assert np.array_equal(crossover_or(p, p, codec), p)

    def test_and_or_hand_bits(self):
        # indices 5 (0b101) and 3 (0b011): AND -> 1, OR -> 7
        codec = small_codec()
        a = np.array([5.0, 5.0])
        b = np.array([3.0, 3.0])
        assert list(crossover_and(a, b, codec)) == [1.0, 1.0]
        assert list(crossover_or(a, b, codec)) == [7.0, 7.0]

    def test_or_clamped_to_grid(self):
        codec = GeneCodec([GeneSpec("g", 0.0, 6.0, 1.0)])  # indices 0..6
        child = crossover_or(np.array([5.0]), np.array([3.0]), codec)
        assert child[0] == 6.0  # OR gives 7, clamped to the top level

    def test_bit_lattice_bounds(self):
        codec = small_codec()
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = codec.random(rng)
            b = codec.random(rng)
            ia, ib = codec.encode(a), codec.encode(b)
            i_and = codec.encode(crossover_and(a, b, codec))
            i_or = codec.encode(crossover_or(a, b, codec))
            assert np.all(i_and <= np.minimum(ia, ib))
            assert np.all(i_or >= np.maximum(ia, ib))


class TestMutateMaximum:
    def test_sigma_zero_never(self):
        rng = np.random.default_rng(0)
        codec = GeneCodec(SPECS)
        ind = codec.random(rng)
        for _ in range(100):
            assert np.array_equal(mutate_maximum(ind, 0.0, codec, rng), ind)

    def test_sigma_100_always(self):
        rng = np.random.default_rng(1)
        codec = GeneCodec(SPECS)
        ind = codec.random(rng)
        changed = sum(
            not np.array_equal(mutate_maximum(ind, 100.0, codec, rng), ind)
            for _ in range(50)
        )
        assert changed >= 49  # random replacement may rarely equal the original

    def test_replacement_frequency(self):
        rng = np.random.default_rng(2)
        codec = GeneCodec(default_gene_specs(4))
        ind = codec.random(rng)
        n = 10_000
        hits = sum(
            not np.array_equal(mutate_maximum(ind, 30.0, codec, rng), ind)
            for _ in range(n)
        )
        assert abs(hits / n - 0.30) < 0.02


class TestMutateNested:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(0)
        codec = GeneCodec(SPECS)
        ind = codec.random(rng)
        assert np.array_equal(mutate_nested(ind, 0.0, codec, rng), ind)

    def test_sigma_100_all_genes(self):
        rng = np.random.default_rng(1)
        codec = GeneCodec(SPECS)
        ind = codec.random(rng)
        out = mutate_nested(ind, 100.0, codec, rng)
        # every gene regenerated; with many levels a collision on all genes
        # at once is effectively impossible
        assert not np.array_equal(out, ind)

    def test_per_gene_frequency_is_sigma_squared(self):
        rng = np.random.default_rng(2)
        specs = [GeneSpec(f"g{i}", 0.0, 1e6, 1.0) for i in range(5)]
        codec = GeneCodec(specs)
        ind = codec.random(rng)
        n = 20_000
        changed = np.zeros(5)
        for _ in range(n):
            out = mutate_nested(ind, 20.0, codec, rng)
            changed += out != ind
        freq = changed / n
        assert np.all(np.abs(freq - 0.04) < 0.01)

    def test_forced_inner_reproduces_maximum(self):
        codec = GeneCodec(default_gene_specs(3))
        ind = GeneCodec(default_gene_specs(3)).random(np.random.default_rng(9))
        for seed in range(50):
            out_nested = mutate_nested(
                ind, 37.0, codec, np.random.default_rng(seed), force_inner=True
            )
            out_max = mutate_maximum(ind, 37.0, codec, np.random.default_rng(seed))
            assert np.array_equal(out_nested, out_max)


class TestCoolingRate:
    def test_hand_value(self):
        assert cooling_rate(1.0, 50, 100) == pytest.approx(1.442695, abs=1e-6)

    def test_zero_delta_f(self):
        assert cooling_rate(0.0, 30, 100) == 0.0

    def test_monotone_decreasing_to_zero(self):
        vals = [cooling_rate(1.0, i, 100) for i in range(1, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_i_zero_sentinel(self):
        assert np.isnan(cooling_rate(1.0, 0, 100))


class TestMutateMetropolis:
    def setup_method(self):
        self.codec = GeneCodec(default_gene_specs(2))
        self.state = GAState(generation=50, max_generation=100, delta_f=1.0)

    def test_improving_always_accepted(self):
        rng = np.random.default_rng(0)
        ind = self.codec.random(rng)
        out, f = mutate_metropolis(
            ind, 100.0, 10.0, self.state, rng, lambda g: 1.0, self.codec
        )
        assert f == 1.0
        assert not np.array_equal(out, ind)

    def test_equal_fitness_never_accepted(self):
        # exp(0) = 1 and t < 1, so the thermal criterion never fires
        rng = np.random.default_rng(1)
        ind = self.codec.random(rng)
        for _ in range(100):
            out, f = mutate_metropolis(
                ind, 100.0, 5.0, self.state, rng, lambda g: 5.0, self.codec
            )
            assert f == 5.0
            assert np.array_equal(out, ind)

    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(2)
        ind = self.codec.random(rng)
        out, f = mutate_metropolis(
            ind, 0.0, 5.0, self.state, rng, lambda g: 0.0, self.codec
        )
        assert np.array_equal(out, ind)
        assert f == 5.0

    def test_worse_rejected_when_cooling_invalid(self):
        rng = np.random.default_rng(3)
        ind = self.codec.random(rng)
        state = GAState(generation=0, max_generation=100, delta_f=1.0)
        for _ in range(50):
            out, f = mutate_metropolis(
                ind, 100.0, 5.0, state, rng, lambda g: 50.0, self.codec
            )
            assert np.array_equal(out, ind)
            assert f == 5.0

    def test_worse_acceptance_probability(self):
        # K chosen so exp(-df/K) = 0.7: acceptance probability 1 - 0.7 = 0.3
        df = 1.0
        k_target = -df / np.log(0.7)
        i, i_max = 50, 100
        delta_f = k_target * -np.log(1 - i / i_max)
        state = GAState(generation=i, max_generation=i_max, delta_f=delta_f)
        rng = np.random.default_rng(4)
        ind = self.codec.random(rng)
        n, accepted = 4000, 0
        for _ in range(n):
            out, f = mutate_metropolis(
                ind, 100.0, 5.0, state, rng, lambda g: 5.0 + df, self.codec
            )
            accepted += f != 5.0
        assert abs(accepted / n - 0.3) < 0.03

    def test_delta_e0_gene_untouched(self):
        rng = np.random.default_rng(5)
        ind = self.codec.random(rng)
        for _ in range(50):
            out, _ = mutate_metropolis(
                ind, 100.0, 10.0, self.state, rng, lambda g: 1.0, self.codec
            )
            assert out[0] == ind[0]


class TestRechenberg:
    CFG = GAConfig(rechenberg_factor=0.9, mutation_rate_bounds=(1.0, 90.0))

    def test_success_grows_sigma(self):
        assert rechenberg_update(10.0, 0.5, self.CFG) == pytest.approx(10.0 / 0.9)

    def test_failure_shrinks_sigma(self):
        assert rechenberg_update(10.0, 0.1, self.CFG) == pytest.approx(9.0)

    def test_exact_fifth_unchanged(self):
        assert rechenberg_update(10.0, 0.2, self.CFG) == 10.0

    def test_clamping(self):
        assert rechenberg_update(89.0, 0.9, self.CFG) == 90.0
        assert rechenberg_update(1.05, 0.0, self.CFG) == 1.0


class FitFixture:
    def __init__(self, seed=0, n_paths=3, snr=None):
        from exafsga.analysis import synth_generate

        self.grid = KGrid(0.5, 13.0, 0.05)
        self.paths = PathSet(
            paths=tuple(
                synth_path(2.3 + 0.8 * i, 6.0 + 3 * i, self.grid, label=f"p{i}")
                for i in range(n_paths)
            )
        )
        self.truth = Chromosome(
            -0.5,
            tuple(PathParams(0.6 + 0.05 * i, 0.003 + 0.001 * i, 0.02) for i in range(n_paths)),
        )
        self.data = synth_generate(self.paths, self.truth, self.grid, snr=snr, seed=seed)
        self.fitness = FitnessConfig(ft=FTConfig(k_range=(2.5, 12.5)))


class TestRunGA:
    def tight_specs(self, truth):
        specs = [GeneSpec("delta_e0", truth.delta_e0 - 0.02, truth.delta_e0 + 0.02, 0.01)]
        for i, p in enumerate(truth.per_path):
            specs.append(GeneSpec(f"s02_{i}", max(0, p.s02 - 0.01), p.s02 + 0.01, 0.005))
            specs.append(
                GeneSpec(f"sigma2_{i}", max(0, p.sigma2 - 2e-4), p.sigma2 + 2e-4, 1e-4)
            )
            specs.append(
                GeneSpec(f"delta_r_{i}", p.delta_r - 0.002, p.delta_r + 0.002, 1e-3)
            )
        return specs

    def test_recovers_truth_with_tight_bounds(self):
        fx = FitFixture(n_paths=2)
        specs = self.tight_specs(fx.truth)
        cfg = GAConfig(population_size=200, max_generations=50, rng_seed=3, patience=50)
        result = run_ga(fx.data, fx.paths, cfg, fx.fitness, specs)
        assert result.best_fitness < 1e-6

    def test_stagnation_exit(self):
        fx = FitFixture(n_paths=1)
        cfg = GAConfig(
            population_size=20, max_generations=100, patience=5, rng_seed=0
        )
        result = run_ga(
            fx.data, fx.paths, cfg, fx.fitness,
            default_gene_specs(1), objective_fn=lambda genes: 1.0,
        )
        assert result.exit_reason == "stagnation"
        assert result.n_generations == 6

    def test_determinism(self):
        fx = FitFixture(snr=20)
        cfg = GAConfig(population_size=60, max_generations=12, rng_seed=17, patience=12)
        a = run_ga(fx.data, fx.paths, cfg, fx.fitness)
        b = run_ga(fx.data, fx.paths, cfg, fx.fitness)
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.best.to_genes(), b.best.to_genes())
        assert a.exit_reason == b.exit_reason

    @pytest.mark.parametrize("crossover", ["uniform", "and", "or"])
    @pytest.mark.parametrize("mutation", ["maximum", "nested", "metropolis"])
    def test_operator_combinations_run(self, crossover, mutation):
        fx = FitFixture(snr=20, n_paths=1)
        cfg = GAConfig(
            population_size=30,
            max_generations=8,
            crossover_method=crossover,
            mutation_method=mutation,
            rng_seed=5,
            patience=8,
        )
        result = run_ga(fx.data, fx.paths, cfg, fx.fitness, default_gene_specs(1))
        assert np.isfinite(result.best_fitness)

    def test_elitism_trace_non_increasing(self):
        fx = FitFixture(snr=10)
        cfg = GAConfig(population_size=50, max_generations=25, rng_seed=2, patience=25)
        result = run_ga(fx.data, fx.paths, cfg, fx.fitness)
        assert np.all(np.diff(result.history["best_fitness"]) <= 0.0)

    def test_sigma_trace_respects_bounds_and_factor(self):
        fx = FitFixture(snr=10)
        cfg = GAConfig(
            population_size=40, max_generations=30, rng_seed=4, patience=30,
            rechenberg_factor=0.8, initial_mutation_rate=30.0,
        )
        result = run_ga(fx.data, fx.paths, cfg, fx.fitness)
        lo, hi = cfg.mutation_rate_bounds
        s = result.history["sigma"]
        assert np.all((s >= lo) & (s <= hi))
        for prev, cur in zip(s, s[1:]):
            ratios = {cur / prev, cur * 0.8 / prev, cur / (0.8 * prev)}
            clamped = cur in (lo, hi)
            assert clamped or any(abs(r - 1) < 1e-9 for r in ratios)

    def test_all_individuals_within_bounds(self):
        # bound containment is enforced by construction; verify via the best
        # chromosome of several runs with extreme operators
        for mutation in ("maximum", "nested", "metropolis"):
            fx = FitFixture(snr=5)
            specs = default_gene_specs(3)
            codec = GeneCodec(specs)
            cfg = GAConfig(
                population_size=30, max_generations=10, rng_seed=8,
                mutation_method=mutation, initial_mutation_rate=80.0,
                mutation_rate_bounds=(1.0, 95.0), patience=10,
            )
            result = run_ga(fx.data, fx.paths, cfg, fx.fitness, specs)
            assert codec.contains(result.best.to_genes())

    def failing_objective(self, fail_at, value):
        """Objective that returns `value` (raising it if it is an exception)
        on call `fail_at` and a finite fitness otherwise."""
        calls = []

        def objective(genes):
            calls.append(1)
            if len(calls) == fail_at:
                if isinstance(value, Exception):
                    raise value
                return value
            return float(np.sum(genes**2))

        return objective

    def test_mutation_stage_error_has_context(self):
        # pop 20 = 4 elites + 12 children + 4 randoms: 20 initial calls and 16
        # at generation 2, so call 37 scores the first mutant (row 4) there.
        fx = FitFixture(n_paths=1)
        cfg = GAConfig(population_size=20, max_generations=5, initial_mutation_rate=100.0,
                       mutation_rate_bounds=(1.0, 100.0), rng_seed=0)
        objective = self.failing_objective(37, ModelError("out of range"))
        with pytest.raises(GAError, match="generation 2, individual 4: out of range"):
            run_ga(fx.data, fx.paths, cfg, fx.fitness, default_gene_specs(1), objective)

    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_non_finite_fitness_raises(self, value):
        fx = FitFixture(n_paths=1)
        cfg = GAConfig(population_size=20, max_generations=5, rng_seed=0)
        objective = self.failing_objective(30, value)
        with pytest.raises(GAError, match=r"generation 2, individual 13, genes \["):
            run_ga(fx.data, fx.paths, cfg, fx.fitness, default_gene_specs(1), objective)

    def test_attribution_telescopes(self):
        fx = FitFixture(snr=20)
        cfg = GAConfig(population_size=40, max_generations=15, rng_seed=6, patience=15)
        result = run_ga(fx.data, fx.paths, cfg, fx.fitness)
        h = result.history
        total = h["d_crossover"] + h["d_mutation"]
        np.testing.assert_allclose(total[1:], np.diff(h["best_fitness"]), atol=1e-12)


class TestChromosome:
    def test_gene_roundtrip(self):
        chrom = Chromosome(
            -1.5, (PathParams(0.5, 0.004, 0.01), PathParams(0.7, 0.002, -0.03))
        )
        again = Chromosome.from_genes(chrom.to_genes())
        assert again == chrom
        assert chrom.n_genes == 7

    def test_bad_gene_count(self):
        with pytest.raises(GAError):
            Chromosome.from_genes(np.zeros(6))
