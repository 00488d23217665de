import math

import numpy as np
import pytest

from exafsga import ga
from exafsga.fitness import FitnessConfig
from exafsga.ga import (
    Chromosome,
    GAConfig,
    GAError,
    GeneCodec,
    GeneSpec,
    cooling_rate,
    crossover_and,
    crossover_or,
    crossover_uniform,
    default_gene_specs,
    evolve,
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

    @pytest.mark.parametrize("bounds, message", [
        ((np.nan, 1.0, 0.1), "must be finite"),
        ((0.0, np.inf, 0.1), "must be finite"),
        ((0.0, 1.0, np.nan), "must be finite"),
        ((0.0, 1e300, 1e-300), r"more than 2\^32"),
        ((-1e308, 1e308, 1.0), r"more than 2\^32"),
        ((0.0, 2.0**32, 1.0), r"more than 2\^32"),
    ])
    def test_non_finite_or_uncountable_levels_rejected(self, bounds, message):
        with pytest.raises(GAError, match=message):
            GeneSpec("x", *bounds)

    def test_level_limit_is_inclusive(self):
        assert GeneSpec("x", 0.0, 2.0**32 - 1, 1.0).n_levels == 2**32

    def test_levels_finer_than_the_float_spacing_rejected(self):
        # 100 levels, which lower + i*step maps to only 67 distinct floats.
        with pytest.raises(GAError, match="two levels could decode to one value"):
            GeneSpec("g", 1e8, 1e8 + 1e-6, 1e-8)

    # (lower, magnitude of the larger bound, levels); the last spec's upper
    # bound lies in the binade above its lower bound.
    @pytest.mark.parametrize("lower, bound, n", [
        (1e8, 1e8, 100), (-1e8, 1e8, 100), (2.0**27 - 1e-5, 2.0**27, 300),
    ])
    def test_levels_at_the_accepted_edge_decode_strictly_increasing(self, lower, bound, n):
        edge = 4 * math.ulp(bound)
        with pytest.raises(GAError, match="two levels could decode to one value"):
            GeneSpec("g", lower, lower + (n - 1) * edge, edge)
        step = float(np.nextafter(edge, np.inf))
        spec = GeneSpec("g", lower, lower + (n - 1) * step, step)
        assert math.ulp(max(abs(spec.lower), abs(spec.upper))) == math.ulp(bound)
        assert spec.n_levels in (n - 1, n)
        values = GeneCodec([spec]).decode(np.arange(spec.n_levels)[:, None])[:, 0]
        assert np.all(np.diff(values) > 0)


class TestInitPopulation:
    """run_ga draws its initial population with GeneCodec.random(rng, size)."""

    def test_bounds(self):
        codec = GeneCodec(SPECS)
        for seed in range(10):
            idx = codec.random(np.random.default_rng(seed), 1000)
            assert idx.dtype == np.int64
            assert np.all((idx >= 0) & (idx < codec.n_levels))
            assert codec.contains(codec.decode(idx))

    def test_determinism(self):
        codec = GeneCodec(SPECS)
        a = codec.random(np.random.default_rng(42), 50)
        b = codec.random(np.random.default_rng(42), 50)
        assert np.array_equal(a, b)

    def test_one_row_is_a_block_of_one(self):
        # 3*2^30 levels reject about a quarter of the raw draws, 2^32 none.
        specs = SPECS + [GeneSpec("wide", 0.0, 3.0 * 2**30 - 1, 1.0),
                         GeneSpec("full", 0.0, 2.0**32 - 1, 1.0)]
        codec = GeneCodec(specs)
        for seed in range(200):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert np.array_equal(codec.random(rng), codec.random(twin, 1)[0])
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_two_level_gene_exhaustive(self):
        specs = [GeneSpec("delta_e0", 0.0, 1.0, 1.0)] + default_gene_specs(1)[1:]
        codec = GeneCodec(specs)
        pop = codec.decode(codec.random(np.random.default_rng(0), 5000))
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


# Eight genes of 16 levels: no two rows of a small population coincide, and
# the objective genes @ LATTICE_WEIGHTS is one-to-one on the grid.
LATTICE = [GeneSpec(f"g{i}", 0.0, 15.0, 1.0) for i in range(8)]
LATTICE_WEIGHTS = 16.0 ** np.arange(8)


def twin_generation_2(cfg, codec):
    """Replay evolve's draws with a twin generator, for the objective
    genes @ LATTICE_WEIGHTS, up to generation 2's mutation stage.  Returns the twin,
    left there, and the initial population, the children and the random
    rows, as level indices."""
    twin = np.random.default_rng(cfg.rng_seed)
    pop = codec.random(twin, cfg.population_size)
    elite = select(codec.decode(pop) @ LATTICE_WEIGHTS, cfg)
    n_random = int(cfg.population_size * cfg.random_fraction)
    children = []
    for _ in range(cfg.population_size - elite.size - n_random):
        i, j = ga._pick_two_parents(elite.size, twin)
        a, b = pop[elite[i]], pop[elite[j]]
        if cfg.crossover_method == "uniform":
            children.append(crossover_uniform(a, b, twin.random(codec.n_genes)))
        else:
            cross = crossover_and if cfg.crossover_method == "and" else crossover_or
            children.append(cross(a, b, codec))
    return twin, pop, np.array(children), codec.random(twin, n_random)


class TestCrossover:
    def test_uniform_identical_parents(self):
        rng = np.random.default_rng(0)
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(crossover_uniform(p, p, rng.random(3)), p)

    def test_uniform_membership(self):
        rng = np.random.default_rng(1)
        a = np.zeros(20)
        b = np.ones(20)
        for _ in range(100):
            child = crossover_uniform(a, b, rng.random(20))
            assert np.all((child == 0.0) | (child == 1.0))

    def test_uniform_frequency(self):
        rng = np.random.default_rng(2)
        a, b = np.zeros(4), np.ones(4)
        picks = np.zeros(4)
        n = 10_000
        for _ in range(n):
            picks += crossover_uniform(a, b, rng.random(4))
        freq = picks / n
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_and_or_idempotent(self):
        codec = small_codec()
        p = np.array([5, 3])
        assert np.array_equal(crossover_and(p, p, codec), p)
        assert np.array_equal(crossover_or(p, p, codec), p)

    def test_and_or_hand_bits(self):
        # indices 5 (0b101) and 3 (0b011): AND -> 1, OR -> 7
        codec = small_codec()
        a = np.array([5, 5])
        b = np.array([3, 3])
        assert list(crossover_and(a, b, codec)) == [1, 1]
        assert list(crossover_or(a, b, codec)) == [7, 7]

    def test_or_clamped_to_grid(self):
        codec = GeneCodec([GeneSpec("g", 0.0, 6.0, 1.0)])  # indices 0..6
        child = crossover_or(np.array([5]), np.array([3]), codec)
        assert child[0] == 6  # OR gives 7, clamped to the top level

    def test_and_or_blocks_equal_row_by_row(self):
        # Gene 0 has indices 0..6 and gene 1 indices 0..200, so OR reaches
        # indices past the top level, which crossover_or clamps.
        codec = GeneCodec([GeneSpec("a", 0.0, 6.0, 1.0), GeneSpec("b", -1.0, 1.0, 0.01)])
        rng = np.random.default_rng(4)
        a, b = codec.random(rng, 60), codec.random(rng, 60)
        assert np.any((a | b) > codec.n_levels - 1)
        for cross in (crossover_and, crossover_or):
            block = cross(a, b, codec)
            rows = np.array([cross(pa, pb, codec) for pa, pb in zip(a, b)])
            assert block.shape == a.shape
            assert np.array_equal(block, rows)

    @pytest.mark.parametrize("method", ga.CROSSOVER_METHODS)
    def test_evolve_draws_each_childs_parents_then_its_mask(self, method):
        """Generation 2 scores the children a twin generator makes pair by
        pair with crossover_uniform or the AND/OR operator, then the mutants
        mutate_maximum (at the default sigma of 20) makes of them and of the
        random rows, decoded.  The objective is one-to-one on the 16^8 grid
        and records each row it scores; rows already scored are skipped, as
        evolve's memo skips them."""
        codec = GeneCodec(LATTICE)
        calls = []

        def objective(genes):
            calls.append(genes.tobytes())
            return float(genes @ LATTICE_WEIGHTS)

        cfg = GAConfig(population_size=30, max_generations=2, crossover_method=method,
                       rng_seed=11)
        evolve(objective, LATTICE, cfg)

        twin, pop, children, randoms = twin_generation_2(cfg, codec)
        mutants = [mutate_maximum(row, cfg.initial_mutation_rate, codec, twin)
                   for row in [*children, *randoms]]
        expected = []
        for row in codec.decode(np.array([*pop, *children, *mutants])):
            if row.tobytes() not in expected:
                expected.append(row.tobytes())
        assert len(expected) > 40
        assert calls == expected

    def test_bit_lattice_bounds(self):
        codec = small_codec()
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = codec.random(rng)
            b = codec.random(rng)
            i_and = crossover_and(a, b, codec)
            i_or = crossover_or(a, b, codec)
            assert np.all(i_and <= np.minimum(a, b))
            assert np.all(i_or >= np.maximum(a, b))
            assert np.all(i_or <= codec.n_levels - 1)


class TestIndexPopulation:
    """evolve holds int64 level indices and hands the objective decoded rows."""

    # Level counts 7, 201 and 201: OR of two indices can pass the top level.
    SPECS = [GeneSpec("a", 0.0, 6.0, 1.0), GeneSpec("b", -1.0, 1.0, 0.01),
             GeneSpec("c", 0.1, 0.7, 0.003)]

    @pytest.mark.parametrize("crossover", ga.CROSSOVER_METHODS)
    @pytest.mark.parametrize("mutation", ga.MUTATION_METHODS)
    def test_objective_sees_decoded_levels(self, monkeypatch, crossover, mutation):
        codec = GeneCodec(self.SPECS)
        top = codec.n_levels - 1
        seen, children, raw_or = [], [], []

        def objective(genes):
            seen.append(genes.copy())
            return float(np.sum((genes - 0.3) ** 2))

        def recording(cross):
            def crossed(parents_a, parents_b, operand):
                if cross is crossover_or:
                    raw_or.append(parents_a | parents_b)
                children.append(cross(parents_a, parents_b, operand))
                return children[-1]
            return crossed

        for cross in (crossover_uniform, crossover_and, crossover_or):
            monkeypatch.setattr(ga, cross.__name__, recording(cross))
        cfg = GAConfig(population_size=30, max_generations=6, patience=6,
                       crossover_method=crossover, mutation_method=mutation,
                       initial_mutation_rate=50.0, rng_seed=2)
        genes, _, _, _ = evolve(objective, self.SPECS, cfg)

        assert len(children) == 5
        for block in children:
            assert block.dtype == np.int64
            assert np.all((block >= 0) & (block <= top))
        if crossover == "or":
            assert np.any(np.concatenate(raw_or) > top)
        for g in seen:
            i = np.rint((g - codec.lower) / codec.step).astype(np.int64)
            assert np.all((i >= 0) & (i <= top))
            assert (codec.lower + i * codec.step).tobytes() == g.tobytes()
        assert genes.tobytes() in {g.tobytes() for g in seen}

    def test_block_decode_equals_row_decodes(self):
        codec = GeneCodec(default_gene_specs(3) + self.SPECS)
        idx = codec.random(np.random.default_rng(7), 200)
        rows = np.array([codec.decode(row) for row in idx])
        assert codec.decode(idx).tobytes() == rows.tobytes()


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

    @pytest.mark.parametrize("sigma", [0.0, 37.0, 100.0])
    def test_draws_the_gate_then_one_random_row(self, sigma):
        codec = GeneCodec(default_gene_specs(3))
        ind = codec.random(np.random.default_rng(9))
        for seed in range(20):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            out = mutate_maximum(ind, sigma, codec, rng)
            expected = codec.random(twin) if twin.uniform(0.0, 100.0) < sigma else ind
            assert np.array_equal(out, expected)
            assert rng.bit_generator.state == twin.bit_generator.state


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
        self.k_cool = cooling_rate(1.0, 50, 100)

    def test_improving_always_accepted(self):
        rng = np.random.default_rng(0)
        ind = self.codec.random(rng)
        out, f = mutate_metropolis(
            ind, 100.0, 10.0, self.k_cool, rng, lambda g: 1.0, self.codec
        )
        assert f == 1.0
        assert not np.array_equal(out, ind)

    def test_equal_fitness_always_kept(self):
        # exp(0) = 1 > t, so a mutant that scores as its parent does is kept
        rng = np.random.default_rng(1)
        ind = self.codec.random(rng)
        for _ in range(100):
            scored = []
            out, f = mutate_metropolis(
                ind, 100.0, 5.0, self.k_cool, rng, lambda g: scored.append(g) or 5.0, self.codec
            )
            assert f == 5.0
            assert np.array_equal(out, scored[0] if scored else ind)

    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(2)
        ind = self.codec.random(rng)
        out, f = mutate_metropolis(
            ind, 0.0, 5.0, self.k_cool, rng, lambda g: 0.0, self.codec
        )
        assert np.array_equal(out, ind)
        assert f == 5.0

    def test_worse_rejected_when_cooling_invalid(self):
        rng = np.random.default_rng(3)
        ind = self.codec.random(rng)
        k_cool = cooling_rate(1.0, 0, 100)
        for _ in range(50):
            out, f = mutate_metropolis(
                ind, 100.0, 5.0, k_cool, rng, lambda g: 50.0, self.codec
            )
            assert np.array_equal(out, ind)
            assert f == 5.0

    @pytest.mark.parametrize("df", [0.1, 1.0, 5.0])
    def test_worse_acceptance_probability(self, df):
        # The Metropolis rule keeps a mutant worse by df with probability
        # exp(-df/K): at K = 1, 0.905, 0.368 and 0.007 for df = 0.1, 1 and 5.
        p = math.exp(-df)
        rng = np.random.default_rng(4)
        ind = self.codec.random(rng)
        scored, kept = [], 0
        for _ in range(4000):
            _, f = mutate_metropolis(
                ind, 100.0, 5.0, 1.0, rng, lambda g: scored.append(g) or 5.0 + df, self.codec
            )
            kept += f != 5.0
        n = len(scored)
        assert n > 3900
        assert abs(kept / n - p) < 5 * math.sqrt(p * (1 - p) / n)

    def test_mutant_equal_to_its_parent_is_not_scored(self):
        # Two levels per path gene: one proposal in eight redraws all three
        # path genes to their old values.
        codec = GeneCodec([GeneSpec("e0", -1.0, 1.0, 0.5)]
                          + [GeneSpec(f"g{i}", 0.0, 1.0, 1.0) for i in range(3)])
        ind = np.array([3, 1, 0, 1])  # gene values 0.5, 1.0, 0.0, 1.0
        scored = []

        def fitness_fn(genes):
            scored.append(genes)
            return 1.0

        rng = np.random.default_rng(6)
        unchanged = 0
        for _ in range(200):
            out, f = mutate_metropolis(ind, 100.0, 5.0, self.k_cool, rng, fitness_fn, codec)
            if f == 5.0:
                unchanged += 1
                assert np.array_equal(out, ind)
        assert unchanged > 0
        assert len(scored) == 200 - unchanged
        assert all((g != ind).any() for g in scored)

    def test_delta_e0_gene_untouched(self):
        rng = np.random.default_rng(5)
        ind = self.codec.random(rng)
        for _ in range(50):
            out, _ = mutate_metropolis(
                ind, 100.0, 10.0, self.k_cool, rng, lambda g: 1.0, self.codec
            )
            assert out[0] == ind[0]


class TestOneElite:
    """A population of five holds one elite (int(5 * 0.2)): every child's
    parent pair is that row twice."""

    def test_pick_two_parents_from_one_draws_nothing(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        assert ga._pick_two_parents(1, rng) == (0, 0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("crossover", ga.CROSSOVER_METHODS)
    def test_population_of_five_evolves_and_repeats(self, crossover):
        cfg = GAConfig(population_size=5, max_generations=6, patience=6,
                       crossover_method=crossover, rng_seed=2)
        assert select(np.arange(5.0), cfg).size == 1

        def objective(genes):
            return float(np.sum(genes**2))

        runs = [evolve(objective, default_gene_specs(1), cfg) for _ in range(2)]
        for genes, fitness, history, exit_reason in runs:
            assert (len(history), exit_reason) == (6, "max_generations")
            assert fitness == objective(genes) == history["best_fitness"][-1]
        (genes_a, fitness_a, history_a, _), (genes_b, fitness_b, history_b, _) = runs
        assert np.array_equal(genes_a, genes_b) and fitness_a == fitness_b
        assert np.array_equal(history_a, history_b)


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

    @pytest.mark.parametrize("gene", ["s02_1", "sigma2_0"])
    def test_negative_bound_rejected_before_the_objective(self, monkeypatch, gene):
        fx = FitFixture(n_paths=2)
        specs = [GeneSpec(s.name, -1.0, -0.5, 0.005) if s.name == gene else s for s in SPECS]

        def never_built(*args):
            raise AssertionError("objective built")

        monkeypatch.setattr(ga, "SpectrumObjective", never_built)
        with pytest.raises(GAError, match=rf"{gene}: lower bound -1.0 admits a negative"):
            run_ga(fx.data, fx.paths, GAConfig(), fx.fitness, specs)

    def test_stagnation_exit(self):
        cfg = GAConfig(
            population_size=20, max_generations=100, patience=5, rng_seed=0
        )
        _, _, history, exit_reason = evolve(lambda genes: 1.0, default_gene_specs(1), cfg)
        assert exit_reason == "stagnation"
        assert len(history) == 6

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
        # pop 20 = 4 elites + 12 children + 4 randoms: 20 initial calls and 12
        # at generation 2's crossover stage, which leaves the random rows to
        # the mutation stage, so call 33 scores the first mutant (row 4) there.
        cfg = GAConfig(population_size=20, max_generations=5, initial_mutation_rate=100.0,
                       mutation_rate_bounds=(1.0, 100.0), rng_seed=0)
        objective = self.failing_objective(33, ModelError("out of range"))
        with pytest.raises(GAError, match="generation 2, individual 4: out of range"):
            evolve(objective, default_gene_specs(1), cfg)

    @pytest.mark.parametrize("mutation", ["maximum", "nested"])
    def test_random_rows_wait_for_the_mutation_stage(self, mutation):
        """At sigma 100 maximum and nested mutation redraw every gene of every
        non-elite row, so no row of generation 2's random block reaches the
        objective: neither stage reads a random row's own fitness."""
        codec = GeneCodec(LATTICE)
        calls = set()

        def objective(genes):
            calls.add(genes.tobytes())
            return float(genes @ LATTICE_WEIGHTS)

        cfg = GAConfig(population_size=30, max_generations=2, mutation_method=mutation,
                       initial_mutation_rate=100.0, mutation_rate_bounds=(1.0, 100.0),
                       rng_seed=11)
        _, _, history, _ = evolve(objective, LATTICE, cfg)
        _, pop, children, randoms = twin_generation_2(cfg, codec)
        drawn = {row.tobytes() for row in codec.decode(randoms)}
        earlier = {row.tobytes() for row in codec.decode(np.vstack([pop, children]))}
        assert len(drawn) == len(randoms) and not drawn & earlier
        assert not drawn & calls
        # Generation 2 scores its children, then a mutant of each child and
        # each random row.
        assert list(history["n_scored"]) == [30, 2 * len(children) + len(randoms)]

    @pytest.mark.parametrize("mutation", ["maximum", "nested"])
    def test_unmutated_random_row_error_has_context(self, mutation):
        """A random row that mutation leaves unchanged is scored in the
        mutation stage; an objective that fails on it names generation 2
        and the row's population index."""
        codec = GeneCodec(LATTICE)
        cfg = GAConfig(population_size=30, max_generations=2, mutation_method=mutation,
                       initial_mutation_rate=1.0, rng_seed=11)
        twin, pop, children, randoms = twin_generation_2(cfg, codec)
        mutate = mutate_maximum if mutation == "maximum" else mutate_nested
        for row in children:
            mutate(row, cfg.initial_mutation_rate, codec, twin)
        kept = [i for i, row in enumerate(randoms)
                if np.array_equal(mutate(row, cfg.initial_mutation_rate, codec, twin), row)]
        bad = codec.decode(randoms[kept[0]]).tobytes()

        def objective(genes):
            if genes.tobytes() == bad:
                raise ModelError("out of range")
            return float(genes @ LATTICE_WEIGHTS)

        index = len(pop) - len(randoms) + kept[0]
        with pytest.raises(GAError, match=f"generation 2, individual {index}: out of range"):
            evolve(objective, LATTICE, cfg)

    @pytest.mark.parametrize("mutation", ["maximum", "nested", "metropolis"])
    def test_n_scored_counts_objective_calls(self, monkeypatch, mutation):
        """history's n_scored is each generation's number of objective calls.
        On a grid of 4^4 vectors many rows repeat, so the memo skips many;
        select, called once at the start of each generation after the first,
        marks where a generation's calls begin."""
        specs = [GeneSpec(name, 0.0, 3.0, 1.0) for name in "abcd"]
        generations = [0]

        def objective(genes):
            generations[-1] += 1
            return float(genes @ [1.0, 4.0, 16.0, 64.0])

        def recording_select(fits, config):
            generations.append(0)
            return select(fits, config)

        monkeypatch.setattr(ga, "select", recording_select)
        cfg = GAConfig(population_size=24, max_generations=8, patience=8,
                       mutation_method=mutation, initial_mutation_rate=50.0, rng_seed=4)
        _, _, history, _ = evolve(objective, specs, cfg)
        assert history["n_scored"].dtype == np.int64
        assert list(history["n_scored"]) == generations
        assert sum(generations) < 8 * 24

    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_non_finite_fitness_raises(self, value):
        cfg = GAConfig(population_size=20, max_generations=5, rng_seed=0)
        objective = self.failing_objective(30, value)
        with pytest.raises(GAError, match=r"generation 2, individual 13, genes \["):
            evolve(objective, default_gene_specs(1), cfg)

    def test_no_vector_scored_twice_in_a_generation(self):
        # Four distinct gene vectors in a population of 40: without a
        # per-generation memo the first generation alone scores each about
        # ten times.
        specs = [GeneSpec("g", 0.0, 1.0, 1.0), GeneSpec("h", 0.0, 1.0, 1.0)]
        calls = []

        def objective(genes):
            calls.append(tuple(genes))
            return float(genes[0] + 2.0 * genes[1] + 0.5)

        cfg = GAConfig(population_size=40, max_generations=6, patience=6,
                       mutation_method="nested", rng_seed=3)
        genes, fitness, history, _ = evolve(objective, specs, cfg)
        scored = list(calls)
        assert max(scored.count(c) for c in set(scored)) <= len(history)
        assert len(scored) <= 4 * len(history)
        assert fitness == objective(genes) == history["best_fitness"][-1]
        assert set(history["best_fitness"]) <= {objective(np.array(c)) for c in scored}

    @pytest.mark.parametrize("mutation", ["maximum", "nested", "metropolis"])
    def test_each_unscored_vector_scored_once(self, monkeypatch, mutation):
        """Each generation scores every gene vector it needs that neither the
        previous population nor an earlier call of the generation scored,
        and no other.  The objective is one-to-one on the gene grid, so a
        fitness names its vector; select, called once at the start of every
        generation after the first, hands over the previous population's."""
        specs = [GeneSpec(name, 0.0, 3.0, 1.0) for name in "abcd"]
        generations = [[]]  # the fitnesses each generation's calls returned
        populations = []  # the fitnesses select saw

        def objective(genes):
            fitness = float(genes @ [1.0, 4.0, 16.0, 64.0] + 1.0)
            generations[-1].append(fitness)
            return fitness

        def recording_select(fits, config):
            populations.append(set(fits.tolist()))
            generations.append([])
            return select(fits, config)

        monkeypatch.setattr(ga, "select", recording_select)
        cfg = GAConfig(population_size=24, max_generations=8, patience=8,
                       mutation_method=mutation, crossover_method="or", rng_seed=4)
        genes, fitness, history, _ = evolve(objective, specs, cfg)
        assert len(generations) == len(history) == 8
        assert len(generations[0]) == len(set(generations[0])) == len(populations[0])
        for g in range(1, len(generations)):
            calls = generations[g]
            assert len(calls) == len(set(calls)), f"generation {g + 1} scored a vector twice"
            assert not set(calls) & populations[g - 1], f"generation {g + 1} rescored"
            if g < len(populations):
                assert populations[g] <= populations[g - 1] | set(calls)
        assert fitness == objective(genes) == history["best_fitness"][-1]

    def test_metropolis_mutant_error_has_context(self):
        # As in test_mutation_stage_error_has_context: call 37 scores the
        # first mutant (row 4) of generation 2, here through metropolis.
        cfg = GAConfig(population_size=20, max_generations=5, initial_mutation_rate=100.0,
                       mutation_rate_bounds=(1.0, 100.0), mutation_method="metropolis",
                       rng_seed=0)
        objective = self.failing_objective(37, ModelError("out of range"))
        with pytest.raises(GAError, match="generation 2, individual 4: out of range"):
            evolve(objective, default_gene_specs(1), cfg)

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
        assert chrom.to_genes().tolist() == [-1.5, 0.5, 0.004, 0.01, 0.7, 0.002, -0.03]
        again = Chromosome.from_genes(chrom.to_genes())
        assert again == chrom
        assert chrom.n_genes == 7

    def test_bad_gene_count(self):
        with pytest.raises(GAError):
            Chromosome.from_genes(np.zeros(6))
