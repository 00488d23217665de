"""Evolutionary engine: quantized genes, rank-elite selection with random
injection, three crossover operators, three mutation operators, Rechenberg
1/5 mutation-rate adaptation, and the generation loop.

`evolve` sees only gene specs and an objective (gene vector -> fitness), so
any problem with bounded, quantized parameters plugs in; `run_ga` is the
EXAFS fit built on it.  Fitness is minimized; every "better" comparison is
strict less-than.  A run is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .fitness import FitnessConfig, SpectrumObjective
from .model import NON_NEGATIVE, PATH_GENES, PathParams
from .paths import PathSet
from .spectra import KSpectrum


class GAError(ValueError):
    """Invalid engine configuration or state."""


CROSSOVER_METHODS = ("uniform", "and", "or")
MUTATION_METHODS = ("maximum", "nested", "metropolis")


@dataclass(frozen=True)
class GeneSpec:
    """Bounded, quantized gene: values are lower + i*step, i in [0, n_levels)."""

    name: str
    lower: float
    upper: float
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lower, self.upper, self.step))):
            raise GAError(f"{self.name}: lower, upper and step must be finite")
        if not self.lower < self.upper:
            raise GAError(f"{self.name}: lower must be < upper")
        if self.step <= 0:
            raise GAError(f"{self.name}: step must be positive")
        # The level count is checked as a float: it may overflow to inf.
        spans = (self.upper - self.lower) / self.step
        if spans < 1:
            raise GAError(f"{self.name}: fewer than two quantization levels")
        if spans + 1e-9 >= 2**32:
            raise GAError(f"{self.name}: more than 2^32 quantization levels")
        # lower + i*step rounds twice, each time by at most half an ulp of
        # 2*max(|lower|, |upper|): levels stay distinct above two such ulps.
        if self.step <= 4 * math.ulp(max(abs(self.lower), abs(self.upper))):
            raise GAError(f"{self.name}: step too fine for the float spacing of the "
                          "bounds; two levels could decode to one value")

    @property
    def n_levels(self) -> int:
        return int(math.floor((self.upper - self.lower) / self.step + 1e-9)) + 1


class GeneCodec:
    """The genes' quantized grids.  A population holds int64 level indices, one
    row per individual; decode maps them to the gene values lower + i*step."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.n_genes = len(self.specs)
        self.lower = np.array([s.lower for s in self.specs])
        self.upper = np.array([s.upper for s in self.specs])
        self.step = np.array([s.step for s in self.specs])
        self.n_levels = np.array([s.n_levels for s in self.specs], dtype=np.int64)

    def random(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Uniform draw of level indices; shape (n_genes,) or (size, n_genes)."""
        if size is None:
            # The draws of size=(n_genes,), without the cost of checking a size.
            return rng.integers(self.n_levels)
        return rng.integers(0, self.n_levels, size=(size, self.n_genes))

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Gene values of an index row or (n, G) block, row by row."""
        return self.lower + idx * self.step

    def contains(self, genes: np.ndarray) -> bool:
        g = np.atleast_2d(genes)
        return bool(
            np.all(g >= self.lower - 1e-12) and np.all(g <= self.upper + 1e-12)
        )


@dataclass(frozen=True)
class Chromosome:
    """One global delta_e0 gene plus (s02, sigma2, delta_r) per path."""

    delta_e0: float
    per_path: tuple[PathParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_path", tuple(self.per_path))

    @property
    def n_genes(self) -> int:
        return 1 + len(PATH_GENES) * len(self.per_path)

    def to_genes(self) -> np.ndarray:
        return np.concatenate([[self.delta_e0], *map(astuple, self.per_path)], dtype=float)

    @classmethod
    def from_genes(cls, genes: np.ndarray) -> "Chromosome":
        genes = np.asarray(genes, dtype=float)
        n = len(PATH_GENES)
        if genes.size % n != 1:
            raise GAError(f"gene vector length {genes.size} is not {n}*n_paths + 1")
        return cls(float(genes[0]), [PathParams(*p) for p in genes[1:].reshape(-1, n).tolist()])


# Default (lower, upper, step) of each parameter kind, keyed by its [genes]
# name, in default_gene_specs' argument order.
GENE_BOUNDS = {
    "delta_e0": (-10.0, 10.0, 0.01),
    "s02": (0.0, 1.2, 0.005),
    "sigma2": (0.0, 0.02, 1e-4),
    "delta_r": (-0.2, 0.2, 1e-3),
}


def default_gene_specs(
    n_paths: int,
    e0_bounds: tuple[float, float, float] = GENE_BOUNDS["delta_e0"],
    s02_bounds: tuple[float, float, float] = GENE_BOUNDS["s02"],
    sigma2_bounds: tuple[float, float, float] = GENE_BOUNDS["sigma2"],
    delta_r_bounds: tuple[float, float, float] = GENE_BOUNDS["delta_r"],
) -> list[GeneSpec]:
    """Gene layout [delta_e0, (s02, sigma2, delta_r) per path] with
    (lower, upper, step) triples per parameter kind; path i's genes are
    named f"{name}_{i}" for each name in PATH_GENES."""
    per_path = tuple(zip(PATH_GENES, (s02_bounds, sigma2_bounds, delta_r_bounds)))
    return [GeneSpec("delta_e0", *e0_bounds),
            *(GeneSpec(f"{name}_{i}", *b) for i in range(n_paths) for name, b in per_path)]


def check_gene_specs(gene_specs, n_paths: int) -> None:
    """GAError unless gene_specs hold the layout [delta_e0, PATH_GENES of each
    path] for n_paths paths and no NON_NEGATIVE gene admits a negative value."""
    if len(gene_specs) != len(PATH_GENES) * n_paths + 1:
        raise GAError(f"gene specs ({len(gene_specs)}) do not match "
                      f"{len(PATH_GENES)}*{n_paths} + 1 genes")
    for spec, kind in zip(gene_specs[1:], PATH_GENES * n_paths):
        if kind in NON_NEGATIVE and spec.lower < 0:
            raise GAError(f"{spec.name}: lower bound {spec.lower} admits a negative {kind}")


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 200
    max_generations: int = 100
    elite_fraction: float = 0.2
    random_fraction: float = 0.2
    crossover_method: str = "uniform"
    mutation_method: str = "maximum"
    initial_mutation_rate: float = 20.0
    mutation_rate_bounds: tuple[float, float] = (1.0, 90.0)
    rechenberg_factor: float = 0.9
    patience: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise GAError("population_size must be at least 2")
        if not (0 < self.elite_fraction < 1 and 0 <= self.random_fraction < 1):
            raise GAError("elite_fraction and random_fraction must lie in (0,1)")
        if self.elite_fraction + self.random_fraction >= 1:
            raise GAError("elite_fraction + random_fraction must be < 1")
        if self.crossover_method not in CROSSOVER_METHODS:
            raise GAError(f"unknown crossover_method {self.crossover_method!r}")
        if self.mutation_method not in MUTATION_METHODS:
            raise GAError(f"unknown mutation_method {self.mutation_method!r}")
        lo, hi = self.mutation_rate_bounds
        if not (0 <= lo <= self.initial_mutation_rate <= hi <= 100):
            raise GAError("mutation rate bounds must satisfy 0 <= lo <= init <= hi <= 100")
        if not 0 < self.rechenberg_factor < 1:
            raise GAError("rechenberg_factor must lie in (0,1)")
        if self.patience < 1 or self.max_generations < 1:
            raise GAError("patience and max_generations must be >= 1")
        if self.rng_seed < 0:
            raise GAError(f"rng_seed must be >= 0, got {self.rng_seed}")


# One record per generation.  Generation 1 is the initial population: its
# sigma is the initial mutation rate and its ratios and deltas are 0.  Later
# rows hold the best fitness after mutation, sigma after the 1/5-rule update,
# the success ratio that update used, and the change of the best (d_*) and
# mean (d_*_mean) fitness made by the crossover and mutation stages.  The
# crossover stage's population is the elites and children (the random rows
# are scored in the mutation stage), so d_mutation* includes the random rows'
# entry.  n_scored is the generation's number of objective calls.
HISTORY_DTYPE = np.dtype(
    [("generation", np.int64)]
    + [
        (name, np.float64)
        for name in (
            "best_fitness", "sigma", "success_ratio", "d_crossover",
            "d_mutation", "d_crossover_mean", "d_mutation_mean",
        )
    ]
    + [("n_scored", np.int64)]
)


@dataclass(frozen=True)
class FitResult:
    best: Chromosome
    best_fitness: float
    history: np.ndarray  # HISTORY_DTYPE records, one per generation
    exit_reason: str
    metrics_k: dict
    metrics_r: dict

    @property
    def n_generations(self) -> int:
        return len(self.history)


def select(fitnesses: np.ndarray, config: GAConfig) -> np.ndarray:
    """Row indices of the elite: the best elite_fraction of the population
    by stable rank sort (ascending fitness, ties in row order)."""
    fitnesses = np.asarray(fitnesses)
    if fitnesses.shape[0] < 2:
        raise GAError("population must contain at least 2 individuals")
    n_elite = max(1, int(fitnesses.shape[0] * config.elite_fraction))
    return np.argsort(fitnesses, kind="stable")[:n_elite]


def crossover_uniform(parents_a, parents_b, draws) -> np.ndarray:
    """Per gene, parent a where its draw is below 1/2, else parent b.  All three
    crossovers take index rows or (n, G) blocks; draws has the parents' shape."""
    return np.where(draws < 0.5, parents_a, parents_b)


def crossover_and(parents_a, parents_b, codec: GeneCodec) -> np.ndarray:
    """Bitwise AND of the parents' level indices; never past the top level, so codec is unused."""
    return parents_a & parents_b


def crossover_or(parents_a, parents_b, codec: GeneCodec) -> np.ndarray:
    """Bitwise OR of the parents' level indices, clamped to the top level."""
    return np.minimum(parents_a | parents_b, codec.n_levels - 1)


def _redraw(individual, sigma: float, codec: GeneCodec, rng: np.random.Generator,
            first: int = 0) -> np.ndarray:
    """individual with each of its genes first.. redrawn, with probability
    sigma%, from one codec.random(rng) row.  Draws the per-gene mask, then
    the row.

    Here and in the mutation gates, 100.0 * rng.random() is the value
    rng.uniform(0.0, 100.0) computes (0.0 + 100.0*u), bit for bit, from the
    same draw, without uniform's call overhead."""
    redraw = np.zeros(codec.n_genes, dtype=bool)
    redraw[first:] = 100.0 * rng.random(codec.n_genes - first) < sigma
    return np.where(redraw, codec.random(rng), individual)


def mutate_maximum(
    individual, sigma: float, codec: GeneCodec, rng: np.random.Generator
) -> np.ndarray:
    """Replace the whole chromosome with a fresh random one with probability
    sigma%: mutate_nested with every gene regenerated."""
    return mutate_nested(individual, sigma, codec, rng, force_inner=True)


def mutate_nested(
    individual,
    sigma: float,
    codec: GeneCodec,
    rng: np.random.Generator,
    force_inner: bool = False,
) -> np.ndarray:
    """Two-level mutation: an outer draw gates per-gene regeneration draws.

    With force_inner=True the per-gene draws are skipped and every gene is
    regenerated, which is mutate_maximum: the mutant is one codec.random row.
    """
    if 100.0 * rng.random() >= sigma:
        return np.array(individual)
    if force_inner:
        return codec.random(rng)
    return _redraw(individual, sigma, codec, rng)


def cooling_rate(delta_f: float, i: int, i_max: int) -> float:
    """K(i) = -delta_f / ln(1 - i/i_max); NaN at i = 0 (no thermal acceptance)."""
    if i <= 0 or i >= i_max:
        return float("nan")
    return -delta_f / math.log(1.0 - i / i_max)


def mutate_metropolis(
    individual,
    sigma: float,
    f_orig: float,
    k_cool: float,
    rng: np.random.Generator,
    fitness_fn,
    codec: GeneCodec,
) -> tuple[np.ndarray, float]:
    """Annealing-gated mutation of the path genes.

    Improving mutants are always kept; others only by the Metropolis rule,
    t < exp(-(f_mut - f_orig)/K) with t uniform in [0,1) and K = k_cool, the
    cooling rate.  K <= 0 or non-finite disables thermal acceptance.
    """
    individual = np.asarray(individual).copy()
    if 100.0 * rng.random() >= sigma:
        return individual, f_orig
    mutant = _redraw(individual, sigma, codec, rng, first=1)
    if not (mutant != individual).any():
        return individual, f_orig
    f_mut = fitness_fn(mutant)
    if f_mut < f_orig:
        return mutant, f_mut
    t = rng.random()
    if math.isfinite(k_cool) and k_cool > 0 and t < math.exp(-(f_mut - f_orig) / k_cool):
        return mutant, f_mut
    return individual, f_orig


def rechenberg_update(sigma: float, success_ratio: float, config: GAConfig) -> float:
    """1/5 success rule: grow sigma when S > 1/5, shrink when S < 1/5."""
    c = config.rechenberg_factor
    if success_ratio > 0.2:
        sigma = sigma / c
    elif success_ratio < 0.2:
        sigma = sigma * c
    lo, hi = config.mutation_rate_bounds
    return float(min(max(sigma, lo), hi))


def _pick_two_parents(pool_size: int, rng: np.random.Generator) -> tuple[int, int]:
    if pool_size < 2:
        return 0, 0
    i = int(rng.integers(pool_size))
    j = int(rng.integers(pool_size - 1))
    if j >= i:
        j += 1
    return i, j


def evolve(
    objective, gene_specs, ga_config: GAConfig
) -> tuple[np.ndarray, float, np.ndarray, str]:
    """Evolve rows of gene level indices until max_generations or stagnation.

    Every operator works on int64 index rows (see GeneCodec).  One memoized
    scorer decodes each block it scores once and calls objective on the rows
    its memo lacks, in row order.  The memo holds the generation's population
    and every row scored since; it is the only rule for skipping a row.
    Each generation's crossover stage scores the children only.  Maximum and
    nested mutation then score every non-elite row once, as mutated; no draw
    reads a random row's fitness before that.  Metropolis, whose acceptance
    test reads each row's pre-mutation fitness, scores the random rows before
    its first mutant, then each mutant as it is made.  So the crossover-stage
    figures of the history (d_crossover, d_crossover_mean) cover the elites
    and children.
    objective maps one decoded gene vector to its fitness (lower is better)
    and must be a pure function of it.  Metropolis mutation never changes
    gene 0 (the EXAFS layout's global dE0), whatever the problem; maximum and
    nested mutation redraw every gene.
    Returns (best genes decoded, best fitness, history, exit reason), history
    holding one HISTORY_DTYPE record per generation.  A ValueError from the
    objective (every exafsga error is one) or a non-finite fitness raises
    GAError naming the generation and individual; other exceptions propagate.

    Seeded runs are reproducible draw for draw; drawing indices, not gene
    values, changed no draw.  After the initial population, each generation
    draws from its one generator in this order:
    - per child: its parent pair (_pick_two_parents), then, for uniform
      crossover, its mask draws (rng.random(n_genes), which crossover_uniform
      compares with 1/2);
    - then the random rows (one codec.random block);
    - then, per non-elite row: the mutation gate; if it fires, the per-gene
      mask (nested, metropolis), then the fresh row; for a metropolis mutant
      scored worse than its parent, the acceptance draw.
    """
    codec = GeneCodec(gene_specs)
    memo: dict[bytes, float] = {}  # this generation's scored index rows

    def score(rows, generation: int, first: int) -> np.ndarray:
        """Fitness of each index row of the block rows, row i at population
        index first + i: the memo's, else the objective's, in row order."""
        fits = np.empty(len(rows))
        for i, (row, genes) in enumerate(zip(rows, codec.decode(rows))):
            key = row.tobytes()
            fitness = memo.get(key)
            if fitness is None:
                try:
                    fitness = float(objective(genes))
                except ValueError as exc:
                    raise GAError(
                        f"fitness evaluation failed at generation {generation}, "
                        f"individual {first + i}: {exc}"
                    ) from exc
                if not math.isfinite(fitness):
                    raise GAError(
                        f"fitness {fitness} at generation {generation}, "
                        f"individual {first + i}, genes {genes.tolist()}"
                    )
                memo[key] = fitness
            fits[i] = fitness
        return fits

    rng = np.random.default_rng(ga_config.rng_seed)
    pop_size = ga_config.population_size
    n_random = int(pop_size * ga_config.random_fraction)
    crossover, mutation = ga_config.crossover_method, ga_config.mutation_method

    pop = codec.random(rng, pop_size)
    fits = score(pop, 1, 0)

    sigma = float(ga_config.initial_mutation_rate)
    history = [(1, float(fits.min()), sigma, 0.0, 0.0, 0.0, 0.0, 0.0, len(memo))]
    stall = 0
    exit_reason = "max_generations"
    prev_median = float(np.median(fits))
    prev_mean = float(fits.mean())

    gen = 1
    while gen < ga_config.max_generations:
        elite = select(fits, ga_config)
        n_elite = elite.size
        n_children = pop_size - n_elite - n_random
        # Draw child by child (the parent pair, then the uniform mask draws),
        # then cross every pair in one block.
        pairs, draws = [], []
        for _ in range(n_children):
            pairs.append(_pick_two_parents(n_elite, rng))
            if crossover == "uniform":
                draws.append(rng.random(codec.n_genes))
        pairs = elite[np.array(pairs, dtype=np.intp).reshape(n_children, 2)]
        if crossover == "uniform":
            cross, operand = crossover_uniform, np.array(draws).reshape(n_children, codec.n_genes)
        else:
            cross, operand = (crossover_and if crossover == "and" else crossover_or), codec
        children = cross(pop[pairs[:, 0]], pop[pairs[:, 1]], operand)

        memo.clear()
        memo.update(zip(map(np.ndarray.tobytes, pop), fits.tolist()))
        n_known = len(memo)
        gen += 1
        pop = np.vstack([pop[elite], children, codec.random(rng, n_random)])
        # The random rows wait for the mutation stage: no draw reads their
        # fitness before it, so each is scored once, as mutated.
        fits = np.concatenate([fits[elite], score(children, gen, n_elite)])
        prev_best = history[-1][1]
        best_after_cross = float(fits.min())
        mean_after_cross = float(fits.mean())

        if mutation == "metropolis":
            # Each acceptance draw depends on the mutant's score and on its
            # parent's: score the random rows, then mutate row by row.
            fits = np.append(fits, score(pop[fits.size:], gen, fits.size))
            delta_f = abs(prev_best - history[-2][1]) if len(history) >= 2 else 0.0
            k_cool = cooling_rate(delta_f, gen - 1, ga_config.max_generations)
            for idx in range(n_elite, pop_size):
                pop[idx], fits[idx] = mutate_metropolis(
                    pop[idx], sigma, fits[idx], k_cool, rng,
                    lambda m: score(m[None], gen, idx)[0], codec,
                )
        else:
            # No draw depends on a score: draw all mutants, then score them all.
            mutate = mutate_maximum if mutation == "maximum" else mutate_nested
            pop[n_elite:] = [mutate(g, sigma, codec, rng) for g in pop[n_elite:]]
            fits = np.append(fits[:n_elite], score(pop[n_elite:], gen, n_elite))

        best = float(fits.min())
        mean_after_mut = float(fits.mean())
        success = float(np.mean(fits[n_elite:] < prev_median))
        prev_median = float(np.median(fits))
        stall = 0 if best < prev_best else stall + 1
        sigma = rechenberg_update(sigma, success, ga_config)
        history.append((
            gen, best, sigma, success,
            best_after_cross - prev_best, best - best_after_cross,
            mean_after_cross - prev_mean, mean_after_mut - mean_after_cross,
            len(memo) - n_known,
        ))
        prev_mean = mean_after_mut

        if stall >= ga_config.patience:
            exit_reason = "stagnation"
            break

    best_idx = int(np.argmin(fits))
    history = np.array(history, dtype=HISTORY_DTYPE)
    return codec.decode(pop[best_idx]), float(fits[best_idx]), history, exit_reason


def run_ga(
    data: KSpectrum,
    paths: PathSet,
    ga_config: GAConfig,
    fitness_config: FitnessConfig,
    gene_specs=None,
) -> FitResult:
    """Fit the paths' parameters to the data: evolve the gene layout
    [delta_e0, (s02, sigma2, delta_r) per path] against the spectrum
    objective, and report the best chromosome's fit metrics."""
    if gene_specs is None:
        gene_specs = default_gene_specs(len(paths))
    check_gene_specs(gene_specs, len(paths))
    objective = SpectrumObjective(data, paths, fitness_config)
    genes, fitness, history, exit_reason = evolve(
        objective.evaluate_genes, gene_specs, ga_config
    )
    metrics_k, metrics_r = objective.report(genes)
    return FitResult(
        best=Chromosome.from_genes(genes),
        best_fitness=fitness,
        history=history,
        exit_reason=exit_reason,
        metrics_k=metrics_k,
        metrics_r=metrics_r,
    )
