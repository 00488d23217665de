"""Evolutionary engine: quantized genes, rank-elite selection with random
injection, three crossover operators, three mutation operators, Rechenberg
1/5 mutation-rate adaptation, and the main fitting loop.

Fitness is minimized (chi^2); every "better" comparison is strict less-than.
The whole run is a deterministic function of (data, paths, configs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitness import FitnessConfig, FitnessError, SpectrumObjective, metrics
from .model import PathParams, evaluate_model_masked
from .paths import PathSet
from .spectra import KSpectrum, transform_k_to_r


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
        if not self.lower < self.upper:
            raise GAError(f"{self.name}: lower must be < upper")
        if self.step <= 0:
            raise GAError(f"{self.name}: step must be positive")
        if (self.upper - self.lower) / self.step < 1:
            raise GAError(f"{self.name}: fewer than two quantization levels")
        if self.n_levels > 2**32:
            raise GAError(f"{self.name}: more than 2^32 quantization levels")

    @property
    def n_levels(self) -> int:
        return int(math.floor((self.upper - self.lower) / self.step + 1e-9)) + 1


class GeneCodec:
    """Vectorized encode/decode between gene values and quantized indices."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.n_genes = len(self.specs)
        self.lower = np.array([s.lower for s in self.specs])
        self.upper = np.array([s.upper for s in self.specs])
        self.step = np.array([s.step for s in self.specs])
        self.n_levels = np.array([s.n_levels for s in self.specs], dtype=np.int64)

    def random(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Uniform draw from the quantized grid; shape (n_genes,) or (size, n_genes)."""
        shape = (self.n_genes,) if size is None else (size, self.n_genes)
        idx = rng.integers(0, self.n_levels, size=shape)
        return self.lower + idx * self.step

    def encode(self, genes: np.ndarray) -> np.ndarray:
        idx = np.rint((np.asarray(genes) - self.lower) / self.step).astype(np.int64)
        return np.clip(idx, 0, self.n_levels - 1)

    def decode(self, idx: np.ndarray) -> np.ndarray:
        idx = np.clip(np.asarray(idx, dtype=np.int64), 0, self.n_levels - 1)
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
        return 1 + 3 * len(self.per_path)

    def to_genes(self) -> np.ndarray:
        out = np.empty(self.n_genes)
        out[0] = self.delta_e0
        for i, p in enumerate(self.per_path):
            out[1 + 3 * i : 4 + 3 * i] = (p.s02, p.sigma2, p.delta_r)
        return out

    @classmethod
    def from_genes(cls, genes: np.ndarray) -> "Chromosome":
        genes = np.asarray(genes, dtype=float)
        if genes.size % 3 != 1:
            raise GAError(f"gene vector length {genes.size} is not 3*n_paths + 1")
        per_path = tuple(
            PathParams(
                s02=float(genes[1 + 3 * i]),
                sigma2=float(genes[2 + 3 * i]),
                delta_r=float(genes[3 + 3 * i]),
            )
            for i in range((genes.size - 1) // 3)
        )
        return cls(delta_e0=float(genes[0]), per_path=per_path)


def default_gene_specs(
    n_paths: int,
    e0_bounds: tuple[float, float, float] = (-10.0, 10.0, 0.01),
    s02_bounds: tuple[float, float, float] = (0.0, 1.2, 0.005),
    sigma2_bounds: tuple[float, float, float] = (0.0, 0.02, 1e-4),
    delta_r_bounds: tuple[float, float, float] = (-0.2, 0.2, 1e-3),
) -> list[GeneSpec]:
    """Gene layout [delta_e0, (s02, sigma2, delta_r) per path] with
    (lower, upper, step) triples per parameter kind."""
    specs = [GeneSpec("delta_e0", *e0_bounds)]
    for i in range(n_paths):
        specs.append(GeneSpec(f"s02_{i}", *s02_bounds))
        specs.append(GeneSpec(f"sigma2_{i}", *sigma2_bounds))
        specs.append(GeneSpec(f"delta_r_{i}", *delta_r_bounds))
    return specs


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


@dataclass
class GAState:
    """Per-run mutable bookkeeping for the metropolis cooling schedule."""

    generation: int
    max_generation: int
    delta_f: float = 0.0


# One record per generation.  Generation 1 is the initial population: its
# sigma is the initial mutation rate and its ratios and deltas are 0.  Later
# rows hold the best fitness after mutation, sigma after the 1/5-rule update,
# the success ratio that update used, and the change of the best (d_*) and
# mean (d_*_mean) fitness made by the crossover and mutation stages.
HISTORY_DTYPE = np.dtype(
    [("generation", np.int64)]
    + [
        (name, np.float64)
        for name in (
            "best_fitness", "sigma", "success_ratio", "d_crossover",
            "d_mutation", "d_crossover_mean", "d_mutation_mean",
        )
    ]
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


def crossover_uniform(parent_a, parent_b, rng: np.random.Generator) -> np.ndarray:
    """Each gene copied from either parent with probability 1/2."""
    mask = rng.random(len(parent_a)) < 0.5
    return np.where(mask, parent_a, parent_b)


def crossover_and(parent_a, parent_b, codec: GeneCodec) -> np.ndarray:
    """Bitwise AND of the parents' quantized grid indices, per gene."""
    return codec.decode(codec.encode(parent_a) & codec.encode(parent_b))


def crossover_or(parent_a, parent_b, codec: GeneCodec) -> np.ndarray:
    """Bitwise OR of the parents' quantized grid indices, clamped to bounds."""
    return codec.decode(codec.encode(parent_a) | codec.encode(parent_b))


def mutate_maximum(
    individual, sigma: float, codec: GeneCodec, rng: np.random.Generator
) -> np.ndarray:
    """Replace the whole chromosome with a fresh random one with probability sigma%."""
    if rng.uniform(0.0, 100.0) < sigma:
        return codec.random(rng)
    return np.asarray(individual).copy()


def mutate_nested(
    individual,
    sigma: float,
    codec: GeneCodec,
    rng: np.random.Generator,
    force_inner: bool = False,
) -> np.ndarray:
    """Two-level mutation: an outer draw gates per-gene regeneration draws.

    With force_inner=True the per-gene draws are skipped and every gene is
    regenerated, which reduces this operator to mutate_maximum.
    """
    individual = np.asarray(individual).copy()
    if rng.uniform(0.0, 100.0) >= sigma:
        return individual
    if force_inner:
        mask = np.ones(codec.n_genes, dtype=bool)
    else:
        mask = rng.uniform(0.0, 100.0, codec.n_genes) < sigma
    fresh = codec.random(rng)
    return np.where(mask, fresh, individual)


def cooling_rate(delta_f: float, i: int, i_max: int) -> float:
    """K(i) = -delta_f / ln(1 - i/i_max); NaN at i = 0 (no thermal acceptance)."""
    if i <= 0 or i >= i_max:
        return float("nan")
    return -delta_f / math.log(1.0 - i / i_max)


def _mutate_path_genes(
    individual: np.ndarray, sigma: float, codec: GeneCodec, rng: np.random.Generator
) -> np.ndarray:
    """Per-gene regeneration of the scattering-path genes (index >= 1)."""
    mask = np.zeros(codec.n_genes, dtype=bool)
    mask[1:] = rng.uniform(0.0, 100.0, codec.n_genes - 1) < sigma
    fresh = codec.random(rng)
    return np.where(mask, fresh, individual)


def mutate_metropolis(
    individual,
    sigma: float,
    f_orig: float,
    state: GAState,
    rng: np.random.Generator,
    fitness_fn,
    codec: GeneCodec,
) -> tuple[np.ndarray, float]:
    """Annealing-gated mutation of the path genes.

    Improving mutants are always kept; worse mutants are kept only when
    exp(-(f_mut - f_orig)/K) < t with t uniform in [0,1) and K the cooling
    rate.  K <= 0 or non-finite disables thermal acceptance.
    """
    individual = np.asarray(individual).copy()
    if rng.uniform(0.0, 100.0) >= sigma:
        return individual, f_orig
    mutant = _mutate_path_genes(individual, sigma, codec, rng)
    if np.array_equal(mutant, individual):
        return individual, f_orig
    f_mut = fitness_fn(mutant)
    if f_mut < f_orig:
        return mutant, f_mut
    k_cool = cooling_rate(state.delta_f, state.generation, state.max_generation)
    t = rng.random()
    if math.isfinite(k_cool) and k_cool > 0 and math.exp(-(f_mut - f_orig) / k_cool) < t:
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


def run_ga(
    data: KSpectrum,
    paths: PathSet,
    ga_config: GAConfig,
    fitness_config: FitnessConfig,
    gene_specs=None,
    objective_fn=None,
) -> FitResult:
    """Evolve chromosomes against the data until max_generations or stagnation.

    objective_fn (gene vector -> fitness) overrides the spectrum objective;
    used for diagnostics and benchmarks.  A ValueError from the objective
    (every exafsga error is one) or a non-finite fitness raises GAError
    naming the generation and individual; other exceptions propagate.
    """
    n_paths = len(paths)
    if gene_specs is None:
        gene_specs = default_gene_specs(n_paths)
    codec = GeneCodec(gene_specs)
    if codec.n_genes != 3 * n_paths + 1:
        raise GAError(
            f"gene specs ({codec.n_genes}) do not match 3*{n_paths} + 1 genes"
        )
    objective = SpectrumObjective(data, paths, fitness_config)
    fitness_fn = objective.evaluate_genes if objective_fn is None else objective_fn

    def score(genes: np.ndarray, generation: int, individual: int) -> float:
        try:
            fitness = float(fitness_fn(genes))
        except ValueError as exc:
            raise GAError(
                f"fitness evaluation failed at generation {generation}, "
                f"individual {individual}: {exc}"
            ) from exc
        if not math.isfinite(fitness):
            raise GAError(
                f"fitness {fitness} at generation {generation}, "
                f"individual {individual}, genes {genes.tolist()}"
            )
        return fitness

    rng = np.random.default_rng(ga_config.rng_seed)
    pop_size = ga_config.population_size
    n_random = int(pop_size * ga_config.random_fraction)
    crossover, mutation = ga_config.crossover_method, ga_config.mutation_method

    pop = codec.random(rng, pop_size)
    fits = np.array([score(g, 1, i) for i, g in enumerate(pop)])

    sigma = float(ga_config.initial_mutation_rate)
    history = [(1, float(fits.min()), sigma, 0.0, 0.0, 0.0, 0.0, 0.0)]
    stall = 0
    exit_reason = "max_generations"
    prev_median = float(np.median(fits))
    prev_mean = float(fits.mean())

    gen = 1
    while gen < ga_config.max_generations:
        elite = select(fits, ga_config)
        n_elite = elite.size
        children = np.empty((pop_size - n_elite - n_random, codec.n_genes))
        for c in range(children.shape[0]):
            i, j = _pick_two_parents(n_elite, rng)
            pa, pb = pop[elite[i]], pop[elite[j]]
            if crossover == "uniform":
                children[c] = crossover_uniform(pa, pb, rng)
            elif crossover == "and":
                children[c] = crossover_and(pa, pb, codec)
            else:
                children[c] = crossover_or(pa, pb, codec)

        gen += 1
        pop = np.vstack([pop[elite], children, codec.random(rng, n_random)])
        fits = np.concatenate(
            [fits[elite], [score(pop[i], gen, i) for i in range(n_elite, pop_size)]]
        )
        prev_best = history[-1][1]
        best_after_cross = float(fits.min())
        mean_after_cross = float(fits.mean())

        delta_f = abs(prev_best - history[-2][1]) if len(history) >= 2 else 0.0
        state = GAState(
            generation=gen - 1, max_generation=ga_config.max_generations, delta_f=delta_f
        )
        for idx in range(n_elite, pop_size):
            if mutation == "metropolis":
                pop[idx], fits[idx] = mutate_metropolis(
                    pop[idx], sigma, fits[idx], state, rng,
                    lambda g: score(g, gen, idx), codec,
                )
                continue
            if mutation == "maximum":
                mutant = mutate_maximum(pop[idx], sigma, codec, rng)
            else:
                mutant = mutate_nested(pop[idx], sigma, codec, rng)
            if not np.array_equal(mutant, pop[idx]):
                pop[idx], fits[idx] = mutant, score(mutant, gen, idx)

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
        ))
        prev_mean = mean_after_mut

        if stall >= ga_config.patience:
            exit_reason = "stagnation"
            break

    best_idx = int(np.argmin(fits))
    best_genes = pop[best_idx]
    best_chrom = Chromosome.from_genes(best_genes)

    metrics_k: dict = {}
    metrics_r: dict = {}
    if objective_fn is None:
        chi, valid = evaluate_model_masked(paths, best_chrom, data.grid)
        k = data.grid.ks
        lo, hi = fitness_config.ft.k_range
        m = (k >= lo) & (k <= hi) & valid
        kw = k**fitness_config.k_weight
        try:
            metrics_k = metrics(kw[m] * chi[m], kw[m] * data.chi[m])
            metrics_k["unweighted"] = metrics(chi[m], data.chi[m])
        except FitnessError:
            pass
        try:
            model_spec = KSpectrum(grid=data.grid, chi=np.where(valid, chi, 0.0))
            mag_m = transform_k_to_r(model_spec, fitness_config.ft).magnitude
            mag_d = transform_k_to_r(data, fitness_config.ft).magnitude
            metrics_r = metrics(mag_m, mag_d)
        except FitnessError:
            pass

    return FitResult(
        best=best_chrom,
        best_fitness=float(fits[best_idx]),
        history=np.array(history, dtype=HISTORY_DTYPE),
        exit_reason=exit_reason,
        metrics_k=metrics_k,
        metrics_r=metrics_r,
    )
