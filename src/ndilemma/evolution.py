"""Cultural evolution over a population of gene-carrying agents.

Each agent carries a gene, the (pool tag, attitude) pair naming a registered
strategy pool, plus a member of that pool. A population is two aligned
integer arrays, gene index and member index; every pool is compiled once
into a member table, so a generation never loops over agents. A generation
partitions the population into groups ``games_per_agent`` times so every
agent plays exactly that many games, plays all waves on one kernel seed,
scores each agent by its mean normalised payoff, carries the top ``elites``
agents over unchanged, and refills the remaining slots by
fitness-proportional copying of genes with mutation and one vectorised draw
of fresh members. The process stops when one gene reaches the dominance
threshold or after a fixed number of generations, and reports the plurality
gene as the equilibrium.

Independent runs advance in lockstep on one member table: each generation,
the games of every live run are one block of games on that run's kernel
seed, which the engine packs into a few large stacks, and a run that
reaches the threshold drops out. Every run draws from its own streams in
the order a lone run does, so batch and lone runs give the same results."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import cached_bounds
from .engine import MemberTable, StrategyFault, play_blocks
from .games import GameKind, GameParams
from .seeding import SEED_SPACE, derive_seed, rng_for
from .strategies import Attitude, StrategyPool


@dataclass(frozen=True)
class Gene:
    """The heritable identity: which pool an agent samples strategies from."""

    pool_tag: str
    attitude: Attitude

    @property
    def label(self) -> str:
        return f"{self.pool_tag}/{self.attitude.value}"


@dataclass(frozen=True)
class Population:
    """Agents as two aligned integer arrays: ``gene[a]`` indexes
    ``config.genes`` and ``member[a]`` indexes that gene's pool."""

    gene: np.ndarray
    member: np.ndarray

    def __len__(self) -> int:
        return len(self.gene)


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyperparameters of a cultural evolution run.

    ``params.n`` must equal ``group_size``; every gene must resolve to a
    pool in ``pools``.
    """

    kind: GameKind
    params: GameParams
    genes: tuple[Gene, ...]
    pools: Mapping[Gene, StrategyPool]
    population: int = 512
    group_size: int = 4
    games_per_agent: int = 4
    elites: int = 64
    mutation_rate: float = 0.10
    dominance_threshold: float = 0.75
    max_generations: int = 200
    master_seed: int = 0

    def validate(self) -> None:
        self.params.validate_for(self.kind)
        if self.params.n != self.group_size:
            raise ValueError(
                f"params.n ({self.params.n}) must equal group_size ({self.group_size})"
            )
        if self.population % self.group_size != 0:
            raise ValueError(
                f"population {self.population} not divisible by group size {self.group_size}"
            )
        if not 0 <= self.elites < self.population:
            raise ValueError(f"elites must be in [0, population), got {self.elites}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 < self.dominance_threshold <= 1.0:
            raise ValueError(
                f"dominance_threshold must be in (0, 1], got {self.dominance_threshold}"
            )
        if self.games_per_agent < 1:
            raise ValueError(f"games_per_agent must be >= 1, got {self.games_per_agent}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")
        if not self.genes:
            raise ValueError("gene list is empty")
        for gene in self.genes:
            if gene not in self.pools:
                raise ValueError(f"gene {gene.label} has no registered pool")

    @cached_property
    def pool_sizes(self) -> np.ndarray:
        """Members per gene's pool, in gene order."""
        return np.array([len(self.pools[gene]) for gene in self.genes], dtype=np.int64)

    @cached_property
    def pool_starts(self) -> np.ndarray:
        """Row of each gene's first member in ``member_table``."""
        return np.cumsum(self.pool_sizes) - self.pool_sizes

    @cached_property
    def member_table(self) -> MemberTable:
        """Every gene's pool compiled once, gene by gene; an agent with gene
        ``g`` and member ``m`` plays row ``pool_starts[g] + m``."""
        return MemberTable.compile([s for gene in self.genes for s in self.pools[gene].members])


@dataclass
class GenerationStats:
    """Snapshot of one played generation (population at its start)."""

    generation: int
    gene_frequencies: dict[Gene, int]
    mean_welfare: float
    welfare_efficiency: float


@dataclass
class GenerationOutcome:
    population: Population  # the next generation
    stats: GenerationStats
    fitness: np.ndarray
    partitions: list[np.ndarray]  # one (groups, group_size) index array per wave


@dataclass
class EvolutionResult:
    winner: Gene
    terminated_by: str  # "threshold" | "max_generations"
    generations_run: int
    history: list[GenerationStats]
    final_frequencies: dict[Gene, int]


def welfare_efficiency(
    game_welfares: Sequence[float] | np.ndarray,
    kind: GameKind,
    params: GameParams,
) -> float:
    """Fraction of the min-to-max welfare gap captured by a set of games."""
    limits = cached_bounds(kind, params)
    span = limits.span()
    if span == 0:
        raise ValueError("welfare bounds are degenerate (max equals min)")
    return (float(np.mean(game_welfares)) - limits.min_mean) / span


def initial_population(config: EvolutionConfig, rng: np.random.Generator) -> Population:
    """Uniform split over genes (remainder to the earliest genes), each agent
    with a uniformly drawn member of its gene's pool."""
    n_genes = len(config.genes)
    base, extra = divmod(config.population, n_genes)
    counts = base + (np.arange(n_genes) < extra)
    genes = np.repeat(np.arange(n_genes), counts)
    return Population(genes, rng.integers(config.pool_sizes[genes]))


def sample_partitions(
    pop_size: int, group_size: int, waves: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """``waves`` independent random partitions into groups of ``group_size``."""
    return [
        rng.permutation(pop_size).reshape(pop_size // group_size, group_size)
        for _ in range(waves)
    ]


def evaluate_fitness(
    populations: Sequence[Population],
    config: EvolutionConfig,
    rngs: Sequence[np.random.Generator],
    runs: Sequence[int] | None = None,
) -> list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]]:
    """Play one generation of every population in lockstep; returns one
    (fitness, per-game welfare, partitions) triple per population.

    Each population draws its partitions, then its kernel seed, from its own
    stream in ``rngs``. Its games are one block on that kernel seed, so a
    triple does not depend on the blocks that share its stack. Fitness is
    the agent's mean normalised payoff over its ``games_per_agent`` games;
    per-game welfare is in wave order. A ``StrategyFault`` names the
    population's entry of ``runs`` (by default its position) and the game's
    index within its generation.
    """
    pop_size, waves, rounds = config.population, config.games_per_agent, config.params.rounds
    drawn = []
    for population, rng in zip(populations, rngs):
        partitions = sample_partitions(pop_size, config.group_size, waves, rng)
        agents = np.concatenate(partitions)  # (waves * groups, group_size)
        rows = config.pool_starts[population.gene] + population.member
        drawn.append((partitions, agents, rows[agents], int(rng.integers(SEED_SPACE))))
    runs = range(len(drawn)) if runs is None else runs
    blocks = ((lineups, seed) for _, _, lineups, seed in drawn)
    try:
        scores = list(play_blocks(config.kind, config.params, config.member_table, blocks))
    except StrategyFault as fault:
        raise StrategyFault(
            fault.label, fault.player, fault.round_index, fault.reason,
            f"{fault.cause} (run {runs[fault.block]}, game {fault.game} of its generation)",
        ) from fault
    played = []
    for (partitions, agents, _, _), (totals, welfare) in zip(drawn, scores):
        # every agent appears once per wave, so sum with bincount, not fancy +=
        fitness = np.bincount(agents.ravel(), (totals / rounds).ravel(), pop_size) / waves
        played.append((fitness, welfare, partitions))
    return played


def next_population(
    population: Population,
    fitness: np.ndarray,
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> Population:
    """Elitist selection plus fitness-proportional copying with mutation.

    Elites keep their gene and member; every child copies a parent's gene,
    mutates it to another gene with probability ``mutation_rate`` and draws
    a fresh member from its gene's pool.
    """
    pop_size = len(population)
    shuffle = rng.permutation(pop_size)  # breaks fitness ties without rank bias
    ranked = shuffle[np.argsort(-fitness[shuffle], kind="stable")]
    elites = ranked[: config.elites]
    slots = pop_size - config.elites
    total_fitness = float(fitness.sum())
    if total_fitness > 0:
        parents = rng.choice(pop_size, size=slots, p=fitness / total_fitness)
    else:
        parents = rng.integers(pop_size, size=slots)
    genes = population.gene[parents]
    n_genes = len(config.genes)
    mutate = rng.random(slots) < config.mutation_rate
    if n_genes > 1:
        offsets = rng.integers(1, n_genes, size=slots)
        genes = np.where(mutate, (genes + offsets) % n_genes, genes)
    members = rng.integers(config.pool_sizes[genes])
    return Population(
        np.concatenate([population.gene[elites], genes]),
        np.concatenate([population.member[elites], members]),
    )


def gene_frequencies(population: Population, config: EvolutionConfig) -> dict[Gene, int]:
    counts = np.bincount(population.gene, minlength=len(config.genes))
    return {gene: int(count) for gene, count in zip(config.genes, counts)}


def run_generation(
    population: Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
    generation: int = 0,
) -> GenerationOutcome:
    """One full generation: play, score, select, refill."""
    [played] = evaluate_fitness([population], config, [rng])
    return _select(population, config, rng, generation, *played)


def _select(
    population: Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
    generation: int,
    fitness: np.ndarray,
    game_welfares: np.ndarray,
    partitions: list[np.ndarray],
) -> GenerationOutcome:
    """Record a played generation and select the next on the same stream."""
    stats = GenerationStats(
        generation=generation,
        gene_frequencies=gene_frequencies(population, config),
        mean_welfare=float(game_welfares.mean()),
        welfare_efficiency=welfare_efficiency(game_welfares, config.kind, config.params),
    )
    new_pop = next_population(population, fitness, config, rng)
    return GenerationOutcome(new_pop, stats, fitness, partitions)


def _dominant(frequencies: dict[Gene, int], config: EvolutionConfig) -> bool:
    needed = config.dominance_threshold * config.population - 1e-9
    return max(frequencies.values()) >= needed


def _plurality(frequencies: dict[Gene, int], config: EvolutionConfig) -> Gene:
    # ties resolve to the earliest gene in config order
    return max(config.genes, key=lambda gene: frequencies[gene])


def _evolve(
    config: EvolutionConfig,
    seeds: Sequence[int],
    on_generation: Callable[[GenerationOutcome], None] | None = None,
) -> list[EvolutionResult]:
    """Advance one run per master seed in lockstep, each until dominance or
    the generation cap.

    Run ``r`` starts from ``rng_for(seeds[r], 0)`` and plays generation
    ``g`` on ``rng_for(seeds[r], 1, g)``, drawing partitions, kernel seed
    and selection in that order, so its result is that of a lone run on its
    seed. Dominance is checked on the initial population and after every
    selection step; a run that reaches it drops out of later stacks.
    ``on_generation`` sees every outcome, runs in order within a generation.
    """
    config.validate()
    populations = [initial_population(config, rng_for(seed, 0)) for seed in seeds]
    frequencies = [gene_frequencies(population, config) for population in populations]
    histories: list[list[GenerationStats]] = [[] for _ in seeds]
    live = [r for r, freq in enumerate(frequencies) if not _dominant(freq, config)]
    for generation in range(1, config.max_generations + 1):
        if not live:
            break
        rngs = [rng_for(seeds[r], 1, generation) for r in live]
        played = evaluate_fitness([populations[r] for r in live], config, rngs, live)
        for r, rng, scored in zip(live, rngs, played):
            outcome = _select(populations[r], config, rng, generation, *scored)
            histories[r].append(outcome.stats)
            if on_generation is not None:
                on_generation(outcome)
            populations[r] = outcome.population
            frequencies[r] = gene_frequencies(outcome.population, config)
        live = [r for r in live if not _dominant(frequencies[r], config)]
    return [
        EvolutionResult(
            winner=_plurality(freq, config),
            terminated_by="threshold" if _dominant(freq, config) else "max_generations",
            generations_run=len(history),
            history=history,
            final_frequencies=freq,
        )
        for freq, history in zip(frequencies, histories)
    ]


def run_evolution(
    config: EvolutionConfig,
    on_generation: Callable[[GenerationOutcome], None] | None = None,
) -> EvolutionResult:
    """Iterate generations until dominance or the generation cap.

    Dominance is checked on the initial population and after every
    selection step. Deterministic given ``config.master_seed``.
    """
    return _evolve(config, [config.master_seed], on_generation)[0]


# ---------------------------------------------------------------------------
# Batch runs.
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    run: int
    winner: Gene
    terminated_by: str
    generations: int
    final_welfare_efficiency: float  # nan when no generation was played


@dataclass
class BatchRunsSummary:
    """Winner frequencies and aggregates over independent seeded runs."""

    winners: dict[Gene, int]
    threshold_reached: int
    average_generations: float
    mean_final_welfare_efficiency: float
    runs: list[RunRecord]


def batch_runs(config: EvolutionConfig, run_count: int) -> BatchRunsSummary:
    """Independent seeded runs; the summary mirrors one results-table column.

    Run ``r`` is ``run_evolution`` on master seed
    ``derive_seed(config.master_seed, r)``, so its record depends only on
    that address; the runs advance in lockstep on one member table.
    """
    if run_count < 1:
        raise ValueError(f"run_count must be >= 1, got {run_count}")
    results = _evolve(config, [derive_seed(config.master_seed, run) for run in range(run_count)])
    records = []
    for run, result in enumerate(results):
        final_eff = result.history[-1].welfare_efficiency if result.history else float("nan")
        records.append(RunRecord(
            run=run,
            winner=result.winner,
            terminated_by=result.terminated_by,
            generations=result.generations_run,
            final_welfare_efficiency=final_eff,
        ))
    winner_counts = Counter(rec.winner for rec in records)
    effs = [
        rec.final_welfare_efficiency
        for rec in records
        if not np.isnan(rec.final_welfare_efficiency)
    ]
    return BatchRunsSummary(
        winners={gene: winner_counts.get(gene, 0) for gene in config.genes},
        threshold_reached=sum(1 for rec in records if rec.terminated_by == "threshold"),
        average_generations=float(np.mean([rec.generations for rec in records])),
        mean_final_welfare_efficiency=float(np.mean(effs)) if effs else float("nan"),
        runs=records,
    )


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def write_generations_csv(history: Sequence[GenerationStats], path: str | Path) -> None:
    """One row per (generation, gene): the gene-frequency trajectory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "gene", "frequency", "mean_welfare", "welfare_efficiency"])
        for stats in history:
            for gene, freq in stats.gene_frequencies.items():
                writer.writerow([
                    stats.generation, gene.label, freq,
                    repr(stats.mean_welfare), repr(stats.welfare_efficiency),
                ])


def write_summary_csv(summary: BatchRunsSummary, path: str | Path) -> None:
    """Winner counts per gene plus the aggregate footer rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "value"])
        for gene, wins in summary.winners.items():
            writer.writerow([gene.label, wins])
        writer.writerow(["threshold_reached", summary.threshold_reached])
        writer.writerow(["average_generations", repr(summary.average_generations)])
        writer.writerow([
            "mean_final_welfare_efficiency",
            repr(summary.mean_final_welfare_efficiency),
        ])


def summary_to_dict(summary: BatchRunsSummary) -> dict:
    return {
        "winners": [
            {"pool_tag": gene.pool_tag, "attitude": gene.attitude.value, "wins": wins}
            for gene, wins in summary.winners.items()
        ],
        "threshold_reached": summary.threshold_reached,
        "average_generations": summary.average_generations,
        "mean_final_welfare_efficiency": summary.mean_final_welfare_efficiency,
        "runs": [
            {
                "run": rec.run,
                "winner": rec.winner.label,
                "terminated_by": rec.terminated_by,
                "generations": rec.generations,
                "final_welfare_efficiency": rec.final_welfare_efficiency,
            }
            for rec in summary.runs
        ],
    }


def write_summary_json(summary: BatchRunsSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary_to_dict(summary), indent=2) + "\n")
