"""Cultural evolution: partitions, selection, termination, bookkeeping."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_pool

from ndilemma import (
    Action,
    Attitude,
    EvolutionConfig,
    GameKind,
    GameParams,
    Gene,
    Strategy,
    StrategyFault,
    StrategyPool,
    batch_runs,
    make_reference,
    run_evolution,
    run_generation,
    welfare_efficiency,
)
from ndilemma import engine, evolution
from ndilemma.engine import play_blocks
from ndilemma.evolution import (
    Population,
    RunRecord,
    evaluate_fitness,
    gene_frequencies,
    initial_population,
    sample_partitions,
    write_generations_csv,
)
from ndilemma.policy import PolicyRule, PolicySpec, Predicate, policy_strategy
from ndilemma.pools import FamilySpec, synth_pool
from ndilemma.seeding import derive_seed, rng_for

G_D = Gene("base", Attitude.EXPLOITATIVE)
G_C = Gene("base", Attitude.COLLECTIVE)


def _pairs(population):
    return list(zip(population.gene.tolist(), population.member.tolist()))


def two_gene_config(**overrides):
    pools = {
        G_D: reference_pool("alld", 64, "base", Attitude.EXPLOITATIVE),
        G_C: reference_pool("allc", 64, "base", Attitude.COLLECTIVE),
    }
    defaults = dict(
        kind=GameKind.PUBLIC_GOODS,
        params=GameParams(n=4, rounds=20, k=2.0),
        genes=(G_D, G_C),
        pools=pools,
        population=64,
        group_size=4,
        games_per_agent=4,
        elites=8,
        mutation_rate=0.10,
        dominance_threshold=0.75,
        max_generations=200,
        master_seed=0,
    )
    defaults.update(overrides)
    return EvolutionConfig(**defaults)


class TestPartitions:
    def test_each_agent_in_every_wave_once(self, rng):
        partitions = sample_partitions(64, 4, 4, rng)
        assert len(partitions) == 4
        for partition in partitions:
            assert partition.shape == (16, 4)
            assert sorted(partition.ravel()) == list(range(64))

    def test_group_selection_probability(self, rng):
        """P(a group of 4 is all-cooperator) = C(f, 4) / C(N, 4) under
        random partitioning."""
        n_pop, f_c = 16, 8
        is_c = np.zeros(n_pop, dtype=bool)
        is_c[:f_c] = True
        expected = math.comb(f_c, 4) / math.comb(n_pop, 4)
        draws = 40_000
        hits = groups = 0
        for partition in sample_partitions(n_pop, 4, draws, rng):
            all_c = is_c[partition].all(axis=1)
            hits += int(all_c.sum())
            groups += len(partition)
        observed = hits / groups
        sigma = math.sqrt(expected * (1 - expected) / groups)
        assert abs(observed - expected) < 4 * sigma


class TestInitialPopulation:
    def test_uniform_split(self):
        config = two_gene_config()
        population = initial_population(config, rng_for(0))
        freqs = gene_frequencies(population, config)
        assert freqs == {G_D: 32, G_C: 32}

    def test_remainder_to_early_genes(self):
        config = two_gene_config(population=66, elites=8)
        population = initial_population(config, rng_for(0))
        freqs = gene_frequencies(population, config)
        assert freqs == {G_D: 33, G_C: 33}
        config3 = two_gene_config(
            genes=(G_D, G_C, Gene("alt", Attitude.COLLECTIVE)),
            pools={
                G_D: reference_pool("alld", 8, "base", Attitude.EXPLOITATIVE),
                G_C: reference_pool("allc", 8, "base", Attitude.COLLECTIVE),
                Gene("alt", Attitude.COLLECTIVE): reference_pool(
                    "cc", 8, "alt", Attitude.COLLECTIVE, t=2
                ),
            },
            population=64,
        )
        freqs3 = gene_frequencies(initial_population(config3, rng_for(0)), config3)
        assert sorted(freqs3.values(), reverse=True) == [22, 21, 21]


class TestRunGeneration:
    def test_single_gene_stays_single_without_mutation(self):
        config = two_gene_config(mutation_rate=0.0)
        start = initial_population(config, rng_for(1))
        population = Population(np.zeros_like(start.gene), start.member)
        outcome = run_generation(population, config, rng_for(2))
        freqs = gene_frequencies(outcome.population, config)
        assert freqs[G_D] == 64 and freqs[G_C] == 0

    def test_no_extinct_gene_returns_without_mutation(self):
        config = two_gene_config(mutation_rate=0.0)
        population = initial_population(config, rng_for(3))
        for generation in range(10):
            outcome = run_generation(population, config, rng_for(4, generation))
            previous = {config.genes[g] for g in population.gene}
            current = {config.genes[g] for g in outcome.population.gene}
            assert current <= previous
            population = outcome.population

    def test_elites_carried_over_unchanged(self):
        config = two_gene_config()
        # unique (gene, member) pairs so elites can be traced to their source
        population = Population(np.arange(64) % 2, np.arange(64))
        outcome = run_generation(population, config, rng_for(6))
        by_pair = {pair: k for k, pair in enumerate(_pairs(population))}
        elites = _pairs(outcome.population)[:8]
        sources = [by_pair[pair] for pair in elites]  # gene kept with member
        elite_fitness = sorted(outcome.fitness[sources].tolist())
        assert elite_fitness == sorted(outcome.fitness.tolist())[-8:]

    def test_population_size_and_frequency_sum_constant(self):
        config = two_gene_config()
        population = initial_population(config, rng_for(7))
        for generation in range(5):
            outcome = run_generation(population, config, rng_for(8, generation))
            assert len(outcome.population) == 64
            assert sum(gene_frequencies(outcome.population, config).values()) == 64
            population = outcome.population

    def test_defector_fitness_dominates_and_gene_grows(self):
        """AllD strictly outearns AllC inside any mixed group; over many
        seeded generations from a 50/50 start its expected share rises."""
        config = two_gene_config()
        growth = []
        for trial in range(100):
            population = initial_population(config, rng_for(9, trial))
            outcome = run_generation(population, config, rng_for(10, trial))
            d_fit = outcome.fitness[population.gene == 0].mean()
            c_fit = outcome.fitness[population.gene == 1].mean()
            assert d_fit > c_fit  # within-group +1 advantage survives averaging
            growth.append(gene_frequencies(outcome.population, config)[G_D] - 32)
        assert np.mean(growth) > 2.0


def deterministic_config(kind: GameKind, **overrides):
    """Two genes over pools of deterministic, history-reading members."""
    families = [
        FamilySpec("threshold_trigger"), FamilySpec("grim"),
        FamilySpec("endgame"), FamilySpec("rota"),
    ]
    pools = {
        G_D: synth_pool(families, 24, 1, "base", Attitude.EXPLOITATIVE),
        G_C: synth_pool(families, 24, 2, "base", Attitude.COLLECTIVE),
    }
    return two_gene_config(kind=kind, pools=pools, **overrides)


class TestOneStackPerGeneration:
    @pytest.mark.parametrize("kind", list(GameKind))
    def test_one_stack_matches_playing_each_wave(self, kind):
        config = deterministic_config(kind)
        population = initial_population(config, rng_for(30))
        [(fitness, welfare, partitions)] = evaluate_fitness([population], config, [rng_for(31)])
        rows = config.pool_starts[population.gene] + population.member
        fitness_sum = np.zeros(len(population))
        welfares = []
        waves = [(rows[partition], wave) for wave, partition in enumerate(partitions)]
        played = play_blocks(kind, config.params, config.member_table, waves)
        for partition, (totals, wave_welfare) in zip(partitions, played):
            fitness_sum[partition.ravel()] += (totals / config.params.rounds).ravel()
            welfares.append(wave_welfare)
        assert len(np.unique(fitness)) > 1  # the lineups matter
        assert np.array_equal(fitness, fitness_sum / config.games_per_agent)
        assert np.array_equal(welfare, np.concatenate(welfares))

    @pytest.mark.parametrize("kind", list(GameKind))
    def test_per_decision_fallback_evolves_like_the_kernel_path(self, kind):
        config = deterministic_config(
            kind, population=16, elites=2, max_generations=4, dominance_threshold=1.0
        )
        bare = replace(config, pools={
            gene: StrategyPool(
                pool.gene_tag, pool.attitude, tuple(m.without_kernel() for m in pool.members)
            )
            for gene, pool in config.pools.items()
        })
        assert [f.name for f in bare.member_table.families] == ["callable"]
        assert run_evolution(bare) == run_evolution(config)


class TestRunEvolution:
    def test_already_dominant_terminates_at_zero(self):
        config = two_gene_config(genes=(G_D,), pools={
            G_D: reference_pool("alld", 64, "base", Attitude.EXPLOITATIVE),
        })
        result = run_evolution(config)
        assert result.terminated_by == "threshold"
        assert result.generations_run == 0
        assert result.history == []
        assert result.winner == G_D

    def test_single_generation_cap(self):
        config = two_gene_config(max_generations=1)
        result = run_evolution(config)
        assert result.generations_run == 1
        assert len(result.history) == 1

    def test_deterministic_given_seed(self):
        config = two_gene_config(max_generations=5, dominance_threshold=1.0)
        a = run_evolution(config)
        b = run_evolution(config)
        assert a.winner == b.winner
        assert [s.gene_frequencies for s in a.history] == [s.gene_frequencies for s in b.history]
        assert [s.mean_welfare for s in a.history] == [s.mean_welfare for s in b.history]

    def test_bookkeeping_invariants_every_generation(self):
        """Constant population, frequency sums, elite preservation, and four
        games per agent, across all three games."""
        matrix = [
            (GameKind.PUBLIC_GOODS, {}),
            (GameKind.COLLECTIVE_RISK, {}),
            (GameKind.COMMON_POOL, {}),
        ]
        for kind, extra in matrix:
            config = two_gene_config(
                kind=kind, max_generations=6, dominance_threshold=1.0, **extra
            )
            observed = []

            def check(outcome):
                observed.append(outcome)
                assert len(outcome.population) == config.population
                assert sum(outcome.stats.gene_frequencies.values()) == config.population
                for partition in outcome.partitions:
                    assert sorted(partition.ravel()) == list(range(config.population))
                assert len(outcome.partitions) == config.games_per_agent

            result = run_evolution(config, on_generation=check)
            assert len(observed) == result.generations_run

    def test_mutation_rate_one_neutral_oscillation(self):
        """With forced mutation and identical pools, deviations from the
        half-half split flip sign each generation, so the long-run average
        frequency sits within 3 single-generation binomial sigmas of half."""
        pools = {
            G_D: reference_pool("allc", 64, "base", Attitude.EXPLOITATIVE),
            G_C: reference_pool("allc", 64, "base", Attitude.COLLECTIVE),
        }
        config = two_gene_config(
            pools=pools, mutation_rate=1.0, elites=0,
            dominance_threshold=1.0, max_generations=40, master_seed=21,
        )
        result = run_evolution(config)
        average = np.mean([s.gene_frequencies[G_D] for s in result.history])
        sigma = math.sqrt(64 * 0.25)
        assert abs(average - 32) <= 3 * sigma


class TestWelfareEfficiency:
    def test_extremes(self):
        params = GameParams(n=4, rounds=20, k=2.0)
        assert welfare_efficiency([2.0], GameKind.PUBLIC_GOODS, params) == 1.0
        assert welfare_efficiency([1.0], GameKind.PUBLIC_GOODS, params) == 0.0

    def test_all_defect_generation_is_zero(self):
        left = Gene("left", Attitude.EXPLOITATIVE)
        right = Gene("right", Attitude.EXPLOITATIVE)
        config = two_gene_config(genes=(left, right), pools={
            left: reference_pool("alld", 64, "left", Attitude.EXPLOITATIVE),
            right: reference_pool("alld", 64, "right", Attitude.EXPLOITATIVE),
        }, dominance_threshold=1.0, max_generations=1)
        result = run_evolution(config)
        assert result.history[0].welfare_efficiency == 0.0
        assert result.history[0].mean_welfare == 1.0

    def test_degenerate_bounds_error(self, monkeypatch):
        from ndilemma.bounds import WelfareBounds

        monkeypatch.setattr(
            "ndilemma.evolution.cached_bounds",
            lambda kind, params: WelfareBounds(1.0, 1.0, "scan"),
        )
        with pytest.raises(ValueError, match="degenerate"):
            welfare_efficiency([1.0], GameKind.PUBLIC_GOODS, GameParams(n=4, rounds=1, k=2.0))


class TestBatchRuns:
    def test_single_run_sums_to_one(self):
        summary = batch_runs(two_gene_config(max_generations=2), 1)
        assert sum(summary.winners.values()) == 1

    def test_winner_counts_partition_runs(self):
        summary = batch_runs(two_gene_config(max_generations=3), 7)
        assert sum(summary.winners.values()) == 7
        assert len(summary.runs) == 7

    def test_deterministic_single_gene_setup(self):
        config = two_gene_config(genes=(G_D,), pools={
            G_D: reference_pool("alld", 64, "base", Attitude.EXPLOITATIVE),
        })
        summary = batch_runs(config, 5)
        assert summary.winners[G_D] == 5
        assert summary.threshold_reached == 5
        assert summary.average_generations == 0.0

    def test_each_run_is_a_lone_run_on_its_derived_seed(self, monkeypatch):
        """A run's record and history depend only on its address (master
        seed, run), whatever the runs beside it in a stack: stochastic
        families, policy members with rule probabilities inside (0, 1) and a
        kernel-less coin all draw on the run's own stream, runs end at
        different generations, and the runs span several stacks."""
        config = lockstep_config()
        seeds = [derive_seed(LOCKSTEP_SEED, run) for run in range(5)]
        lone = [run_evolution(replace(config, master_seed=seed)) for seed in seeds]
        # room for two runs per stack
        monkeypatch.setattr(engine, "STACK_WORDS", engine.slot_words(
            config.member_table, config.params.rounds) * config.population * 4 * 2)
        summary = batch_runs(config, 5)
        assert summary.runs == [
            RunRecord(run, result.winner, result.terminated_by, result.generations_run,
                      result.history[-1].welfare_efficiency)
            for run, result in enumerate(lone)
        ]
        assert evolution._evolve(config, seeds) == lone
        assert len({result.generations_run for result in lone}) > 1
        assert {result.terminated_by for result in lone} == {"threshold", "max_generations"}

    def test_a_fault_names_its_run_as_a_lone_run_would(self):
        """A member that faults at random first faults in run 2 of 3; the
        batch reports the fault a lone run on run 2's seed raises, naming
        run 2."""
        def flaky(obs, rng):
            if rng.random() < 0.002:
                raise RuntimeError("flaked")
            return Action.D

        config = lockstep_config(extra=Strategy("flaky", "file", flaky), master_seed=FLAKY_SEED)
        with pytest.raises(StrategyFault) as batch:
            batch_runs(config, 3)
        with pytest.raises(StrategyFault) as lone:
            run_evolution(replace(config, master_seed=derive_seed(FLAKY_SEED, 2)))
        fault, alone = batch.value, lone.value
        assert (fault.label, fault.player, fault.round_index, fault.reason) == (
            alone.label, alone.player, alone.round_index, alone.reason,
        )
        assert fault.label == "flaky" and "RuntimeError: flaked" in fault.detail
        assert fault.detail.endswith(" of its generation)") and "(run 2, game " in fault.detail
        assert fault.detail == alone.detail.replace("(run 0, ", "(run 2, ")

    @pytest.mark.parametrize("words", [None, 1], ids=["default-stacks", "run-per-stack"])
    def test_the_first_faulting_run_is_named_whatever_the_packing(self, monkeypatch, words):
        """In the first generation that faults, run 2's flaky member faults
        in round 2 and run 0's in round 7. Sharing a stack, run 2 faults
        first; run 0 is named either way."""
        def flaky(obs, rng):
            if rng.random() < 0.004:
                raise RuntimeError("flaked")
            return Action.D

        g_a, g_b = Gene("a", Attitude.COLLECTIVE), Gene("b", Attitude.EXPLOITATIVE)
        pools = {
            g_a: StrategyPool("a", Attitude.COLLECTIVE, tuple(
                [make_reference("allc")] * 4 + [Strategy("flaky", "file", flaky)])),
            g_b: StrategyPool("b", Attitude.EXPLOITATIVE, (make_reference("alld"),) * 4),
        }
        config = two_gene_config(genes=(g_a, g_b), pools=pools, population=32,
                                 games_per_agent=2, elites=4, max_generations=3)
        if words is not None:
            monkeypatch.setattr(engine, "STACK_WORDS", words)
        with pytest.raises(StrategyFault) as info:
            batch_runs(config, 3)
        fault = info.value
        assert (fault.label, fault.player, fault.round_index, fault.reason) == (
            "flaky", 2, 7, "exception",
        )
        assert fault.detail == "RuntimeError: flaked (run 0, game 1 of its generation)"


# a master seed at which the flaky member of three runs faults first in run 2
FLAKY_SEED = 10
# a master seed at which five runs end at different generations, some at the
# dominance threshold and some at max_generations
LOCKSTEP_SEED = 18


def lockstep_config(extra: Strategy | None = None, **overrides):
    """Three genes: stochastic synth members, and policy members with rule
    probabilities inside (0, 1) beside a kernel-less coin (and ``extra``)."""
    def coin(obs, rng):
        return Action.C if rng.random() < 0.6 else Action.D

    rules = [
        PolicySpec(f"rules{i}", (
            PolicyRule(Predicate("coop_rate_ge", value=0.25 * i), 0.8),
            PolicyRule(Predicate("my_last_is", value="D"), 0.3),
        ), 0.4)
        for i in range(4)
    ]
    members = tuple(policy_strategy(spec) for spec in rules) + (Strategy("coin", "file", coin),)
    if extra is not None:
        members += (extra,)
    g_p = Gene("rules", Attitude.COLLECTIVE)
    pools = {
        G_D: synth_pool([FamilySpec("bernoulli"), FamilySpec("endgame")],
                        16, 1, "base", Attitude.EXPLOITATIVE),
        G_C: synth_pool([FamilySpec("reciprocator"), FamilySpec("grim")],
                        16, 2, "base", Attitude.COLLECTIVE),
        g_p: StrategyPool("rules", Attitude.COLLECTIVE, members),
    }
    settings = dict(genes=(G_D, G_C, g_p), pools=pools, population=32, elites=4,
                    dominance_threshold=0.6, max_generations=8, master_seed=LOCKSTEP_SEED)
    return two_gene_config(**{**settings, **overrides})


def test_generations_csv_layout(tmp_path):
    config = two_gene_config(max_generations=3, dominance_threshold=1.0)
    result = run_evolution(config)
    path = tmp_path / "generations.csv"
    write_generations_csv(result.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,gene,frequency,mean_welfare,welfare_efficiency"
    assert len(lines) == 1 + 3 * 2  # three generations, two genes


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        two_gene_config(population=63).validate()
    with pytest.raises(ValueError, match="elites"):
        two_gene_config(elites=64).validate()
    with pytest.raises(ValueError, match="mutation"):
        two_gene_config(mutation_rate=1.5).validate()
    with pytest.raises(ValueError, match="group_size"):
        two_gene_config(group_size=8).validate()
    with pytest.raises(ValueError, match="pool"):
        bad = two_gene_config(genes=(G_D, G_C, Gene("ghost", Attitude.COLLECTIVE)))
        bad.validate()
