"""Acceptance suite: one test per acceptance criterion.

Each test prints a [PASS] line when its criterion holds (run with ``-s`` or
``-rA`` to see them). Statistical criteria run on frozen seeds, so the suite
is deterministic end to end.
"""

import json
import math
import time
from collections import Counter

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
    MixGridConfig,
    batch_runs,
    cohens_d,
    enumerate_nodes,
    fingerprint,
    make_reference,
    mpd,
    participation_ratio,
    pca,
    pgg_payoffs,
    play_game,
    run_evolution,
    run_mix_grid,
    welfare_bounds,
)
from ndilemma.cli import main
from ndilemma.pools import FamilySpec, synth_pool

C, D = Action.C, Action.D


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def test_c01_pgg_worked_examples():
    start = time.perf_counter()
    params = GameParams(n=6, k=2.0)
    assert pgg_payoffs([D] * 6, params) == [1.0] * 6
    assert pgg_payoffs([C] * 6, params) == [2.0] * 6
    assert pgg_payoffs([C] * 3 + [D] * 3, params) == [1.0] * 3 + [2.0] * 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"public-goods worked examples exact ({elapsed:.3f}s)")


def test_c02_cpr_fixed_point_and_collapse():
    start = time.perf_counter()
    for n in (2, 4, 16, 64, 256):
        params = GameParams(n=n, rounds=20)
        coop = play_game(GameKind.COMMON_POOL, params, [make_reference("allc")] * n, seed=1)
        assert np.all(coop.stocks == params.capacity)
        assert np.all(coop.payoffs == 2.0)
        defect = play_game(GameKind.COMMON_POOL, params, [make_reference("alld")] * n, seed=1)
        assert np.all(defect.payoffs[0] == 4.0)
        assert np.all(defect.stocks[1:] == 0.0)
        assert np.all(defect.payoffs[1:] == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"common-pool fixed point and collapse for n in 2..256 ({elapsed:.1f}s)")


def test_c03_crd_welfare_shape():
    for n in (4, 6, 16):
        params = GameParams(n=n, k=2.0)  # threshold defaults to n // 2
        # independent scan oracle, straight from the payoff definition
        def scan_welfare(n_c: int) -> float:
            benefit = 2.0 if n_c >= n // 2 else 0.0
            return (n_c * benefit + (n - n_c) * (benefit + 1.0)) / n

        welfare = [scan_welfare(n_c) for n_c in range(n + 1)]
        assert int(np.argmax(welfare)) == n // 2
        limits = welfare_bounds(GameKind.COLLECTIVE_RISK, params)
        assert limits.min_mean == pytest.approx(min(welfare), abs=1e-9)
        assert limits.max_mean == pytest.approx(max(welfare), abs=1e-9)
    report(3, "collective-risk welfare peaks at the threshold; bounds match the scan")


@pytest.mark.slow
def test_c04_mix_grid_oracle(alld_pool, allc_pool):
    start = time.perf_counter()
    for k, slope in ((2.0, 1.0), (3.0, 2.0)):
        rows = run_mix_grid(
            MixGridConfig(
                kind=GameKind.PUBLIC_GOODS,
                pool_e=alld_pool,
                pool_c=allc_pool,
                k=k,
                group_sizes=(4, 16, 64, 256),
                samples_per_cell=200,
                master_seed=17,
            )
        )
        assert len(rows) == (4 + 1) + (16 + 1) + (64 + 1) + (256 + 1)
        for row in rows:
            assert row.mean_welfare == 1.0 + slope * row.n_c / row.n
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"mix-grid cells exact for k=2 and k=3 at all group sizes ({elapsed:.1f}s)")


def test_c05_fingerprint_extremes_and_band():
    params = GameParams(n=4, rounds=5, k=2.0)
    nodes = enumerate_nodes(4, 5)
    allc = fingerprint(make_reference("allc"), GameKind.PUBLIC_GOODS, params, nodes, 50, seed=0)
    alld = fingerprint(make_reference("alld"), GameKind.PUBLIC_GOODS, params, nodes, 50, seed=0)
    assert (allc == 1.0).all()
    assert (alld == 0.0).all()
    band = 3 * math.sqrt(0.3 * 0.7 / 50)
    in_band = 0
    total = 0
    for seed in range(20):
        values = fingerprint(
            make_reference("rnd", p=0.3), GameKind.PUBLIC_GOODS, params, nodes, 50, seed=seed
        )
        in_band += int((np.abs(values - 0.3) <= band).sum())
        total += len(values)
    fraction = in_band / total
    assert fraction >= 0.99
    report(5, f"fingerprint extremes exact; Rnd(0.3) band coverage {fraction:.4f}")


def test_c06_metric_identities(rng):
    for d in (3, 7, 12):
        assert participation_ratio([5.0] * d) == pytest.approx(d, abs=1e-12)
    assert participation_ratio([2.0, 1.0]) == pytest.approx(1.8, abs=1e-12)
    assert mpd(np.ones((6, 9))) == 0.0
    sample = rng.random((10_000, 50))
    normalised = mpd(sample)
    assert normalised == pytest.approx(1.0, abs=0.02)
    # hand oracle: centroids (1,1) and (5,2), within-set variances 8/3,
    # d = sqrt(17) / sqrt(8/3) = sqrt(51/8)
    set_a = np.array([[0, 0], [2, 0], [1, 3]], dtype=float)
    set_b = np.array([[4, 1], [6, 1], [5, 4]], dtype=float)
    assert cohens_d(set_a, set_b) == pytest.approx(math.sqrt(51 / 8), abs=1e-9)
    report(6, f"metric identities hold; uniform-cloud MPD {normalised:.4f}")


def test_c07_pca_correctness(rng):
    # characteristic polynomial of the scatter matrix [[5,0,1],[0,1,-2],[1,-2,5]]
    # is l^3 - 11 l^2 + 30 l - 4; the covariance eigenvalues are its roots / 3
    data = np.array([[2, 0, 1], [0, 1, -1], [3, 1, 0], [1, 0, 2]], dtype=float)
    roots = np.sort(np.roots([1.0, -11.0, 30.0, -4.0]))[::-1]
    result = pca(data)
    assert np.allclose(result.eigenvalues, roots / 3.0, atol=1e-8)

    line = np.outer(np.linspace(-1, 1, 8), rng.random(6))
    assert pca(line).explained_ratios[0] == pytest.approx(1.0, abs=1e-9)

    cloud = rng.random((9, 5))
    full = pca(cloud)
    for i in range(9):
        for j in range(i + 1, 9):
            original = np.linalg.norm(cloud[i] - cloud[j])
            projected = np.linalg.norm(full.projections[i] - full.projections[j])
            assert projected == pytest.approx(original, rel=1e-6)
    report(7, "PCA matches the characteristic-polynomial oracle and preserves distances")


@pytest.mark.slow
def test_c08_evolution_dominance_and_neutrality():
    start = time.perf_counter()
    gene_d = Gene("base", Attitude.EXPLOITATIVE)
    gene_c = Gene("base", Attitude.COLLECTIVE)
    dominance = EvolutionConfig(
        kind=GameKind.PUBLIC_GOODS,
        params=GameParams(n=4, rounds=20, k=2.0),
        genes=(gene_d, gene_c),
        pools={
            gene_d: reference_pool("alld", 64, "base", Attitude.EXPLOITATIVE),
            gene_c: reference_pool("allc", 64, "base", Attitude.COLLECTIVE),
        },
        population=64,
        group_size=4,
        games_per_agent=4,
        elites=8,
        mutation_rate=0.10,
        dominance_threshold=0.75,
        max_generations=200,
        master_seed=0,
    )
    summary = batch_runs(dominance, 100)
    alld_wins = summary.winners[gene_d]
    assert alld_wins >= 95

    gene_l = Gene("left", Attitude.COLLECTIVE)
    gene_r = Gene("right", Attitude.COLLECTIVE)
    neutral = EvolutionConfig(
        kind=GameKind.PUBLIC_GOODS,
        params=GameParams(n=4, rounds=20, k=2.0),
        genes=(gene_l, gene_r),
        pools={
            gene_l: reference_pool("allc", 64, "left", Attitude.COLLECTIVE),
            gene_r: reference_pool("allc", 64, "right", Attitude.COLLECTIVE),
        },
        population=64,
        group_size=4,
        games_per_agent=4,
        elites=8,
        mutation_rate=0.10,
        dominance_threshold=0.75,
        max_generations=200,
        master_seed=0,
    )
    drift = batch_runs(neutral, 100)
    assert max(drift.winners.values()) <= 65
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        8,
        f"defector gene wins {alld_wins}/100; neutral split "
        f"{drift.winners[gene_l]}/{drift.winners[gene_r]} ({elapsed:.0f}s)",
    )


def _pairs(population) -> list[tuple[int, int]]:
    return list(zip(population.gene.tolist(), population.member.tolist()))


def test_c09_evolution_bookkeeping_invariants():
    gene_a = Gene("a", Attitude.EXPLOITATIVE)
    gene_b = Gene("b", Attitude.COLLECTIVE)
    pools = {
        gene_a: reference_pool("cd", 32, "a", Attitude.EXPLOITATIVE, t=1),
        gene_b: reference_pool("cc", 32, "b", Attitude.COLLECTIVE, t=2),
    }
    checked = 0
    for kind in GameKind:
        for group_size in (4, 8):
            config = EvolutionConfig(
                kind=kind,
                params=GameParams(n=group_size, rounds=10, k=2.0),
                genes=(gene_a, gene_b),
                pools=pools,
                population=32,
                group_size=group_size,
                games_per_agent=4,
                elites=4,
                mutation_rate=0.10,
                dominance_threshold=1.0,
                max_generations=5,
                master_seed=13,
            )
            populations = {}

            def check(outcome, config=config, populations=populations):
                assert len(outcome.population) == config.population
                assert sum(outcome.stats.gene_frequencies.values()) == config.population
                assert len(outcome.partitions) == config.games_per_agent
                for partition in outcome.partitions:
                    assert sorted(partition.ravel()) == list(range(config.population))
                populations[outcome.stats.generation] = outcome

            result = run_evolution(config, on_generation=check)
            assert len(populations) == result.generations_run == 5
            # the elites leading the population a generation produced are the
            # top agents, by that generation's fitness, of the population it
            # played, carried over as the same (gene, member) pairs
            for generation in range(2, 6):
                outcome = populations[generation]
                played = populations[generation - 1].population
                elites = Counter(_pairs(outcome.population)[: config.elites])
                pairs = _pairs(played)
                cut = np.sort(outcome.fitness)[-config.elites]
                above = Counter(p for p, f in zip(pairs, outcome.fitness) if f > cut)
                at_cut = Counter(p for p, f in zip(pairs, outcome.fitness) if f == cut)
                # every agent above the cut is an elite; ties at it fill the rest
                assert above <= elites
                assert elites - above <= at_cut
            checked += 5 * config.games_per_agent
    report(9, f"bookkeeping invariants held over {checked} partitions across the matrix")


@pytest.mark.slow
def test_c10_determinism_and_scale(tmp_path, alld_pool, allc_pool):
    # byte-identical reruns of a stochastic common-pool grid
    config = {
        "schema_version": 1,
        "seed": 23,
        "game": {"kind": "cpr", "rounds": 20},
        "group_sizes": [4, 16],
        "samples_per_cell": 40,
        "pool_e": {
            "gene_tag": "t", "attitude": "exploitative",
            "source": {"type": "synth", "size": 64, "families": [
                {"family": "bernoulli"}, {"family": "endgame"}]},
        },
        "pool_c": {
            "gene_tag": "t", "attitude": "collective",
            "source": {"type": "synth", "size": 64, "families": [
                {"family": "reciprocator"}, {"family": "stock_guardian"}]},
        },
    }
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(config))
    blobs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert main(["selfplay", "--config", str(config_path), "--out", str(out)]) == 0
        blobs.append((out / "grid.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    # full-scale cultural evolution: 512 agents, group size 64, forced to
    # run all 200 generations
    gene_d = Gene("base", Attitude.EXPLOITATIVE)
    gene_c = Gene("base", Attitude.COLLECTIVE)
    pools = {
        gene_d: synth_pool(
            [FamilySpec("endgame"), FamilySpec("bernoulli")],
            512, 5, "base", Attitude.EXPLOITATIVE,
        ),
        gene_c: synth_pool(
            [FamilySpec("reciprocator"), FamilySpec("stock_guardian"), FamilySpec("grim")],
            512, 6, "base", Attitude.COLLECTIVE,
        ),
    }
    scale = EvolutionConfig(
        kind=GameKind.COMMON_POOL,
        params=GameParams(n=64, rounds=20),
        genes=(gene_d, gene_c),
        pools=pools,
        population=512,
        group_size=64,
        games_per_agent=4,
        elites=64,
        mutation_rate=0.10,
        dominance_threshold=1.0,
        max_generations=200,
        master_seed=99,
    )
    start = time.perf_counter()
    result = run_evolution(scale)
    elapsed = time.perf_counter() - start
    assert result.generations_run == 200
    assert elapsed < 60.0
    report(
        10,
        f"byte-identical reruns; 512-agent 200-generation "
        f"common-pool run in {elapsed:.1f}s",
    )
