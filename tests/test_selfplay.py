"""Mix-grid behaviour and CSV round-tripping."""

import hashlib
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import reference_pool
from reference import twin_pool, without_kernel

from ndilemma import (
    Action,
    Attitude,
    GameKind,
    MixGridConfig,
    MixGridRow,
    Strategy,
    StrategyFault,
    StrategyPool,
    emit_grid_csv,
    read_grid_csv,
    run_mix_grid,
)
from ndilemma import cli, engine, selfplay
from ndilemma.bounds import WelfareBounds
from ndilemma.engine import CALLABLE, MemberTable, build_groups, simulate_batch
from ndilemma.seeding import derive_seed


def small_grid(kind, pool_e, pool_c, **kwargs):
    defaults = dict(
        kind=kind, pool_e=pool_e, pool_c=pool_c, k=2.0, rounds=10,
        group_sizes=(4,), samples_per_cell=25, master_seed=7,
    )
    defaults.update(kwargs)
    return MixGridConfig(**defaults)


@pytest.fixture
def small_pools():
    return (
        reference_pool("alld", 16, "base", Attitude.EXPLOITATIVE),
        reference_pool("allc", 16, "base", Attitude.COLLECTIVE),
    )


def test_pgg_constant_pools_match_closed_form(small_pools):
    pool_e, pool_c = small_pools
    rows = run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c))
    assert len(rows) == 5  # n_e exhaustive over 0..4
    for row in rows:
        assert row.mean_welfare == 1 + row.n_c * (2.0 - 1) / row.n
        assert row.std_error == 0.0
        assert row.welfare_min - 1e-9 <= row.mean_welfare <= row.welfare_max + 1e-9


def test_crd_half_cooperation_beats_full(small_pools):
    pool_e, pool_c = small_pools
    rows = run_mix_grid(small_grid(GameKind.COLLECTIVE_RISK, pool_e, pool_c))
    by_ne = {row.n_e: row.mean_welfare for row in rows}
    assert by_ne[2] == 2.5
    assert by_ne[0] == 2.0
    assert by_ne[2] > by_ne[0]


def test_identical_pools_give_flat_grid(small_pools):
    pool_e, _ = small_pools
    rows = run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_e))
    welfare = {row.mean_welfare for row in rows}
    assert welfare == {1.0}  # all-defector pool on both sides


def test_grid_is_exhaustive_per_group_size(small_pools):
    pool_e, pool_c = small_pools
    config = small_grid(
        GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(4, 8), samples_per_cell=5
    )
    rows = run_mix_grid(config)
    assert len([r for r in rows if r.n == 4]) == 5
    assert len([r for r in rows if r.n == 8]) == 9
    assert [r.n_e for r in rows if r.n == 8] == list(range(9))


def test_deterministic_on_rerun(small_pools):
    pool_e, _ = small_pools
    coin = reference_pool("rnd", 16, "coin", Attitude.COLLECTIVE, p=0.5)
    config = small_grid(GameKind.COMMON_POOL, pool_e, coin, samples_per_cell=10)
    assert run_mix_grid(config) == run_mix_grid(config)


def test_scalar_fallback_matches_kernel_path(small_pools):
    """Stripping kernels (forcing the per-decision engine) leaves the grid
    unchanged for deterministic pools."""
    pool_e, pool_c = small_pools
    fast = run_mix_grid(small_grid(GameKind.COMMON_POOL, pool_e, pool_c, samples_per_cell=10))
    bare_e = StrategyPool(pool_e.gene_tag, pool_e.attitude,
                          tuple(without_kernel(m) for m in pool_e.members))
    bare_c = StrategyPool(pool_c.gene_tag, pool_c.attitude,
                          tuple(without_kernel(m) for m in pool_c.members))
    slow = run_mix_grid(small_grid(GameKind.COMMON_POOL, bare_e, bare_c, samples_per_cell=10))
    assert fast == slow


def _record_cells(monkeypatch):
    """Record the lineups of each cell ``run_mix_grid`` plays, by (n, n_e).
    The grid plays as one part, so that every cell plays in this process."""
    monkeypatch.setattr(engine, "SPLIT_DECISIONS", sys.maxsize)
    cells = {}
    real = selfplay.play_blocks

    def recorded(kind, params, table, blocks):
        def seen():
            for lineups, seed in blocks:
                n_e = int((lineups < 16).sum(axis=1)[0])  # pool_e holds members 0..15
                cells[(params.n, n_e)] = lineups
                yield lineups, seed
        return real(kind, params, table, seen())

    monkeypatch.setattr(selfplay, "play_blocks", recorded)
    return cells


SYNTH_E = {"type": "synth", "size": 16, "families": [
    {"family": "bernoulli"}, {"family": "reciprocator"}, {"family": "endgame"},
]}
SYNTH_C = {"type": "synth", "size": 16, "families": [
    {"family": "bernoulli"}, {"family": "grim"}, {"family": "rota"},
]}


def _policy_pool_file(path) -> dict:
    """A pool source of eight policy members that decide at random."""
    members = [
        {"label": f"mixed{i}", "default_prob": 0.1 * i, "rules": [
            {"when": {"op": "last_coop_ge", "value": i % 4}, "cooperate_prob": 0.9},
            {"when": {"op": "coop_rate_ge", "value": 0.25 * (i % 3)}, "cooperate_prob": 0.4},
        ]}
        for i in range(8)
    ]
    path.write_text(json.dumps({"schema_version": 1, "gene_tag": "e",
                                "attitude": "exploitative", "members": members}))
    return {"type": "file", "path": str(path)}


@pytest.mark.parametrize("pool_e", ["synth", "policy"])
@pytest.mark.parametrize("kind", ["pgg", "cpr", "crd"])
def test_a_grid_cell_depends_only_on_its_address(
    kind, pool_e, tmp_path, monkeypatch, forced_split
):
    """Stochastic pools, synth or a policy file beside a synth pool, one of
    whose members has no kernel, write the same ``grid.csv`` and manifest
    digests whether a stack holds every cell of a group size, a few or one,
    at the default budget and smaller ones, and whether the grid plays in
    one process or two; each row is its cell's lineups played as a stack of
    their own on the cell's kernel seed."""
    real_load = cli.load_pool_source

    def one_bare(spec, seed, index):
        pool = real_load(spec, seed, index)
        if index == 1:  # pool_c's first bernoulli member draws per decision
            members = list(pool.members)
            at = next(i for i, m in enumerate(members) if m.kernel[0] == "bernoulli")
            members[at] = without_kernel(members[at])
            pool = StrategyPool(pool.gene_tag, pool.attitude, tuple(members))
        return pool

    grids = []
    real_run = cli.run_mix_grid

    def captured(config):
        grids.append(config)
        return real_run(config)

    monkeypatch.setattr(cli, "load_pool_source", one_bare)
    monkeypatch.setattr(cli, "run_mix_grid", captured)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1, "seed": 3, "game": {"kind": kind, "k": 2.0, "rounds": 6},
        "group_sizes": [4, 8], "samples_per_cell": 10,
        "pool_e": {"gene_tag": "e", "attitude": "exploitative", "source": (
            SYNTH_E if pool_e == "synth" else _policy_pool_file(tmp_path / "policy.json"))},
        "pool_c": {"gene_tag": "c", "attitude": "collective", "source": SYNTH_C},
    }))
    digests = set()
    runs = [(budget, sys.maxsize) for budget in (engine.STACK_WORDS, 1 << 17, 1 << 13, 1 << 10)]
    for budget, gate in runs + [(engine.STACK_WORDS, 0)]:
        monkeypatch.setattr(engine, "STACK_WORDS", budget)
        monkeypatch.setattr(engine, "SPLIT_DECISIONS", gate)
        out = tmp_path / f"out{budget}-{gate}"
        assert cli.main(["selfplay", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.add((hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest(),
                     manifest["config_digest"], json.dumps(manifest["outputs"])))
    assert len(digests) == 1
    config = grids[0]
    table = MemberTable.compile(config.pool_e.members + config.pool_c.members, warn=False)
    assert CALLABLE in table.families
    rows = read_grid_csv(out / "grid.csv")
    assert len(rows) == 5 + 9
    for row in rows:
        lineups = selfplay._draw_cell(config, row.n, row.n_e)
        seed = derive_seed(config.master_seed, row.n, row.n_e, 1)
        groups = build_groups(lineups.ravel(), table)
        alone = simulate_batch(config.kind, config.params_for(row.n), groups, 10, seed)
        assert row.mean_welfare == float(alone.mean_welfare.mean())
        assert row.std_error == float(alone.mean_welfare.std(ddof=1) / np.sqrt(10))
    assert len({row.std_error for row in rows}) > 1


@pytest.mark.parametrize("kind", list(GameKind))
def test_kernel_less_grid_pins_hold_when_split(tmp_path, kind, forced_split):
    test_kernel_less_grid_outputs_are_pinned(tmp_path, kind)


def _touchy_pool(cells: set[tuple[int, int]]) -> StrategyPool:
    """Kernel-less cooperators that raise in round 1 of exactly the (n, n_e)
    ``cells`` of a grid against defectors, where each sees n - n_e - 1
    other cooperators."""
    def decide(obs, rng):
        n = obs.params.n
        if obs.round_index == 1 and (n, n - 1 - obs.opp_coop_last) in cells:
            raise ZeroDivisionError("touched")
        return Action.C

    members = tuple(Strategy(f"touchy{i}", "file", decide) for i in range(16))
    return StrategyPool("c", Attitude.COLLECTIVE, members)


@pytest.mark.parametrize("cells, named", [
    ({(8, 3), (8, 6)}, (8, 3)),  # the child's cell first, then the parent's
    ({(4, 3), (8, 2)}, (4, 3)),  # the same, across group sizes
    ({(8, 2), (8, 5)}, (8, 2)),  # the parent's cell first, then the child's
    ({(4, 2), (8, 1)}, (4, 2)),
])
def test_a_split_grid_names_the_first_faulting_cell(
    small_pools, forced_split, monkeypatch, cells, named
):
    """Odd ``n_e`` play in the child. The fault raised is the one the grid
    raises in one process: the earliest faulting cell's, in grid order."""
    pool_e, _ = small_pools
    config = small_grid(GameKind.PUBLIC_GOODS, pool_e, _touchy_pool(cells),
                        group_sizes=(4, 8), samples_per_cell=3)
    faults = []
    for gate in (sys.maxsize, 0):
        monkeypatch.setattr(engine, "SPLIT_DECISIONS", gate)
        with pytest.raises(StrategyFault) as info:
            run_mix_grid(config)
        faults.append(info.value)
    one, split = faults
    n, n_e = named
    assert str(split) == str(one)
    assert (split.player, split.round_index, split.reason) == (n_e, 1, "exception")
    assert split.cause == f"ZeroDivisionError: touched (sample 0 of cell ({n}, {n_e}))"


def test_an_error_in_the_childs_cells_is_raised_in_the_parent(
    small_pools, forced_split, monkeypatch
):
    real = selfplay._draw_cell

    def draw(config, n, n_e):
        if n_e % 2:
            raise MemoryError("no room")
        return real(config, n, n_e)

    monkeypatch.setattr(selfplay, "_draw_cell", draw)
    with pytest.raises(RuntimeError) as info:
        run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, *small_pools))
    assert str(info.value) == "the forked part of the run raised MemoryError: no room"


@pytest.mark.parametrize("samples", [1, 2, 3, 17, 200, 1000])
def test_cell_rows_match_each_cells_own_reductions(samples):
    """A group size's rows, summarised in array calls over its (cells,
    samples) welfare, hold each cell's own mean and standard error, bit
    for bit."""
    welfare = np.random.default_rng(samples).random((9, samples)) * 2.1
    config = SimpleNamespace(kind=GameKind.COMMON_POOL)
    rows = selfplay._cell_rows(config, 8, welfare, WelfareBounds(0.2, 2.1, "exact"))
    assert [row.n_e for row in rows] == list(range(9))
    for row, cell in zip(rows, welfare):
        assert row.mean_welfare == float(cell.mean())
        assert row.std_error == (
            float(cell.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0)
        assert (row.game, row.n, row.samples) == ("cpr", 8, samples)


def test_draw_rows_hold_distinct_members_of_each_pool(small_pools, monkeypatch):
    cells = _record_cells(monkeypatch)
    pool_e, pool_c = small_pools
    run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c,
                            group_sizes=(4, 16), samples_per_cell=30))
    assert len(cells) == 5 + 17
    for (n, n_e), lineups in cells.items():
        assert lineups.shape == (30, n)
        picked_e, picked_c = lineups[:, :n_e], lineups[:, n_e:]
        assert ((0 <= picked_e) & (picked_e < 16)).all()
        assert ((16 <= picked_c) & (picked_c < 32)).all()  # offset by len(pool_e)
        for row in lineups:
            assert len(set(row.tolist())) == n


def test_a_cells_draw_does_not_depend_on_its_stack(small_pools, monkeypatch):
    cells = _record_cells(monkeypatch)
    pool_e, pool_c = small_pools
    alone = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(8,),
                       samples_per_cell=4)
    beside = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(4, 8, 16),
                        samples_per_cell=4)
    run_mix_grid(alone)
    reference = dict(cells)
    run_mix_grid(beside)
    together = dict(cells)
    monkeypatch.setattr(engine, "STACK_WORDS", 1)  # one cell per stack
    run_mix_grid(beside)
    for n_e in range(9):
        assert (together[(8, n_e)] == reference[(8, n_e)]).all()
        assert (cells[(8, n_e)] == reference[(8, n_e)]).all()


# chi-squared critical values at p = 0.001 by degrees of freedom
CHI2_CRITICAL = {11: 31.264, 19: 43.820}


def test_draw_frequencies_are_uniform():
    """Chi-squared over the members drawn at every position of one cell;
    seed, pool sizes and sample count were fixed before looking."""
    pool_e = reference_pool("alld", 20, "e", Attitude.EXPLOITATIVE)
    pool_c = reference_pool("allc", 12, "c", Attitude.COLLECTIVE)
    config = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(8,),
                        samples_per_cell=6000, master_seed=2024)
    lineups = selfplay._draw_cell(config, 8, 5)
    assert lineups.shape == (6000, 8)
    for position in range(8):
        lo, hi = (0, 20) if position < 5 else (20, 32)
        counts = np.bincount(lineups[:, position] - lo, minlength=hi - lo)
        expected = len(lineups) / (hi - lo)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRITICAL[hi - lo - 1], (position, chi2)


def test_pool_too_small_for_group(small_pools):
    pool_e, pool_c = small_pools
    config = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(32,))
    with pytest.raises(ValueError, match="members"):
        run_mix_grid(config)


def test_stochastic_pools_within_bounds():
    pool = reference_pool("rnd", 16, "coin", Attitude.COLLECTIVE, p=0.5)
    rows = run_mix_grid(small_grid(GameKind.COLLECTIVE_RISK, pool, pool))
    for row in rows:
        assert row.welfare_min - 1e-9 <= row.mean_welfare <= row.welfare_max + 1e-9
        assert row.std_error > 0.0


class TestGridCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "grid.csv"
        emit_grid_csv([], path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["game,n,n_e,mean_welfare,std_error,welfare_min,welfare_max,samples"]

    def test_three_rows_four_lines(self, tmp_path):
        rows = [
            MixGridRow("pgg", 4, i, 1.5, 0.01, 1.0, 2.0, 10) for i in range(3)
        ]
        path = tmp_path / "grid.csv"
        emit_grid_csv(rows, path)
        assert len(path.read_text().strip().splitlines()) == 4

    def test_round_trip_lossless(self, tmp_path, small_pools):
        pool_e, pool_c = small_pools
        rows = run_mix_grid(small_grid(GameKind.COMMON_POOL, pool_e, pool_c, samples_per_cell=8))
        path = tmp_path / "grid.csv"
        emit_grid_csv(rows, path)
        assert read_grid_csv(path) == rows

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_grid_csv(path)


# sha256 of grid.csv for a grid of kernel-less twins of every built-in
# family, drawing ones included, on each game; a change to what a
# ``callable`` slot observes or to its draw order changes them
KERNEL_LESS_GRID_SHA256 = {
    GameKind.PUBLIC_GOODS: "5f539ca182e3167d22c70069a3bff83caa4f989183e42c06803b06cd4eb00604",
    GameKind.COLLECTIVE_RISK: "e66272c48286c825dcbe3a4c7504ba31de145443763a606973a6318402d7ee5b",
    GameKind.COMMON_POOL: "9e61380aed3ecc81bdbd86c45169a3ab854e17cb62db3a0049fd1e47459917d4",
}


@pytest.mark.parametrize("kind", list(GameKind))
def test_kernel_less_grid_outputs_are_pinned(tmp_path, kind):
    config = small_grid(
        kind, twin_pool(kind, 2, 3, Attitude.EXPLOITATIVE),
        twin_pool(kind, 2, 11, Attitude.COLLECTIVE),
        rounds=8, group_sizes=(3, 6), samples_per_cell=5, master_seed=23,
    )
    emit_grid_csv(run_mix_grid(config), tmp_path / "grid.csv")
    digest = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()
    assert digest == KERNEL_LESS_GRID_SHA256[kind]
