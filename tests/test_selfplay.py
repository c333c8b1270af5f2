"""Mix-grid behaviour and CSV round-tripping."""

import hashlib
import json

import numpy as np
import pytest

from conftest import reference_pool

from ndilemma import (
    Attitude,
    GameKind,
    MixGridConfig,
    MixGridRow,
    StrategyPool,
    emit_grid_csv,
    read_grid_csv,
    run_mix_grid,
)
from ndilemma import cli, engine, selfplay
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
                          tuple(m.without_kernel() for m in pool_e.members))
    bare_c = StrategyPool(pool_c.gene_tag, pool_c.attitude,
                          tuple(m.without_kernel() for m in pool_c.members))
    slow = run_mix_grid(small_grid(GameKind.COMMON_POOL, bare_e, bare_c, samples_per_cell=10))
    assert fast == slow


def _record_cells(monkeypatch):
    """Record the lineups of each cell ``run_mix_grid`` plays, by (n, n_e)."""
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


@pytest.mark.parametrize("kind", ["pgg", "cpr", "crd"])
def test_a_grid_cell_depends_only_on_its_address(kind, tmp_path, monkeypatch):
    """Stochastic synth pools, one of whose members has no kernel, write the
    same ``grid.csv`` whether a stack holds every cell of a group size, a few
    or one; each row is its cell's lineups played as a stack of their own on
    the cell's kernel seed."""
    real_load = cli.load_pool_source

    def one_bare(spec, seed, index):
        pool = real_load(spec, seed, index)
        if index == 1:  # pool_c's first bernoulli member draws per decision
            members = list(pool.members)
            at = next(i for i, m in enumerate(members) if m.kernel[0] == "bernoulli")
            members[at] = members[at].without_kernel()
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
        "pool_e": {"gene_tag": "e", "attitude": "exploitative", "source": SYNTH_E},
        "pool_c": {"gene_tag": "c", "attitude": "collective", "source": SYNTH_C},
    }))
    digests = set()
    for budget in (1 << 17, 1 << 13, 1 << 10):
        monkeypatch.setattr(engine, "STACK_WORDS", budget)
        out = tmp_path / f"out{budget}"
        assert cli.main(["selfplay", "--config", str(path), "--out", str(out)]) == 0
        digests.add(hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest())
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
