"""Mix-grid behaviour and CSV round-tripping."""

import numpy as np
import pytest

from conftest import reference_pool

from ndilemma import (
    Attitude,
    GameKind,
    MixGridConfig,
    MixGridRow,
    Strategy,
    StrategyPool,
    emit_grid_csv,
    kernel_strategy,
    read_grid_csv,
    run_mix_grid,
)
from ndilemma import engine, selfplay
from ndilemma.engine import MemberTable, play_many
from ndilemma.policy import PolicyRule, PolicySpec, Predicate, policy_strategy


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
    from ndilemma.strategies import StrategyPool

    bare_e = StrategyPool(pool_e.gene_tag, pool_e.attitude,
                          tuple(m.without_kernel() for m in pool_e.members))
    bare_c = StrategyPool(pool_c.gene_tag, pool_c.attitude,
                          tuple(m.without_kernel() for m in pool_c.members))
    slow = run_mix_grid(small_grid(GameKind.COMMON_POOL, bare_e, bare_c, samples_per_cell=10))
    assert fast == slow


def _record_stacks(monkeypatch):
    """Record each stack ``run_mix_grid`` plays as (n, lineups, welfare)."""
    stacks = []
    real = selfplay.play_many

    def recorded(kind, params, lineups, table, seed):
        totals, welfare = real(kind, params, lineups, table, seed)
        stacks.append((params.n, lineups, welfare))
        return totals, welfare

    monkeypatch.setattr(selfplay, "play_many", recorded)
    return stacks


def _bare(pool):
    return StrategyPool(pool.gene_tag, pool.attitude,
                        tuple(m.without_kernel() for m in pool.members))


def test_cells_of_a_group_size_play_one_stack_under_the_budget(small_pools, monkeypatch):
    stacks = _record_stacks(monkeypatch)
    pool_e, pool_c = small_pools
    config = small_grid(GameKind.PUBLIC_GOODS, pool_e, _bare(pool_c),
                        group_sizes=(4, 8), samples_per_cell=6)
    rows = run_mix_grid(config)
    assert [(n, lineups.shape) for n, lineups, _ in stacks] == [(4, (5 * 6, 4)), (8, (9 * 6, 8))]
    assert len(rows) == 5 + 9


def test_stacks_split_in_whole_cells(small_pools, monkeypatch):
    stacks = _record_stacks(monkeypatch)
    pool_e, pool_c = small_pools
    config = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(4, 8),
                        samples_per_cell=6)
    whole = run_mix_grid(config)
    # room for 2.5 cells of n=4 and 1.25 of n=8: the budget never splits a cell
    words = engine.slot_words(MemberTable.compile(pool_e.members + pool_c.members), 10)
    monkeypatch.setattr(engine, "STACK_WORDS", words * 6 * 10)
    stacks.clear()
    split = run_mix_grid(config)
    assert [(n, len(lineups)) for n, lineups, _ in stacks] == (
        [(4, 12), (4, 12), (4, 6)] + [(8, 6)] * 9
    )
    assert split == whole


def test_kernel_less_members_weigh_their_history():
    pool = reference_pool("allc", 4, "t", Attitude.COLLECTIVE)
    kernel = MemberTable.compile(pool.members)
    bare = MemberTable.compile(_bare(pool).members + pool.members, warn=False)
    assert engine.slot_words(kernel, 20) == 8 + 1
    assert engine.slot_words(bare, 20) == 8 + 1 + 5 * 20
    # a 200-sample cell of kernel-less members fills a stack on its own
    assert engine.units_per_stack(bare, 20, 200 * 4) == 1


def _mixed_pool(kind, tag, attitude, count, seed):
    """Deterministic members of mixed families, a policy member, and
    kernel-less copies of some of them."""
    rng = np.random.default_rng(seed)
    menu = [
        lambda: kernel_strategy("constant", float(rng.integers(2))),
        lambda: kernel_strategy("threshold_trigger", float(rng.integers(2)),
                                float(rng.integers(4)), float(rng.integers(2))),
        lambda: kernel_strategy("grim", float(rng.choice([0.0, 0.34, 0.67]))),
        lambda: kernel_strategy("endgame", float(rng.integers(1, 4)), float(rng.random())),
        lambda: kernel_strategy("rota", 2.0, float(rng.integers(2)), float(rng.integers(2))),
        lambda: kernel_strategy("reciprocator", float(rng.random()), 0.0),
        lambda: policy_strategy(PolicySpec(
            "policy", (PolicyRule(Predicate("coop_rate_ge", value=float(rng.random())), 1.0),
                       PolicyRule(Predicate("my_last_is", value="D"), 0.0)), 1.0)),
    ]
    if kind is GameKind.COMMON_POOL:
        menu.append(lambda: kernel_strategy("stock_guardian", float(rng.choice([0.5, 0.9]))))
    members = []
    for i in range(count):
        member = menu[i % len(menu)]()
        if i % 3 == 1:
            member = member.without_kernel()
        members.append(Strategy(f"{member.label}#{tag}{i}", member.origin, member.decide,
                                member.kernel))
    return StrategyPool(tag, attitude, tuple(members))


@pytest.mark.parametrize("kind", list(GameKind))
def test_stacking_is_invisible_to_deterministic_grids(kind, monkeypatch):
    """Per-cell welfare from the stacked path equals one ``play_many`` per
    cell over the same lineups."""
    pool_e = _mixed_pool(kind, "e", Attitude.EXPLOITATIVE, 16, seed=1)
    pool_c = _mixed_pool(kind, "c", Attitude.COLLECTIVE, 16, seed=2)
    config = small_grid(kind, pool_e, pool_c, group_sizes=(3, 6), samples_per_cell=5)
    words = engine.slot_words(MemberTable.compile(pool_e.members + pool_c.members), 10)
    for budget in (engine.STACK_WORDS, words * 5 * 6 * 3):
        monkeypatch.setattr(engine, "STACK_WORDS", budget)
        stacks = _record_stacks(monkeypatch)
        rows = iter(run_mix_grid(config))
        table = MemberTable.compile(pool_e.members + pool_c.members)
        for n, lineups, welfare in stacks:
            for cell_lineups, cell_welfare in zip(lineups.reshape(-1, 5, n),
                                                  welfare.reshape(-1, 5)):
                alone = play_many(kind, config.params_for(n), cell_lineups, table, seed=99)[1]
                assert alone.tolist() == cell_welfare.tolist()
                row = next(rows)
                assert row.mean_welfare == float(alone.mean())
                assert row.std_error == float(alone.std(ddof=1) / np.sqrt(5))


def _lineups_by_cell(stacks, samples):
    out = {}
    for n, lineups, _ in stacks:
        for cell in lineups.reshape(-1, samples, n):
            n_e = int((cell < 16).sum(axis=1)[0])  # pool_e holds members 0..15
            out[(n, n_e)] = cell
    return out


def test_draw_rows_hold_distinct_members_of_each_pool(small_pools, monkeypatch):
    stacks = _record_stacks(monkeypatch)
    pool_e, pool_c = small_pools
    run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c,
                            group_sizes=(4, 16), samples_per_cell=30))
    cells = _lineups_by_cell(stacks, 30)
    assert len(cells) == 5 + 17
    for (n, n_e), lineups in cells.items():
        assert lineups.shape == (30, n)
        picked_e, picked_c = lineups[:, :n_e], lineups[:, n_e:]
        assert ((0 <= picked_e) & (picked_e < 16)).all()
        assert ((16 <= picked_c) & (picked_c < 32)).all()  # offset by len(pool_e)
        for row in lineups:
            assert len(set(row.tolist())) == n


def test_a_cells_draw_does_not_depend_on_its_stack(small_pools, monkeypatch):
    stacks = _record_stacks(monkeypatch)
    pool_e, pool_c = small_pools
    alone = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(8,),
                       samples_per_cell=4)
    beside = small_grid(GameKind.PUBLIC_GOODS, pool_e, pool_c, group_sizes=(4, 8, 16),
                        samples_per_cell=4)
    run_mix_grid(alone)
    reference = _lineups_by_cell(stacks, 4)
    stacks.clear()
    run_mix_grid(beside)
    together = _lineups_by_cell(stacks, 4)
    monkeypatch.setattr(engine, "STACK_WORDS", 1)  # one cell per stack
    stacks.clear()
    run_mix_grid(beside)
    split = _lineups_by_cell(stacks, 4)
    for n_e in range(9):
        assert (together[(8, n_e)] == reference[(8, n_e)]).all()
        assert (split[(8, n_e)] == reference[(8, n_e)]).all()


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
