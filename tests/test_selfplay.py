"""Mix-grid behaviour and CSV round-tripping."""

import pytest

from conftest import reference_pool

from ndilemma import (
    Attitude,
    GameKind,
    MixGridConfig,
    MixGridRow,
    emit_grid_csv,
    read_grid_csv,
    run_mix_grid,
)


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


def test_kernel_less_cells_play_one_stack_each(small_pools, monkeypatch):
    from ndilemma import engine
    from ndilemma.strategies import StrategyPool

    stacks = []
    real = engine.simulate_batch

    def counted(kind, params, groups, n_games, seed, record=False):
        stacks.append((n_games, sorted(g.family.name for g in groups)))
        return real(kind, params, groups, n_games, seed, record)

    monkeypatch.setattr(engine, "simulate_batch", counted)
    pool_e, pool_c = small_pools
    bare_c = StrategyPool(pool_c.gene_tag, pool_c.attitude,
                          tuple(m.without_kernel() for m in pool_c.members))
    rows = run_mix_grid(small_grid(GameKind.PUBLIC_GOODS, pool_e, bare_c, samples_per_cell=6))
    assert len(stacks) == len(rows) == 5
    assert all(games == 6 for games, _ in stacks)
    assert stacks[0][1] == ["callable"] and stacks[-1][1] == ["constant"]
    assert stacks[2][1] == ["callable", "constant"]


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
