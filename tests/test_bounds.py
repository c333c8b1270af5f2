"""Welfare bounds: exact scans and the common-pool closed form."""

import itertools

import pytest

from conftest import lineup_groups

from ndilemma import GameKind, GameParams, make_reference, welfare_bounds
from ndilemma.engine import simulate_batch
from ndilemma.evolution import welfare_efficiency
from ndilemma.games import cpr_next_stock
from ndilemma.kernels import kernel_strategy


def test_pgg_bounds_k2():
    limits = welfare_bounds(GameKind.PUBLIC_GOODS, GameParams(n=6, k=2.0))
    assert (limits.min_mean, limits.max_mean) == (1.0, 2.0)
    assert limits.method == "scan"


def test_crd_bounds_match_direct_scan():
    limits = welfare_bounds(GameKind.COLLECTIVE_RISK, GameParams(n=4, m=2, k=2.0))
    # scan oracle: n_c=1 gives (0 + 3*1)/4 = 0.75; n_c=2 gives (2*2 + 2*3)/4 = 2.5
    assert limits.min_mean == pytest.approx(0.75, abs=1e-9)
    assert limits.max_mean == pytest.approx(2.5, abs=1e-9)


def _cpr_enumerate(params: GameParams):
    """Independent oracle: enumerate every cooperator-count sequence."""
    n, r = params.n, params.rounds
    best_min, best_max = float("inf"), float("-inf")
    for seq in itertools.product(range(n + 1), repeat=r):
        stock, total = params.capacity, 0.0
        for n_c in seq:
            total += stock * (2 * n - n_c) / (2 * n)
            stock = cpr_next_stock(stock, n_c, params)
        mean = total / (n * r)
        best_min = min(best_min, mean)
        best_max = max(best_max, mean)
    return best_min, best_max


def test_cpr_bounds_exhaustive_small():
    params = GameParams(n=2, rounds=2)
    limits = welfare_bounds(GameKind.COMMON_POOL, params)
    oracle_min, oracle_max = _cpr_enumerate(params)
    assert limits.method == "closed_form"
    assert limits.min_mean == pytest.approx(oracle_min, abs=1e-12)
    assert limits.max_mean == pytest.approx(oracle_max, abs=1e-12)
    # frozen from the 9-sequence enumeration: defect-all immediately at the
    # bottom, cooperate then strip-mine at the top
    assert limits.min_mean == pytest.approx(2.0, abs=1e-12)
    assert limits.max_mean == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("capacity", [1.0, 3.7, 10.3])
def test_cpr_closed_form_matches_enumeration(capacity):
    sizes = [(n, r) for n in range(2, 6) for r in range(1, 10) if (n + 1) ** r <= 20_000]
    for n, rounds in sizes:
        params = GameParams(n=n, rounds=rounds, capacity=capacity)
        limits = welfare_bounds(GameKind.COMMON_POOL, params)
        oracle_min, oracle_max = _cpr_enumerate(params)
        assert limits.min_mean == pytest.approx(oracle_min, rel=1e-12), (n, rounds)
        assert limits.max_mean == pytest.approx(oracle_max, rel=1e-12), (n, rounds)


def _played_cpr_welfare(params: GameParams, member) -> float:
    lineup = [member] * params.n
    played = simulate_batch(GameKind.COMMON_POOL, params, lineup_groups(lineup), 1, seed=0)
    return float(played.mean_welfare[0])


@pytest.mark.parametrize("rounds", [1, 2, 20])
@pytest.mark.parametrize("n", [2, 4, 64, 256])
def test_cpr_bounds_are_reached_by_play(n, rounds):
    """Defecting at once reaches the minimum; sustaining the stock and
    strip-mining the last round reaches the maximum. A single round is
    the other way round: restraint is the minimum."""
    params = GameParams(n=n, rounds=rounds)
    if rounds == 1:
        low, high = make_reference("allc"), make_reference("alld")
    else:
        low, high = make_reference("alld"), kernel_strategy("endgame", 1.0, 0.0)
    limits = welfare_bounds(GameKind.COMMON_POOL, params)
    lowest = _played_cpr_welfare(params, low)
    highest = _played_cpr_welfare(params, high)
    assert lowest == pytest.approx(limits.min_mean, rel=1e-12)
    assert highest == pytest.approx(limits.max_mean, rel=1e-12)
    assert welfare_efficiency([lowest], GameKind.COMMON_POOL, params) == 0.0
    assert welfare_efficiency([highest], GameKind.COMMON_POOL, params) == 1.0


def test_cpr_large_runs_beam_and_brackets_play():
    params = GameParams(n=64, rounds=20)
    limits = welfare_bounds(GameKind.COMMON_POOL, params)
    # full cooperation sustains 2.0/agent/round; the optimum adds a final
    # strip-mining round, the minimum is an immediate wipe-out
    assert limits.max_mean >= 2.0
    assert 0.0 <= limits.min_mean <= 0.2 + 1e-9


def test_bounds_contain_played_games(alld_pool, allc_pool):
    from ndilemma import play_game

    for kind in GameKind:
        params = GameParams(n=4, rounds=10, k=2.0)
        limits = welfare_bounds(kind, params)
        for pool in (alld_pool, allc_pool):
            game = play_game(kind, params, list(pool.members[:4]), seed=3)
            assert limits.min_mean - 1e-9 <= game.mean_welfare <= limits.max_mean + 1e-9


@pytest.mark.parametrize("n", [4, 16, 64])
def test_cpr_beam_bounds_at_grid_sizes(n):
    limits = welfare_bounds(GameKind.COMMON_POOL, GameParams(n=n, rounds=20))
    assert limits.min_mean == pytest.approx(0.2, abs=1e-12)
    assert limits.max_mean == pytest.approx(2.1, abs=1e-12)


def test_cpr_beam_bound_covers_a_played_game_at_n256():
    """Sustaining the stock for 19 rounds and strip-mining the last one
    stays within the bounds at the default group size."""
    params = GameParams(n=256, rounds=20)
    lineup = [kernel_strategy("endgame", 1.0, 0.0)] * params.n
    played = simulate_batch(GameKind.COMMON_POOL, params, lineup_groups(lineup), 1, seed=0)
    assert played.mean_welfare[0] == pytest.approx(2.1, abs=1e-12)
    limits = welfare_bounds(GameKind.COMMON_POOL, params)
    assert limits.max_mean >= played.mean_welfare[0] - 1e-12
