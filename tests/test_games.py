"""Payoff formulas, round records, and game-result bookkeeping."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndilemma import Action, GameConfigError, GameKind, GameParams, cpr_round, crd_payoffs, pgg_payoffs
from ndilemma.games import batch_round_payoffs, cpr_next_stock

C, D = Action.C, Action.D


class TestPggPayoffs:
    # worked values for n=6, k=2: all-D gives 1, all-C gives 2, and in a
    # 3C/3D split cooperators get 1 and defectors 2
    def test_all_defect(self):
        assert pgg_payoffs([D] * 6, GameParams(n=6, k=2.0)) == [1.0] * 6

    def test_all_cooperate(self):
        assert pgg_payoffs([C] * 6, GameParams(n=6, k=2.0)) == [2.0] * 6

    def test_half_split(self):
        payoffs = pgg_payoffs([C] * 3 + [D] * 3, GameParams(n=6, k=2.0))
        assert payoffs == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_length_mismatch(self):
        with pytest.raises(GameConfigError):
            pgg_payoffs([C, D], GameParams(n=4, k=2.0))

    def test_invalid_k(self):
        with pytest.raises(GameConfigError):
            pgg_payoffs([C] * 4, GameParams(n=4, k=1.0))
        with pytest.raises(GameConfigError):
            pgg_payoffs([C] * 4, GameParams(n=4, k=4.0))


class TestCrdPayoffs:
    def test_threshold_met(self):
        params = GameParams(n=4, m=2, k=2.0)
        assert crd_payoffs([C, C, D, D], params) == [2.0, 2.0, 3.0, 3.0]

    def test_threshold_unmet(self):
        params = GameParams(n=4, m=2, k=2.0)
        assert crd_payoffs([C, D, D, D], params) == [0.0, 1.0, 1.0, 1.0]

    def test_all_cooperate(self):
        params = GameParams(n=4, m=2, k=2.0)
        assert crd_payoffs([C] * 4, params) == [2.0] * 4

    def test_integer_k_gives_python_floats(self):
        payoffs = crd_payoffs([C, C, D, D], GameParams(n=4, m=2, k=2))
        assert payoffs == [2.0, 2.0, 3.0, 3.0]
        assert all(type(p) is float for p in payoffs)

    def test_default_threshold_is_half(self):
        assert GameParams(n=4).m == 2
        assert GameParams(n=7).m == 3  # floor for odd n


class TestCprRound:
    def test_full_cooperation_fixed_point(self):
        params = GameParams(n=4, capacity=16.0)
        payoffs, nxt = cpr_round([C] * 4, 16.0, params)
        assert payoffs == [2.0] * 4
        assert nxt == 16.0

    def test_full_defection_collapses(self):
        params = GameParams(n=4, capacity=16.0)
        payoffs, nxt = cpr_round([D] * 4, 16.0, params)
        assert payoffs == [4.0] * 4
        assert nxt == 0.0

    def test_mixed_two_player(self):
        # hand evaluation: coop 8/4=2, defect 4; remaining 8*1/4=2;
        # growth 2 + 2*2*(1 - 2/8) = 5
        params = GameParams(n=2, capacity=8.0)
        payoffs, nxt = cpr_round([C, D], 8.0, params)
        assert payoffs == [2.0, 4.0]
        assert nxt == 5.0
        assert all(type(x) is float for x in payoffs + [nxt])

    def test_stock_out_of_range(self):
        params = GameParams(n=2, capacity=8.0)
        with pytest.raises(GameConfigError):
            cpr_round([C, D], 9.0, params)
        with pytest.raises(GameConfigError):
            cpr_round([C, D], -0.1, params)

    def test_default_capacity_is_4n(self):
        assert GameParams(n=16).capacity == 64.0

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_next_stock_monotone_in_cooperators(self, n, data):
        params = GameParams(n=n)
        stock = data.draw(st.floats(0.0, float(params.capacity)))
        stocks = [cpr_next_stock(stock, n_c, params) for n_c in range(n + 1)]
        assert all(b >= a for a, b in zip(stocks, stocks[1:]))
        assert all(0.0 <= s <= params.capacity for s in stocks)


@given(
    st.integers(2, 8),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_payoff_symmetry_under_permutation(n, data):
    """Permuting players permutes payoffs identically, in all three games."""
    actions = data.draw(st.lists(st.sampled_from([C, D]), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    params = GameParams(n=n, k=1.5)
    stock = params.capacity * 0.7
    for play in (
        lambda acts: pgg_payoffs(acts, params),
        lambda acts: crd_payoffs(acts, params),
        lambda acts: cpr_round(acts, stock, params)[0],
    ):
        base = play(actions)
        permuted = play([actions[p] for p in perm])
        assert permuted == [base[p] for p in perm]


@given(st.integers(2, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_payoff_ranges(n, data):
    actions = data.draw(st.lists(st.sampled_from([C, D]), min_size=n, max_size=n))
    n_c = actions.count(C)
    params = GameParams(n=n, k=1.5)
    pgg = pgg_payoffs(actions, params)
    assert all(n_c * 1.5 / n <= p <= n_c * 1.5 / n + 1 for p in pgg)
    crd = crd_payoffs(actions, params)
    assert set(crd) <= {0.0, 1.0, 1.5, 2.5}
    assert all(p >= 0 for p in pgg + crd)


def test_batch_payoffs_match_hand_formulas(rng):
    """Random stacks of rounds against the payoff formulas written out."""
    n, k, m = 5, 2.5, 3
    params = GameParams(n=n, k=k, m=m)
    coop = rng.random((40, n)) < 0.5
    n_c = coop.sum(axis=1)
    for kind in (GameKind.PUBLIC_GOODS, GameKind.COLLECTIVE_RISK):
        payoffs, next_stock = batch_round_payoffs(kind, params, coop, None)
        assert next_stock is None
        for g in range(len(coop)):
            if kind is GameKind.PUBLIC_GOODS:
                share = n_c[g] * k / n
            else:
                share = k if n_c[g] >= m else 0.0
            expected = [share if c else share + 1.0 for c in coop[g]]
            assert payoffs[g].tolist() == expected
    stock = rng.uniform(0, params.capacity, len(coop))
    payoffs, next_stock = batch_round_payoffs(GameKind.COMMON_POOL, params, coop, stock)
    for g in range(len(coop)):
        take = float(stock[g]) / (2 * n)
        assert payoffs[g].tolist() == [take if c else float(stock[g]) / n for c in coop[g]]
        left = float(stock[g]) * int(n_c[g]) / (2 * n)
        regrown = left + 2.0 * left * (1.0 - left / params.capacity)
        assert float(next_stock[g]) == min(regrown, params.capacity)


def test_game_result_round_trip():
    from ndilemma import make_reference, play_game

    params = GameParams(n=3, rounds=4)
    game = play_game(
        GameKind.COMMON_POOL, params,
        [make_reference("allc"), make_reference("alld"), make_reference("cc", t=1)],
        seed=5,
    )
    doc = game.to_dict()
    assert doc["game"] == "cpr"
    assert len(doc["round_data"]) == 4
    assert doc["totals"] == list(game.totals)
    json.loads(json.dumps(doc))  # serialisable
