"""Invariants of the batched engine over random lineups of the built-in
kernel families: bookkeeping, the common-pool stock range and the welfare
bounds."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import lineup_groups

from ndilemma import GameKind, GameParams
from ndilemma.bounds import cached_bounds
from ndilemma.engine import simulate_batch
from ndilemma.kernels import kernel_strategy

UNIT = st.floats(0.0, 1.0)
FLAG = st.sampled_from([0.0, 1.0])


@st.composite
def kernel_members(draw, kind, params):
    families = ["constant", "bernoulli", "threshold_trigger", "reciprocator",
                "grim", "endgame", "rota"]
    if kind is GameKind.COMMON_POOL:
        families.append("stock_guardian")
    family = draw(st.sampled_from(families))
    if family == "constant":
        vec = (draw(FLAG),)
    elif family in ("bernoulli", "grim"):
        vec = (draw(UNIT),)
    elif family == "threshold_trigger":
        vec = (draw(FLAG), float(draw(st.integers(0, params.n))), draw(FLAG))
    elif family == "reciprocator":
        vec = (draw(UNIT), draw(UNIT))
    elif family == "endgame":
        vec = (float(draw(st.integers(1, params.rounds + 1))), draw(UNIT))
    elif family == "stock_guardian":
        vec = (draw(st.floats(0.01, 1.0)),)
    else:
        period = draw(st.integers(1, 4))
        vec = (float(period), float(draw(st.integers(0, period - 1))), draw(FLAG))
    return kernel_strategy(family, *vec)


@st.composite
def batches(draw):
    kind = draw(st.sampled_from(list(GameKind)))
    n = draw(st.integers(2, 32))
    rounds = draw(st.integers(1, 25))
    if kind is GameKind.COMMON_POOL:
        params = GameParams(n=n, rounds=rounds, capacity=draw(st.floats(0.5, 500.0)))
    else:
        params = GameParams(n=n, rounds=rounds, k=(1 + n) / 2)
    games = draw(st.integers(1, 4))
    lineup = [draw(kernel_members(kind, params)) for _ in range(games * n)]
    return kind, params, games, lineup, draw(st.integers(0, 2**32 - 1))


@given(batches())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recorded_batches_keep_their_invariants(batch):
    kind, params, games, lineup, seed = batch
    result = simulate_batch(kind, params, lineup_groups(lineup), games, seed, record=True)
    np.testing.assert_allclose(result.totals, result.payoffs.sum(axis=0), rtol=1e-12, atol=0)
    if kind is GameKind.COMMON_POOL:
        assert result.stocks.shape == (params.rounds + 1, games)
        assert np.all(result.stocks >= 0.0) and np.all(result.stocks <= params.capacity)
    else:
        assert result.stocks is None
    bounds = cached_bounds(kind, params)
    slack = 1e-9 * max(1.0, abs(bounds.max_mean))
    assert np.all(result.mean_welfare >= bounds.min_mean - slack)
    assert np.all(result.mean_welfare <= bounds.max_mean + slack)
