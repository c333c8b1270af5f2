import numpy as np
import pytest

from ndilemma import Attitude, GameKind, GameParams, Strategy, StrategyPool, make_reference
from ndilemma.engine import MemberTable, build_groups
from ndilemma.games import batch_round_payoffs
from ndilemma.kernels import SlotView


def reference_pool(kind: str, count: int, tag: str, attitude: Attitude, **kwargs) -> StrategyPool:
    """Pool of `count` copies of one reference strategy with indexed labels."""
    base = make_reference(kind, **kwargs)
    members = tuple(
        Strategy(f"{base.label}#{i:03d}", base.origin, base.decide, base.kernel)
        for i in range(count)
    )
    return StrategyPool(gene_tag=tag, attitude=attitude, members=members)


def lineup_groups(lineup: list[Strategy]):
    """``build_groups`` over a flat slot-major strategy list, one table
    member per slot."""
    return build_groups(np.arange(len(lineup)), MemberTable.compile(lineup))


def forced_views(kind: GameKind, params: GameParams, history: np.ndarray, seed: int):
    """The view of every round of a forced (rounds, games, n) history, with
    every field filled in from one generator seeded with ``seed``: each
    round's uniforms, then every slot's lazy draws."""
    rounds, games, n = history.shape
    rng = np.random.default_rng(seed)
    stock = np.full(games, params.capacity) if kind is GameKind.COMMON_POOL else None
    for t in range(rounds):
        view = SlotView(
            t=t, kind=kind, params=params, u=rng.random(games * n), rng=[rng] * (games * n),
            col=np.tile(np.arange(n), games),
            stock_frac=None if stock is None else np.repeat(stock / params.capacity, n),
            slots=np.arange(games * n),
        )
        if t > 0:
            last = history[t - 1]
            cum = history[:t].sum(axis=0)
            view.prev_c = last.ravel()
            view.opp_coop = (last.sum(axis=1)[:, None] - last).ravel().astype(float)
            view.opp_rate = ((cum.sum(axis=1)[:, None] - cum) / ((n - 1) * t)).ravel()
            view.last = last
        yield view
        stock = batch_round_payoffs(kind, params, history[t], stock)[1]


@pytest.fixture
def alld_pool():
    return reference_pool("alld", 512, "base", Attitude.EXPLOITATIVE)


@pytest.fixture
def allc_pool():
    return reference_pool("allc", 512, "base", Attitude.COLLECTIVE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
