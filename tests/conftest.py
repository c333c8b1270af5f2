import numpy as np
import pytest
from hypothesis import strategies as st

from ndilemma import Attitude, GameKind, GameParams, Strategy, StrategyPool, make_reference
from ndilemma.engine import MemberTable, build_groups
from ndilemma.games import batch_round_payoffs
from ndilemma.kernels import PolicyTable, SlotView


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
            slots=np.arange(games * n), stock=stock,
        )
        if t > 0:
            last = history[t - 1]
            cum = history[:t].sum(axis=0)
            view.prev_c = last.ravel()
            view.opp_coop = (last.sum(axis=1)[:, None] - last).ravel().astype(float)
            view.opp_rate = ((cum.sum(axis=1)[:, None] - cum) / ((n - 1) * t)).ravel()
            view.last, view.last_payoffs = last, payoffs
        yield view
        payoffs, stock = batch_round_payoffs(kind, params, history[t], stock)


FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]


def kernel_row(draw, name: str, n: int, rounds: int) -> tuple[float, ...]:
    """A valid parameter row of family ``name`` for n players and ``rounds``
    rounds, drawn with a hypothesis ``draw``."""
    flag = st.sampled_from([0.0, 1.0])
    frac = st.sampled_from(FRACTIONS)
    if name == "constant":
        return (draw(flag),)
    if name in ("bernoulli", "grim"):
        return (draw(frac),)
    if name == "threshold_trigger":
        return (draw(flag), float(draw(st.integers(0, n))), draw(flag))
    if name == "reciprocator":
        return (draw(frac), draw(frac))
    if name == "endgame":
        return (float(draw(st.integers(1, rounds + 1))), draw(frac))
    if name == "stock_guardian":
        return (draw(st.sampled_from(FRACTIONS[1:])),)
    if name == "rota":
        period = draw(st.integers(1, n + 1))
        return (float(period), float(draw(st.integers(0, period - 1))), draw(flag))
    assert name == "policy", name
    fields, comparisons = PolicyTable.FIELDS, PolicyTable.COMPARISONS
    rules = [
        (
            draw(st.sampled_from(fields)),
            draw(st.sampled_from(("one",) * 3 + fields)),
            draw(st.sampled_from(comparisons)),
            draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])),
            draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return PolicyTable.row(draw(st.integers(0, 6)), draw(frac), rules)

@pytest.fixture
def alld_pool():
    return reference_pool("alld", 512, "base", Attitude.EXPLOITATIVE)


@pytest.fixture
def allc_pool():
    return reference_pool("allc", 512, "base", Attitude.COLLECTIVE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
