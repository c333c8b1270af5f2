"""The drawing families against their per-decision references, uniform for
uniform.

``bernoulli``, ``reciprocator`` and ``policy`` decide with the one uniform
per slot that the engine hands them in ``SlotView.u``. Their references
(in ``reference`` and the policy interpreter) draw at most once per decision,
so a reference handed a generator that returns that slot's uniform must
decide exactly as the kernel did, at every probability inside (0, 1). From
round 1 on the kernel is handed a parameter matrix of NaN: what it needs of
``P`` it keeps in its state from ``new_state`` and round 0.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import forced_views
from reference import ReplayedGame, reference_decide

from ndilemma import Action, GameKind, GameParams
from ndilemma.kernels import FAMILIES, kernel_strategy
from ndilemma.policy import PolicyRule, PolicySpec, Predicate, policy_strategy

OPEN = st.floats(0.01, 0.99)
FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]


class OneDraw:
    """A generator stand-in that hands out one given uniform, once."""

    def __init__(self, u: float):
        self.u = u
        self.drawn = False

    def random(self) -> float:
        assert not self.drawn, "a reference drew twice in one decision"
        self.drawn = True
        return self.u


@st.composite
def predicates(draw, rounds: int, n: int):
    op = draw(st.sampled_from(
        ["always", "round_lt", "rounds_left_le", "last_coop_ge", "coop_rate_ge", "my_last_is"]
    ))
    if op == "always":
        return Predicate(op)
    if op == "my_last_is":
        return Predicate(op, value=draw(st.sampled_from(["C", "D"])))
    if op == "coop_rate_ge":
        return Predicate(op, value=draw(st.sampled_from(FRACTIONS)))
    return Predicate(op, value=float(draw(st.integers(0, max(rounds, n)))))


@st.composite
def members(draw, name: str, rounds: int, n: int):
    if name == "bernoulli":
        return kernel_strategy(name, draw(OPEN))
    if name == "reciprocator":
        return kernel_strategy(name, draw(st.sampled_from(FRACTIONS)), draw(OPEN))
    assert name == "policy", name
    rules = tuple(
        PolicyRule(draw(predicates(rounds, n)), draw(OPEN))
        for _ in range(draw(st.integers(0, 3)))
    )
    return policy_strategy(PolicySpec("p", rules, draw(OPEN)))


@pytest.mark.parametrize("name", ["bernoulli", "reciprocator", "policy"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_each_slot_decides_as_its_reference_on_its_uniform(name, data):
    kind = data.draw(st.sampled_from(list(GameKind)))
    n = data.draw(st.integers(2, 5))
    rounds = data.draw(st.integers(1, 5))
    games = data.draw(st.integers(1, 3))
    params = GameParams(n=n, rounds=rounds, k=(1 + n) / 2)
    lineup = [data.draw(members(name, rounds, n)) for _ in range(games * n)]
    cells = rounds * games * n
    forced = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    history = np.array(forced).reshape(rounds, games, n)
    family = FAMILIES[name]
    P = family.stack([member.kernel[1] for member in lineup])
    poisoned = np.full_like(P, np.nan)
    state = family.new_state(P)
    replays = [ReplayedGame(kind, params) for _ in range(games)]
    views = forced_views(kind, params, history, data.draw(st.integers(0, 2**32 - 1)))
    for t, view in enumerate(views):
        acts = family.decide_batch(P if t == 0 else poisoned, state, view)
        for slot, (member, u) in enumerate(zip(lineup, view.u)):
            game, player = divmod(slot, n)
            obs = replays[game].observation_for(player)
            want = reference_decide(member)(obs, OneDraw(float(u)))
            assert acts[slot] == (want is Action.C), (t, slot, member.label, u)
        for game, replay in enumerate(replays):
            replay.push_round(history[t, game])
