"""The deterministic families against their per-decision references, round
by round over forced histories.

Each family's ``decide_batch`` keeps whatever does not change between
rounds in its state: thresholds and flags from ``P``, and for ``rota`` the
place of every slot in its schedule, stepped by one a round. Played on fresh
state from round 0, it must decide every slot exactly as its reference in
``reference`` does on the ``ReplayedGame`` observation of the same
history. From round 1
on the kernel is handed a parameter matrix of NaN, so a family that still
read ``P`` after round 0 would decide differently or fail.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import forced_views, kernel_row
from reference import ReplayedGame, reference_decide

from ndilemma import Action, GameKind, GameParams
from ndilemma.kernels import FAMILIES, kernel_strategy

DETERMINISTIC = ["constant", "threshold_trigger", "grim", "endgame", "stock_guardian", "rota"]


@pytest.mark.parametrize("name", DETERMINISTIC)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_each_slot_decides_as_its_reference_every_round(name, data):
    kinds = [GameKind.COMMON_POOL] if name == "stock_guardian" else list(GameKind)
    kind = data.draw(st.sampled_from(kinds))
    n = data.draw(st.integers(2, 6))
    rounds = data.draw(st.integers(1, 12))
    games = data.draw(st.integers(1, 3))
    params = GameParams(n=n, rounds=rounds, k=(1 + n) / 2)
    vecs = [kernel_row(data.draw, name, n, rounds) for _ in range(games * n)]
    lineup = [kernel_strategy(name, *vec) for vec in vecs]
    cells = rounds * games * n
    forced = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    history = np.array(forced).reshape(rounds, games, n)
    family = FAMILIES[name]
    P = family.stack(vecs)
    poisoned = np.full_like(P, np.nan)
    state = family.new_state(P)
    replays = [ReplayedGame(kind, params) for _ in range(games)]
    for t, view in enumerate(forced_views(kind, params, history, 0)):
        acts = family.decide_batch(P if t == 0 else poisoned, state, view)
        for slot, member in enumerate(lineup):
            game, player = divmod(slot, n)
            want = reference_decide(member)(replays[game].observation_for(player), None)
            assert acts[slot] == (want is Action.C), (t, slot, member.label)
        for game, replay in enumerate(replays):
            replay.push_round(history[t, game])


@pytest.mark.parametrize("punish", [0.0, 1.0])
def test_rota_schedules_wrap_over_many_rounds(punish):
    """Every period from 1 to n + 1 with every phase, each member at several
    seats, over rounds enough for every schedule to wrap several times."""
    n, rounds = 5, 12
    vecs = [(float(p), float(phase), punish) for p in range(1, n + 2) for phase in range(p)]
    lineup = [kernel_strategy("rota", *vec) for vec in vecs]
    games = len(vecs)
    params = GameParams(n=n, rounds=rounds, k=2.0)
    history = np.random.default_rng(3).random((rounds, games, n)) < 0.6
    family = FAMILIES["rota"]
    P = family.stack([vecs[slot % games] for slot in range(games * n)])
    state = family.new_state(P)
    replays = [ReplayedGame(GameKind.PUBLIC_GOODS, params) for _ in range(games)]
    for t, view in enumerate(forced_views(GameKind.PUBLIC_GOODS, params, history, 0)):
        acts = family.decide_batch(P, state, view)
        for slot in range(games * n):
            game, player = divmod(slot, n)
            member = lineup[slot % games]
            want = reference_decide(member)(replays[game].observation_for(player), None)
            assert acts[slot] == (want is Action.C), (t, slot, member.label)
        for game, replay in enumerate(replays):
            replay.push_round(history[t, game])

