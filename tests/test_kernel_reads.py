"""Each family reads only the ``SlotView`` fields it declares in ``reads``,
its uniforms ``u`` among them.

The engine fills a group's ``SlotView`` with just those fields, so a family
that reads an undeclared one would see None. Every family is played over
forced histories twice, once on a full view and once on a view that keeps
only its declared fields, each on its own generator from the same seed;
both must decide alike, or fault alike. A family that draws without
declaring ``u`` faults on the lean view.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import forced_views, kernel_row
from reference import without_kernel

from ndilemma import GameKind, GameParams
from ndilemma.engine import CALLABLE, decide_group
from ndilemma.kernels import FAMILIES, SlotFault, SlotView, kernel_strategy

SHAPE_FIELDS = ("t", "kind", "params")
OBSERVABLES = tuple(f.name for f in dataclasses.fields(SlotView) if f.name not in SHAPE_FIELDS)
ALL_FAMILIES = {**FAMILIES, CALLABLE.name: CALLABLE}
@st.composite
def cases(draw, name):
    kind = draw(st.sampled_from(list(GameKind)))
    n = draw(st.integers(2, 5))
    rounds = draw(st.integers(1, 5))
    games = draw(st.integers(1, 3))
    params = GameParams(n=n, rounds=rounds, k=(1 + n) / 2)
    if name == CALLABLE.name:
        # kernel-less copies of the built-in families play as `callable`
        inner = st.sampled_from(sorted(set(FAMILIES) - {"policy"}))
        rows = []
        for _ in range(games * n):
            family = draw(inner)
            rows.append(without_kernel(
                kernel_strategy(family, *kernel_row(draw, family, n, rounds))
            ))
    else:
        rows = [kernel_row(draw, name, n, rounds) for _ in range(games * n)]
    cells = rounds * games * n
    forced = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    history = np.array(forced).reshape(rounds, games, n)
    return name, kind, params, rows, history, draw(st.integers(0, 2**32 - 1))


def _decisions(family, P, views):
    out = []
    state = family.new_state(P)
    for view in views:
        try:
            out.append(decide_group(family, P, state, view).tolist())
        except SlotFault as fault:
            out.append((fault.slot, fault.reason, fault.detail))
            break
    return out


def assert_reads_suffice(name, kind, params, rows, history, seed):
    family = ALL_FAMILIES[name]
    P = family.stack(rows)
    undeclared = {field: None for field in OBSERVABLES if field not in family.reads}
    full = forced_views(kind, params, history, seed)
    lean = (dataclasses.replace(view, **undeclared)
            for view in forced_views(kind, params, history, seed))
    assert _decisions(family, P, lean) == _decisions(family, P, full)


def test_declared_reads_are_observables():
    for family in ALL_FAMILIES.values():
        assert set(family.reads) <= set(OBSERVABLES), family.name


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_family_reads_only_what_it_declares(name, data):
    assert_reads_suffice(*data.draw(cases(name)))


def test_an_undeclared_read_is_caught(monkeypatch):
    """Grim without ``opp_coop`` in its reads fails the check."""
    kind, params = GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=3, k=2.0)
    history = np.zeros((3, 1, 3), dtype=bool)
    case = ("grim", kind, params, [(0.5,)] * 3, history, 0)
    assert_reads_suffice(*case)
    monkeypatch.setattr(type(FAMILIES["grim"]), "reads", ())
    with pytest.raises(AssertionError):
        assert_reads_suffice(*case)


def test_an_undeclared_draw_is_caught(monkeypatch):
    """Bernoulli without ``u`` in its reads fails the check."""
    kind, params = GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=2, k=2.0)
    case = ("bernoulli", kind, params, [(0.5,)] * 3, np.zeros((2, 1, 3), dtype=bool), 0)
    assert_reads_suffice(*case)
    monkeypatch.setattr(type(FAMILIES["bernoulli"]), "reads", ())
    with pytest.raises(AssertionError):
        assert_reads_suffice(*case)


def _state_arrays(state, depth=3):
    """Every array a family's state holds, through namespaces, records and
    dicts, ``depth`` levels down."""
    if isinstance(state, np.ndarray):
        yield state
    elif depth and isinstance(state, dict):
        for value in state.values():
            yield from _state_arrays(value, depth - 1)
    elif depth and hasattr(state, "__dict__") and not isinstance(state, type):
        for value in vars(state).values():
            yield from _state_arrays(value, depth - 1)


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decisions_are_new_arrays_the_family_leaves_alone(name, data):
    """The engine keeps a round's decisions as the next round's ``prev_c``,
    so ``decide_batch`` returns an array that is no part of its state and
    that the next round's call leaves as it was."""
    name, kind, params, rows, history, seed = data.draw(cases(name))
    family = ALL_FAMILIES[name]
    P = family.stack(rows)
    state = family.new_state(P)
    kept = []
    for view in forced_views(kind, params, history, seed):
        try:
            acts = decide_group(family, P, state, view)
        except SlotFault:
            break
        assert not any(np.shares_memory(acts, a) for a in _state_arrays(state))
        kept.append((acts, acts.copy()))
    for acts, copy in kept:
        assert np.array_equal(acts, copy)
