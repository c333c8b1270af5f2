"""The game loop: determinism, bookkeeping, faults, and path equivalence."""

import gc
import logging
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import lineup_groups
from reference import ReplayedGame, without_kernel

from ndilemma import (
    Action,
    GameKind,
    GameParams,
    Strategy,
    StrategyFault,
    make_reference,
    play_game,
)
from ndilemma import engine
from ndilemma.engine import (
    KernelGroup, MemberTable, build_groups, play_blocks, play_split, simulate_batch,
)
from ndilemma.kernels import FAMILIES, PolicyTable, kernel_strategy
from ndilemma.policy import PolicyRule, PolicySpec, Predicate, StepBudgetExceeded, policy_strategy


def test_pgg_all_defect_single_round():
    params = GameParams(n=4, rounds=1, k=2.0)
    game = play_game(GameKind.PUBLIC_GOODS, params, [make_reference("alld")] * 4, seed=0)
    assert game.totals == (1.0, 1.0, 1.0, 1.0)


def test_cpr_all_defect_two_rounds():
    params = GameParams(n=4, rounds=2)
    game = play_game(GameKind.COMMON_POOL, params, [make_reference("alld")] * 4, seed=0)
    assert game.rounds_list[0].payoffs == (4.0, 4.0, 4.0, 4.0)
    assert game.rounds_list[1].stock_before == 0.0
    assert game.rounds_list[1].payoffs == (0.0, 0.0, 0.0, 0.0)
    assert game.totals == (4.0, 4.0, 4.0, 4.0)
    assert game.normalized == (2.0, 2.0, 2.0, 2.0)


def test_same_seed_is_bit_identical():
    params = GameParams(n=6, rounds=15, k=3.0)
    lineup = [make_reference("rnd", p=0.5) for _ in range(6)]
    a = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=99)
    b = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=99)
    assert np.array_equal(a.coop, b.coop)
    assert np.array_equal(a.payoffs, b.payoffs)


def test_result_bookkeeping_invariants():
    params = GameParams(n=5, rounds=8, k=2.0)
    lineup = [make_reference("rnd", p=0.4) for _ in range(5)]
    game = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=11)
    per_round = np.array([rec.payoffs for rec in game.rounds_list])
    assert np.allclose(per_round.sum(axis=0), game.totals, atol=0)
    assert game.mean_welfare == pytest.approx(sum(game.totals) / (5 * 8), abs=1e-12)
    assert game.mean_welfare == pytest.approx(np.mean(game.normalized), abs=1e-12)


def test_pgg_closed_form_with_constant_strategies():
    # with n_c cooperators every round, mean welfare is 1 + n_c (k - 1) / n
    for n_c in range(5):
        params = GameParams(n=4, rounds=20, k=2.0)
        lineup = [make_reference("allc")] * n_c + [make_reference("alld")] * (4 - n_c)
        game = play_game(GameKind.PUBLIC_GOODS, params, lineup, seed=0)
        assert game.mean_welfare == 1 + n_c * (2.0 - 1) / 4


def test_cpr_absorbing_ruin():
    params = GameParams(n=3, rounds=10)
    # one early all-defect round empties the stock for good
    lineup = [kernel_strategy("endgame", 9, 0.0)] * 3
    game = play_game(GameKind.COMMON_POOL, params, lineup, seed=0)
    assert game.stocks is not None
    dead_from = np.argmax(game.stocks == 0.0)
    assert game.stocks[dead_from] == 0.0
    assert np.all(game.stocks[dead_from:] == 0.0)
    assert np.all(game.payoffs[dead_from:] == 0.0)


def test_cpr_stock_stays_in_range():
    params = GameParams(n=4, rounds=20)
    lineup = [make_reference("rnd", p=0.6) for _ in range(4)]
    game = play_game(GameKind.COMMON_POOL, params, lineup, seed=21)
    assert np.all(game.stocks >= 0.0)
    assert np.all(game.stocks <= params.capacity)


def test_observation_contract():
    """History length equals round index, and never shows the current round."""
    seen = []

    def probe(obs, rng):
        seen.append((obs.round_index, len(obs.history), obs.opp_coop_last))
        return Action.C

    lineup = [Strategy("probe", "reference", probe)] + [make_reference("alld")] * 2
    play_game(GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=4, k=2.0), lineup, seed=0)
    assert [(t, h) for t, h, _ in seen] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert seen[0][2] is None  # no last round yet
    assert all(c == 0 for _, _, c in seen[1:])  # both opponents defect


OBSERVATION_FIELDS = (
    "kind", "params", "round_index", "my_index", "history", "current_stock",
    "opp_coop_last", "opp_coop_rate", "my_last_action",
)


@pytest.mark.parametrize("kind", list(GameKind))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_kernel_less_slot_sees_the_observation_its_history_gives(kind, data):
    """Recording probes play among kernels and kernel-less twins in a stack
    of two blocks. Every ``Observation`` a probe is handed equals, field by
    field and type by type, what ``ReplayedGame`` counts from the history
    the stack played."""
    n = data.draw(st.integers(2, 6))
    rounds = data.draw(st.integers(1, 8))
    games = data.draw(st.integers(1, 3))  # per block
    params = GameParams(n=n, rounds=rounds, k=(1 + n) / 2)
    others = [
        kernel_strategy("bernoulli", 0.5), kernel_strategy("reciprocator", 0.5, 0.3),
        kernel_strategy("grim", 0.25), kernel_strategy("constant", 1.0),
        without_kernel(kernel_strategy("bernoulli", 0.4)),
        without_kernel(kernel_strategy("threshold_trigger", 1.0, 1.0, 1.0)),
    ]
    if kind is GameKind.COMMON_POOL:
        others.append(kernel_strategy("stock_guardian", 0.5))
    seen = {}  # slot -> the observations its probe was handed

    def probe(slot):
        def decide(obs, rng):
            seen.setdefault(slot, []).append(obs)
            return Action.C if rng.random() < 0.5 else Action.D
        return Strategy(f"probe{slot}", "file", decide)

    lineup = [
        probe(slot) if slot % n == 0 or data.draw(st.booleans())
        else data.draw(st.sampled_from(others))
        for slot in range(2 * games * n)
    ]
    result = simulate_batch(kind, params, lineup_groups(lineup), 2 * games, [3, 4], record=True)
    for slot, observations in seen.items():
        game, player = divmod(slot, n)
        assert len(observations) == rounds
        replay = ReplayedGame(kind, params)
        for t, got in enumerate(observations):
            want = replay.observation_for(player)
            for name in OBSERVATION_FIELDS:
                mine, theirs = getattr(got, name), getattr(want, name)
                assert (type(mine), mine) == (type(theirs), theirs), (slot, t, name)
            replay.push_round(result.coop[t, game])


def test_strategy_fault_identifies_offender():
    def broken(obs, rng):
        raise ZeroDivisionError("boom")

    lineup = [make_reference("allc"), Strategy("bad-apple", "file", broken)]
    with pytest.raises(StrategyFault) as exc:
        play_game(GameKind.PUBLIC_GOODS, GameParams(n=2, rounds=3, k=1.5), lineup, seed=0)
    assert "bad-apple" in str(exc.value)
    assert exc.value.reason == "exception"


def test_invalid_action_faults():
    lineup = [Strategy("confused", "file", lambda obs, rng: "C")]
    with pytest.raises(StrategyFault) as exc:
        play_game(GameKind.PUBLIC_GOODS, GameParams(n=2, rounds=1, k=1.5), lineup * 2, seed=0)
    assert exc.value.reason == "invalid_action"


DETERMINISTIC_LINEUPS = [
    [("constant", (1.0,)), ("constant", (0.0,)), ("threshold_trigger", (1.0, 2.0, 1.0)), ("threshold_trigger", (0.0, 1.0, 0.0))],
    [("grim", (0.0,)), ("grim", (0.5,)), ("endgame", (2.0, 0.5)), ("constant", (1.0,))],
    [("rota", (2.0, 0.0, 1.0)), ("rota", (3.0, 1.0, 0.0)), ("reciprocator", (0.5, 0.0)), ("endgame", (1.0, 0.0))],
    [("rota", (7.0, 5.0, 1.0)), ("grim", (0.3,)), ("constant", (1.0,)), ("reciprocator", (1.0, 0.0))],
]


@pytest.mark.parametrize("kind", list(GameKind))
@pytest.mark.parametrize(
    "specs", DETERMINISTIC_LINEUPS,
    ids=["triggers", "grim-endgame", "rota-recip", "long-rota"],
)
def test_batch_engine_matches_scalar_engine(kind, specs):
    """Deterministic families must play identical games on both paths: the
    reference plays each family's twin in ``reference`` on
    ``without_kernel`` copies."""
    lineup = [kernel_strategy(name, *params) for name, params in specs]
    if kind is GameKind.COMMON_POOL:
        lineup[-1] = kernel_strategy("stock_guardian", 0.6)
    params = GameParams(n=4, rounds=9, k=2.0)
    scalar = play_game(kind, params, [without_kernel(s) for s in lineup], seed=1)
    batch = simulate_batch(kind, params, lineup_groups(lineup), 1, seed=2, record=True)
    assert np.array_equal(scalar.coop, batch.coop[:, 0, :])
    assert np.array_equal(scalar.payoffs, batch.payoffs[:, 0, :])


def test_batch_stacks_are_independent():
    """Games in one batch evolve independently."""
    alld = kernel_strategy("constant", 0.0)
    cc1 = kernel_strategy("threshold_trigger", 1.0, 1.0, 1.0)
    params = GameParams(n=2, rounds=6, k=1.5)
    rows = [[alld, alld], [cc1, cc1], [alld, cc1]]
    flat = [s for row in rows for s in row]
    batch = simulate_batch(
        GameKind.PUBLIC_GOODS, params, lineup_groups(flat), 3, seed=0, record=True
    )
    for g, row in enumerate(rows):
        solo = play_game(GameKind.PUBLIC_GOODS, params, row, seed=123)
        assert np.array_equal(solo.coop, batch.coop[:, g, :])


def _coin(obs, rng):
    return Action.C if rng.random() < 0.6 else Action.D


# every drawing family, with probabilities inside (0, 1), a kernel-less coin
# that draws lazily, and a deterministic trigger between them
DRAWING_MEMBERS = [
    kernel_strategy("bernoulli", 0.4),
    kernel_strategy("reciprocator", 0.75, 0.3),
    policy_strategy(PolicySpec("pol", (
        PolicyRule(Predicate("last_coop_ge", value=2.0), 0.8),
        PolicyRule(Predicate("my_last_is", value="D"), 0.3),
    ), 0.6)),
    Strategy("coin", "file", _coin),
    make_reference("cc", t=1),
]


# stateful families beside the drawing ones, so blocks that share a stack
# also share each family's state arrays
PACKED_MEMBERS = DRAWING_MEMBERS + [
    kernel_strategy("grim", 0.34),
    kernel_strategy("endgame", 2.0, 0.5),
    kernel_strategy("rota", 2.0, 1.0, 1.0),
]


@pytest.mark.parametrize("kind", list(GameKind))
@pytest.mark.parametrize("per_stack", [1, 2, 5])
def test_play_blocks_packs_whole_blocks_that_play_as_they_do_alone(kind, per_stack, monkeypatch):
    """Five blocks of three games, each game holding every member once in a
    shuffled seat, under a budget with room for ``per_stack`` blocks (and
    not quite one more): the stacks hold whole blocks in order, a block is
    drawn only once the stack before it is full (it is the one that does
    not fit), and each block's output equals the block played as a stack of
    its own."""
    table = MemberTable.compile(PACKED_MEMBERS, warn=False)
    n, games = len(PACKED_MEMBERS), 3
    params = GameParams(n=n, rounds=8, k=2.0)
    # a game that seats the kernel-less coin weighs its history besides its
    # slots, more every round
    shorter = GameParams(n=n, rounds=7, k=2.0)
    assert np.array_equal(engine.slot_words(table, params), engine.slot_words(table, shorter))
    seated = np.arange(n)[None]
    assert engine.block_words(table, params)(seated) > engine.block_words(table, shorter)(seated)
    block_words = engine.block_words(table, params)(np.tile(seated, (games, 1)))
    monkeypatch.setattr(engine, "STACK_WORDS", block_words * (per_stack + 1) - 1)
    rng = np.random.default_rng(per_stack)
    blocks = [(np.array([rng.permutation(n) for _ in range(games)]), 100 + b) for b in range(5)]
    drawn, stacks = [], []

    def lazily():
        for block in blocks:
            drawn.append(block[1])
            yield block

    def recorded(kind, params, groups, n_games, seed):
        stacks.append((list(seed), list(drawn)))
        return simulate_batch(kind, params, groups, n_games, seed)

    monkeypatch.setattr(engine, "simulate_batch", recorded)
    played = list(play_blocks(kind, params, table, lazily()))
    seeds = [seed for _, seed in blocks]
    assert stacks == [
        (seeds[i : i + per_stack], seeds[: i + per_stack + 1]) for i in range(0, 5, per_stack)
    ]
    assert len(played) == len(blocks)
    for (lineups, seed), (totals, welfare) in zip(blocks, played):
        alone = simulate_batch(kind, params, build_groups(lineups.ravel(), table), games, seed)
        assert np.array_equal(totals, alone.totals)
        assert np.array_equal(welfare, alone.mean_welfare)
    assert len({totals[0].tobytes() for totals, _ in played}) > 1
    assert list(play_blocks(kind, params, table, [])) == []


def test_play_blocks_charges_each_block_the_words_of_its_own_slots(monkeypatch):
    """A block of light members weighs less than one of heavy members, so
    a budget that holds two heavy blocks holds more light ones; the stacks
    follow the running sum of each block's ``slot_words``."""
    light, heavy = make_reference("allc"), _policy_member(40)
    table = MemberTable.compile([light, heavy], warn=False)
    params = GameParams(n=4, rounds=3, k=2.0)
    light_words, heavy_words = engine.slot_words(table, params)
    assert heavy_words > 5 * light_words
    monkeypatch.setattr(engine, "STACK_WORDS", 2 * 4 * heavy_words)
    member = [0, 0, 0, 0, 0, 1, 1, 0, 1]  # each block is one game of one member
    blocks = [(np.full((1, 4), m), b) for b, m in enumerate(member)]
    stacks = []

    def recorded(kind, params, groups, n_games, seed):
        stacks.append(list(seed))
        return simulate_batch(kind, params, groups, n_games, seed)

    monkeypatch.setattr(engine, "simulate_batch", recorded)
    assert len(list(play_blocks(GameKind.PUBLIC_GOODS, params, table, blocks))) == len(blocks)
    assert stacks == [[0, 1, 2, 3, 4, 5], [6, 7], [8]]


def test_play_blocks_names_a_faulting_block_by_its_place_in_the_input(monkeypatch):
    """Blocks of two games, each with one kernel-less member, pack two to a
    stack; the raising member sits only in block 3, the second block of the
    second stack."""
    good, bad = make_reference("allc"), Strategy("broken", "file", _raises)
    table = MemberTable.compile([good, bad, without_kernel(good)], warn=False)
    params = GameParams(n=3, rounds=2, k=2.0)
    blocks = [(np.array([[0, 0, 0], [0, 0, 2]]), b) for b in range(5)]
    blocks[3] = (np.array([[0, 0, 0], [0, 0, 1]]), 3)
    charge = engine.block_words(table, params)
    assert charge(blocks[0][0]) == charge(blocks[3][0])
    monkeypatch.setattr(engine, "STACK_WORDS", 2 * charge(blocks[3][0]))
    with pytest.raises(StrategyFault) as info:
        list(play_blocks(GameKind.PUBLIC_GOODS, params, table, blocks))
    fault = info.value
    assert (fault.label, fault.player, fault.round_index, fault.reason) == (
        "broken", 2, 0, "exception",
    )
    assert (fault.block, fault.game) == (3, 1)
    assert fault.detail.endswith("(game 1 of block 3)")


def _raises_in_round(t: int):
    def decide(obs, rng):
        if obs.round_index == t:
            raise ZeroDivisionError(f"round {t}")
        return Action.C
    return decide


@pytest.mark.parametrize("words", [None, 1], ids=["one-stack", "block-per-stack"])
def test_play_blocks_names_the_earliest_listed_fault_whatever_the_packing(monkeypatch, words):
    """Block 0 faults in round 5 and block 1 in round 2. In one stack block
    1 faults first; the fault raised is still block 0's, as it is with one
    block per stack."""
    members = [make_reference("allc"), Strategy("late", "file", _raises_in_round(5)),
               Strategy("early", "file", _raises_in_round(2))]
    table = MemberTable.compile(members, warn=False)
    params = GameParams(n=3, rounds=8, k=2.0)
    if words is not None:
        monkeypatch.setattr(engine, "STACK_WORDS", words)
    blocks = [(np.array([[0, 0, 0], [0, 1, 0]]), 10), (np.array([[2, 0, 0], [0, 0, 0]]), 11)]
    with pytest.raises(StrategyFault) as info:
        list(play_blocks(GameKind.PUBLIC_GOODS, params, table, blocks))
    fault = info.value
    assert (fault.label, fault.player, fault.round_index, fault.reason) == (
        "late", 1, 5, "exception",
    )
    assert (fault.block, fault.game) == (0, 1)
    assert fault.detail == "ZeroDivisionError: round 5 (game 1 of block 0)"


@pytest.mark.parametrize("place", [{}, {"game": 3}, {"game": 3, "block": 4}])
def test_a_strategy_fault_survives_pickling(place):
    fault = StrategyFault("x", 1, 2, "exception", "boom", **place)
    copy = pickle.loads(pickle.dumps(fault))
    assert type(copy) is StrategyFault
    assert str(copy) == str(fault)
    assert vars(copy) == vars(fault)


def _where(part: int, parts: int) -> tuple[int, int, int]:
    return part, parts, os.getpid()


def test_play_split_plays_in_process_below_the_gate_or_on_one_cpu(monkeypatch):
    monkeypatch.setattr(engine, "SPLIT_DECISIONS", 100)
    assert play_split(_where, 99) == [(0, 1, os.getpid())]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert play_split(_where, 100) == [(0, 1, os.getpid())]
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert play_split(_where, 100) == [(0, 1, os.getpid())]


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs fork and two CPUs")
def test_play_split_forks_one_child_from_the_gate_on(monkeypatch):
    monkeypatch.setattr(engine, "SPLIT_DECISIONS", 100)
    (mine, theirs) = play_split(_where, 100)
    assert mine == (0, 2, os.getpid())
    assert theirs[:2] == (1, 2) and theirs[2] != os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_play_split_brings_back_a_result_larger_than_the_pipe(forced_split):
    """The parent reads the child's whole result before it reaps it."""
    parts = play_split(lambda part, parts: np.full(1 << 20, part), 0)
    assert [(len(part), np.unique(part).tolist()) for part in parts] == [
        (1 << 20, [0]), (1 << 20, [1]),
    ]


def _child_raises(part, parts):
    if part == 1:
        raise KeyError("lost")
    return part


def _child_dies(part, parts):
    if part == 1:
        os._exit(3)
    return part


@pytest.mark.parametrize("play, message", [
    (_child_raises, "the forked part of the run raised KeyError: 'lost'"),
    (_child_dies, "the forked part of the run ended without a result"),
])
def test_a_child_that_fails_is_an_error_in_the_parent(forced_split, play, message):
    with pytest.raises(RuntimeError) as info:
        play_split(play, 0)
    assert str(info.value) == message


def test_a_parent_that_raises_kills_and_reaps_its_child(forced_split):
    def play(part, parts):
        if part == 0:
            raise ValueError("parent")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent"):
        play_split(play, 0)
    assert time.perf_counter() - start < 30


def test_scalar_fallback_matches_kernel_path():
    """Stripping kernels forces the per-decision path; deterministic
    strategies give the same welfare either way."""
    lineup = [
        kernel_strategy("grim", 0.0),
        kernel_strategy("endgame", 2.0, 0.0),
        kernel_strategy("constant", 1.0),
        kernel_strategy("threshold_trigger", 1.0, 3.0, 1.0),
    ]
    params = GameParams(n=4, rounds=10, k=2.0)
    blocks = [(np.array([[0, 1, 2, 3], [3, 2, 1, 0]]), 7)]
    kernels = MemberTable.compile(lineup)
    [(fast_totals, fast_welfare)] = play_blocks(GameKind.PUBLIC_GOODS, params, kernels, blocks)
    bare = MemberTable.compile([without_kernel(s) for s in lineup])
    [(slow_totals, slow_welfare)] = play_blocks(GameKind.PUBLIC_GOODS, params, bare, blocks)
    assert np.array_equal(fast_totals, slow_totals)
    assert np.array_equal(fast_welfare, slow_welfare)


def _policy_member(n_rules: int) -> Strategy:
    """A stochastic policy member with ``n_rules`` round-keyed rules."""
    rules = tuple(
        PolicyRule(Predicate("round_is", value=float(i)), float(i % 2)) for i in range(n_rules)
    )
    return policy_strategy(PolicySpec(f"policy{n_rules}", rules, 0.5))


# the last member, the widest policy table, is never picked, so the table's
# policy rows are padded wider than any picked lineup needs
TABLE_MEMBERS = [
    kernel_strategy("grim", 0.5),
    kernel_strategy("bernoulli", 0.3),
    kernel_strategy("rota", 3.0, 1.0, 1.0),
    kernel_strategy("reciprocator", 0.5, 0.2),
    kernel_strategy("endgame", 2.0, 0.5),
    make_reference("cc", t=1),
    _policy_member(0),
    _policy_member(1),
    _policy_member(3),
    _policy_member(7),
]


def _stacked_one_by_one(lineup: list[Strategy]) -> list[KernelGroup]:
    """Group a strategy lineup slot by slot, stacking each family's picked
    rows on their own; slot ``s`` plays member ``s`` of a table of the
    lineup."""
    table = MemberTable.compile(lineup)
    by_family: dict[str, tuple[list, list]] = {}
    for slot, strategy in enumerate(lineup):
        name, vec = strategy.kernel
        rows, slots = by_family.setdefault(name, ([], []))
        rows.append(vec)
        slots.append(slot)
    groups, lineup = [], np.arange(len(lineup))
    for name, (rows, slots) in by_family.items():
        family = FAMILIES[name]
        P = family.stack(rows)
        slots = np.array(slots)
        groups.append(KernelGroup(family, P, slots, lineup, table))
    return groups


@given(
    st.sampled_from(list(GameKind)),
    st.integers(2, 5),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_gathered_groups_match_groups_stacked_one_by_one(kind, n, games, data):
    table = MemberTable.compile(TABLE_MEMBERS)
    picks = data.draw(st.lists(
        st.integers(0, len(TABLE_MEMBERS) - 2), min_size=n * games, max_size=n * games,
    ))
    members = np.array(picks)
    gathered = build_groups(members, table)
    reference = _stacked_one_by_one([TABLE_MEMBERS[m] for m in picks])
    assert [g.family.name for g in gathered] == [g.family.name for g in reference]
    for got, want in zip(gathered, reference):
        assert np.array_equal(got.slots, want.slots)
        assert list(table.labels[got.lineup[got.slots]]) == list(
            want.table.labels[want.lineup[want.slots]])
        width = want.params.shape[1]
        assert np.array_equal(got.params[:, :width], want.params, equal_nan=True)
        extra = got.params[:, width:]
        if extra.size:  # only policy tables pad, and only with never-matching rules
            assert got.family is FAMILIES["policy"]
            pad = np.tile(PolicyTable._PAD_RULE, extra.shape[1] // len(PolicyTable._PAD_RULE))
            assert np.array_equal(extra, np.broadcast_to(pad, extra.shape), equal_nan=True)
    params = GameParams(n=n, rounds=6, k=(1 + n) / 2)
    a = simulate_batch(kind, params, gathered, games, seed=11, record=True)
    b = simulate_batch(kind, params, reference, games, seed=11, record=True)
    assert np.array_equal(a.coop, b.coop)
    assert np.array_equal(a.payoffs, b.payoffs)
    if kind is GameKind.COMMON_POOL:
        assert np.array_equal(a.stocks, b.stocks)


def test_one_list_of_groups_plays_the_same_games_twice():
    """A run makes its groups' kernel state, so the groups that one
    ``build_groups`` gives play the same games every time."""
    members = [
        kernel_strategy("grim", 0.25),
        kernel_strategy("bernoulli", 0.5),
        kernel_strategy("rota", 3.0, 1.0, 1.0),
        kernel_strategy("stock_guardian", 0.5),
        _policy_member(3),
    ]
    params = GameParams(n=4, rounds=8)
    lineups = np.random.default_rng(2).integers(0, len(members), 6 * params.n)
    groups = build_groups(lineups, MemberTable.compile(members))
    first, second = (
        simulate_batch(GameKind.COMMON_POOL, params, groups, 6, seed=[3, 4], record=True)
        for _ in range(2)
    )
    for name in ("totals", "mean_welfare", "coop", "payoffs", "stocks"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def test_kernel_less_members_form_their_own_group():
    allc, bare = make_reference("allc"), without_kernel(make_reference("alld"))
    table = MemberTable.compile([allc, bare])
    assert [g.family.name for g in build_groups(np.array([0, 0, 0]), table)] == ["constant"]
    kernel, callable_ = build_groups(np.array([0, 1, 0, 1]), table)
    assert (kernel.family.name, callable_.family.name) == ("constant", "callable")
    assert kernel.slots.tolist() == [0, 2]
    assert callable_.slots.tolist() == [1, 3]
    assert list(table.labels[callable_.lineup[callable_.slots]]) == ["AllD", "AllD"]
    assert all(s is bare for s in callable_.params[:, 0])


# deterministic members of every built-in family; stock_guardian faults
# outside the common-pool game, so it joins only there
MIXED_MEMBERS = [
    kernel_strategy("constant", 1.0),
    kernel_strategy("constant", 0.0),
    kernel_strategy("threshold_trigger", 1.0, 2.0, 1.0),
    kernel_strategy("grim", 0.3),
    kernel_strategy("endgame", 2.0, 0.5),
    kernel_strategy("reciprocator", 0.6, 0.0),
    kernel_strategy("rota", 3.0, 1.0, 1.0),
    policy_strategy(PolicySpec("pol", (
        PolicyRule(Predicate("last_coop_ge", value=2.0), 1.0),
        PolicyRule(Predicate("coop_rate_le", value=0.4), 0.0),
    ), 1.0)),
]


@pytest.mark.parametrize("kind", list(GameKind))
@given(n=st.integers(2, 5), games=st.integers(1, 4), data=st.data())
@settings(max_examples=25, deadline=None)
def test_mixed_stacks_match_all_kernel_less_stacks(kind, n, games, data):
    """A stack that mixes kernel and kernel-less members plays the same
    games as the same stack with every member stripped of its kernel."""
    members = MIXED_MEMBERS + (
        [kernel_strategy("stock_guardian", 0.6)] if kind is GameKind.COMMON_POOL else []
    )
    picks = data.draw(st.lists(st.integers(0, len(members) - 1), min_size=n * games,
                               max_size=n * games))
    stripped = data.draw(st.lists(st.booleans(), min_size=n * games, max_size=n * games))
    mixed = [without_kernel(members[m]) if bare else members[m]
             for m, bare in zip(picks, stripped)]
    reference = [without_kernel(s) for s in mixed]
    params = GameParams(n=n, rounds=7, k=(1 + n) / 2)
    a = simulate_batch(kind, params, lineup_groups(mixed), games, seed=3, record=True)
    b = simulate_batch(kind, params, lineup_groups(reference), games, seed=4, record=True)
    assert np.array_equal(a.coop, b.coop)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert np.array_equal(a.totals, b.totals)
    if kind is GameKind.COMMON_POOL:
        assert np.array_equal(a.stocks, b.stocks)


def _raises(obs, rng):
    raise ZeroDivisionError("boom")


def _mill(obs, rng):
    raise StepBudgetExceeded("exceeded 2 predicate evaluations in one decision")


@pytest.mark.parametrize(
    "decide,reason,detail",
    [
        (_raises, "exception", "ZeroDivisionError: boom"),
        (lambda obs, rng: "C", "invalid_action", "'C'"),
        (_mill, "step_budget", "exceeded 2 predicate evaluations"),
    ],
    ids=["exception", "invalid_action", "step_budget"],
)
def test_callable_faults_name_the_faulting_slot(decide, reason, detail):
    """Slot 6 (game 2, player 0) and slot 5 (game 1, player 2) fault in the
    callable group; slot 5 is lower. The kernel group decides first, and
    its only member never faults."""
    allc = make_reference("allc")
    bad_late = Strategy("late", "file", decide)
    bad_early = Strategy("early", "file", decide)
    fine = Strategy("fine", "file", lambda obs, rng: Action.C)
    lineup = [allc, fine, fine, allc, fine, bad_early, bad_late, allc, fine]
    with pytest.raises(StrategyFault) as info:
        simulate_batch(
            GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=2, k=2.0),
            lineup_groups(lineup), 3, seed=0,
        )
    fault = info.value
    assert (fault.label, fault.player, fault.round_index, fault.reason) == ("early", 2, 0, reason)
    assert detail in fault.detail
    assert "game 1 of batch" in fault.detail


def test_lowest_faulting_slot_wins_across_groups():
    """A kernel fault at slot 4 beats a callable fault at slot 5; swapping
    them, the callable fault at slot 4 wins."""
    guardian = kernel_strategy("stock_guardian", 0.5)  # faults outside CPR
    broken = Strategy("broken", "file", _raises)
    allc = make_reference("allc")
    params = GameParams(n=3, rounds=2, k=2.0)
    for lineup, want in (
        ([allc, allc, allc, allc, guardian, broken], ("stock_guardian(0.5)", 1, "exception")),
        ([allc, allc, allc, allc, broken, guardian], ("broken", 1, "exception")),
    ):
        with pytest.raises(StrategyFault) as info:
            simulate_batch(GameKind.PUBLIC_GOODS, params, lineup_groups(lineup), 2, seed=0)
        assert (info.value.label, info.value.player, info.value.reason) == want
        assert "game 1 of batch" in info.value.detail


def test_kernel_less_members_log_one_warning(caplog):
    bare = [without_kernel(make_reference("alld")) for _ in range(5)]
    with caplog.at_level(logging.WARNING, logger="ndilemma"):
        MemberTable.compile([make_reference("allc")] + bare)
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert "5 member(s) without a kernel play per decision" in message
    assert message.count("'AllD'") == 3 and "and 2 more" in message
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ndilemma"):
        MemberTable.compile([make_reference("allc"), make_reference("alld")])
    assert caplog.records == []


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_stochastic_strategies_reproducible(seed):
    params = GameParams(n=3, rounds=5, k=2.0)
    lineup = [make_reference("rnd", p=0.5) for _ in range(3)]
    a = play_game(GameKind.COLLECTIVE_RISK, params, lineup, seed=seed)
    b = play_game(GameKind.COLLECTIVE_RISK, params, lineup, seed=seed)
    assert np.array_equal(a.coop, b.coop)


def _members(family: str, rows) -> list[Strategy]:
    return [kernel_strategy(family, *row, label=f"{family}{i}") for i, row in enumerate(rows)]


# One stack per case, of a single family but for "callable": games of
# constants that each seat one kernel-less member; "kernel-less" games seat
# only such members. (members, game)
HELD_CASES = {
    "constant": (_members("constant", [(0.0,), (1.0,)]), GameKind.PUBLIC_GOODS),
    "bernoulli": (_members("bernoulli", [(0.2,), (0.7,)]), GameKind.PUBLIC_GOODS),
    "threshold_trigger": (
        _members("threshold_trigger", [(1.0, 3.0, 1.0), (0.0, 8.0, 0.0)]), GameKind.PUBLIC_GOODS,
    ),
    "reciprocator": (_members("reciprocator", [(0.5, 0.1), (0.9, 0.3)]), GameKind.PUBLIC_GOODS),
    "grim": (_members("grim", [(0.25,), (0.75,)]), GameKind.PUBLIC_GOODS),
    "endgame": (_members("endgame", [(2.0, 0.5), (5.0, 0.25)]), GameKind.PUBLIC_GOODS),
    "stock_guardian": (_members("stock_guardian", [(0.3,), (0.6,)]), GameKind.COMMON_POOL),
    "rota": (_members("rota", [(3.0, 1.0, 1.0), (2.0, 0.0, 0.0)]), GameKind.PUBLIC_GOODS),
    "callable": (
        _members("constant", [(0.0,), (1.0,)])
        + [without_kernel(kernel_strategy("bernoulli", 0.2))],
        GameKind.PUBLIC_GOODS,
    ),
    "kernel-less": (
        [without_kernel(kernel_strategy("bernoulli", 0.4)),
         without_kernel(kernel_strategy("constant", 1.0))],
        GameKind.PUBLIC_GOODS,
    ),
    "policy-1": ([_policy_member(1)], GameKind.COMMON_POOL),
    "policy-5": ([_policy_member(5)], GameKind.COMMON_POOL),
    "policy-40": ([_policy_member(40)], GameKind.COMMON_POOL),
}


@pytest.mark.parametrize("case", sorted(HELD_CASES))
def test_a_stack_holds_what_slot_words_charges(case):
    """A stack as large as the default budget lets it be holds (its
    tracemalloc peak) within a factor of 1.5, either way, of the
    ``block_words`` its games are charged, so a full stack holds about
    ``STACK_WORDS``. Held against charged, in words per slot, at n = 16 and
    20 rounds: constant 6.1/6, bernoulli 8.3/10, threshold_trigger
    12.1/11, reciprocator 12.9/14, grim 9.9/9, endgame 11.8/11,
    stock_guardian 10.1/9, rota 19.1/16, one kernel-less slot a game among
    constants 149/147, only kernel-less slots 160/161 (0.96-1.05 of the
    charge from n = 4 to 256), and policy tables of 1, 5 and 40 rules
    39.5/40, 93.4/96 and 565/586."""
    members, kind = HELD_CASES[case]
    table = MemberTable.compile(members, warn=False)
    n, params = 16, GameParams(n=16, rounds=20, k=2.0)
    charge = engine.block_words(table, params)
    rng = np.random.default_rng(1)
    lineups = rng.integers(0, len(members), (4096, n))
    if case == "callable":
        lineups = rng.integers(0, len(members) - 1, (4096, n))
        lineups[:, 0] = len(members) - 1
    charged = np.cumsum([charge(lineups[i : i + 1]) for i in range(len(lineups))])
    lineups = lineups[: np.searchsorted(charged, engine.STACK_WORDS, side="right")]
    list(play_blocks(kind, params, table, [(lineups[:1], 1)]))  # first-call allocations
    gc.collect()  # so that no earlier garbage is collected, and counted, in the stack
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        list(play_blocks(kind, params, table, [(lineups, 1)]))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held, charged = peak / (8 * lineups.size), charge(lineups) / lineups.size
    assert 1 / 1.5 <= held / charged <= 1.5, f"{case}: holds {held:.1f} words, charged {charged:.1f}"
