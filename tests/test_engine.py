"""The game loop: determinism, bookkeeping, faults, and path equivalence."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import lineup_groups

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
from ndilemma.engine import KernelGroup, MemberTable, build_groups, play_blocks, simulate_batch
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
    reference plays each family's ``decide_one`` on ``without_kernel()``
    copies."""
    lineup = [kernel_strategy(name, *params) for name, params in specs]
    if kind is GameKind.COMMON_POOL:
        lineup[-1] = kernel_strategy("stock_guardian", 0.6)
    params = GameParams(n=4, rounds=9, k=2.0)
    scalar = play_game(kind, params, [s.without_kernel() for s in lineup], seed=1)
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
    drawn only when its stack is packed, and each block's output equals the
    block played as a stack of its own."""
    table = MemberTable.compile(PACKED_MEMBERS, warn=False)
    n, games = len(PACKED_MEMBERS), 3
    params = GameParams(n=n, rounds=8, k=2.0)
    # the kernel-less coin weighs its history, five words per slot per round
    words = engine.slot_words(table, params.rounds)
    assert words == 8 + max(P.shape[1] for P in table.params) + 5 * params.rounds
    block_words = words * games * n
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
        (seeds[i : i + per_stack], seeds[: i + per_stack]) for i in range(0, 5, per_stack)
    ]
    assert len(played) == len(blocks)
    for (lineups, seed), (totals, welfare) in zip(blocks, played):
        alone = simulate_batch(kind, params, build_groups(lineups.ravel(), table), games, seed)
        assert np.array_equal(totals, alone.totals)
        assert np.array_equal(welfare, alone.mean_welfare)
    assert len({totals[0].tobytes() for totals, _ in played}) > 1
    assert list(play_blocks(kind, params, table, [])) == []


def test_play_blocks_names_a_faulting_block_by_its_place_in_the_input(monkeypatch):
    """Blocks of two games pack two to a stack; the raising member sits only
    in block 3, the second block of the second stack."""
    good, bad = make_reference("allc"), Strategy("broken", "file", _raises)
    table = MemberTable.compile([good, bad], warn=False)
    params = GameParams(n=3, rounds=2, k=2.0)
    monkeypatch.setattr(engine, "STACK_WORDS", engine.slot_words(table, 2) * 2 * 3 * 2)
    blocks = [(np.zeros((2, 3), dtype=np.int64), b) for b in range(5)]
    blocks[3] = (np.array([[0, 0, 0], [0, 0, 1]]), 3)
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
    bare = MemberTable.compile([s.without_kernel() for s in lineup])
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
    groups = []
    for name, (rows, slots) in by_family.items():
        family = FAMILIES[name]
        P = family.stack(rows)
        slots = np.array(slots)
        groups.append(KernelGroup(family, P, slots, slots, table, family.new_state(P)))
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
        assert list(table.labels[got.members]) == list(want.table.labels[want.members])
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


def test_kernel_less_members_form_their_own_group():
    allc, bare = make_reference("allc"), make_reference("alld").without_kernel()
    table = MemberTable.compile([allc, bare])
    assert [g.family.name for g in build_groups(np.array([0, 0, 0]), table)] == ["constant"]
    kernel, callable_ = build_groups(np.array([0, 1, 0, 1]), table)
    assert (kernel.family.name, callable_.family.name) == ("constant", "callable")
    assert kernel.slots.tolist() == [0, 2]
    assert callable_.slots.tolist() == [1, 3]
    assert list(table.labels[callable_.members]) == ["AllD", "AllD"]
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
    mixed = [members[m].without_kernel() if bare else members[m]
             for m, bare in zip(picks, stripped)]
    reference = [s.without_kernel() for s in mixed]
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
    bare = [make_reference("alld").without_kernel() for _ in range(5)]
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
