"""Compiled policy tables: the batched path against the rule interpreter,
fault attribution on the batched paths, and parse_pool's error contract."""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import lineup_groups
from reference import without_kernel

from ndilemma import GameKind, GameParams, SchemaError, StrategyFault, play_game
from ndilemma.engine import simulate_batch
from ndilemma.fingerprint import enumerate_nodes, fingerprint
from ndilemma.kernels import FAMILIES, KernelFamily, PolicyTable
from ndilemma.policy import (
    PREDICATE_OPS,
    RATIO_FIELDS,
    PolicyRule,
    PolicySpec,
    Predicate,
    parse_pool,
    policy_strategy,
)
from ndilemma.pools import FamilySpec
from ndilemma.strategies import Strategy

# round-valued thresholds around a short game, so every op both holds and fails
SMALL_VALUES = [-1.0, 0.0, 1.0, 2.0, 3.0, 5.0]
FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def predicates(draw):
    # ratio_ge has the most ways to trap, so it is drawn four times as often
    op = draw(st.sampled_from(PREDICATE_OPS + ("ratio_ge",) * 3))
    if op == "always":
        return Predicate(op)
    if op == "my_last_is":
        return Predicate(op, value=draw(st.sampled_from(["C", "D"])))
    if op == "ratio_ge":
        return Predicate(
            op,
            value=draw(st.sampled_from(FRACTIONS + [2.0])),
            num=draw(st.sampled_from(RATIO_FIELDS)),
            den=draw(st.sampled_from(RATIO_FIELDS)),
        )
    if op.startswith(("coop_rate", "stock_frac")):
        return Predicate(op, value=draw(st.sampled_from(FRACTIONS) | st.floats(0.0, 1.0)))
    return Predicate(op, value=draw(st.sampled_from(SMALL_VALUES)))


@st.composite
def members(draw, index, probs):
    rules = tuple(
        PolicyRule(draw(predicates()), draw(st.sampled_from(probs)))
        for _ in range(draw(st.integers(0, 5)))
    )
    spec = PolicySpec(f"m{index}", rules, draw(st.sampled_from(probs)))
    return policy_strategy(spec, step_budget=draw(st.integers(0, 24)))


@st.composite
def games(draw, probs=(0.0, 1.0)):
    kind = draw(st.sampled_from(list(GameKind)))
    n = draw(st.integers(2, 5))
    params = GameParams(n=n, rounds=draw(st.integers(1, 6)), k=(1 + n) / 2)
    lineup = [draw(members(i, list(probs))) for i in range(n)]
    return kind, params, lineup


def _outcome(run):
    try:
        return run(), None
    except StrategyFault as fault:
        return None, (fault.reason, fault.round_index, fault.label, fault.player)


@given(games())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_tables_play_like_the_interpreter(game):
    """Deterministic members play identical games on both paths; faulting
    lineups fault with the same reason, round, label and player."""
    kind, params, lineup = game
    scalar, scalar_fault = _outcome(
        lambda: play_game(kind, params, [without_kernel(s) for s in lineup], seed=1)
    )
    batch, batch_fault = _outcome(
        lambda: simulate_batch(kind, params, lineup_groups(lineup), 1, seed=2, record=True)
    )
    assert scalar_fault == batch_fault
    if scalar_fault is None:
        assert np.array_equal(scalar.coop, batch.coop[:, 0, :])
        assert np.array_equal(scalar.payoffs, batch.payoffs[:, 0, :])
        if kind is GameKind.COMMON_POOL:
            assert np.array_equal(scalar.stocks, batch.stocks[:, 0])


@given(games(probs=(0.0, 0.3, 1.0)))
@settings(max_examples=60, deadline=None)
def test_stochastic_tables_reproduce_from_their_seed(game):
    kind, params, lineup = game
    runs = [
        _outcome(lambda: simulate_batch(
            kind, params, lineup_groups(lineup * 2), 2, seed=5, record=True
        ))
        for _ in range(2)
    ]
    (first, fault_a), (second, fault_b) = runs
    assert fault_a == fault_b
    if first is not None:
        assert np.array_equal(first.coop, second.coop)


def _spec(label, rules, default=1.0):
    return PolicySpec(label, tuple(PolicyRule(p, q) for p, q in rules), default)


def test_fault_names_the_member_that_divides_by_zero():
    """One group, five members; only the third divides by zero, and only in
    the final round (rounds_left_after is 0 there)."""
    safe = Predicate("ratio_ge", value=0.5, num="last_opp_coop", den="rounds_left")
    trap = Predicate("ratio_ge", value=0.5, num="round", den="rounds_left_after")
    lineup = [policy_strategy(_spec(f"safe{i}", [(safe, 1.0)])) for i in range(5)]
    lineup[2] = policy_strategy(_spec("divider", [(trap, 0.0)]))
    params = GameParams(n=5, rounds=4, k=2.0)
    groups = lineup_groups(lineup * 3)
    assert len(groups) == 1
    with pytest.raises(StrategyFault) as info:
        simulate_batch(GameKind.PUBLIC_GOODS, params, groups, 3, seed=0)
    fault = info.value
    assert (fault.label, fault.player, fault.round_index, fault.reason) == (
        "divider", 2, 3, "exception",
    )
    assert "game 0 of batch" in fault.detail
    with pytest.raises(StrategyFault) as scalar:
        play_game(GameKind.PUBLIC_GOODS, params, [without_kernel(s) for s in lineup], seed=0)
    assert (scalar.value.label, scalar.value.player, scalar.value.round_index) == ("divider", 2, 3)


@pytest.mark.parametrize(
    "trap,kind,expected",
    [
        (Predicate("ratio_ge", value=0.5, num="round", den="rounds_left_after"),
         GameKind.PUBLIC_GOODS, "ZeroDivisionError: float division by zero (rule 1)"),
        (Predicate("stock_frac_ge", value=0.5), GameKind.COLLECTIVE_RISK,
         "PolicyEvaluationError: stock_frac is undefined outside the common-pool game (rule 1)"),
    ],
    ids=["zero-denominator", "stock-outside-cpr"],
)
def test_table_faults_name_the_interpreters_exception(trap, kind, expected):
    """The compiled table's detail is the interpreter's exception type and
    message plus the index of the rule that trapped."""
    member = policy_strategy(_spec("trapper", [(Predicate("round_is", value=99.0), 1.0),
                                               (trap, 1.0)]))
    params = GameParams(n=2, rounds=2, k=1.5)
    with pytest.raises(StrategyFault) as table:
        play_game(kind, params, [member, member], seed=0)
    with pytest.raises(StrategyFault) as interpreted:
        play_game(kind, params, [without_kernel(member)] * 2, seed=0)
    suffix = " (game 0 of batch)"
    assert table.value.detail == expected + suffix
    assert interpreted.value.detail == expected.replace(" (rule 1)", "") + suffix


def test_zero_denominator_with_undefined_numerator_does_not_trap():
    """In round 0 last_opp_coop is undefined, so last_opp_coop / round is a
    non-match, not a division by zero; from round 1 on it is defined."""
    rule = Predicate("ratio_ge", value=0.0, num="last_opp_coop", den="round")
    lineup = [policy_strategy(_spec(f"r{i}", [(rule, 0.0)])) for i in range(3)]
    params = GameParams(n=3, rounds=3, k=2.0)
    batch = simulate_batch(
        GameKind.PUBLIC_GOODS, params, lineup_groups(lineup), 1, seed=0, record=True
    )
    assert batch.coop[:, 0, :].tolist() == [[True] * 3, [False] * 3, [False] * 3]


def test_step_budget_fault_reason_on_batched_paths():
    rules = [(Predicate("round_is", value=100.0 + i), 1.0) for i in range(4)]
    mill = policy_strategy(_spec("rule-mill", rules), step_budget=2)
    allc = policy_strategy(_spec("plain", [(Predicate("always"), 1.0)]))
    params = GameParams(n=3, rounds=3, k=2.0)
    with pytest.raises(StrategyFault) as info:
        simulate_batch(
            GameKind.COLLECTIVE_RISK, params, lineup_groups([allc, allc, mill]), 1, seed=0
        )
    fault = info.value
    assert (fault.label, fault.player, fault.reason) == ("rule-mill", 2, "step_budget")
    with pytest.raises(StrategyFault) as fp:
        fingerprint(mill, GameKind.PUBLIC_GOODS, params, enumerate_nodes(3, 2), 5, seed=0)
    assert (fp.value.label, fp.value.reason) == ("rule-mill", "step_budget")


def test_the_lowest_of_two_faults_in_one_group_and_round_wins():
    """In the last round of a 4-round game, a member divides by zero at its
    rule 1 and, two seats later in the same policy group, another runs past
    its step budget at its rule 2; the earlier slot's fault is raised, on
    the table and on the interpreter alike."""
    divider = policy_strategy(_spec("divider", [
        (Predicate("round_is", value=99.0), 1.0),
        (Predicate("ratio_ge", value=0.5, num="round", den="rounds_left_after"), 1.0),
    ], default=0.5))
    mill = policy_strategy(_spec("mill", [
        (Predicate("rounds_left_ge", value=2.0), 0.0),
        (Predicate("round_is", value=99.0), 1.0),
        (Predicate("round_is", value=98.0), 1.0),
    ]), step_budget=2)
    plain = policy_strategy(_spec("plain", [(Predicate("always"), 1.0)]))
    lineup = [plain, divider, plain, mill]
    params = GameParams(n=4, rounds=4, k=2.0)
    groups = lineup_groups(lineup * 3)
    assert len(groups) == 1
    with pytest.raises(StrategyFault) as table:
        simulate_batch(GameKind.COMMON_POOL, params, groups, 3, seed=0)
    with pytest.raises(StrategyFault) as interpreted:
        play_game(GameKind.COMMON_POOL, params, [without_kernel(s) for s in lineup], seed=0)
    for fault in (table.value, interpreted.value):
        assert (fault.label, fault.player, fault.round_index, fault.reason) == (
            "divider", 1, 3, "exception",
        )
    assert table.value.detail == (
        "ZeroDivisionError: float division by zero (rule 1) (game 0 of batch)"
    )
    # alone, the later slot faults at its own rule, for its own reason
    with pytest.raises(StrategyFault) as alone:
        simulate_batch(GameKind.COMMON_POOL, params, lineup_groups([plain, plain, plain, mill]),
                       1, seed=0)
    assert (alone.value.label, alone.value.player, alone.value.round_index,
            alone.value.reason) == ("mill", 3, 3, "step_budget")


HOLDS = {"eq": operator.eq, "lt": operator.lt, "ge": operator.ge, "le": operator.le}


@pytest.mark.parametrize("comparison", PolicyTable.COMPARISONS)
@pytest.mark.parametrize("value", [-1.0, -0.0, 0.0, 0.5, 3.0])
def test_a_rule_record_holds_where_its_comparison_holds(comparison, value):
    """A rule's record is its two field codes, the closed interval lo..hi
    of left-hand values on which its comparison holds, its probability and
    its trap code, after the header (step_budget, default_prob)."""
    row = PolicyTable.row(1, 0.75, [("rounds_left", "one", comparison, value, 0.25)])
    assert len(row) == len(PolicyTable.param_names) + len(PolicyTable.RECORD_LAYOUT)
    assert row[:2] == (1.0, 0.75)
    lhs, den, lo, hi, prob, trap = row[2:]
    assert (lhs, den, prob, trap) == (PolicyTable.FIELDS.index("rounds_left"), 0.0, 0.25, 0.0)
    for x in (value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)):
        assert (lo <= x <= hi) == HOLDS[comparison](x, value), x


def test_rule_records_trap_at_the_step_budget_and_on_the_stock():
    """Rules at or past the step budget trap always; before it, a rule that
    reads stock_frac, as its left-hand field or its denominator, traps
    outside the common-pool game."""
    rules = [
        ("round", "one", "ge", 0.0, 1.0),
        ("stock_frac", "one", "le", 0.5, 1.0),
        ("opp_coop_rate", "stock_frac", "ge", 0.5, 1.0),
        ("stock_frac", "one", "ge", 0.5, 1.0),
        ("round", "one", "eq", 0.0, 1.0),
    ]
    layout = PolicyTable.RECORD_LAYOUT
    traps = slice(len(PolicyTable.param_names) + layout.index("trap"), None, len(layout))
    outside, always = PolicyTable.TRAP_OUTSIDE_CPR, PolicyTable.TRAP_ALWAYS
    assert PolicyTable.row(3, 0.0, rules)[traps] == (0.0, outside, outside, always, always)
    assert PolicyTable.row(0, 0.0, rules[:2])[traps] == (always, always)


@pytest.mark.parametrize("rule", [
    ("rounds", "one", "ge", 0.0, 1.0),
    ("round", "two", "ge", 0.0, 1.0),
    ("round", "one", "gt", 0.0, 1.0),
], ids=["lhs", "den", "comparison"])
@pytest.mark.parametrize("step_budget", [0, 5])
def test_an_unknown_name_in_a_rule_raises(rule, step_budget):
    with pytest.raises(KeyError):
        PolicyTable.row(step_budget, 0.5, [rule])


def test_stock_rule_faults_outside_cpr_on_fingerprint_path():
    guard = policy_strategy(_spec("cpr-only", [(Predicate("stock_frac_ge", value=0.5), 1.0)]))
    params = GameParams(n=3, rounds=2, k=2.0)
    nodes = enumerate_nodes(3, 2)
    with pytest.raises(StrategyFault) as info:
        fingerprint(guard, GameKind.PUBLIC_GOODS, params, nodes, 5, seed=0)
    assert (info.value.label, info.value.reason, info.value.round_index) == (
        "cpr-only", "exception", 0,
    )
    values = fingerprint(guard, GameKind.COMMON_POOL, params, nodes, 5, seed=0)
    assert values[0] == 1.0


class _Shapeless(KernelFamily):
    name = "shapeless"
    param_names = ("x",)

    def decide_batch(self, P, state, view):
        return np.ones(len(P) + 1, dtype=bool)


def test_wrong_shaped_batch_result_is_an_invalid_action(monkeypatch):
    monkeypatch.setitem(FAMILIES, "shapeless", _Shapeless())
    odd = Strategy("odd", "parametric", lambda obs, rng: None, kernel=("shapeless", (0.0,)))
    params = GameParams(n=2, rounds=2, k=1.5)
    with pytest.raises(StrategyFault) as info:
        simulate_batch(GameKind.PUBLIC_GOODS, params, lineup_groups([odd, odd]), 1, seed=0)
    assert (info.value.label, info.value.reason) == ("odd", "invalid_action")


@given(games())
@settings(max_examples=40, deadline=None)
def test_batched_fingerprint_matches_scalar_fingerprint(game):
    kind, params, lineup = game
    nodes = enumerate_nodes(params.n, min(params.rounds, 3))
    fast, fast_fault = _outcome(lambda: fingerprint(lineup[0], kind, params, nodes, 4, seed=3))
    slow, slow_fault = _outcome(
        lambda: fingerprint(without_kernel(lineup[0]), kind, params, nodes, 4, seed=3)
    )
    assert fast_fault == slow_fault
    if fast_fault is None:
        assert np.array_equal(fast, slow)


def test_synth_rejects_the_policy_family():
    with pytest.raises(ValueError, match="policy"):
        FamilySpec("policy")


# ---------------------------------------------------------------------------
# parse_pool gives a pool or a SchemaError, nothing else.
# ---------------------------------------------------------------------------


def _doc(member=None, **top):
    doc = {
        "schema_version": 1,
        "gene_tag": "g",
        "attitude": "collective",
        "members": [member or {"label": "a", "rules": [], "default_prob": 1.0}],
    }
    doc.update(top)
    return doc


@pytest.mark.parametrize(
    "doc,path",
    [
        (_doc(attitude=5), r"src\.attitude"),
        (_doc({"label": "a", "default_prob": 1.0, "rules": [
            {"when": {"op": "round_is", "value": 10**400}, "cooperate_prob": 1.0}]}),
         r"rules\[0\]\.when\.value"),
        (_doc({"label": "a", "rules": [], "default_prob": float("nan")}),
         r"members\[0\]\.default_prob"),
        (_doc({"label": "a", "rules": [], "default_prob": float("inf")}),
         r"members\[0\]\.default_prob"),
        (_doc(schema_version=True), r"src\.schema_version"),
    ],
    ids=["int-attitude", "huge-int", "nan-prob", "inf-prob", "bool-version"],
)
def test_malformed_values_are_schema_errors(doc, path):
    with pytest.raises(SchemaError, match=path):
        parse_pool(doc, "src")


def test_unreadable_bytes_are_schema_errors(tmp_path):
    from ndilemma import load_pool

    path = tmp_path / "pool.json"
    path.write_bytes(b'{"schema_version": \xff}')
    with pytest.raises(SchemaError):
        load_pool(path)
    path.write_text('{"schema_version": ' + "9" * 5000 + "}")
    with pytest.raises(SchemaError):
        load_pool(path)


SCHEMA_WORDS = [
    "schema_version", "gene_tag", "attitude", "members", "label", "rules", "when",
    "op", "value", "num", "den", "cooperate_prob", "default_prob",
]
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**500), 10**500)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(
        list(PREDICATE_OPS) + list(RATIO_FIELDS) + ["C", "D", "collective", "exploitative", 1, 0.5]
    )
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_WORDS) | st.text(max_size=4), children, max_size=6),
    max_leaves=30,
)


@st.composite
def near_valid_docs(draw):
    """A valid document with arbitrary JSON swapped in at one spot."""
    doc = json.loads(json.dumps(_doc({
        "label": "a",
        "rules": [{"when": {"op": draw(st.sampled_from(PREDICATE_OPS)), "value": 1,
                            "num": "round", "den": "rounds_left"},
                   "cooperate_prob": 0.5}],
        "default_prob": 1.0,
    })))
    spots = [
        (doc, "schema_version"), (doc, "gene_tag"), (doc, "attitude"), (doc, "members"),
        (doc["members"][0], "label"), (doc["members"][0], "rules"),
        (doc["members"][0], "default_prob"), (doc["members"][0]["rules"][0], "when"),
        (doc["members"][0]["rules"][0], "cooperate_prob"),
        (doc["members"][0]["rules"][0]["when"], "value"),
        (doc["members"][0]["rules"][0]["when"], "num"),
        (doc["members"][0]["rules"][0]["when"], "den"),
        (doc["members"][0]["rules"][0]["when"], "op"),
    ]
    owner, key = draw(st.sampled_from(spots))
    owner[key] = draw(json_values)
    return doc


@given(json_values | near_valid_docs())
@settings(max_examples=400, deadline=None)
def test_parse_pool_gives_a_pool_or_a_schema_error(doc):
    try:
        pool = parse_pool(doc, "fuzz")
    except SchemaError:
        return
    assert len(pool.members) >= 1
