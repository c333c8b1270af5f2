"""Policy files: schema, first-match evaluation, metering, faults."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_decide

from ndilemma import Action, GameKind, GameParams, Observation, SchemaError, load_pool, make_reference
from ndilemma.policy import (
    POLICY_SCHEMA_VERSION,
    PolicyRule,
    PolicySpec,
    Predicate,
    StepBudgetExceeded,
    parse_predicate,
    policy_strategy,
)

C, D = Action.C, Action.D


def write_pool(tmp_path, members, name="pool.json", version=POLICY_SCHEMA_VERSION):
    doc = {
        "schema_version": version,
        "gene_tag": "testpool",
        "attitude": "collective",
        "members": members,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def always_c_member(label="always-c"):
    return {
        "label": label,
        "rules": [{"when": {"op": "always"}, "cooperate_prob": 1.0}],
        "default_prob": 0.0,
    }


def random_observation(rng, n=4, rounds=10):
    params = GameParams(n=n, rounds=rounds, k=2.0)
    t = int(rng.integers(rounds))
    if t == 0:
        return Observation(GameKind.PUBLIC_GOODS, params, 0, 0, ())
    return Observation(
        GameKind.PUBLIC_GOODS, params, t, 0, (),
        opp_coop_last=int(rng.integers(n)),
        opp_coop_rate=float(rng.random()),
        my_last_action=C if rng.random() < 0.5 else D,
    )


def test_always_c_behaves_like_allc(tmp_path):
    pool = load_pool(write_pool(tmp_path, [always_c_member()]))
    allc = make_reference("allc")
    strategy = pool.members[0]
    rng = np.random.default_rng(0)
    gen = np.random.default_rng(1)
    for _ in range(1000):
        obs = random_observation(gen)
        assert strategy.decide(obs, rng) is reference_decide(allc)(obs, rng)


def test_pool_metadata(tmp_path):
    pool = load_pool(write_pool(tmp_path, [always_c_member()]))
    assert pool.gene_tag == "testpool"
    assert pool.attitude.value == "collective"
    assert pool.members[0].origin == "file"


def test_empty_members_rejected(tmp_path):
    with pytest.raises(SchemaError, match="members"):
        load_pool(write_pool(tmp_path, []))


def test_unknown_predicate_named_in_error(tmp_path):
    member = {
        "label": "bad",
        "rules": [{"when": {"op": "frobnicate", "value": 1}, "cooperate_prob": 1.0}],
        "default_prob": 0.0,
    }
    with pytest.raises(SchemaError, match="frobnicate"):
        load_pool(write_pool(tmp_path, [member]))


def test_schema_version_mismatch(tmp_path):
    with pytest.raises(SchemaError, match="version"):
        load_pool(write_pool(tmp_path, [always_c_member()], version=99))


def test_probability_out_of_range(tmp_path):
    member = always_c_member()
    member["rules"][0]["cooperate_prob"] = 1.5
    with pytest.raises(SchemaError, match="cooperate_prob"):
        load_pool(write_pool(tmp_path, [member]))


def test_error_paths_point_at_field(tmp_path):
    member = always_c_member()
    del member["default_prob"]
    with pytest.raises(SchemaError, match=r"members\[0\]"):
        load_pool(write_pool(tmp_path, [member]))


def test_missing_file():
    with pytest.raises(SchemaError, match="not found"):
        load_pool("/nonexistent/pool.json")


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}')
    with pytest.raises(SchemaError, match="line"):
        load_pool(path)


def test_round_zero_predicates_do_not_match():
    spec = PolicySpec(
        label="needs-history",
        rules=(
            PolicyRule(Predicate("last_coop_ge", value=0), 0.0),
            PolicyRule(Predicate("coop_rate_ge", value=0.0), 0.0),
            PolicyRule(Predicate("my_last_is", value="C"), 0.0),
        ),
        default_prob=1.0,
    )
    strategy = policy_strategy(spec)
    obs = random_observation(np.random.default_rng(3))
    obs.round_index = 0
    obs.opp_coop_last = None
    obs.opp_coop_rate = None
    obs.my_last_action = None
    assert strategy.decide(obs, np.random.default_rng(0)) is C  # falls to default


def test_ratio_divide_by_zero_traps():
    spec = PolicySpec(
        label="divides-by-rounds-left",
        rules=(
            PolicyRule(
                Predicate("ratio_ge", value=0.5, num="last_opp_coop", den="rounds_left_after"),
                1.0,
            ),
        ),
        default_prob=1.0,
    )
    strategy = policy_strategy(spec)
    params = GameParams(n=4, rounds=5, k=2.0)
    final_round = Observation(
        GameKind.PUBLIC_GOODS, params, 4, 0, (),
        opp_coop_last=2, opp_coop_rate=0.5, my_last_action=C,
    )
    with pytest.raises(ZeroDivisionError):
        strategy.decide(final_round, np.random.default_rng(0))


def test_step_budget_enforced():
    rules = tuple(
        PolicyRule(Predicate("round_is", value=10_000 + i), 1.0) for i in range(20)
    )
    spec = PolicySpec(label="rule-mill", rules=rules, default_prob=1.0)
    strategy = policy_strategy(spec, step_budget=10)
    obs = random_observation(np.random.default_rng(5))
    with pytest.raises(StepBudgetExceeded):
        strategy.decide(obs, np.random.default_rng(0))


def test_stock_predicate_faults_outside_cpr():
    spec = PolicySpec(
        label="cpr-only",
        rules=(PolicyRule(Predicate("stock_frac_ge", value=0.5), 1.0),),
        default_prob=0.0,
    )
    strategy = policy_strategy(spec)
    obs = random_observation(np.random.default_rng(6))
    with pytest.raises(Exception, match="stock_frac"):
        strategy.decide(obs, np.random.default_rng(0))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_first_match_semantics(data):
    """Reordering rules after the first match never changes the decision."""
    ops = [
        Predicate("round_lt", value=data.draw(st.integers(0, 10))),
        Predicate("round_ge", value=data.draw(st.integers(0, 10))),
        Predicate("last_coop_ge", value=data.draw(st.integers(0, 3))),
        Predicate("coop_rate_le", value=data.draw(st.floats(0, 1))),
        Predicate("always"),
    ]
    probs = [data.draw(st.sampled_from([0.0, 1.0])) for _ in ops]
    rules = tuple(PolicyRule(p, q) for p, q in zip(ops, probs))
    obs = random_observation(np.random.default_rng(data.draw(st.integers(0, 1000))))

    first_match = next((i for i, rule in enumerate(rules) if rule.when.evaluate(obs)), None)
    spec_a = PolicySpec("a", rules, default_prob=1.0)
    if first_match is None:
        tail = data.draw(st.permutations(list(rules)))
        spec_b = PolicySpec("b", tuple(tail), default_prob=1.0)
    else:
        head = rules[: first_match + 1]
        tail = data.draw(st.permutations(list(rules[first_match + 1 :])))
        spec_b = PolicySpec("b", head + tuple(tail), default_prob=1.0)

    rng = np.random.default_rng(0)
    a = policy_strategy(spec_a).decide(obs, np.random.default_rng(9))
    b = policy_strategy(spec_b).decide(obs, np.random.default_rng(9))
    assert a is b


def test_parse_predicate_validates_ratio_fields():
    with pytest.raises(SchemaError, match="unknown field"):
        parse_predicate({"op": "ratio_ge", "num": "mystery", "den": "round", "value": 1}, "p")
