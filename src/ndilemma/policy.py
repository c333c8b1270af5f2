"""Declarative policy files: a closed rule language compiled to strategies.

A policy member is an ordered list of ``(when, cooperate_prob)`` rules plus a
default probability; the first matching rule fires. Conditions come from a
closed, enumerated predicate set over the observables (round index, rounds
remaining, last-round opponent cooperators, cumulative opponent cooperation
rate, own last action, and the common-pool stock fraction). There is no
general expression language: the file format is sandboxed by construction.

Rule evaluation is metered. Each predicate evaluation costs one step against
a per-decision budget, and a decision that runs out of budget or traps (for
example a ratio predicate dividing by zero rounds remaining) aborts the game
with a fault that names the strategy; the validation gate turns such faults
into rejections.

Each member is compiled to a rule table (``compile_spec``) that the
``policy`` kernel family evaluates for whole stacks of games at once, and
every game plays that table on the one engine, ``play_game`` and the
validation gate included. The interpreter here is the per-decision
reference the tests compare against: it is the ``decide`` of a member's
``without_kernel()`` copy. A trap names the same exception type and message
on both; the table adds the index of the rule that trapped.

File schema (JSON, versioned; see docs/formats.md for the byte-level
description)::

    {
      "schema_version": 1,
      "gene_tag": "...",
      "attitude": "collective" | "exploitative",
      "members": [
        {"label": "...",
         "rules": [{"when": {"op": "...", ...}, "cooperate_prob": 0.0}],
         "default_prob": 1.0}
      ]
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .games import Action
from .kernels import PolicyTable
from .strategies import Attitude, Observation, Strategy, StrategyPool

POLICY_SCHEMA_VERSION = 1
DEFAULT_STEP_BUDGET = 100_000


class SchemaError(ValueError):
    """A policy file failed to parse; the message carries the JSON path."""


class PolicyEvaluationError(RuntimeError):
    """A predicate was evaluated in a game where its field is undefined."""


class StepBudgetExceeded(RuntimeError):
    """A single decision used more predicate evaluations than allowed."""


RATIO_FIELDS = (
    "round",
    "last_opp_coop",
    "opp_coop_rate",
    "rounds_left",
    "rounds_left_after",
    "stock_frac",
)

def _field_value(obs: Observation, field: str) -> float | None:
    if field == "round":
        return float(obs.round_index)
    if field == "rounds_left":
        return float(obs.rounds_left)
    if field == "rounds_left_after":
        return float(obs.rounds_left - 1)
    if field == "last_opp_coop":
        return None if obs.opp_coop_last is None else float(obs.opp_coop_last)
    if field == "opp_coop_rate":
        return obs.opp_coop_rate
    if field == "stock_frac":
        frac = obs.stock_fraction
        if frac is None:
            raise PolicyEvaluationError(
                "stock_frac is undefined outside the common-pool game"
            )
        return frac
    raise PolicyEvaluationError(f"unknown field {field!r}")


@dataclass(frozen=True)
class Predicate:
    """One condition from the closed predicate set.

    Evaluation returns False (rule skipped) when a history-dependent field
    has no value yet, which is how round 0 behaves for the last-round and
    rate predicates.
    """

    op: str
    value: float | str | None = None
    num: str | None = None
    den: str | None = None

    def evaluate(self, obs: Observation) -> bool:
        op = self.op
        if op == "always":
            return True
        if op == "round_is":
            return obs.round_index == self.value
        if op == "round_lt":
            return obs.round_index < self.value
        if op == "round_ge":
            return obs.round_index >= self.value
        if op == "rounds_left_le":
            return obs.rounds_left <= self.value
        if op == "rounds_left_ge":
            return obs.rounds_left >= self.value
        if op == "last_coop_ge":
            last = obs.opp_coop_last
            return last is not None and last >= self.value
        if op == "last_coop_le":
            last = obs.opp_coop_last
            return last is not None and last <= self.value
        if op == "coop_rate_ge":
            rate = obs.opp_coop_rate
            return rate is not None and rate >= self.value
        if op == "coop_rate_le":
            rate = obs.opp_coop_rate
            return rate is not None and rate <= self.value
        if op == "my_last_is":
            mine = obs.my_last_action
            return mine is not None and mine.value == self.value
        if op == "stock_frac_ge":
            return _field_value(obs, "stock_frac") >= self.value
        if op == "stock_frac_le":
            return _field_value(obs, "stock_frac") <= self.value
        if op == "ratio_ge":
            num = _field_value(obs, self.num)
            den = _field_value(obs, self.den)
            if num is None or den is None:
                return False
            return num / den >= self.value
        raise PolicyEvaluationError(f"unknown predicate {op!r}")


@dataclass(frozen=True)
class PolicyRule:
    when: Predicate
    cooperate_prob: float


@dataclass(frozen=True)
class PolicySpec:
    """One member of a policy file: ordered rules plus a default."""

    label: str
    rules: tuple[PolicyRule, ...]
    default_prob: float


def _act(prob: float, rng: np.random.Generator) -> Action:
    if prob >= 1.0:
        return Action.C
    if prob <= 0.0:
        return Action.D
    return Action.C if rng.random() < prob else Action.D


# op -> (left-hand field, comparison, fixed value or None for the rule's own)
_OP_TERMS = {
    "always": ("one", "eq", 1.0),
    "round_is": ("round", "eq", None),
    "round_lt": ("round", "lt", None),
    "round_ge": ("round", "ge", None),
    "rounds_left_le": ("rounds_left", "le", None),
    "rounds_left_ge": ("rounds_left", "ge", None),
    "last_coop_ge": ("last_opp_coop", "ge", None),
    "last_coop_le": ("last_opp_coop", "le", None),
    "coop_rate_ge": ("opp_coop_rate", "ge", None),
    "coop_rate_le": ("opp_coop_rate", "le", None),
    "my_last_is": ("my_last_c", "eq", None),
    "stock_frac_ge": ("stock_frac", "ge", None),
    "stock_frac_le": ("stock_frac", "le", None),
}

PREDICATE_OPS = (*_OP_TERMS, "ratio_ge")


def _rule_terms(rule: PolicyRule) -> tuple:
    """A rule as ``(lhs, den, comparison, value, cooperate_prob)`` over the
    ``PolicyTable`` field and comparison names; ``den`` is ``one`` except
    for ``ratio_ge``."""
    when = rule.when
    if when.op == "ratio_ge":
        return (when.num, when.den, "ge", float(when.value), rule.cooperate_prob)
    if when.op not in _OP_TERMS:
        raise ValueError(f"unknown predicate {when.op!r}")
    lhs, cmp, value = _OP_TERMS[when.op]
    if when.op == "my_last_is":
        value = {"C": 1.0, "D": 0.0}[when.value]
    elif value is None:
        value = float(when.value)
    return (lhs, "one", cmp, value, rule.cooperate_prob)


def compile_spec(spec: PolicySpec, step_budget: int = DEFAULT_STEP_BUDGET) -> tuple[float, ...]:
    """The member as a ``policy`` kernel row."""
    return PolicyTable.row(
        step_budget, spec.default_prob, [_rule_terms(rule) for rule in spec.rules]
    )


def policy_strategy(
    spec: PolicySpec, step_budget: int = DEFAULT_STEP_BUDGET
) -> Strategy:
    """Compile a policy spec into a metered first-match strategy.

    ``decide`` interprets the rules one decision at a time; the kernel is
    the same rules as a table for the batched engine.
    """

    def decide(obs: Observation, rng: np.random.Generator) -> Action:
        steps = 0
        for rule in spec.rules:
            steps += 1
            if steps > step_budget:
                raise StepBudgetExceeded(
                    f"exceeded {step_budget} predicate evaluations in one decision"
                )
            if rule.when.evaluate(obs):
                return _act(rule.cooperate_prob, rng)
        return _act(spec.default_prob, rng)

    kernel = (PolicyTable.name, compile_spec(spec, step_budget))
    return Strategy(label=spec.label, origin="file", decide=decide, kernel=kernel)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _require(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise _fail(path, f"missing required field {key!r}")
    return obj[key]


def _number(value: Any, path: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise _fail(path, "number out of range")
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {value!r}")
    if lo is not None and number < lo:
        raise _fail(path, f"value {value} below minimum {lo}")
    if hi is not None and number > hi:
        raise _fail(path, f"value {value} above maximum {hi}")
    return number


def parse_predicate(raw: Any, path: str) -> Predicate:
    op = _require(raw, "op", path)
    if op not in PREDICATE_OPS:
        raise _fail(f"{path}.op", f"unknown predicate {op!r}")
    if op == "always":
        return Predicate(op)
    if op == "my_last_is":
        value = _require(raw, "value", path)
        if value not in ("C", "D"):
            raise _fail(f"{path}.value", f"expected 'C' or 'D', got {value!r}")
        return Predicate(op, value=value)
    if op == "ratio_ge":
        num = _require(raw, "num", path)
        den = _require(raw, "den", path)
        for name, field in (("num", num), ("den", den)):
            if field not in RATIO_FIELDS:
                raise _fail(
                    f"{path}.{name}",
                    f"unknown field {field!r}; expected one of {RATIO_FIELDS}",
                )
        value = _number(_require(raw, "value", path), f"{path}.value")
        return Predicate(op, value=value, num=num, den=den)
    value = _require(raw, "value", path)
    if op in ("coop_rate_ge", "coop_rate_le", "stock_frac_ge", "stock_frac_le"):
        return Predicate(op, value=_number(value, f"{path}.value", 0.0, 1.0))
    return Predicate(op, value=_number(value, f"{path}.value"))


def parse_member(raw: Any, path: str) -> PolicySpec:
    label = _require(raw, "label", path)
    if not isinstance(label, str) or not label:
        raise _fail(f"{path}.label", "expected a non-empty string")
    raw_rules = _require(raw, "rules", path)
    if not isinstance(raw_rules, list):
        raise _fail(f"{path}.rules", "expected a list")
    rules = []
    for j, raw_rule in enumerate(raw_rules):
        rule_path = f"{path}.rules[{j}]"
        when = parse_predicate(_require(raw_rule, "when", rule_path), f"{rule_path}.when")
        prob = _number(
            _require(raw_rule, "cooperate_prob", rule_path),
            f"{rule_path}.cooperate_prob", 0.0, 1.0,
        )
        rules.append(PolicyRule(when, prob))
    default = _number(_require(raw, "default_prob", path), f"{path}.default_prob", 0.0, 1.0)
    return PolicySpec(label=label, rules=tuple(rules), default_prob=default)


def parse_pool(data: Any, source: str) -> StrategyPool:
    version = _require(data, "schema_version", source)
    if isinstance(version, bool) or version != POLICY_SCHEMA_VERSION:
        raise _fail(
            f"{source}.schema_version",
            f"unsupported version {version!r}; this engine reads version "
            f"{POLICY_SCHEMA_VERSION}",
        )
    gene_tag = _require(data, "gene_tag", source)
    if not isinstance(gene_tag, str) or not gene_tag:
        raise _fail(f"{source}.gene_tag", "expected a non-empty string")
    raw_attitude = _require(data, "attitude", source)
    if not isinstance(raw_attitude, str):
        raise _fail(f"{source}.attitude", f"expected a string, got {raw_attitude!r}")
    try:
        attitude = Attitude.parse(raw_attitude)
    except ValueError as exc:
        raise _fail(f"{source}.attitude", str(exc))
    raw_members = _require(data, "members", source)
    if not isinstance(raw_members, list) or not raw_members:
        raise _fail(f"{source}.members", "expected a non-empty list of members")
    members = tuple(
        policy_strategy(parse_member(raw, f"{source}.members[{i}]"))
        for i, raw in enumerate(raw_members)
    )
    return StrategyPool(gene_tag=gene_tag, attitude=attitude, members=members)


def load_pool(path: str | Path) -> StrategyPool:
    """Read and compile a policy file into a strategy pool."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    try:
        data = json.loads(path.read_text())
    except OSError as exc:  # a directory, or unreadable
        raise SchemaError(f"{path}: not a readable file: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # undecodable UTF-8, or an integer too long to convert
        raise SchemaError(f"{path}: invalid JSON: {exc}")
    return parse_pool(data, str(path))
