"""Built-in strategy families: batched deciders and per-decision references.

Each family's ``decide_batch`` works on arrays over many (game, player)
slots at once; every game plays it, from one ``play_game`` to grids with
tens of thousands of games and group sizes in the hundreds. Each family
keeps the same rule as ``decide_one`` on a single ``Observation``: the
reference the tests compare against. It is a kernel strategy's ``decide``,
which its ``without_kernel()`` copy plays one decision at a time as the
engine's ``callable`` family; deterministic families must produce identical
games both ways. The ``policy`` family is the exception: its rows are rule
tables compiled from policy files, and its per-decision reference is the
rule interpreter in ``policy``.

A family that draws names ``u`` in its ``reads``: one uniform per slot per
round, drawn by the engine. Its ``decide_one`` draws at most once per
decision, so handed the same uniform it decides alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import Action, GameKind, GameParams
from .strategies import Observation, Strategy

_EPS = 1e-9


class KernelError(RuntimeError):
    """A kernel was asked to decide in a game it cannot play."""


class SlotFault(RuntimeError):
    """One slot of a ``decide_batch`` call misbehaved.

    ``slot`` indexes the rows of the call's parameter matrix; ``reason`` is
    a ``StrategyFault`` reason (``exception``, ``step_budget`` or
    ``invalid_action``). The engine maps the slot back to its strategy,
    game and player.
    """

    def __init__(self, slot: int, reason: str, detail: str):
        self.slot = slot
        self.reason = reason
        self.detail = detail
        super().__init__(f"slot {slot} {reason}: {detail}")


@dataclass
class SlotView:
    """Per-round observables for a set of (game, player) slots.

    Arrays are aligned with the slots a family was asked to decide for.
    The engine fills only the fields the family names in its ``reads``;
    the rest stay None. ``u`` holds one fresh uniform in [0, 1) per slot
    every round; ``col`` is each slot's player index; ``prev_c``,
    ``opp_coop`` and ``opp_rate`` are None in round 0; ``stock_frac`` is
    None outside the common-pool game. The engine's ``callable`` family
    reads the whole stack instead: ``slots`` holds each slot's flat
    ``game * n + player`` index, ``last`` the previous round's (games, n)
    actions, None in round 0, and ``rng`` each slot's generator.
    """

    t: int
    kind: GameKind
    params: GameParams
    u: np.ndarray | None = None
    col: np.ndarray | None = None
    prev_c: np.ndarray | None = None
    opp_coop: np.ndarray | None = None
    opp_rate: np.ndarray | None = None
    stock_frac: np.ndarray | None = None
    slots: np.ndarray | None = None
    last: np.ndarray | None = None
    rng: Sequence[np.random.Generator] | None = None


class KernelFamily:
    name: str = ""
    param_names: tuple[str, ...] = ()
    # the SlotView fields decide_batch reads; "u" marks a family that draws
    reads: tuple[str, ...] = ()

    def validate(self, params: tuple[float, ...]) -> None:
        if len(params) != len(self.param_names):
            raise ValueError(
                f"{self.name} expects {len(self.param_names)} params "
                f"{self.param_names}, got {len(params)}"
            )

    def stack(self, rows: list[tuple[float, ...]]) -> np.ndarray:
        """Stack parameter vectors into the (slots, params) matrix."""
        return np.asarray(rows, dtype=float)

    def new_state(self, P: np.ndarray):
        """Per-run working state for the slots whose parameters are ``P``."""
        return None

    def decide_one(self, params: tuple[float, ...], obs: Observation, rng) -> Action:
        raise NotImplementedError

    def decide_batch(self, P: np.ndarray, state, view: SlotView) -> np.ndarray:
        raise NotImplementedError


class Constant(KernelFamily):
    """Always cooperate (c=1) or always defect (c=0)."""

    name = "constant"
    param_names = ("cooperate",)

    def validate(self, params):
        super().validate(params)
        if params[0] not in (0.0, 1.0):
            raise ValueError(f"constant cooperate flag must be 0 or 1, got {params[0]}")

    def decide_one(self, params, obs, rng):
        return Action.C if params[0] >= 0.5 else Action.D

    def decide_batch(self, P, state, view):
        return P[:, 0] >= 0.5


class Bernoulli(KernelFamily):
    """Cooperate with probability p each round, independently."""

    name = "bernoulli"
    param_names = ("p",)
    reads = ("u",)

    def validate(self, params):
        super().validate(params)
        if not 0.0 <= params[0] <= 1.0:
            raise ValueError(f"bernoulli p must be in [0, 1], got {params[0]}")

    def decide_one(self, params, obs, rng):
        return Action.C if rng.random() < params[0] else Action.D

    def decide_batch(self, P, state, view):
        return view.u < P[:, 0]


class ThresholdTrigger(KernelFamily):
    """First-round move, then react to an absolute opponent-cooperator count.

    ``sense=1``: cooperate iff at least ``threshold`` opponents cooperated
    last round (the classic cooperate-on-cooperation trigger). ``sense=0``:
    defect iff at least ``threshold`` opponents cooperated (exploits visible
    cooperation).
    """

    name = "threshold_trigger"
    param_names = ("first_c", "threshold", "sense")
    reads = ("opp_coop",)

    def validate(self, params):
        super().validate(params)
        if params[0] not in (0.0, 1.0) or params[2] not in (0.0, 1.0):
            raise ValueError("first_c and sense must be 0 or 1")
        if params[1] < 0 or params[1] != int(params[1]):
            raise ValueError(f"threshold must be a non-negative integer, got {params[1]}")

    def decide_one(self, params, obs, rng):
        if obs.round_index == 0:
            return Action.C if params[0] >= 0.5 else Action.D
        meets = obs.opp_coop_last >= params[1]
        return Action.C if meets == (params[2] >= 0.5) else Action.D

    def decide_batch(self, P, state, view):
        if view.t == 0:
            return P[:, 0] >= 0.5
        meets = view.opp_coop >= P[:, 1]
        return meets == (P[:, 2] >= 0.5)


class Reciprocator(KernelFamily):
    """Cooperate first, then require a fraction of opponents to have
    cooperated last round; otherwise forgive with a fixed probability."""

    name = "reciprocator"
    param_names = ("threshold_frac", "forgive_prob")
    reads = ("opp_coop", "u")

    def validate(self, params):
        super().validate(params)
        if not 0.0 <= params[0] <= 1.0 or not 0.0 <= params[1] <= 1.0:
            raise ValueError("reciprocator params must be fractions in [0, 1]")

    def decide_one(self, params, obs, rng):
        if obs.round_index == 0:
            return Action.C
        if obs.opp_coop_last >= params[0] * (obs.n_players - 1) - _EPS:
            return Action.C
        return Action.C if rng.random() < params[1] else Action.D

    def decide_batch(self, P, state, view):
        if view.t == 0:
            return np.ones(len(P), dtype=bool)
        meets = view.opp_coop >= P[:, 0] * (view.params.n - 1) - _EPS
        return meets | (view.u < P[:, 1])


class Grim(KernelFamily):
    """Cooperate until opponents' defection fraction ever exceeds a
    tolerance, then defect for the rest of the game."""

    name = "grim"
    param_names = ("tolerance_frac",)
    reads = ("opp_coop",)

    def validate(self, params):
        super().validate(params)
        if not 0.0 <= params[0] <= 1.0:
            raise ValueError(f"grim tolerance must be in [0, 1], got {params[0]}")

    def decide_one(self, params, obs, rng):
        n_opp = obs.n_players - 1
        limit = params[0] * n_opp + _EPS
        me = obs.my_index
        for rec in obs.history:
            opp_coop = rec.cooperator_count() - (1 if rec.actions[me] is Action.C else 0)
            if n_opp - opp_coop > limit:
                return Action.D
        return Action.C

    def new_state(self, P):
        return np.zeros(len(P), dtype=bool)

    def decide_batch(self, P, state, view):
        if view.t > 0:
            n_opp = view.params.n - 1
            state |= (n_opp - view.opp_coop) > P[:, 0] * n_opp + _EPS
        return ~state


class Endgame(KernelFamily):
    """Reciprocate until only ``horizon`` rounds remain, then defect."""

    name = "endgame"
    param_names = ("horizon", "threshold_frac")
    reads = ("opp_coop",)

    def validate(self, params):
        super().validate(params)
        if params[0] < 1 or params[0] != int(params[0]):
            raise ValueError(f"endgame horizon must be a positive integer, got {params[0]}")
        if not 0.0 <= params[1] <= 1.0:
            raise ValueError("endgame threshold_frac must be in [0, 1]")

    def decide_one(self, params, obs, rng):
        if obs.rounds_left <= params[0]:
            return Action.D
        if obs.round_index == 0:
            return Action.C
        meets = obs.opp_coop_last >= params[1] * (obs.n_players - 1) - _EPS
        return Action.C if meets else Action.D

    def decide_batch(self, P, state, view):
        closing = (view.params.rounds - view.t) <= P[:, 0]
        if view.t == 0:
            base = np.ones(len(P), dtype=bool)
        else:
            base = view.opp_coop >= P[:, 1] * (view.params.n - 1) - _EPS
        return base & ~closing


class StockGuardian(KernelFamily):
    """Cooperate while the common-pool stock is healthy; defect once the
    stock fraction falls below the guard level. Only defined for the
    common-pool game."""

    name = "stock_guardian"
    param_names = ("guard_frac",)
    reads = ("stock_frac",)

    def validate(self, params):
        super().validate(params)
        if not 0.0 < params[0] <= 1.0:
            raise ValueError(f"guard_frac must be in (0, 1], got {params[0]}")

    def decide_one(self, params, obs, rng):
        frac = obs.stock_fraction
        if frac is None:
            raise KernelError("stock_guardian requires a common-pool game")
        return Action.C if frac >= params[0] - _EPS else Action.D

    def decide_batch(self, P, state, view):
        if view.stock_frac is None:
            raise KernelError("stock_guardian requires a common-pool game")
        return view.stock_frac >= P[:, 0] - _EPS


class Rota(KernelFamily):
    """Follow a fixed cooperation schedule keyed to the player's own index,
    optionally defecting to punish rounds where fewer opponents cooperated
    than the schedule would have produced. No opponent ever agreed to the
    schedule, which is exactly why these strategies are pathological."""

    name = "rota"
    param_names = ("period", "phase", "punish")
    reads = ("col", "opp_coop")

    def validate(self, params):
        super().validate(params)
        period, phase, punish = params
        if period < 1 or period != int(period):
            raise ValueError(f"rota period must be a positive integer, got {period}")
        if not 0 <= phase < period or phase != int(phase):
            raise ValueError(f"rota phase must be an integer in [0, period), got {phase}")
        if punish not in (0.0, 1.0):
            raise ValueError("rota punish flag must be 0 or 1")

    @staticmethod
    def _scheduled_count(t: int, period: int, phase: int, n: int) -> int:
        # number of player indices j in [0, n) with (t + j) % period == phase
        resid = (phase - t) % period
        if resid >= n:
            return 0
        return (n - 1 - resid) // period + 1

    def decide_one(self, params, obs, rng):
        period, phase = int(params[0]), int(params[1])
        if params[2] >= 0.5 and obs.round_index > 0:
            last = obs.round_index - 1
            own_sched = (last + obs.my_index) % period == phase
            expected = self._scheduled_count(last, period, phase, obs.n_players) - own_sched
            if obs.opp_coop_last < expected:
                return Action.D
        on_duty = (obs.round_index + obs.my_index) % period == phase
        return Action.C if on_duty else Action.D

    def decide_batch(self, P, state, view):
        period = P[:, 0].astype(np.int64)
        phase = P[:, 1].astype(np.int64)
        on_duty = (view.t + view.col) % period == phase
        if view.t == 0:
            return on_duty
        last = view.t - 1
        resid = (phase - last) % period
        count_all = np.where(resid >= view.params.n, 0, (view.params.n - 1 - resid) // period + 1)
        own_sched = (last + view.col) % period == phase
        expected = count_all - own_sched
        punished = (P[:, 2] >= 0.5) & (view.opp_coop < expected)
        return on_duty & ~punished


@dataclass(frozen=True)
class _PolicyState:
    """A stack of rule tables decoded once per run into (slots, rules)
    arrays. ``lhs``/``den`` index the flattened observable matrix, and each
    comparison is the closed interval ``lo <= lhs <= hi``."""

    lhs: np.ndarray
    den: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    prob: np.ndarray
    touches: np.ndarray
    over_budget: np.ndarray


class PolicyTable(KernelFamily):
    """Policy-file members compiled to first-match rule tables.

    A parameter row is the header ``(step_budget, default_prob, n_rules)``
    followed by ``n_rules`` records laid out as ``RULE_LAYOUT``: the
    left-hand field, the denominator field (``one`` for every op except
    ``ratio_ge``), the comparison, the value, the cooperation probability
    and a flag for rules that read ``stock_frac``. Fields index ``FIELDS``
    and comparisons index ``COMPARISONS``; ``row`` encodes a table. The rule
    interpreter in ``policy`` is the per-decision form of the same rules, so
    this family has no ``decide_one``.

    ``decide_batch`` evaluates every rule of every slot at once against a
    (slots, fields) matrix of observables in which undefined fields are NaN,
    so their comparisons fail as the interpreter's ``None`` checks do. The
    first rule that matches or traps stops a slot; faults fire only at that
    rule, exactly where the interpreter would raise: a rule index at or past
    the step budget (``step_budget``), a ``stock_frac`` rule outside the
    common-pool game, or a zero denominator with both ratio fields defined
    (both ``exception``). Every slot reads its uniform whatever its
    probability, so 0 and 1 still decide deterministically.
    """

    name = "policy"
    param_names = ("step_budget", "default_prob", "n_rules")
    reads = ("opp_coop", "opp_rate", "prev_c", "stock_frac", "u")
    RULE_LAYOUT = ("lhs", "den", "cmp", "value", "cooperate_prob", "touches_stock")
    FIELDS = (
        "one", "round", "rounds_left", "rounds_left_after",
        "last_opp_coop", "opp_coop_rate", "my_last_c", "stock_frac",
    )
    COMPARISONS = ("eq", "lt", "ge", "le")
    # "one == NaN" never matches and never traps
    _PAD_RULE = (0.0, 0.0, 0.0, np.nan, 0.0, 0.0)

    @classmethod
    def row(cls, step_budget: int, default_prob: float, rules) -> tuple[float, ...]:
        """Encode a rule table. ``rules`` holds ``(lhs, den, comparison,
        value, cooperate_prob)`` with field and comparison names."""
        row = [step_budget, default_prob, len(rules)]
        for lhs, den, cmp, value, prob in rules:
            row += (
                cls.FIELDS.index(lhs), cls.FIELDS.index(den), cls.COMPARISONS.index(cmp),
                value, prob, "stock_frac" in (lhs, den),
            )
        return tuple(float(x) for x in row)

    def stack(self, rows):
        """Pad rows to the longest table (at least one rule) and stack them."""
        header, width = len(self.param_names), len(self.RULE_LAYOUT)
        n_rules = max(1, max((len(row) - header) // width for row in rows))
        P = np.empty((len(rows), header + n_rules * width))
        P[:, header:] = np.tile(self._PAD_RULE, n_rules)
        for i, row in enumerate(rows):
            P[i, : len(row)] = row
        return P

    def new_state(self, P):
        slots = len(P)
        R = P[:, len(self.param_names):].reshape(slots, -1, len(self.RULE_LAYOUT))
        base = np.arange(slots)[:, None] * len(self.FIELDS)
        cmp, value = R[..., 2], R[..., 3]
        eq, lt, ge = cmp == 0, cmp == 1, cmp == 2
        # lhs < v is lhs <= (the float just below v)
        lo = np.where(eq | ge, value, -np.inf)
        hi = np.where(ge, np.inf, np.where(lt, np.nextafter(value, -np.inf), value))
        index = np.arange(R.shape[1])
        return _PolicyState(
            lhs=base + R[..., 0].astype(np.int64),
            den=base + R[..., 1].astype(np.int64),
            lo=lo,
            hi=hi,
            prob=R[..., 4],
            touches=R[..., 5] > 0.5,
            over_budget=(index >= P[:, :1]) & (index < P[:, 2:3]),
        )

    def decide_batch(self, P, state, view):
        slots = len(P)
        X = np.empty((slots, len(self.FIELDS)))  # columns in FIELDS order
        X[:, :4] = (1.0, view.t, view.params.rounds - view.t, view.params.rounds - view.t - 1)
        if view.t == 0:
            X[:, 4:7] = np.nan
        else:
            X[:, 4] = view.opp_coop
            X[:, 5] = view.opp_rate
            X[:, 6] = view.prev_c
        X[:, 7] = np.nan if view.stock_frac is None else view.stock_frac
        flat = X.ravel()
        num, den = flat[state.lhs], flat[state.den]
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = num / den
        match = (lhs >= state.lo) & (lhs <= state.hi)
        zero_den = (den == 0.0) & ~np.isnan(num)
        trap = zero_den | state.touches if view.stock_frac is None else zero_den
        fault = trap | state.over_budget
        stop = match | fault
        first = stop.argmax(axis=1)
        rows = np.arange(slots)
        faulted = fault[rows, first]
        if faulted.any():
            slot = int(faulted.argmax())
            self._raise_fault(P, state, view, slot, int(first[slot]))
        prob = np.where(stop[rows, first], state.prob[rows, first], P[:, 1])
        return view.u < prob

    @staticmethod
    def _raise_fault(P, state: _PolicyState, view: SlotView, slot: int, rule: int):
        if state.over_budget[slot, rule]:
            raise SlotFault(
                slot, "step_budget",
                f"exceeded {int(P[slot, 0])} predicate evaluations in one decision",
            )
        # the interpreter's exception type and message
        if view.stock_frac is None and state.touches[slot, rule]:
            detail = "PolicyEvaluationError: stock_frac is undefined outside the common-pool game"
        else:
            detail = "ZeroDivisionError: float division by zero"
        raise SlotFault(slot, "exception", f"{detail} (rule {rule})")


FAMILIES: dict[str, KernelFamily] = {
    fam.name: fam
    for fam in (
        Constant(),
        Bernoulli(),
        ThresholdTrigger(),
        Reciprocator(),
        Grim(),
        Endgame(),
        StockGuardian(),
        Rota(),
        PolicyTable(),
    )
}


def kernel_strategy(
    family: str,
    *params: float,
    label: str | None = None,
    origin: str = "parametric",
) -> Strategy:
    """Build a Strategy from a named family and its parameter vector."""
    if family not in FAMILIES:
        raise ValueError(f"unknown strategy family {family!r}")
    if family == PolicyTable.name:
        raise ValueError("policy tables are compiled from policy files by policy_strategy")
    fam = FAMILIES[family]
    vec = tuple(float(p) for p in params)
    fam.validate(vec)
    if label is None:
        label = f"{family}({', '.join(repr(p) for p in vec)})"

    def decide(obs: Observation, rng: np.random.Generator) -> Action:
        return fam.decide_one(vec, obs, rng)

    return Strategy(label=label, origin=origin, decide=decide, kernel=(family, vec))


def make_reference(
    spec: str, *, p: float | None = None, t: int | None = None
) -> Strategy:
    """Construct one of the named reference strategies.

    ``spec`` is one of ``allc``, ``alld``, ``rnd`` (requires ``p`` in
    [0, 1]), ``cc`` or ``cd`` (require a non-negative integer threshold
    ``t``). ``cc(t)`` cooperates in round 0 and then cooperates iff at least
    ``t`` opponents cooperated in the previous round; ``cd(t)`` defects in
    round 0 and then defects iff at least ``t`` opponents cooperated.
    """
    name = spec.strip().lower()
    if name == "allc":
        return kernel_strategy("constant", 1.0, label="AllC", origin="reference")
    if name == "alld":
        return kernel_strategy("constant", 0.0, label="AllD", origin="reference")
    if name == "rnd":
        if p is None:
            raise ValueError("rnd requires probability p")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rnd probability must be in [0, 1], got {p}")
        return kernel_strategy("bernoulli", p, label=f"Rnd({p:g})", origin="reference")
    if name in ("cc", "cd"):
        if t is None:
            raise ValueError(f"{name} requires threshold t")
        if t < 0 or int(t) != t:
            raise ValueError(f"threshold must be a non-negative integer, got {t}")
        if name == "cc":
            return kernel_strategy(
                "threshold_trigger", 1.0, float(t), 1.0,
                label=f"CC({t})", origin="reference",
            )
        return kernel_strategy(
            "threshold_trigger", 0.0, float(t), 0.0,
            label=f"CD({t})", origin="reference",
        )
    raise ValueError(f"unknown reference strategy {spec!r}")


def default_reference_overlay(n_players: int) -> list[Strategy]:
    """The standard comparison set: constants, coin flips at several biases,
    and the threshold triggers at every feasible threshold."""
    refs = [make_reference("allc"), make_reference("alld")]
    refs += [make_reference("rnd", p=p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    refs += [make_reference("cc", t=t) for t in range(n_players)]
    refs += [make_reference("cd", t=t) for t in range(n_players)]
    return refs
