"""Built-in strategy families, each written once, as a batched decider.

Each family's ``decide_batch`` works on arrays over many (game, player)
slots at once; every game plays it, from one ``play_game`` to grids with
tens of thousands of games and group sizes in the hundreds. A kernel
strategy is its family and parameter row, with no ``decide`` of its own;
the per-decision twins that the tests compare the kernels with are in
``tests/reference.py``. The ``policy`` family's rows are rule tables
compiled from policy files; its members keep the rule interpreter in
``policy`` as their ``decide``.

A family that draws names ``u`` in its ``reads``: one uniform per slot per
round, drawn by the engine.

Kernel state: ``decide_batch`` is called once per round, from round 0 on,
on the state ``new_state`` made for the same rows of ``P``. A family keeps
in that state whatever does not change between rounds (thresholds, flags,
schedule positions), so a round pays only for what changes; constants that
need the group size or a slot's ``col`` are filled from the round-0 view.

Views: a driver builds each group's ``SlotView`` once per stack and refills
it every round, some arrays in place, so a family must not keep a view's
arrays across rounds; it copies what it keeps. The array ``decide_batch``
returns is the engine's from then on (next round's ``prev_c``), so it must
be a new one, not part of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .games import GameKind, GameParams
from .strategies import Strategy

_EPS = 1e-9


class KernelError(RuntimeError):
    """A kernel was asked to decide in a game it cannot play."""


class SlotFault(RuntimeError):
    """One slot of a ``decide_batch`` call misbehaved.

    ``slot`` indexes the rows of the call's parameter matrix; ``reason`` is
    a ``StrategyFault`` reason (``exception``, ``step_budget`` or
    ``invalid_action``); ``decide_group`` stamps its ``round``. The engine
    maps the slot back to its strategy, game and player.
    """

    def __init__(self, slot: int, reason: str, detail: str, round: int | None = None):
        self.slot = slot
        self.reason = reason
        self.detail = detail
        self.round = round
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
    reads ``opp_coop``, ``opp_rate`` and ``prev_c`` like a kernel, and its
    games' histories besides: ``slots`` holds each slot's flat ``game * n +
    player`` index, ``last`` and ``last_payoffs`` the previous round's
    (games, n) actions and payoffs, None in round 0, ``stock`` each game's
    stock at the start of the round, None outside the common-pool game, and
    ``rng`` each slot's generator.

    A driver builds a group's view once per stack, with the fields that
    stay fixed (``slots``, ``col``, ``rng``), and each round sets ``t`` and
    refills the round's fields, in place or with new arrays.
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
    last_payoffs: np.ndarray | None = None
    stock: np.ndarray | None = None
    rng: Sequence[np.random.Generator] | None = None


# Words per slot that a stack holds for each SlotView field a family reads:
# ``u`` the slot's share of the round's draws, its group's copy and its
# place in the draws; ``opp_coop`` and ``stock_frac`` the field and the
# slot's game; ``opp_rate`` those and the slot's own count; ``last_payoffs``
# the round's payoffs, kept for the next.
FIELD_WORDS = {
    "u": 3, "opp_coop": 2, "opp_rate": 3, "stock_frac": 2, "col": 1, "rng": 1,
    "last_payoffs": 1,
}


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
        """Stack parameter vectors into the (slots, params) matrix, once per
        compiled pool, that ``new_state`` and ``decide_batch`` read; a
        family whose rows differ in width pads them here."""
        return np.asarray(rows, dtype=float)

    def new_state(self, P: np.ndarray):
        """Per-run working state for the slots whose parameters are ``P``:
        one per run, handed to every ``decide_batch`` call from round 0."""
        return None

    def slot_words(self, width: int, params: GameParams) -> int:
        """Words one slot of this family holds in a stack of games of shape
        ``params``, beyond the engine's own arrays: its parameter row,
        ``width`` words wide, the ``FIELD_WORDS`` of the fields it reads,
        and its state and one round's temporaries, one word unless a family
        says otherwise."""
        return width + 1 + sum(FIELD_WORDS.get(name, 0) for name in self.reads)

    def decide_batch(self, P: np.ndarray, state, view: SlotView) -> np.ndarray:
        """One round's decisions, a new bool array with one entry per row
        of ``P``. Called once per round from round 0 on ``new_state(P)``;
        the round-0 call may fill the state's constants that need
        ``view.params`` or ``view.col``. ``view`` is the same object every
        round, refilled, so its arrays are valid for this call only."""
        raise NotImplementedError


class Constant(KernelFamily):
    """Always cooperate (c=1) or always defect (c=0)."""

    name = "constant"
    param_names = ("cooperate",)

    def validate(self, params):
        super().validate(params)
        if params[0] not in (0.0, 1.0):
            raise ValueError(f"constant cooperate flag must be 0 or 1, got {params[0]}")

    def new_state(self, P):
        return P[:, 0] >= 0.5

    def slot_words(self, width, params):
        return width  # a byte of state, and no temporaries

    def decide_batch(self, P, state, view):
        return state.copy()


class Bernoulli(KernelFamily):
    """Cooperate with probability p each round, independently."""

    name = "bernoulli"
    param_names = ("p",)
    reads = ("u",)

    def validate(self, params):
        super().validate(params)
        if not 0.0 <= params[0] <= 1.0:
            raise ValueError(f"bernoulli p must be in [0, 1], got {params[0]}")

    def new_state(self, P):
        return P[:, 0].copy()

    def decide_batch(self, P, state, view):
        return view.u < state


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

    def new_state(self, P):
        return SimpleNamespace(
            first=P[:, 0] >= 0.5, threshold=P[:, 1].copy(), sense=P[:, 2] >= 0.5
        )

    def decide_batch(self, P, state, view):
        if view.t == 0:
            return state.first.copy()
        meets = view.opp_coop >= state.threshold
        return meets == state.sense


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

    def new_state(self, P):
        return SimpleNamespace(limit=None, forgive=P[:, 1].copy())

    def slot_words(self, width, params):
        return super().slot_words(width, params) + 1  # a second state array

    def decide_batch(self, P, state, view):
        if view.t == 0:
            state.limit = P[:, 0] * (view.params.n - 1) - _EPS
            return np.ones(len(P), dtype=bool)
        meets = view.opp_coop >= state.limit
        return meets | (view.u < state.forgive)


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

    def new_state(self, P):
        return SimpleNamespace(limit=None, broken=np.zeros(len(P), dtype=bool))

    def decide_batch(self, P, state, view):
        n_opp = view.params.n - 1
        if view.t == 0:
            state.limit = P[:, 0] * n_opp + _EPS
        else:
            state.broken |= (n_opp - view.opp_coop) > state.limit
        return ~state.broken


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

    def new_state(self, P):
        return SimpleNamespace(horizon=P[:, 0].copy(), limit=None)

    def slot_words(self, width, params):
        return super().slot_words(width, params) + 1  # a second state array

    def decide_batch(self, P, state, view):
        closing = (view.params.rounds - view.t) <= state.horizon
        if view.t == 0:
            state.limit = P[:, 1] * (view.params.n - 1) - _EPS
            base = np.ones(len(P), dtype=bool)
        else:
            base = view.opp_coop >= state.limit
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

    def new_state(self, P):
        return P[:, 0] - _EPS

    def decide_batch(self, P, state, view):
        if view.stock_frac is None:
            raise KernelError("stock_guardian requires a common-pool game")
        return view.stock_frac >= state


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

    def new_state(self, P):
        punish = P[:, 2] >= 0.5
        return SimpleNamespace(
            period=P[:, 0].astype(np.int64), phase=P[:, 1].astype(np.int64),
            punish=punish, punishing=bool(punish.any()),
        )

    def slot_words(self, width, params):
        # five state arrays, some filled in round 0, and the punishing
        # slots' expected counts
        return super().slot_words(width, params) + 4

    def decide_batch(self, P, state, view):
        # ``since`` counts the rounds since the slot was last on duty, (t +
        # col - phase) mod period, and is 0 on duty. The players on duty in
        # round t are those j = ahead (mod period), ahead = (phase - t) mod
        # period; with n = whole * period + extra, whole + (ahead < extra)
        # of them. Both residues step by one a round, with a wrap.
        if view.t == 0:
            state.since = (view.col - state.phase) % state.period
            if state.punishing:
                state.ahead = state.phase.copy()
                state.top = state.period - 1  # where ``ahead`` wraps to
                whole, state.extra = np.divmod(view.params.n, state.period)
                # a float, like the opponent counts it is compared with
                state.whole = whole.astype(float)
            return state.since == 0
        punished = None
        if state.punishing:
            # last round's schedule, less the slot itself if it was on duty,
            # all in the dtype of ``opp_coop``
            expected = np.subtract(state.ahead < state.extra, state.since == 0, dtype=float)
            expected += state.whole
            state.ahead -= 1
            np.putmask(state.ahead, state.ahead < 0, state.top)
            punished = state.punish & (view.opp_coop < expected)
        state.since += 1
        on_duty = state.since == state.period
        state.since[on_duty] = 0
        return on_duty if punished is None else on_duty & ~punished


@dataclass
class _PolicyState:
    """The per-run state of a stack of rule tables. ``X`` is the round's
    field-major observable matrix, (fields, slots), kept and refilled every
    round; ``lhs``/``den`` index it flattened, one entry per rule of each
    slot. ``lo``, ``hi`` and ``prob`` are (slots, rules) copies of the
    records' columns, and ``row_start`` is where each slot's rules start in
    them flattened. ``traps`` marks the rules that fault whatever they read;
    round 0 fills it, once the game is known."""

    X: np.ndarray
    lhs: np.ndarray
    den: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    prob: np.ndarray
    row_start: np.ndarray
    default_prob: np.ndarray
    traps: np.ndarray | None = None


class PolicyTable(KernelFamily):
    """Policy-file members compiled to first-match rule tables.

    A member's parameter row, as ``row`` writes it, is the header
    ``(step_budget, default_prob)`` followed by one record per rule, laid
    out as ``RECORD_LAYOUT``: the left-hand field, the denominator field
    (``one`` for every op except ``ratio_ge``), the closed interval
    ``lo..hi`` of left-hand values on which the comparison holds, the
    cooperation probability, and a trap code: ``TRAP_ALWAYS`` for a rule at
    or past the step budget, and otherwise ``TRAP_OUTSIDE_CPR`` for a rule
    that reads ``stock_frac``. Fields index ``FIELDS``. The rule
    interpreter in ``policy`` is the per-decision form of the same rules.
    ``stack`` pads the tables to the longest with ``_PAD_RULE``.

    ``decide_batch`` evaluates every rule of every slot at once against a
    (fields, slots) matrix of observables in which undefined fields are NaN,
    so their comparisons fail as the interpreter's ``None`` checks do. The
    first rule that matches or traps stops a slot; faults fire only at that
    rule, exactly where the interpreter would raise: a rule index at or past
    the step budget (``step_budget``), a ``stock_frac`` rule outside the
    common-pool game, or a zero denominator with both ratio fields defined
    (both ``exception``). Every slot reads its uniform whatever its
    probability, so 0 and 1 still decide deterministically.
    """

    name = "policy"
    param_names = ("step_budget", "default_prob")
    reads = ("opp_coop", "opp_rate", "prev_c", "stock_frac", "u")
    RECORD_LAYOUT = ("lhs", "den", "lo", "hi", "cooperate_prob", "trap")
    FIELDS = (
        "one", "round", "rounds_left", "rounds_left_after",
        "last_opp_coop", "opp_coop_rate", "my_last_c", "stock_frac",
    )
    # each comparison with a value v as the closed interval of left-hand
    # values on which it holds; lhs < v is lhs <= (the float below v)
    _INTERVALS = {
        "eq": lambda v: (v, v),
        "lt": lambda v: (-math.inf, math.nextafter(v, -math.inf)),
        "ge": lambda v: (v, math.inf),
        "le": lambda v: (-math.inf, v),
    }
    COMPARISONS = tuple(_INTERVALS)
    TRAP_OUTSIDE_CPR, TRAP_ALWAYS = 1.0, 2.0
    # "NaN <= one <= NaN" never holds, and the rule never traps
    _PAD_RULE = (0.0, 0.0, np.nan, np.nan, 0.0, 0.0)
    _FIELD_CODES = {name: float(i) for i, name in enumerate(FIELDS)}

    @classmethod
    def row(cls, step_budget: int, default_prob: float, rules) -> tuple[float, ...]:
        """A rule table's parameter row. ``rules`` holds ``(lhs, den,
        comparison, value, cooperate_prob)`` with field and comparison
        names."""
        fields = cls._FIELD_CODES
        row = [float(step_budget), float(default_prob)]
        for i, (lhs, den, cmp, value, prob) in enumerate(rules):
            lo, hi = cls._INTERVALS[cmp](float(value))
            if i >= step_budget:
                trap = cls.TRAP_ALWAYS
            else:
                trap = cls.TRAP_OUTSIDE_CPR if "stock_frac" in (lhs, den) else 0.0
            row += (fields[lhs], fields[den], lo, hi, float(prob), trap)
        return tuple(row)

    def slot_words(self, width, params):
        # per rule: five state arrays, and the round's two float temporaries
        # and its masks; and a column of the observable matrix
        rules = (width - len(self.param_names)) // len(self.RECORD_LAYOUT)
        return super().slot_words(width, params) + 8 * rules + len(self.FIELDS)

    def stack(self, rows):
        """Pad the tables to the longest (at least one rule) and stack them."""
        pad = self._PAD_RULE
        width = max(len(self.param_names) + len(pad), *map(len, rows))
        return np.array([row + pad * ((width - len(row)) // len(pad)) for row in rows])

    def _records(self, P):
        """The (slots, rules, RECORD_LAYOUT) view of a stack's rules."""
        return P[:, len(self.param_names):].reshape(len(P), -1, len(self.RECORD_LAYOUT))

    def new_state(self, P):
        slots, records = len(P), self._records(P)
        col = np.arange(slots)[:, None]  # field f of slot s is X[f, s]
        X = np.empty((len(self.FIELDS), slots))
        X[0] = 1.0
        return _PolicyState(
            X=X,
            lhs=records[..., 0].astype(np.intp) * slots + col,
            den=records[..., 1].astype(np.intp) * slots + col,
            lo=np.ascontiguousarray(records[..., 2]),
            hi=np.ascontiguousarray(records[..., 3]),
            prob=np.ascontiguousarray(records[..., 4]),
            row_start=np.arange(slots) * records.shape[1],
            default_prob=P[:, 1].copy(),
        )

    def decide_batch(self, P, state, view):
        X, t = state.X, view.t  # rows in FIELDS order
        X[1], X[2], X[3] = t, view.params.rounds - t, view.params.rounds - t - 1
        if t == 0:
            X[4:] = np.nan
            limit = self.TRAP_OUTSIDE_CPR if view.stock_frac is None else self.TRAP_ALWAYS
            state.traps = self._records(P)[..., 5] >= limit
        else:
            X[4], X[5], X[6] = view.opp_coop, view.opp_rate, view.prev_c
        if view.stock_frac is not None:
            X[7] = view.stock_frac
        flat = X.ravel()
        lhs, den = flat.take(state.lhs), flat.take(state.den)
        fault = (den == 0.0) & (lhs == lhs)  # a zero denominator, the numerator defined
        fault |= state.traps
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs /= den
        stop = lhs >= state.lo
        stop &= lhs <= state.hi
        stop |= fault
        first = stop.argmax(axis=1)
        at = state.row_start + first  # each slot's first stopping rule, flattened
        faulted = fault.take(at)
        if faulted.any():
            slot = int(faulted.argmax())
            self._raise_fault(P, view, slot, int(first[slot]))
        prob = np.where(stop.take(at), state.prob.take(at), state.default_prob)
        return view.u < prob

    def _raise_fault(self, P, view: SlotView, slot: int, rule: int):
        trap = self._records(P)[slot, rule, 5]
        if trap == self.TRAP_ALWAYS:
            raise SlotFault(
                slot, "step_budget",
                f"exceeded {int(P[slot, 0])} predicate evaluations in one decision",
            )
        # the interpreter's exception type and message
        if view.stock_frac is None and trap == self.TRAP_OUTSIDE_CPR:
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
    return Strategy(label=label, origin=origin, kernel=(family, vec))


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
        return kernel_strategy("bernoulli", p, label=f"Rnd({p:g})", origin="reference")
    if name in ("cc", "cd"):
        if t is None:
            raise ValueError(f"{name} requires threshold t")
        # cc opens and reacts by cooperating, cd by defecting
        first_c = sense = 1.0 if name == "cc" else 0.0
        return kernel_strategy("threshold_trigger", first_c, float(t), sense,
                               label=f"{name.upper()}({t})", origin="reference")
    raise ValueError(f"unknown reference strategy {spec!r}")


def default_reference_overlay(n_players: int) -> list[Strategy]:
    """The standard comparison set: constants, coin flips at several biases,
    and the threshold triggers at every feasible threshold."""
    refs = [make_reference("allc"), make_reference("alld")]
    refs += [make_reference("rnd", p=p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    refs += [make_reference("cc", t=t) for t in range(n_players)]
    refs += [make_reference("cd", t=t) for t in range(n_players)]
    return refs
