"""The three social dilemma games: payoffs, round records, and game results.

All three games are simultaneous-move, binary-action (cooperate/defect) and
symmetric in the players. Payoffs are short rational expressions of the
cooperator count, so they are computed in double precision and, for the
parameter grids used in tests, often exactly.

``batch_round_payoffs`` is the one implementation of the payoffs, over a
stack of games. The engine plays it; the per-action worked examples
``pgg_payoffs``, ``crd_payoffs`` and ``cpr_round`` and the welfare-bound
scan in ``bounds`` call it on their own rows.

Games:
  * public goods: contributions are scaled by ``k`` and shared equally;
    defectors additionally keep their endowment.
  * collective risk: everyone receives benefit ``k`` only if at least ``m``
    players cooperate; defectors keep their endowment either way.
  * common pool: a regenerating stock; defectors extract twice the restrained
    share, and over-extraction can collapse the stock irreversibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np


class GameKind(Enum):
    """Which social dilemma is being played."""

    PUBLIC_GOODS = "pgg"
    COLLECTIVE_RISK = "crd"
    COMMON_POOL = "cpr"

    @classmethod
    def parse(cls, name: str) -> "GameKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise GameConfigError(f"unknown game kind {name!r}; expected one of: {valid}")


class Action(Enum):
    """A single binary choice: cooperate or defect."""

    C = "C"
    D = "D"


class GameConfigError(ValueError):
    """Invalid game parameters or malformed game configuration; ``key``
    names the ``GameParams`` field at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class GameParams:
    """Parameters shared by the three games.

    ``k`` is the payoff parameter: the public-goods multiplication factor or
    the collective-risk benefit. The common-pool game does not use ``k``; its
    carrying capacity is the separate ``capacity`` field (default ``4 * n``)
    to avoid overloading one symbol with two meanings. ``m`` is the
    collective-risk cooperator threshold and defaults to ``n // 2``.
    """

    n: int
    rounds: int = 20
    k: float = 2.0
    m: int = field(default=-1)
    capacity: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.m == -1:
            object.__setattr__(self, "m", self.n // 2)
        if self.capacity == -1.0:
            object.__setattr__(self, "capacity", 4.0 * self.n)

    def validate_for(self, kind: GameKind) -> None:
        """Raise GameConfigError if the parameters are invalid for ``kind``."""
        if self.n < 2:
            raise GameConfigError(f"player count must be >= 2, got {self.n}", "n")
        if self.rounds < 1:
            raise GameConfigError(f"round count must be >= 1, got {self.rounds}", "rounds")
        if kind is GameKind.PUBLIC_GOODS and not 1 < self.k < self.n:
            raise GameConfigError(
                f"public goods requires 1 < k < n, got k={self.k}, n={self.n}", "k"
            )
        if kind is GameKind.COLLECTIVE_RISK and not 1 <= self.m <= self.n:
            raise GameConfigError(
                f"collective risk requires 1 <= m <= n, got m={self.m}, n={self.n}", "m"
            )
        if kind is GameKind.COLLECTIVE_RISK and not math.isfinite(self.k):
            raise GameConfigError(f"collective risk requires a finite k, got k={self.k}", "k")
        if kind is GameKind.COMMON_POOL and not 0 < self.capacity < math.inf:
            raise GameConfigError(
                f"common pool requires a finite capacity > 0, got capacity={self.capacity}",
                "capacity",
            )


@dataclass(frozen=True)
class RoundRecord:
    """One completed round: everyone's action and payoff, plus CPR stock."""

    actions: tuple[Action, ...]
    payoffs: tuple[float, ...]
    stock_before: float | None = None
    stock_after: float | None = None


def _check_actions(actions: Sequence[Action], n: int) -> None:
    if len(actions) != n:
        raise GameConfigError(f"expected {n} actions, got {len(actions)}")
    for a in actions:
        if not isinstance(a, Action):
            raise GameConfigError(f"invalid action {a!r}")


def cpr_next_stock(
    stock: float | np.ndarray, n_c: int | np.ndarray, params: GameParams
) -> float | np.ndarray:
    """Stock after extraction by ``n_c`` cooperators plus logistic regrowth.

    ``stock`` and ``n_c`` are numbers or arrays that broadcast together.
    """
    remaining = stock * n_c / (2 * params.n)
    grown = remaining + 2.0 * remaining * (1.0 - remaining / params.capacity)
    return np.minimum(grown, params.capacity)


# ---------------------------------------------------------------------------
# The payoff arithmetic, over a stack of games (bool cooperation matrices).
# ---------------------------------------------------------------------------


def row_counts(a: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2-D array of bools or whole numbers, as floats.

    Exact: every partial sum is a whole number far below 2**53. Several
    times faster than a bool ``sum(axis=1)`` on the short rows of small
    groups, and as fast on long ones.
    """
    return a.astype(float, copy=False) @ np.ones(a.shape[1])


def batch_round_payoffs(
    kind: GameKind,
    params: GameParams,
    coop: np.ndarray,
    stock: np.ndarray | None,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Payoffs for one round of S parallel games.

    ``coop`` is a bool array of shape (S, n); ``stock`` is shape (S,) for the
    common-pool game, None otherwise. ``counts`` is each game's cooperator
    count, ``row_counts(coop)``, for a caller that keeps it; it is computed
    when None. This is the one implementation of the payoffs: the engine
    plays it, and the per-action functions below and the welfare-bound scan
    call it on their rows. The stock regrows through ``cpr_next_stock``.
    """
    n = params.n
    if counts is None:
        counts = row_counts(coop)
    defect = ~coop
    if kind is GameKind.PUBLIC_GOODS:
        share = (counts * params.k) / n
        return share[:, None] + defect, None
    if kind is GameKind.COLLECTIVE_RISK:
        met = counts >= params.m
        return met[:, None] * params.k + defect, None
    assert stock is not None
    share = stock / (2 * n)
    payoffs = share[:, None] * (1.0 + defect)
    return payoffs, cpr_next_stock(stock, counts, params)


# ---------------------------------------------------------------------------
# Public per-action payoff operations: one-row calls of the batch form.
# ---------------------------------------------------------------------------


def _one_round(
    kind: GameKind, params: GameParams, actions: Sequence[Action], stock: float | None = None
) -> tuple[list[float], float | None]:
    """Check one round's inputs and play it as a one-row stack; returns the
    payoffs as Python floats and the next stock as a float (None outside the
    common-pool game)."""
    params.validate_for(kind)
    if stock is not None and not 0.0 <= stock <= params.capacity:
        raise GameConfigError(f"stock {stock} outside [0, {params.capacity}]")
    _check_actions(actions, params.n)
    row = np.array([[a is Action.C for a in actions]])
    stocks = None if stock is None else np.array([stock], dtype=float)
    payoffs, next_stock = batch_round_payoffs(kind, params, row, stocks)
    return payoffs[0].astype(float).tolist(), None if next_stock is None else float(next_stock[0])


def pgg_payoffs(actions: Sequence[Action], params: GameParams) -> list[float]:
    """Public-goods payoffs: everyone gets ``n_c * k / n``, defectors +1."""
    return _one_round(GameKind.PUBLIC_GOODS, params, actions)[0]


def crd_payoffs(actions: Sequence[Action], params: GameParams) -> list[float]:
    """Collective-risk payoffs: benefit ``k`` iff ``n_c >= m``, defectors +1."""
    return _one_round(GameKind.COLLECTIVE_RISK, params, actions)[0]


def cpr_round(
    actions: Sequence[Action], stock: float, params: GameParams
) -> tuple[list[float], float]:
    """Common-pool payoffs for one round plus the regrown stock.

    Cooperators extract ``stock / 2n``, defectors twice that. The stock left
    after extraction is ``stock * n_c / 2n`` and regrows logistically, capped
    at the carrying capacity.
    """
    return _one_round(GameKind.COMMON_POOL, params, actions, stock)


# ---------------------------------------------------------------------------
# Game results.
# ---------------------------------------------------------------------------


@dataclass
class GameResult:
    """A completed iterated game.

    Round data is held as arrays (shape ``(rounds, n)``); ``rounds_list``
    materialises per-round records on demand. ``normalized`` is each player's
    total divided by the number of rounds, and ``mean_welfare`` is the grand
    total divided by players times rounds.
    """

    kind: GameKind
    params: GameParams
    coop: np.ndarray  # bool (rounds, n)
    payoffs: np.ndarray  # float (rounds, n)
    stocks: np.ndarray | None  # float (rounds + 1,) for CPR, else None
    # round-by-round accumulated player totals; the engine fills this so that
    # a game played alone and inside a stack aggregates in the same order
    player_totals: np.ndarray
    _rounds: list[RoundRecord] | None = field(default=None, repr=False)

    @property
    def rounds_list(self) -> list[RoundRecord]:
        if self._rounds is None:
            records = []
            for t in range(self.params.rounds):
                acts = tuple(Action.C if c else Action.D for c in self.coop[t])
                pays = tuple(float(p) for p in self.payoffs[t])
                if self.stocks is not None:
                    rec = RoundRecord(acts, pays, float(self.stocks[t]), float(self.stocks[t + 1]))
                else:
                    rec = RoundRecord(acts, pays)
                records.append(rec)
            self._rounds = records
        return self._rounds

    @property
    def totals(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.player_totals)

    @property
    def normalized(self) -> tuple[float, ...]:
        r = self.params.rounds
        return tuple(float(x) / r for x in self.player_totals)

    @property
    def mean_welfare(self) -> float:
        return float(self.player_totals.sum()) / (self.params.n * self.params.rounds)

    def to_dict(self) -> dict:
        """JSON-ready document; see docs/formats.md for the schema."""
        rounds = []
        for t, rec in enumerate(self.rounds_list):
            row: dict = {
                "round": t,
                "actions": "".join(a.value for a in rec.actions),
                "payoffs": list(rec.payoffs),
            }
            if rec.stock_before is not None:
                row["stock_before"] = rec.stock_before
                row["stock_after"] = rec.stock_after
            rounds.append(row)
        return {
            "schema_version": 1,
            "game": self.kind.value,
            "n": self.params.n,
            "rounds": self.params.rounds,
            "k": self.params.k,
            "m": self.params.m,
            "capacity": self.params.capacity,
            "totals": list(self.totals),
            "normalized": list(self.normalized),
            "mean_welfare": self.mean_welfare,
            "round_data": rounds,
        }
