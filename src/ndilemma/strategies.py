"""Strategy and observation types.

A strategy is a value object holding a kernel (a family and its parameter
row), a decision rule ``(Observation, rng) -> Action`` that plays one
decision at a time, or, for a policy member, both. Decision rules see
only completed rounds (actions and payoffs) plus the common-pool stock; the
in-progress round is never observable, which is what makes the games
simultaneous-move. Strategies must be reproducible given the random stream
and must not retain state across games; the engine hands each decision a
fresh ``Observation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .games import Action, GameKind, GameParams, RoundRecord


class Attitude(Enum):
    """High-level directive a strategy pool was built under."""

    COLLECTIVE = "collective"
    EXPLOITATIVE = "exploitative"

    @classmethod
    def parse(cls, name: str) -> "Attitude":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown attitude {name!r}; expected one of: {valid}")


@dataclass(slots=True)
class Observation:
    """Everything a strategy may condition on when choosing an action.

    ``history`` is the tuple of completed rounds (length equals
    ``round_index``). The remaining fields are the derived observables that
    most decision rules actually use, precomputed by the engine:

    * ``opp_coop_last``: how many opponents cooperated in the previous round
      (None in round 0).
    * ``opp_coop_rate``: fraction of opponent decisions so far that were
      cooperative (None in round 0).
    * ``my_last_action``: this player's previous action (None in round 0).
    * ``current_stock``: the common-pool stock entering this round (None for
      the other games).

    The engine may reuse observation objects; strategies must not hold
    references across calls.
    """

    kind: GameKind
    params: GameParams
    round_index: int
    my_index: int
    history: tuple[RoundRecord, ...]
    current_stock: float | None = None
    opp_coop_last: int | None = None
    opp_coop_rate: float | None = None
    my_last_action: Action | None = None

    @property
    def n_players(self) -> int:
        return self.params.n

    @property
    def rounds_left(self) -> int:
        """Rounds still to be played, counting the current one."""
        return self.params.rounds - self.round_index

    @property
    def stock_fraction(self) -> float | None:
        if self.current_stock is None:
            return None
        return self.current_stock / self.params.capacity


DecideFn = Callable[[Observation, np.random.Generator], Action]


@dataclass(frozen=True)
class Strategy:
    """A labelled strategy: a vectorisable kernel, a decision rule, or both.

    ``kernel`` is ``(family_name, params)`` for strategies drawn from the
    built-in parametric families and for policy-file members (family
    ``policy``, whose params are the compiled rule table); the engine uses
    it to run whole stacks of games as array operations, and a strategy
    with a kernel always plays it. There is one engine: a strategy without
    a kernel, such as a user-written callable, plays inside the same stacks
    as the ``callable`` family, which calls ``decide`` once per decision.
    A built-in member's ``decide`` is None; a policy member's is the rule
    interpreter.
    """

    label: str
    origin: str  # "reference" | "parametric" | "file"
    decide: DecideFn | None = None
    kernel: tuple[str, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.decide is None and self.kernel is None:
            raise ValueError(f"strategy {self.label!r} has neither a decide nor a kernel")


@dataclass(frozen=True)
class StrategyPool:
    """A labelled collection of strategies sharing a tag and an attitude.

    The (gene_tag, attitude) pair identifies the pool in evolution runs and
    analysis output. Draws return member indices; group draws sample without
    replacement, so the pool must be at least as large as the largest
    requested group.
    """

    gene_tag: str
    attitude: Attitude
    members: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ValueError(f"pool {self.gene_tag!r} has no members")

    def __len__(self) -> int:
        return len(self.members)

    def sample_without_replacement(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of ``count`` distinct members."""
        if count > len(self.members):
            raise ValueError(
                f"pool {self.gene_tag!r}/{self.attitude.value} has "
                f"{len(self.members)} members; cannot draw {count} without replacement"
            )
        return rng.choice(len(self.members), size=count, replace=False)

    def sample_one(self, rng: np.random.Generator) -> int:
        """Index of one member, drawn uniformly."""
        return int(rng.integers(len(self.members)))
