"""Bounds on mean welfare over all joint action sequences.

Public-goods and collective-risk payoffs are round-separable, so their
bounds come from an exact scan over the per-round cooperator count: one
``batch_round_payoffs`` call on the n + 1 rows in which the first ``n_c``
players cooperate.

The common-pool game has exact closed-form bounds. Write ``c`` for the
capacity, ``n`` for the players and ``r`` for the rounds. In round t the
stock is S_t (S_1 = c). With ``n_c`` cooperators the stock left after
extraction is x_t = S_t * n_c / 2n, which lies in [0, S_t / 2]; the round's
payoff sum is S_t - x_t, and S_{t+1} = min(f(x_t), c) with
f(x) = 3x - 2x^2 / c.

* Upper bound. Sum_t (S_t - x_t) = S_1 - x_r + Sum_{t<r} (S_{t+1} - x_t),
  which is at most c + (r - 1) * max_x (f(x) - x) = c + (r - 1) * c / 2.
  Everyone cooperating for r - 1 rounds and then defecting reaches it,
  because f(c / 2) = c.
* Lower bound. On [0, c / 2], f(x) >= 2x, so S_2 >= 2 * x_1 and the first
  two harvests are at least (c - x_1) + S_2 / 2 >= c. Everyone defecting in
  round 1 reaches c, because the stock is then 0. With r = 1 the only
  harvest is at least c / 2, and everyone cooperating reaches it.

Dividing the payoff sums by ``n * r`` gives the mean-welfare bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .games import GameKind, GameParams, batch_round_payoffs


@dataclass(frozen=True)
class WelfareBounds:
    """Minimum and maximum achievable mean welfare for a game setup."""

    min_mean: float
    max_mean: float
    method: str

    def span(self) -> float:
        return self.max_mean - self.min_mean


def welfare_bounds(kind: GameKind, params: GameParams) -> WelfareBounds:
    """Bounds on ``mean_welfare`` over every possible way to play the game."""
    params.validate_for(kind)
    if kind in (GameKind.PUBLIC_GOODS, GameKind.COLLECTIVE_RISK):
        n = params.n
        pay, _ = batch_round_payoffs(kind, params, np.tri(n + 1, n, -1, dtype=bool), None)
        # row n_c: player 0 holds the cooperator payoff and player n - 1 the
        # defector payoff wherever that side has members; weighting the two
        # by count, rather than taking a row mean, fixes the rounding of the
        # bounds that grid.csv records with repr
        n_c = np.arange(n + 1)
        per_round = (n_c * pay[:, 0] + (n - n_c) * pay[:, -1]) / n
        return WelfareBounds(float(per_round.min()), float(per_round.max()), "scan")
    c, n, r = params.capacity, params.n, params.rounds
    min_mean = c / (n * r) if r >= 2 else c / (2 * n)
    max_mean = (c + (r - 1) * c / 2) / (n * r)
    return WelfareBounds(min_mean, max_mean, "closed_form")


@lru_cache(maxsize=128)
def cached_bounds(kind: GameKind, params: GameParams) -> WelfareBounds:
    """Memoised bounds: the self-play grid and every evolution generation ask
    for the same few setups again and again."""
    return welfare_bounds(kind, params)
