"""Bounds on mean welfare over all joint action sequences.

Public-goods and collective-risk payoffs are round-separable, so their
bounds come from an exact scan over the per-round cooperator count.

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

from .games import GameKind, GameParams, crd_payoff_pair, pgg_payoff_pair


@dataclass(frozen=True)
class WelfareBounds:
    """Minimum and maximum achievable mean welfare for a game setup."""

    min_mean: float
    max_mean: float
    method: str

    def span(self) -> float:
        return self.max_mean - self.min_mean


def _round_mean_welfare(kind: GameKind, params: GameParams, n_c: int) -> float:
    """Mean per-player payoff of a single round with ``n_c`` cooperators."""
    n = params.n
    if kind is GameKind.PUBLIC_GOODS:
        pay_c, pay_d = pgg_payoff_pair(n_c, params)
    else:
        pay_c, pay_d = crd_payoff_pair(n_c, params)
    return (n_c * pay_c + (n - n_c) * pay_d) / n


def welfare_bounds(kind: GameKind, params: GameParams) -> WelfareBounds:
    """Bounds on ``mean_welfare`` over every possible way to play the game."""
    params.validate_for(kind)
    if kind in (GameKind.PUBLIC_GOODS, GameKind.COLLECTIVE_RISK):
        per_round = [_round_mean_welfare(kind, params, n_c) for n_c in range(params.n + 1)]
        return WelfareBounds(min(per_round), max(per_round), "scan")
    c, n, r = params.capacity, params.n, params.rounds
    min_mean = c / (n * r) if r >= 2 else c / (2 * n)
    max_mean = (c + (r - 1) * c / 2) / (n * r)
    return WelfareBounds(min_mean, max_mean, "closed_form")


@lru_cache(maxsize=128)
def cached_bounds(kind: GameKind, params: GameParams) -> WelfareBounds:
    """Memoised bounds: the self-play grid and every evolution generation ask
    for the same few setups again and again."""
    return welfare_bounds(kind, params)
