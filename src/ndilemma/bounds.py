"""Bounds on mean welfare over all joint action sequences.

Public-goods and collective-risk payoffs are round-separable, so their
bounds come from an exact scan over the per-round cooperator count. The
common-pool game carries state (the stock), but payoffs and the stock
recursion depend on actions only through the cooperator count, so the search
space is the count sequences. Those are enumerated exhaustively while
``(n + 1) ** rounds`` fits the budget; above it a width-capped search over
count sequences runs the exact stock recursion round by round, pruning
states that are dominated in (welfare so far, stock). Domination pruning is
sound because future welfare is monotone in the current stock; results from
this path are still labelled approximate because the width cap can bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .games import GameKind, GameParams, cpr_next_stock, crd_payoff_pair, pgg_payoff_pair

DEFAULT_EXHAUSTIVE_BUDGET = 200_000
DEFAULT_BEAM_WIDTH = 4096


@dataclass(frozen=True)
class WelfareBounds:
    """Minimum and maximum achievable mean welfare for a game setup."""

    min_mean: float
    max_mean: float
    approximate: bool
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


def welfare_bounds(
    kind: GameKind,
    params: GameParams,
    exhaustive_budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> WelfareBounds:
    """Bounds on ``mean_welfare`` over every possible way to play the game."""
    params.validate_for(kind)
    if kind in (GameKind.PUBLIC_GOODS, GameKind.COLLECTIVE_RISK):
        per_round = [_round_mean_welfare(kind, params, n_c) for n_c in range(params.n + 1)]
        return WelfareBounds(min(per_round), max(per_round), False, "scan")
    return _cpr_bounds(params, exhaustive_budget, beam_width)


def _cpr_round_sums(stock: np.ndarray, params: GameParams) -> np.ndarray:
    """Total round payoff for each cooperator count: shape (states, n + 1).

    With ``n_c`` cooperators and stock S, the round's payoff sum is
    ``S * (2n - n_c) / 2n``.
    """
    n = params.n
    counts = np.arange(n + 1)
    return stock[:, None] * (2 * n - counts) / (2 * n)


def _prune(welfare: np.ndarray, stock: np.ndarray, maximise: bool, width: int):
    """Drop states dominated in (welfare, stock); cap survivors at ``width``.

    For the maximum, a state is dominated if another has at least its stock
    and at least its welfare; future welfare is monotone in stock, so the
    dominating state can only end better. The minimum case mirrors with both
    inequalities flipped.

    The survivors form a frontier ordered from the preferred stock to the
    preferred welfare. The width cap keeps evenly spaced states along it,
    both ends included: keeping only the best welfare so far would drop the
    full-stock states that an optimum sustaining the stock passes through.
    """
    sign = 1.0 if maximise else -1.0
    order = np.lexsort((sign * -welfare, sign * -stock))
    w = welfare[order]
    s = stock[order]
    # sweep in order of preferred stock; keep states that strictly improve
    # the best welfare seen so far, which also drops duplicates
    key = sign * w
    best = np.maximum.accumulate(key)
    keep = np.empty(len(w), dtype=bool)
    keep[0] = True
    keep[1:] = key[1:] > best[:-1]
    w, s = w[keep], s[keep]
    if len(w) > width:
        spread = np.linspace(0, len(w) - 1, width).round().astype(np.int64)
        w, s = w[spread], s[spread]
    return w, s


def _cpr_bounds(params: GameParams, exhaustive_budget: int, beam_width: int) -> WelfareBounds:
    n, r = params.n, params.rounds
    exhaustive = (n + 1) ** r <= exhaustive_budget
    results = []
    for maximise in (False, True):
        welfare = np.zeros(1)
        stock = np.array([params.capacity])
        for _ in range(r):
            new_welfare = (welfare[:, None] + _cpr_round_sums(stock, params)).ravel()
            # next stock for each cooperator count: shape (states, n + 1)
            new_stock = cpr_next_stock(stock[:, None], np.arange(n + 1), params).ravel()
            if exhaustive:
                welfare, stock = new_welfare, new_stock
            else:
                welfare, stock = _prune(new_welfare, new_stock, maximise, beam_width)
        best = welfare.max() if maximise else welfare.min()
        results.append(float(best) / (n * r))
    method = "exhaustive" if exhaustive else "beam"
    return WelfareBounds(results[0], results[1], not exhaustive, method)


@lru_cache(maxsize=128)
def cached_bounds(kind: GameKind, params: GameParams) -> WelfareBounds:
    """Memoised bounds; the CPR search is worth computing once per setup."""
    return welfare_bounds(kind, params)
