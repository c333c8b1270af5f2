"""Independent oracles for the benchmark's output checks.

Nothing here imports ndilemma. Each function recomputes an expected value
from the game definitions in docs/formats.md, or tests a property the
method must have, so a check never compares against a stored copy of the
program's own output. Every check returns ``None`` when the output passes
and a short reason string when it does not.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

# Floating-point slack for values the program computes by another
# summation order than the oracle does.
EXACT_REL = 1e-12
CPR_REL = 1e-9


def close(actual: float, expected: float, rel: float) -> bool:
    """True when ``actual`` is within ``rel`` of ``expected`` (relative, with
    an absolute floor of ``rel`` for values near zero)."""
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# Public goods: closed form of a cell whose members always cooperate or
# always defect.
# ---------------------------------------------------------------------------


def pgg_mean_welfare(n: int, n_c: int, k: float) -> float:
    """Mean welfare per player and round with ``n_c`` constant cooperators.

    Every round each player receives ``n_c * k / n`` and each of the
    ``n - n_c`` defectors keeps its endowment of 1, so the round total is
    ``n_c * k + n - n_c`` and the mean is ``1 + (k - 1) * n_c / n``.
    """
    return 1.0 + (k - 1.0) * n_c / n


def check_pgg_cell(n: int, n_c: int, k: float, mean_welfare: float) -> str | None:
    expected = pgg_mean_welfare(n, n_c, k)
    if not close(mean_welfare, expected, EXACT_REL):
        return f"pgg n={n} n_c={n_c}: welfare {mean_welfare!r} != closed form {expected!r}"
    return None


# ---------------------------------------------------------------------------
# Common pool: the stock recursion, played out round by round in scalars.
# ---------------------------------------------------------------------------


def cpr_mean_welfare(n: int, n_c: int, rounds: int, capacity: float) -> float:
    """Mean welfare of a common-pool game with ``n_c`` constant cooperators.

    The stock starts at ``capacity``. In a round with stock ``s`` a
    cooperator extracts ``s / 2n`` and a defector twice that; what is left,
    ``s * n_c / 2n``, grows logistically at rate 2 and is capped at the
    capacity.
    """
    stock = capacity
    total = 0.0
    for _ in range(rounds):
        share = stock / (2 * n)
        total += n_c * share + (n - n_c) * 2.0 * share
        left = stock * n_c / (2 * n)
        stock = min(left + 2.0 * left * (1.0 - left / capacity), capacity)
    return total / (n * rounds)


def check_cpr_cell(
    n: int, n_c: int, rounds: int, capacity: float, mean_welfare: float
) -> str | None:
    expected = cpr_mean_welfare(n, n_c, rounds, capacity)
    if not close(mean_welfare, expected, CPR_REL):
        return f"cpr n={n} n_c={n_c}: welfare {mean_welfare!r} != recursion {expected!r}"
    return None


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


def decision_nodes(n_players: int, rounds: int) -> list[tuple[int, ...]]:
    """Forced opponent-cooperator counts of every node: breadth first, then
    lexicographic within a depth, one count in ``0..n_players-1`` per
    elapsed round."""
    return [
        counts
        for depth in range(rounds)
        for counts in itertools.product(range(n_players), repeat=depth)
    ]


def reference_row(name: str, nodes: Sequence[tuple[int, ...]], t: int = 0) -> np.ndarray:
    """Closed-form fingerprint of a deterministic reference strategy.

    ``allc``/``rnd1`` cooperate everywhere and ``alld``/``rnd0`` nowhere.
    ``cc`` cooperates at the root and then iff at least ``t`` opponents
    cooperated in the previous round; ``cd`` defects at the root and then
    defects iff at least ``t`` opponents cooperated.
    """
    if name in ("allc", "rnd1"):
        return np.ones(len(nodes))
    if name in ("alld", "rnd0"):
        return np.zeros(len(nodes))
    if name not in ("cc", "cd"):
        raise ValueError(f"no closed form for {name!r}")
    row = np.empty(len(nodes))
    for i, counts in enumerate(nodes):
        if not counts:
            row[i] = 1.0 if name == "cc" else 0.0
        else:
            met = counts[-1] >= t
            row[i] = float(met) if name == "cc" else float(not met)
    return row


def check_exact_row(row: np.ndarray, expected: np.ndarray) -> str | None:
    if row.shape != expected.shape:
        return f"row has {row.shape[0]} nodes, expected {expected.shape[0]}"
    wrong = np.flatnonzero(row != expected)
    if wrong.size:
        i = int(wrong[0])
        return (f"{wrong.size} nodes off the closed form "
                f"(node {i}: {float(row[i])!r} != {float(expected[i])!r})")
    return None


def check_rollout_grid(row: np.ndarray, rollouts: int) -> str | None:
    """Every node value is a cooperation count over ``rollouts`` replays."""
    if np.any(row < 0.0) or np.any(row > 1.0):
        return "value outside [0, 1]"
    scaled = row * rollouts
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-9):
        return f"value not a multiple of 1/{rollouts}"
    return None


# Node values of a Bernoulli(p) strategy are independent Binomial(rollouts,
# p) / rollouts draws. Each lies outside the central band below with
# probability at most 2 * BAND_TAIL; more than BAND_MISS_SHARE of 341 nodes
# outside it has probability below 1e-8. The row mean must also lie within
# MEAN_SIGMAS standard errors of p.
BAND_TAIL = 0.0015
BAND_MISS_SHARE = 0.03
MEAN_SIGMAS = 6.0


def binomial_band(p: float, rollouts: int, tail: float = BAND_TAIL) -> tuple[float, float]:
    """Smallest and largest cooperation rate with at most ``tail`` of the
    Binomial(rollouts, p) mass below and above them respectively."""
    pmf = [math.comb(rollouts, k) * p**k * (1.0 - p) ** (rollouts - k)
           for k in range(rollouts + 1)]
    lo, below = 0, pmf[0]
    while below <= tail:
        lo += 1
        below += pmf[lo]
    hi, above = rollouts, pmf[rollouts]
    while above <= tail:
        hi -= 1
        above += pmf[hi]
    return lo / rollouts, hi / rollouts


def check_binomial_row(row: np.ndarray, p: float, rollouts: int) -> str | None:
    if p in (0.0, 1.0):
        return check_exact_row(row, np.full(row.shape, p))
    lo, hi = binomial_band(p, rollouts)
    outside = int(((row < lo - 1e-12) | (row > hi + 1e-12)).sum())
    if outside > BAND_MISS_SHARE * row.size:
        return f"{outside}/{row.size} nodes outside the band [{lo}, {hi}] of p={p}"
    mean_sigma = math.sqrt(p * (1.0 - p) / (rollouts * row.size))
    if abs(row.mean() - p) > MEAN_SIGMAS * mean_sigma:
        return f"row mean {row.mean():.4f} too far from p={p}"
    return None


# ---------------------------------------------------------------------------
# PCA and the variation metrics.
# ---------------------------------------------------------------------------


def check_pca(
    matrix: np.ndarray, eigenvalues: np.ndarray, components: np.ndarray
) -> str | None:
    """Eigenvalues non-negative and non-increasing, components orthonormal,
    and the eigenvalues sum to the data's total variance (PCA keeps
    ``min(samples - 1, dimension)`` components, which carry all of it)."""
    if np.any(eigenvalues < 0.0):
        return "negative eigenvalue"
    if np.any(np.diff(eigenvalues) > 1e-12 * max(1.0, float(eigenvalues[0]))):
        return "eigenvalues not non-increasing"
    gram = components @ components.T
    if not np.allclose(gram, np.eye(len(components)), atol=1e-9):
        return "components not orthonormal"
    total = float(matrix.var(axis=0, ddof=1).sum())
    if not close(float(eigenvalues.sum()), total, 1e-9):
        return f"eigenvalues sum to {eigenvalues.sum()!r}, total variance is {total!r}"
    return None


def mean_pairwise_distance(matrix: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs, divided by ``sqrt(d / 6)``."""
    rows, dim = matrix.shape
    dists = [
        math.dist(matrix[i], matrix[j]) for i in range(rows) for j in range(i + 1, rows)
    ]
    return sum(dists) / len(dists) / math.sqrt(dim / 6.0)


def cohens_d(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Centroid distance over the root of the mean within-set variance,
    where a set's variance is its mean squared distance to its centroid."""
    def spread(block: np.ndarray) -> float:
        centre = block.mean(axis=0)
        return float(np.mean([np.dot(r - centre, r - centre) for r in block]))

    gap = math.dist(set_a.mean(axis=0), set_b.mean(axis=0))
    return gap / math.sqrt((spread(set_a) + spread(set_b)) / 2.0)


def participation_ratio(matrix: np.ndarray) -> float:
    """``trace(C)^2 / trace(C^2)`` of the sample covariance ``C``, which
    equals (sum of eigenvalues)^2 / sum of squared eigenvalues without an
    eigensolver."""
    centred = matrix - matrix.mean(axis=0)
    cov = centred.T @ centred / (len(matrix) - 1)
    return float(np.trace(cov) ** 2 / np.sum(cov * cov))


def check_metric(name: str, actual: float, expected: float) -> str | None:
    if not close(actual, expected, 1e-9):
        return f"{name} {actual!r} != independent value {expected!r}"
    return None
