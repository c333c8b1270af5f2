"""Behavioral fingerprints over forced opponent histories, plus PCA and the
variation metrics.

A strategy's fingerprint evaluates its cooperation rate at every decision
node: a node is an opponent history summarised, round by round, as the
opponent cooperator count (player identities carry no information in these
symmetric games). For each node the subject replays the branch several
times, generating its own past actions while the opponents' counts are
forced, and the feature value is the fraction of replays in which the
subject cooperates at the node's round. Stochastic strategies and strategies
that condition on their own history make the replays non-trivial.

One driver replays all nodes of one depth together, as one stack of
``(nodes at that depth) x rollouts`` rows, node-major; very large depths are
split into stacks of bounded size, in node order. It draws
from one random stream per strategy, consumed depth by depth from the root
down. A strategy with a kernel decides for the whole stack through its
family; a strategy without one plays as the engine's ``callable`` family,
one ``decide`` call per row on the ``Observation`` a per-decision replay
would build. ``_fingerprint_node_scalar`` is that per-decision replay, kept
as the reference: deterministic strategies give identical values on both,
faults included.

Variation within and between labelled sets of fingerprints is summarised by
the normalised mean pairwise distance, Cohen's d between set centroids, and
the participation ratio of the covariance eigenvalues.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import (
    CALLABLE,
    HistoryAccumulator,
    MemberTable,
    StrategyFault,
    decide_checked,
    decide_group,
)
from .games import Action, GameKind, GameParams, cpr_next_stock
from .kernels import SlotFault, SlotView
from .seeding import derive_seed, rng_for
from .strategies import Strategy


@dataclass(frozen=True)
class DecisionNode:
    """A depth and a forced opponent-cooperator count per elapsed round."""

    depth: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.depth:
            raise ValueError("counts length must equal depth")

    def column_name(self) -> str:
        return "root" if not self.counts else ".".join(str(c) for c in self.counts)


def enumerate_nodes(n_players: int = 4, rounds: int = 5) -> list[DecisionNode]:
    """All decision nodes, breadth-first, lexicographic within a depth.

    With ``n_players - 1`` opponents there are ``n_players`` possible counts
    per round, so there are ``sum(n_players ** t for t in range(rounds))``
    nodes.
    """
    if n_players < 2:
        raise ValueError(f"n_players must be >= 2, got {n_players}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    nodes = []
    for depth in range(rounds):
        for counts in itertools.product(range(n_players), repeat=depth):
            nodes.append(DecisionNode(depth, counts))
    return nodes


def _forced_opponent_actions(count: int, n: int) -> list[Action]:
    # opponents occupy indices 1..n-1; the first `count` of them cooperate
    return [Action.C] * count + [Action.D] * (n - 1 - count)


def _fingerprint_node_scalar(
    strategy: Strategy,
    kind: GameKind,
    params: GameParams,
    node: DecisionNode,
    rollouts: int,
    rng: np.random.Generator,
) -> float:
    cooperations = 0
    for _ in range(rollouts):
        acc = HistoryAccumulator(kind, params)
        for forced in node.counts:
            own = decide_checked(strategy, acc.observation_for(0), rng, 0)
            acc.push_round(
                [own is Action.C] + [a is Action.C for a in _forced_opponent_actions(forced, params.n)]
            )
        final = decide_checked(strategy, acc.observation_for(0), rng, 0)
        if final is Action.C:
            cooperations += 1
    return cooperations / rollouts


# Rows per stack; deeper levels of large games are split into several stacks,
# in node order, so memory stays bounded. A row of a strategy without a kernel
# keeps its own history (about 3.5 KB at n=8), so its stacks are smaller.
_STACK_ROWS = 1 << 16
_CALLABLE_STACK_ROWS = 1 << 12


def fingerprint(
    strategy: Strategy,
    kind: GameKind,
    params: GameParams,
    nodes: Sequence[DecisionNode],
    rollouts: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Cooperation rate at every node; entries in [0, 1].

    Deterministic given the seed. The nodes of each depth are replayed
    together, one row per (node, rollout), node-major, depths in increasing
    order on one stream. Row ``i`` is game ``i`` with the subject as player
    0; opponent identities within a forced count are assigned to the lowest
    opponent indices. For the common-pool game the stock along a branch is
    recomputed from the forced counts plus the subject's own actions. Each
    view holds only the fields the subject's family reads: ``u`` is one
    uniform per row each round from the stream. A strategy without a kernel
    plays as the ``callable`` family, which alone reads each row's slot, the
    stream (``rng``) and the previous round's (rows, n) actions: the
    subject's own, then opponents 1..n-1, the first ``count`` cooperating.
    """
    params.validate_for(kind)
    if rollouts < 1:
        raise ValueError(f"rollouts must be >= 1, got {rollouts}")
    max_depth = max((node.depth for node in nodes), default=0)
    if max_depth >= params.rounds:
        raise ValueError(
            f"nodes reach depth {max_depth} but the game has {params.rounds} rounds"
        )
    for node in nodes:
        if any(not 0 <= c <= params.n - 1 for c in node.counts):
            raise ValueError(f"node {node.counts} has counts outside 0..{params.n - 1}")
    table = MemberTable.compile([strategy], warn=False)
    family, row = table.families[0], table.params[0]
    per_decision = family is CALLABLE
    rng = rng_for(seed)
    n = params.n
    is_cpr = kind is GameKind.COMMON_POOL
    by_depth: dict[int, list[int]] = {}
    for i, node in enumerate(nodes):
        by_depth.setdefault(node.depth, []).append(i)
    per_stack = max(1, (_CALLABLE_STACK_ROWS if per_decision else _STACK_ROWS) // rollouts)
    values = np.empty(len(nodes), dtype=float)
    for depth in sorted(by_depth):
        for start in range(0, len(by_depth[depth]), per_stack):
            index = by_depth[depth][start : start + per_stack]
            slots = len(index) * rollouts
            counts = np.array([nodes[i].counts for i in index], dtype=np.int64)
            forced = np.repeat(counts, rollouts, axis=0)  # (slots, depth)
            forced_sum = np.cumsum(forced, axis=1)
            P = np.repeat(row, slots, axis=0)
            state = family.new_state(P)
            col = np.zeros(slots, dtype=np.int64)
            stock = np.full(slots, params.capacity) if is_cpr else None
            acts = None
            for t in range(depth + 1):
                view = SlotView(t=t, kind=kind, params=params)
                for name in family.reads:
                    if name == "u":
                        view.u = rng.random(slots)
                    elif name == "rng":
                        view.rng = [rng] * slots
                    elif name == "col":
                        view.col = col
                    elif name == "slots":
                        view.slots = np.arange(slots) * n
                    elif name == "stock_frac":
                        view.stock_frac = None if stock is None else stock / params.capacity
                    elif t == 0:
                        continue  # the rest are undefined in round 0
                    elif name == "prev_c":
                        view.prev_c = acts
                    elif name == "opp_coop":
                        view.opp_coop = forced[:, t - 1].astype(float)
                    elif name == "opp_rate":
                        view.opp_rate = forced_sum[:, t - 1] / ((n - 1) * t)
                    elif name == "last":
                        opponents = np.arange(1, n) <= forced[:, t - 1, None]
                        view.last = np.column_stack((acts, opponents))
                try:
                    acts = decide_group(family, P, state, view)
                except SlotFault as fault:
                    node = nodes[index[fault.slot // rollouts]]
                    detail = f"{fault.detail} (at fingerprint node {node.column_name()})"
                    raise StrategyFault(strategy.label, 0, t, fault.reason, detail)
                if is_cpr and t < depth:
                    stock = cpr_next_stock(stock, forced[:, t] + acts, params)
            values[index] = acts.reshape(len(index), rollouts).mean(axis=1)
    return values


def fingerprint_many(
    strategies: Sequence[Strategy],
    kind: GameKind,
    params: GameParams,
    nodes: Sequence[DecisionNode],
    rollouts: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Fingerprints for a list of strategies: shape (len(strategies), nodes).

    Row ``i`` is ``fingerprint`` on seed ``derive_seed(seed, i)``.
    """
    rows = [
        fingerprint(strategy, kind, params, nodes, rollouts, derive_seed(seed, i))
        for i, strategy in enumerate(strategies)
    ]
    return np.vstack(rows) if rows else np.empty((0, len(nodes)))


# ---------------------------------------------------------------------------
# PCA.
# ---------------------------------------------------------------------------


@dataclass
class PcaResult:
    """Eigendecomposition of the sample covariance of the input vectors.

    Eigenvalues are non-increasing and non-negative, at most
    ``min(samples - 1, dimension)`` of them. Components are orthonormal rows
    with a fixed sign convention (coordinate sum positive) so projections are
    reproducible across runs.
    """

    eigenvalues: np.ndarray
    components: np.ndarray  # (k, d)
    explained_ratios: np.ndarray
    projections: np.ndarray  # (n_samples, k)
    mean: np.ndarray

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "explained_ratios": self.explained_ratios.tolist(),
            "components": self.components.tolist(),
            "mean": self.mean.tolist(),
        }


def _as_matrix(vectors: Sequence[np.ndarray] | np.ndarray, min_rows: int) -> np.ndarray:
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if len(rows) < min_rows:
        raise ValueError(f"need at least {min_rows} vectors, got {len(rows)}")
    dim = rows[0].shape
    if len(dim) != 1:
        raise ValueError("vectors must be one-dimensional")
    for v in rows:
        if v.shape != dim:
            raise ValueError(f"dimension mismatch: {v.shape} vs {dim}")
    return np.vstack(rows)


def pca(vectors: Sequence[np.ndarray] | np.ndarray) -> PcaResult:
    """Principal components of mean-centered data via a symmetric eigensolver."""
    X = _as_matrix(vectors, 2)
    n, d = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    k = min(n - 1, d)
    eigenvalues = np.clip(eigenvalues[order][:k], 0.0, None)
    components = eigenvectors[:, order[:k]].T
    # sign convention: positive coordinate sum, falling back to the largest
    # magnitude coordinate for components that sum to ~0
    for row in components:
        total = row.sum()
        if abs(total) > 1e-12:
            if total < 0:
                row *= -1.0
        elif row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total_var = eigenvalues.sum()
    ratios = eigenvalues / total_var if total_var > 0 else np.zeros_like(eigenvalues)
    projections = centered @ components.T
    return PcaResult(eigenvalues, components, ratios, projections, mean)


# ---------------------------------------------------------------------------
# Variation metrics.
# ---------------------------------------------------------------------------


def mpd(vectors: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean pairwise Euclidean distance, normalised by ``sqrt(d / 6)``.

    The normaliser is the root mean squared distance between i.i.d.
    uniform[0, 1] vectors, so a diverse set of feature vectors scores near 1.
    """
    X = _as_matrix(vectors, 2)
    n, d = X.shape
    sq = (X * X).sum(axis=1)
    block = max(1, int(4_000_000 // max(1, n)))
    total = 0.0
    for start in range(0, n, block):
        end = min(start + block, n)
        d2 = sq[start:end, None] + sq[None, :] - 2.0 * (X[start:end] @ X.T)
        dist = np.sqrt(np.maximum(d2, 0.0))
        for local, i in enumerate(range(start, end)):
            total += float(dist[local, i + 1 :].sum())
    pairs = n * (n - 1) / 2
    return float((total / pairs) / np.sqrt(d / 6.0))


def cohens_d(set_a: Sequence[np.ndarray], set_b: Sequence[np.ndarray]) -> float:
    """Centroid distance over pooled within-set standard deviation.

    The within-set variance is the mean squared distance of members to their
    own centroid (the trace of the set's covariance). Two point-mass sets
    have no scale to compare against, so that case is an error.
    """
    A = _as_matrix(set_a, 2)
    B = _as_matrix(set_b, 2)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    centroid_a = A.mean(axis=0)
    centroid_b = B.mean(axis=0)
    var_a = float(((A - centroid_a) ** 2).sum(axis=1).mean())
    var_b = float(((B - centroid_b) ** 2).sum(axis=1).mean())
    pooled = np.sqrt((var_a + var_b) / 2.0)
    if pooled == 0.0:
        raise ValueError("undefined separation: both sets have zero within-set variance")
    return float(np.linalg.norm(centroid_a - centroid_b) / pooled)


def participation_ratio(eigenvalues: Sequence[float] | np.ndarray) -> float:
    """Effective dimensionality: (sum of eigenvalues)^2 / sum of squares."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative and non-empty")
    total = lam.sum()
    if total == 0:
        raise ValueError("all eigenvalues are zero")
    return float(total * total / (lam * lam).sum())


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def write_nodes_csv(nodes: Sequence[DecisionNode], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "depth", "counts"])
        for i, node in enumerate(nodes):
            writer.writerow([i, node.depth, node.column_name()])


def write_fingerprint_csv(
    labels: Sequence[str],
    matrix: np.ndarray,
    nodes: Sequence[DecisionNode],
    path: str | Path,
) -> None:
    """Feature matrix CSV: one row per strategy, canonical node columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"node_{i:03d}" for i in range(len(nodes))])
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])


def write_projections_csv(
    labels: Sequence[str],
    sets: Sequence[str],
    projections: np.ndarray,
    path: str | Path,
    dims: int = 2,
) -> None:
    dims = min(dims, projections.shape[1]) if projections.size else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "set"] + [f"pc{i + 1}" for i in range(dims)])
        for label, group, row in zip(labels, sets, projections):
            writer.writerow([label, group] + [repr(float(v)) for v in row[:dims]])


def write_pca_json(result: PcaResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
