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

One driver fingerprints a list of strategies. The strategies of one kernel
family share stacks: for each depth, from the root down, and each chunk of
that depth's nodes (in node order, so that a stack stays bounded), a stack
holds a batch of them, strategy-major, each strategy's ``(node, rollout)``
rows node-major. Each strategy still draws from its own random stream, in
the order it would alone: depth by depth, chunk by chunk, round by round. A
strategy without a kernel plays as the engine's ``callable`` family, one
``decide`` call per row on the ``Observation`` a per-decision replay would
build. ``_fingerprint_node_scalar`` is that per-decision replay, kept as the
reference: deterministic strategies give identical values on both, faults
included. Of several faulting strategies, the lowest-listed one's lone fault
is raised.

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
from .kernels import KernelFamily, SlotFault, SlotView
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
# keeps its own history (about 3.5 KB at n=8), so its stacks are smaller. The
# same bound caps the rows of all strategies that share a stack.
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

    Deterministic given the seed, which seeds the strategy's one stream.
    The nodes of each depth are replayed together, one row per (node,
    rollout), node-major, depths in increasing order; a depth with more rows
    than a stack holds is split into chunks of nodes, in node order. Row
    ``i`` is game ``i`` with the subject as player 0; opponent identities
    within a forced count are assigned to the lowest opponent indices. For
    the common-pool game the stock along a branch is recomputed from the
    forced counts plus the subject's own actions. Each view holds only the
    fields the subject's family reads: ``u`` is one uniform per row each
    round from the stream. A strategy without a kernel plays as the
    ``callable`` family, which alone reads each row's slot, the stream
    (``rng``) and the previous round's (rows, n) actions: the subject's
    own, then opponents 1..n-1, the first ``count`` cooperating.

    This is ``fingerprint_many``'s driver on a list of one. There the
    strategies of a family share stacks, and each keeps its own stream and
    draw order, so its row is what this call returns.
    """
    return _fingerprint_rows([strategy], [seed], kind, params, nodes, rollouts)[0]


def fingerprint_many(
    strategies: Sequence[Strategy],
    kind: GameKind,
    params: GameParams,
    nodes: Sequence[DecisionNode],
    rollouts: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Fingerprints for a list of strategies: shape (len(strategies), nodes).

    Row ``i`` is ``fingerprint`` on seed ``derive_seed(seed, i)``, bit for
    bit. A strategy that faults raises the ``StrategyFault`` its own
    ``fingerprint`` call would; of several, the lowest-listed one's.
    """
    seeds = [derive_seed(seed, i) for i in range(len(strategies))]
    return _fingerprint_rows(strategies, seeds, kind, params, nodes, rollouts)


def _fingerprint_rows(
    strategies: Sequence[Strategy],
    seeds: Sequence[int],
    kind: GameKind,
    params: GameParams,
    nodes: Sequence[DecisionNode],
    rollouts: int,
) -> np.ndarray:
    """The one driver: strategy ``i`` draws from ``rng_for(seeds[i])``.

    For each family, depth and chunk of nodes, a stack holds a batch of
    the family's strategies, strategy-major, within the family's stack
    rows. Each round, ``u`` holds each strategy's ``rng.random(rows)`` in
    turn, and a ``callable`` row draws from its own strategy's generator,
    so every stream is drawn depth by depth, chunk by chunk, round by round,
    as it would be alone.

    When a stack faults at strategy ``c``, the strategies listed before it
    play again on their own, from fresh streams, and raise the first fault
    of the lowest-listed one that faults; if none does, ``c``'s fault is
    raised, the one its lone call raises.
    """
    params.validate_for(kind)
    if rollouts < 1:
        raise ValueError(f"rollouts must be >= 1, got {rollouts}")
    depths = np.array([node.depth for node in nodes], dtype=np.int64)
    max_depth = int(depths.max(initial=0))
    if max_depth >= params.rounds:
        raise ValueError(
            f"nodes reach depth {max_depth} but the game has {params.rounds} rounds"
        )
    counts = np.fromiter(itertools.chain.from_iterable(node.counts for node in nodes), np.int64)
    bad = (counts < 0) | (counts > params.n - 1)
    if bad.any():
        node = nodes[np.repeat(np.arange(len(nodes)), depths)[bad.argmax()]]
        raise ValueError(f"node {node.counts} has counts outside 0..{params.n - 1}")
    by_depth: dict[int, list[int]] = {}
    for i, node in enumerate(nodes):
        by_depth.setdefault(node.depth, []).append(i)

    table = MemberTable.compile(strategies, warn=False)
    rngs = [rng_for(seed) for seed in seeds]
    values = np.empty((len(strategies), len(nodes)), dtype=float)
    for code, family in enumerate(table.families):
        members = np.flatnonzero(table.family == code)
        limit = _CALLABLE_STACK_ROWS if family is CALLABLE else _STACK_ROWS
        per_stack = max(1, limit // rollouts)
        for depth in sorted(by_depth):
            for start in range(0, len(by_depth[depth]), per_stack):
                index = by_depth[depth][start : start + per_stack]
                forced = np.array([nodes[i].counts for i in index], dtype=np.int64)
                chunk = _NodeChunk(forced, rollouts, kind, params)
                per_batch = max(1, limit // chunk.rows)
                for first in range(0, len(members), per_batch):
                    batch = members[first : first + per_batch]
                    P = np.repeat(table.params[code][table.row[batch]], chunk.rows, axis=0)
                    try:
                        acts = chunk.play(family, P, [rngs[m] for m in batch])
                    except SlotFault as fault:
                        at, row = divmod(fault.slot, chunk.rows)
                        c = int(batch[at])  # the culprit: those listed before it go first
                        _fingerprint_rows(strategies[:c], seeds[:c], kind, params, nodes, rollouts)
                        node = nodes[index[row // rollouts]].column_name()
                        raise StrategyFault(
                            table.labels[c], 0, fault.round, fault.reason,
                            f"{fault.detail} (at fingerprint node {node})",
                        ) from fault
                    values[batch[:, None], index] = acts.reshape(
                        len(batch), len(index), rollouts
                    ).mean(axis=2)
    return values


class _NodeChunk:
    """The forced histories of a chunk of nodes at one depth, built once
    and shared by every stack that plays them: ``rows`` rows per strategy,
    node-major with ``rollouts`` rows per node."""

    def __init__(self, counts: np.ndarray, rollouts: int, kind: GameKind, params: GameParams):
        self.counts = counts  # (nodes, depth)
        self.opp_coop = counts.astype(float)
        self.opp_rate = np.cumsum(counts, axis=1) / (
            (params.n - 1) * np.arange(1, counts.shape[1] + 1)
        )
        self.rollouts = rollouts
        self.rows = len(counts) * rollouts
        self.kind = kind
        self.params = params

    def column(self, per_node: np.ndarray, t: int, strategies: int) -> np.ndarray:
        """Round ``t``'s column of a per-node array, one entry per row of a
        stack of ``strategies`` strategies."""
        shape = (strategies, len(per_node), self.rollouts)
        return np.broadcast_to(per_node[None, :, t, None], shape).ravel()

    def play(
        self, family: KernelFamily, P: np.ndarray, draws: list[np.random.Generator]
    ) -> np.ndarray:
        """Play a stack of ``len(draws)`` strategies, ``draws`` holding each
        one's generator in stack order, to the chunk's depth; returns the
        last round's actions, or raises the first ``SlotFault`` with its
        round as ``round``."""
        params, n, rows = self.params, self.params.n, len(P)
        depth, strategies = self.counts.shape[1], len(draws)
        state = family.new_state(P)
        stock = np.full(rows, params.capacity) if self.kind is GameKind.COMMON_POOL else None
        acts = None
        for t in range(depth + 1):
            view = SlotView(t=t, kind=self.kind, params=params)
            for name in family.reads:
                if name == "u":
                    view.u = np.empty(rows)
                    for rng, u in zip(draws, view.u.reshape(strategies, -1)):
                        rng.random(out=u)
                elif name == "rng":
                    view.rng = [rng for rng in draws for _ in range(self.rows)]
                elif name == "col":
                    view.col = np.zeros(rows, dtype=np.int64)
                elif name == "slots":
                    view.slots = np.arange(rows) * n
                elif name == "stock_frac":
                    view.stock_frac = None if stock is None else stock / params.capacity
                elif t == 0:
                    continue  # the rest are undefined in round 0
                elif name == "prev_c":
                    view.prev_c = acts
                elif name == "opp_coop":
                    view.opp_coop = self.column(self.opp_coop, t - 1, strategies)
                elif name == "opp_rate":
                    view.opp_rate = self.column(self.opp_rate, t - 1, strategies)
                elif name == "last":
                    forced = self.column(self.counts, t - 1, strategies)
                    view.last = np.column_stack((acts, np.arange(1, n) <= forced[:, None]))
            try:
                acts = decide_group(family, P, state, view)
            except SlotFault as fault:
                fault.round = t
                raise
            if stock is not None and t < depth:
                forced = self.column(self.counts, t, strategies)
                stock = cpr_next_stock(stock, forced + acts, params)
        return acts


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
    """Principal components of mean-centered data via a thin SVD of the
    (samples, d) data, never forming the d x d covariance: the eigenvalues
    are the squared singular values over ``samples - 1``. Components whose
    eigenvalues are at round-off are an arbitrary orthonormal basis of the
    remaining subspace."""
    X = _as_matrix(vectors, 2)
    n, d = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    k = min(n - 1, d)
    eigenvalues = s[:k] ** 2 / (n - 1)
    components = vt[:k]
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
) -> None:
    dims = min(2, projections.shape[1]) if projections.size else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "set"] + [f"pc{i + 1}" for i in range(dims)])
        for label, group, row in zip(labels, sets, projections):
            writer.writerow([label, group] + [repr(float(v)) for v in row[:dims]])


def write_pca_json(result: PcaResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
