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
that depth's nodes (in node order, which fixes each strategy's draws), a
stack holds as many as the engine's stack budget allows, strategy-major,
each strategy's ``(node, rollout)`` rows node-major. A family whose
``reads`` hold neither ``u`` nor ``rng`` draws no randomness, so every
rollout of a node would repeat the same game: such a family plays each
node once, and that game's action is the node's value. Each strategy still
draws from its own random stream, in the order it would alone: depth by
depth, chunk by chunk, round by round. A strategy without a kernel plays as
the engine's ``callable`` family, one ``decide`` call per row on the
``Observation`` a per-decision replay would build. Of several faulting
strategies, the lowest-listed one's lone fault is raised.

Variation within and between labelled sets of fingerprints is summarised by
the normalised mean pairwise distance, Cohen's d between set centroids, and
the participation ratio of the covariance eigenvalues.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine
from .engine import CALLABLE, MemberTable, StrategyFault, decide_group
from .games import GameKind, GameParams, batch_round_payoffs, cpr_next_stock
from .kernels import KernelFamily, SlotFault, SlotView
from .manifest import write_csv
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


# Rows of one strategy's chunk of a depth's nodes, at ``rollouts`` rows per
# node: a deeper depth is cut into chunks in node order, and a strategy draws
# chunk by chunk, so these caps fix the draws of drawing and kernel-less
# strategies. How many strategies share a stack is the engine's budget's call.
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
    than a chunk holds is split into chunks of nodes, in node order. A
    family whose ``reads`` hold neither ``u`` nor ``rng`` has one row per
    node instead, since its rollouts would all repeat one game. Row
    ``i`` is game ``i`` with the subject as player 0; opponent identities
    within a forced count are assigned to the lowest opponent indices. For
    the common-pool game the stock along a branch is recomputed from the
    forced counts plus the subject's own actions. Each view holds only the
    fields the subject's family reads: ``u`` is one uniform per row each
    round from the stream. A strategy without a kernel plays as the
    ``callable`` family, which alone reads each row's slot, the stream
    (``rng``) and the previous round's (rows, n) actions besides the
    forced observables: the subject's own, then opponents 1..n-1, the
    first ``count`` cooperating.

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

    For each family, depth and chunk of nodes, a stack holds as many of the
    family's strategies as ``engine.STACK_WORDS`` fits at ``block_words``'
    charge for their rows as one-slot games (one at least), strategy-major.
    Chunks are cut at ``rollouts`` rows per node, though a family that
    draws nothing plays each node once. Each round,
    ``u`` holds each strategy's ``rng.random(rows)`` in turn, and a
    ``callable`` row draws from its own strategy's generator, so every
    stream is drawn depth by depth, chunk by chunk, round by round, as it
    would be alone.

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
    forced_by_depth = {  # (nodes, depth) forced counts, built once for every family
        depth: np.array([nodes[i].counts for i in index], np.int64).reshape(len(index), depth)
        for depth, index in sorted(by_depth.items())
    }

    table = MemberTable.compile(strategies, warn=False)
    rngs = [rng_for(seed) for seed in seeds]
    values = np.empty((len(strategies), len(nodes)), dtype=float)
    for code, family in enumerate(table.families):
        members = np.flatnonzero(table.family == code)
        # a family that draws nothing plays every rollout of a node alike
        plays = rollouts if {"u", "rng"} & set(family.reads) else 1
        limit = _CALLABLE_STACK_ROWS if family is CALLABLE else _STACK_ROWS
        per_chunk = max(1, limit // rollouts)
        row_words = engine.block_words(table, params)(members[:1, None])  # a one-slot game
        for depth, forced in forced_by_depth.items():
            for start in range(0, len(forced), per_chunk):
                index = by_depth[depth][start : start + per_chunk]
                chunk = _NodeChunk(forced[start : start + per_chunk], plays, kind, params)
                per_batch = max(1, engine.STACK_WORDS // (row_words * chunk.rows))
                for first in range(0, len(members), per_batch):
                    batch = members[first : first + per_batch]
                    P = np.repeat(table.params[code][table.row[batch]], chunk.rows, axis=0)
                    try:
                        acts = chunk.play(family, P, [rngs[m] for m in batch])
                    except SlotFault as fault:
                        at, row = divmod(fault.slot, chunk.rows)
                        c = int(batch[at])  # the culprit: those listed before it go first
                        _fingerprint_rows(strategies[:c], seeds[:c], kind, params, nodes, rollouts)
                        node = nodes[index[row // plays]].column_name()
                        raise StrategyFault(
                            table.labels[c], 0, fault.round, fault.reason,
                            f"{fault.detail} (at fingerprint node {node})",
                        ) from fault
                    values[batch[:, None], index] = acts.reshape(
                        len(batch), len(index), plays
                    ).mean(axis=2)
    return values


class _NodeChunk:
    """The forced histories of a chunk of nodes at one depth, shared by
    every stack of a family that plays them: ``rows`` rows per strategy,
    node-major with ``plays`` rows per node (the rollouts, or one for a
    family that draws nothing)."""

    def __init__(self, counts: np.ndarray, plays: int, kind: GameKind, params: GameParams):
        self.counts = counts  # (nodes, depth)
        self.opp_coop = counts.astype(float)
        self.opp_rate = np.cumsum(counts, axis=1) / (
            (params.n - 1) * np.arange(1, counts.shape[1] + 1)
        )
        self.plays = plays
        self.rows = len(counts) * plays
        self.kind = kind
        self.params = params

    def column(self, per_node: np.ndarray, t: int, strategies: int) -> np.ndarray:
        """Round ``t``'s column of a per-node array, one entry per row of a
        stack of ``strategies`` strategies."""
        shape = (strategies, len(per_node), self.plays)
        return np.broadcast_to(per_node[None, :, t, None], shape).ravel()

    def play(
        self, family: KernelFamily, P: np.ndarray, draws: list[np.random.Generator]
    ) -> np.ndarray:
        """Play a stack of ``len(draws)`` strategies, ``draws`` holding each
        one's generator in stack order, to the chunk's depth; returns the
        last round's actions, or raises the first ``SlotFault``."""
        params, n, rows = self.params, self.params.n, len(P)
        depth, strategies = self.counts.shape[1], len(draws)
        state = family.new_state(P)
        stock = np.full(rows, params.capacity) if self.kind is GameKind.COMMON_POOL else None
        reads = frozenset(family.reads)
        view = SlotView(t=0, kind=self.kind, params=params)  # refilled every round
        if "rng" in reads:
            view.rng = [rng for rng in draws for _ in range(self.rows)]
        if "col" in reads:
            view.col = np.zeros(rows, dtype=np.int64)
        if "slots" in reads:
            view.slots = np.arange(rows) * n  # each row is a game of its own, at player 0
        acts = last = payoffs = None
        for t in range(depth + 1):
            view.t = t
            if "u" in reads:
                view.u = np.empty(rows)
                for rng, u in zip(draws, view.u.reshape(strategies, -1)):
                    rng.random(out=u)
            if stock is not None and "stock_frac" in reads:
                view.stock_frac = stock / params.capacity
            if "stock" in reads:
                view.stock = stock
            if t:  # the rest are undefined in round 0
                if "prev_c" in reads:
                    view.prev_c = acts
                if "opp_coop" in reads:
                    view.opp_coop = self.column(self.opp_coop, t - 1, strategies)
                if "opp_rate" in reads:
                    view.opp_rate = self.column(self.opp_rate, t - 1, strategies)
                if "last" in reads:
                    view.last = last
                if "last_payoffs" in reads:
                    view.last_payoffs = payoffs
            acts = decide_group(family, P, state, view)
            if t < depth and (stock is not None or "last" in reads):
                forced = self.column(self.counts, t, strategies)
                if "last" in reads:  # the round as played, for a family that keeps the history
                    last = np.column_stack((acts, np.arange(1, n) <= forced[:, None]))
                    payoffs, stock = batch_round_payoffs(self.kind, params, last, stock)
                else:
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
    write_csv(path, ["node", "depth", "counts"],
              ((i, node.depth, node.column_name()) for i, node in enumerate(nodes)))


def write_fingerprint_csv(
    labels: Sequence[str],
    matrix: np.ndarray,
    nodes: Sequence[DecisionNode],
    path: str | Path,
) -> None:
    """Feature matrix CSV: one row per strategy, canonical node columns."""
    rows = np.asarray(matrix, dtype=float).tolist()
    write_csv(path, ["label"] + [f"node_{i:03d}" for i in range(len(nodes))],
              ([label, *row] for label, row in zip(labels, rows)))


def write_projections_csv(
    labels: Sequence[str],
    sets: Sequence[str],
    projections: np.ndarray,
    path: str | Path,
) -> None:
    projections = np.asarray(projections, dtype=float)
    dims = min(2, projections.shape[1]) if projections.size else 0
    write_csv(path, ["label", "set"] + [f"pc{i + 1}" for i in range(dims)],
              ([label, group, *row] for label, group, row
               in zip(labels, sets, projections[:, :dims].tolist())))


def _indented_json(obj: dict | list, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)``, indented by ``pad``, for a dict or list
    whose leaves are lists of numbers. ``indent`` would send every number
    through json's pure-Python encoder; here each list of numbers goes
    through its C encoder, and since no number json writes holds ``", "``,
    splitting there gives the indented layout."""
    if not obj:
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        body = f",\n{inner}".join(
            f"{json.dumps(key)}: {_indented_json(value, inner)}" for key, value in obj.items()
        )
    elif isinstance(obj[0], list):
        body = f",\n{inner}".join(_indented_json(value, inner) for value in obj)
    else:
        body = json.dumps(obj)[1:-1].replace(", ", f",\n{inner}")
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


def write_pca_json(result: PcaResult, path: str | Path) -> None:
    """``result.to_dict()`` as ``json.dumps(..., indent=2)`` writes it, plus a
    newline."""
    Path(path).write_text(_indented_json(result.to_dict()) + "\n")
