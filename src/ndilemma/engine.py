"""Game execution: the per-decision reference engine and the batched engine.

``play_game`` runs one iterated game, calling each strategy once per round
with a fresh observation; it is the reference semantics and keeps the full
round-by-round record. ``simulate_batch`` runs a stack of games whose
strategies all have kernels (the built-in families and compiled policy
files), advancing every game and player with array operations; it exists
because the self-play grids and cultural-evolution runs need millions of
decisions.

Both paths share the payoff cores in ``games`` and, for deterministic
strategies, produce identical games (asserted by the test suite).

A strategy that raises, exceeds its step budget, or returns a non-action
aborts the game with a ``StrategyFault`` naming the offender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import (
    Action,
    GameKind,
    GameParams,
    GameResult,
    RoundRecord,
    batch_round_payoffs,
    cpr_next_stock,
    cpr_payoff_pair,
    crd_payoff_pair,
    pgg_payoff_pair,
)
from .kernels import FAMILIES, KernelFamily, SlotFault, SlotView
from .policy import StepBudgetExceeded
from .seeding import derive_seed, rng_for
from .strategies import Observation, Strategy


class StrategyFault(RuntimeError):
    """A strategy misbehaved; the game cannot continue.

    ``reason`` is one of ``invalid_action``, ``exception`` (which covers
    trapped rule evaluation) or ``step_budget``.
    """

    def __init__(self, label: str, player: int, round_index: int, reason: str, detail: str):
        self.label = label
        self.player = player
        self.round_index = round_index
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"strategy {label!r} (player {player}, round {round_index}) "
            f"{reason}: {detail}"
        )


class HistoryAccumulator:
    """Incremental game state shared by the scalar engine and fingerprinting.

    Tracks completed rounds plus the running aggregates needed to build
    observations in O(1) per player.
    """

    def __init__(self, kind: GameKind, params: GameParams):
        params.validate_for(kind)
        self.kind = kind
        self.params = params
        self.round_index = 0
        self.history: tuple[RoundRecord, ...] = ()
        self.stock: float | None = params.capacity if kind is GameKind.COMMON_POOL else None
        self._coop_cum = [0] * params.n
        self._total_cum = 0
        self._last_coop: list[bool] | None = None
        self._last_total = 0

    def observation_for(self, player: int) -> Observation:
        t = self.round_index
        if t == 0:
            return Observation(self.kind, self.params, 0, player, self.history, self.stock)
        n = self.params.n
        my_last_c = self._last_coop[player]
        return Observation(
            self.kind,
            self.params,
            t,
            player,
            self.history,
            self.stock,
            opp_coop_last=self._last_total - (1 if my_last_c else 0),
            opp_coop_rate=(self._total_cum - self._coop_cum[player]) / ((n - 1) * t),
            my_last_action=Action.C if my_last_c else Action.D,
        )

    def push_round(self, coop: list[bool]) -> RoundRecord:
        """Record a completed round, computing payoffs and the next stock."""
        params = self.params
        n_c = sum(coop)
        if self.kind is GameKind.PUBLIC_GOODS:
            pay_c, pay_d = pgg_payoff_pair(n_c, params)
            next_stock = None
        elif self.kind is GameKind.COLLECTIVE_RISK:
            pay_c, pay_d = crd_payoff_pair(n_c, params)
            next_stock = None
        else:
            pay_c, pay_d = cpr_payoff_pair(self.stock, params)
            next_stock = cpr_next_stock(self.stock, n_c, params)
        record = RoundRecord(
            actions=tuple(Action.C if c else Action.D for c in coop),
            payoffs=tuple(pay_c if c else pay_d for c in coop),
            stock_before=self.stock,
            stock_after=next_stock,
        )
        self.history = self.history + (record,)
        for i, c in enumerate(coop):
            if c:
                self._coop_cum[i] += 1
        self._total_cum += n_c
        self._last_coop = coop
        self._last_total = n_c
        self.stock = next_stock
        self.round_index += 1
        return record


def decide_checked(
    strategy: Strategy,
    obs: Observation,
    rng: np.random.Generator,
    player: int,
) -> Action:
    """Invoke a strategy's decision rule, converting misbehaviour to faults."""
    try:
        action = strategy.decide(obs, rng)
    except StepBudgetExceeded as exc:
        raise StrategyFault(strategy.label, player, obs.round_index, "step_budget", str(exc))
    except Exception as exc:  # noqa: BLE001 - any strategy error aborts the game
        raise StrategyFault(
            strategy.label, player, obs.round_index, "exception",
            f"{type(exc).__name__}: {exc}",
        )
    if not isinstance(action, Action):
        raise StrategyFault(
            strategy.label, player, obs.round_index, "invalid_action", repr(action)
        )
    return action


def decide_group(
    family: KernelFamily, P: np.ndarray, state, view: SlotView, rng: np.random.Generator
) -> np.ndarray:
    """Run ``family.decide_batch`` with every misbehaviour pinned to a slot.

    Raises ``SlotFault``: the family's own, one at slot 0 for any other
    exception, or ``invalid_action`` at slot 0 unless the result is a bool
    array with one entry per row of ``P``.
    """
    try:
        acts = family.decide_batch(P, state, view, rng)
    except SlotFault:
        raise
    except Exception as exc:  # noqa: BLE001 - any strategy error aborts the game
        raise SlotFault(0, "exception", f"{type(exc).__name__}: {exc}") from exc
    if isinstance(acts, np.ndarray) and acts.dtype == bool and acts.shape == (len(P),):
        return acts
    got = f"{acts.dtype} array of shape {acts.shape}" if isinstance(acts, np.ndarray) else repr(acts)
    raise SlotFault(0, "invalid_action", f"decide_batch returned {got}, expected {len(P)} bools")


def play_game(
    kind: GameKind,
    params: GameParams,
    strategies: list[Strategy],
    seed: int,
) -> GameResult:
    """Run one full iterated game; deterministic given the seed.

    Every round, all strategies observe the completed history and move
    simultaneously. The common-pool stock starts at the carrying capacity.
    """
    if len(strategies) != params.n:
        raise ValueError(f"need {params.n} strategies, got {len(strategies)}")
    acc = HistoryAccumulator(kind, params)
    rng = rng_for(seed)
    n, r = params.n, params.rounds
    coop_mat = np.empty((r, n), dtype=bool)
    payoff_mat = np.empty((r, n), dtype=float)
    totals = np.zeros(n)
    stocks = [acc.stock] if acc.stock is not None else None
    for t in range(r):
        coop = [
            decide_checked(s, acc.observation_for(i), rng, i) is Action.C
            for i, s in enumerate(strategies)
        ]
        record = acc.push_round(coop)
        coop_mat[t] = coop
        payoff_mat[t] = record.payoffs
        totals += payoff_mat[t]
        if stocks is not None:
            stocks.append(record.stock_after)
    stock_arr = np.asarray(stocks) if stocks is not None else None
    return GameResult(kind, params, coop_mat, payoff_mat, stock_arr, player_totals=totals)


# ---------------------------------------------------------------------------
# Batched engine.
# ---------------------------------------------------------------------------


@dataclass
class KernelGroup:
    """All slots of one kernel family within a batch, with stacked params."""

    family: KernelFamily
    params: np.ndarray  # (n_slots, n_params)
    slots: np.ndarray  # flat indices into the (S * n) slot space
    labels: np.ndarray  # (n_slots,) strategy labels
    state: object = None


@dataclass(frozen=True)
class MemberTable:
    """Strategies compiled once into arrays, so lineups are index arrays.

    Member ``m`` plays kernel family ``families[family[m]]`` with parameter
    row ``params[family[m]][row[m]]``; each family's rows are stacked once
    with ``family.stack``, so policy tables are padded once, to the widest
    table. ``family[m]`` is -1 for a member without a kernel, which plays
    ``strategies[m]`` on the per-decision engine.
    """

    strategies: tuple[Strategy, ...]
    labels: np.ndarray  # (members,) object array
    family: np.ndarray  # (members,) family code, -1 without a kernel
    row: np.ndarray  # (members,) row into that family's parameter matrix
    families: tuple[KernelFamily, ...]
    params: tuple[np.ndarray, ...]

    @classmethod
    def compile(cls, strategies: Sequence[Strategy]) -> "MemberTable":
        codes: dict[str, int] = {}
        rows: list[list[tuple[float, ...]]] = []
        family = np.full(len(strategies), -1, dtype=np.int64)
        row = np.zeros(len(strategies), dtype=np.int64)
        for m, strategy in enumerate(strategies):
            if strategy.kernel is None:
                continue
            name, vec = strategy.kernel
            code = codes.setdefault(name, len(codes))
            if code == len(rows):
                rows.append([])
            family[m] = code
            row[m] = len(rows[code])
            rows[code].append(vec)
        families = tuple(FAMILIES[name] for name in codes)
        return cls(
            strategies=tuple(strategies),
            labels=np.array([s.label for s in strategies], dtype=object),
            family=family,
            row=row,
            families=families,
            params=tuple(fam.stack(vecs) for fam, vecs in zip(families, rows)),
        )


def build_groups(members: np.ndarray, table: MemberTable) -> list[KernelGroup] | None:
    """Gather a flat slot-major lineup of member indices into kernel groups.

    Returns None if any member lacks a kernel, in which case callers fall
    back to the per-decision engine. Group order follows each family's first
    appearance among the slots so random-stream consumption is reproducible.
    """
    codes = table.family[members]
    if (codes < 0).any():
        return None
    present, first = np.unique(codes, return_index=True)
    groups = []
    for code in present[np.argsort(first)]:
        slots = np.flatnonzero(codes == code)
        picked = members[slots]
        family = table.families[code]
        params = table.params[code][table.row[picked]]
        groups.append(
            KernelGroup(
                family=family,
                params=params,
                slots=slots,
                labels=table.labels[picked],
                state=family.new_state(params),
            )
        )
    return groups


@dataclass
class BatchResult:
    """Outcome of a stack of S games: per-player totals and mean welfare."""

    totals: np.ndarray  # (S, n)
    mean_welfare: np.ndarray  # (S,)
    coop: np.ndarray | None = None  # (rounds, S, n) when recorded
    payoffs: np.ndarray | None = None
    stocks: np.ndarray | None = None  # (rounds + 1, S)


def simulate_batch(
    kind: GameKind,
    params: GameParams,
    groups: list[KernelGroup],
    n_games: int,
    seed: int,
    record: bool = False,
) -> BatchResult:
    """Run S games of identical shape in lockstep via kernel families.

    ``groups`` must come fresh from ``build_groups``: stateful families
    (grim) consume their group state during the run.
    """
    params.validate_for(kind)
    n, r = params.n, params.rounds
    S = n_games
    is_cpr = kind is GameKind.COMMON_POOL
    rng = rng_for(seed)
    col = np.tile(np.arange(n, dtype=np.int64), S)
    prev: np.ndarray | None = None  # bool (S, n)
    coop_cum = np.zeros((S, n), dtype=np.int64)
    stock = np.full(S, params.capacity, dtype=float) if is_cpr else None
    totals = np.zeros((S, n), dtype=float)
    rec_coop = np.empty((r, S, n), dtype=bool) if record else None
    rec_pay = np.empty((r, S, n), dtype=float) if record else None
    rec_stock = np.empty((r + 1, S), dtype=float) if (record and is_cpr) else None
    if rec_stock is not None:
        rec_stock[0] = stock

    for t in range(r):
        if t == 0:
            prev_flat = opp_coop_flat = opp_rate_flat = None
        else:
            coop_tot_prev = prev.sum(axis=1)
            opp_coop_flat = (coop_tot_prev[:, None] - prev).ravel().astype(float)
            rate = (coop_cum.sum(axis=1)[:, None] - coop_cum) / ((n - 1) * t)
            opp_rate_flat = rate.ravel()
            prev_flat = prev.ravel()
        stock_frac_flat = np.repeat(stock / params.capacity, n) if is_cpr else None

        acts_flat = np.empty(S * n, dtype=bool)
        faults = []
        for group in groups:
            idx = group.slots
            view = SlotView(
                t=t,
                rounds=r,
                n=n,
                col=col[idx],
                prev_c=None if prev_flat is None else prev_flat[idx],
                opp_coop=None if opp_coop_flat is None else opp_coop_flat[idx],
                opp_rate=None if opp_rate_flat is None else opp_rate_flat[idx],
                stock_frac=None if stock_frac_flat is None else stock_frac_flat[idx],
            )
            try:
                acts_flat[idx] = decide_group(group.family, group.params, group.state, view, rng)
            except SlotFault as fault:
                faults.append((int(idx[fault.slot]), group.labels[fault.slot], fault))
        if faults:
            # the lowest (game, player) faults first, as in a per-decision replay
            slot, label, fault = min(faults, key=lambda item: item[0])
            game, player = divmod(slot, n)
            raise StrategyFault(
                label, player, t, fault.reason, f"{fault.detail} (game {game} of batch)"
            )
        coop = acts_flat.reshape(S, n)
        payoffs, next_stock = batch_round_payoffs(kind, params, coop, stock)
        totals += payoffs
        coop_cum += coop
        prev = coop
        if record:
            rec_coop[t] = coop
            rec_pay[t] = payoffs
            if rec_stock is not None:
                rec_stock[t + 1] = next_stock
        stock = next_stock

    mean_welfare = totals.sum(axis=1) / (n * r)
    return BatchResult(totals, mean_welfare, rec_coop, rec_pay, rec_stock)


def play_many(
    kind: GameKind,
    params: GameParams,
    lineups: np.ndarray,
    table: MemberTable,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Play a stack of same-shaped games; returns (totals, mean_welfare).

    ``lineups`` is an (S, n) array of ``table`` member indices, one row per
    game. Takes the batched path when every member has a kernel, otherwise
    plays each game through the per-decision engine with a per-game derived
    seed. Which path runs is a pure function of the members, so results are
    reproducible either way.
    """
    S = len(lineups)
    groups = build_groups(lineups.ravel(), table)
    if groups is not None:
        result = simulate_batch(kind, params, groups, S, seed)
        return result.totals, result.mean_welfare
    totals = np.empty((S, params.n), dtype=float)
    welfare = np.empty(S, dtype=float)
    for g, row in enumerate(lineups):
        lineup = [table.strategies[m] for m in row]
        result = play_game(kind, params, lineup, derive_seed(seed, g))
        totals[g] = result.player_totals
        welfare[g] = result.mean_welfare
    return totals, welfare
