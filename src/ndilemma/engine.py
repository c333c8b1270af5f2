"""Game execution: one engine for every strategy.

``simulate_batch`` runs a stack of games in lockstep with array operations;
every game plays through it, ``play_game`` as a stack of one that keeps the
round-by-round record. Kernel strategies (the built-in families and
compiled policy files) decide per family for all their slots at once. A
strategy without a kernel, such as a user-written callable, plays as the
``callable`` family: its ``decide`` is called once per decision on the
``Observation`` a per-decision loop would build, so only its own slots pay
the per-decision cost. A kernel strategy's own ``decide`` (a family's
``decide_one`` or the policy interpreter) is the reference that its
``without_kernel()`` copy plays; deterministic strategies give identical
games either way (asserted by the test suite).

``play_blocks`` packs independent blocks of games (grid cells, evolution
runs) into stacks; a block draws only from its own kernel seed, so it plays
exactly as it would alone, and a family never splits by block.

A strategy that raises, exceeds its step budget, or returns a non-action
aborts the game with a ``StrategyFault`` naming the offender.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .games import (
    Action, GameKind, GameParams, GameResult, RoundRecord, batch_round_payoffs, row_counts,
)
from .kernels import FAMILIES, KernelFamily, SlotFault, SlotView
from .policy import StepBudgetExceeded
from .seeding import rng_for
from .strategies import Observation, Strategy

_log = logging.getLogger("ndilemma")


class StrategyFault(RuntimeError):
    """A strategy misbehaved; the game cannot continue.

    ``reason`` is one of ``invalid_action``, ``exception`` (which covers
    trapped rule evaluation) or ``step_budget``.

    A fault raised by ``simulate_batch`` also says where it happened:
    ``game`` indexes the game within its block of the stack, ``block`` the
    block (None when the stack is one block), and ``detail`` is ``cause``,
    the strategy's own error, plus that place.
    """

    def __init__(
        self,
        label: str,
        player: int,
        round_index: int,
        reason: str,
        cause: str,
        game: int | None = None,
        block: int | None = None,
    ):
        self.label = label
        self.player = player
        self.round_index = round_index
        self.reason = reason
        self.cause = cause
        self.game = game
        self.block = block
        if game is None:
            self.detail = cause
        elif block is None:
            self.detail = f"{cause} (game {game} of batch)"
        else:
            self.detail = f"{cause} (game {game} of block {block})"
        super().__init__(
            f"strategy {label!r} (player {player}, round {round_index}) "
            f"{reason}: {self.detail}"
        )


class HistoryAccumulator:
    """Incremental state of one game, for the per-decision ``Observation``.

    Tracks completed rounds plus the running aggregates needed to build
    observations in O(1) per player. The ``callable`` family keeps one per
    game; the per-decision fingerprint reference keeps one per rollout.
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

    def push_round(self, coop: Sequence[bool]) -> RoundRecord:
        """Record a completed round; its payoffs and the next stock come from
        ``batch_round_payoffs`` on this one game."""
        row = np.asarray(coop, dtype=bool)
        stock = None if self.stock is None else np.array([self.stock])
        payoffs, next_stock = batch_round_payoffs(self.kind, self.params, row[None], stock)
        coop = row.tolist()
        record = RoundRecord(
            actions=tuple(Action.C if c else Action.D for c in coop),
            payoffs=tuple(payoffs[0].tolist()),
            stock_before=self.stock,
            stock_after=None if next_stock is None else float(next_stock[0]),
        )
        self.history = self.history + (record,)
        for i, c in enumerate(coop):
            if c:
                self._coop_cum[i] += 1
        n_c = sum(coop)
        self._total_cum += n_c
        self._last_coop = coop
        self._last_total = n_c
        self.stock = record.stock_after
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


def decide_group(family: KernelFamily, P: np.ndarray, state, view: SlotView) -> np.ndarray:
    """Run ``family.decide_batch`` with every misbehaviour pinned to a slot.

    Raises ``SlotFault``: the family's own, one at slot 0 for any other
    exception, or ``invalid_action`` at slot 0 unless the result is a bool
    array with one entry per row of ``P``.
    """
    try:
        acts = family.decide_batch(P, state, view)
    except SlotFault:
        raise
    except Exception as exc:  # noqa: BLE001 - any strategy error aborts the game
        raise SlotFault(0, "exception", f"{type(exc).__name__}: {exc}") from exc
    if isinstance(acts, np.ndarray) and acts.dtype == bool and acts.shape == (len(P),):
        return acts
    got = f"{acts.dtype} array of shape {acts.shape}" if isinstance(acts, np.ndarray) else repr(acts)
    raise SlotFault(0, "invalid_action", f"decide_batch returned {got}, expected {len(P)} bools")


class CallableFamily(KernelFamily):
    """Strategies without a kernel, such as user-written callables.

    A parameter row holds the strategy itself. Each game that holds a slot
    of this family keeps one ``HistoryAccumulator``, so every slot's
    ``decide`` sees the ``Observation`` a per-decision loop would build. It
    is called through ``decide_checked``, slot by slot in slot order on its
    block's generator, and a fault is raised at the slot that made it.
    """

    name = "callable"
    param_names = ("strategy",)
    reads = ("slots", "last", "rng")

    def stack(self, rows):
        return np.array(rows, dtype=object)[:, None]

    def new_state(self, P):
        return {}  # game index -> HistoryAccumulator, filled in round 0

    def decide_batch(self, P, state, view):
        games, players = np.divmod(view.slots, view.params.n)
        if view.t == 0:
            for game in set(games.tolist()):
                state[game] = HistoryAccumulator(view.kind, view.params)
        else:
            for game, acc in state.items():
                acc.push_round(view.last[game])
        acts = np.empty(len(P), dtype=bool)
        for i, (strategy, game, player, rng) in enumerate(
            zip(P[:, 0], games.tolist(), players.tolist(), view.rng)
        ):
            try:
                obs = state[game].observation_for(player)
                action = decide_checked(strategy, obs, rng, player)
            except StrategyFault as fault:
                raise SlotFault(i, fault.reason, fault.detail) from fault
            acts[i] = action is Action.C
        return acts


CALLABLE = CallableFamily()


# ---------------------------------------------------------------------------
# Batched engine.
# ---------------------------------------------------------------------------


@dataclass
class KernelGroup:
    """Slots of one kernel family within a stack, with stacked params and
    each slot's row of ``table`` (whose labels name a faulting slot)."""

    family: KernelFamily
    params: np.ndarray  # (n_slots, n_params)
    slots: np.ndarray  # flat indices into the (S * n) slot space
    members: np.ndarray  # (n_slots,) rows of ``table``
    table: MemberTable
    state: object = None


@dataclass(frozen=True)
class MemberTable:
    """Strategies compiled once into arrays, so lineups are index arrays.

    Member ``m`` plays kernel family ``families[family[m]]`` with parameter
    row ``params[family[m]][row[m]]``; each family's rows are stacked once
    with ``family.stack``, so policy tables are padded once, to the widest
    table. A member without a kernel plays the ``callable`` family, whose
    row is the strategy itself.
    """

    labels: np.ndarray  # (members,) object array
    family: np.ndarray  # (members,) family code
    row: np.ndarray  # (members,) row into that family's parameter matrix
    families: tuple[KernelFamily, ...]
    params: tuple[np.ndarray, ...]

    @classmethod
    def compile(cls, strategies: Sequence[Strategy], warn: bool = True) -> "MemberTable":
        """Compile ``strategies``; unless ``warn`` is False, log one warning
        naming the members without a kernel, which play per decision."""
        codes: dict[KernelFamily, int] = {}
        rows: list[list] = []
        family = np.empty(len(strategies), dtype=np.int64)
        row = np.empty(len(strategies), dtype=np.int64)
        for m, strategy in enumerate(strategies):
            if strategy.kernel is None:
                fam, vec = CALLABLE, strategy
            else:
                name, vec = strategy.kernel
                fam = FAMILIES[name]
            code = codes.setdefault(fam, len(codes))
            if code == len(rows):
                rows.append([])
            family[m] = code
            row[m] = len(rows[code])
            rows[code].append(vec)
        bare = [s.label for s in strategies if s.kernel is None]
        if bare and warn:
            more = f" and {len(bare) - 3} more" if len(bare) > 3 else ""
            _log.warning(
                "%d member(s) without a kernel play per decision: %s%s",
                len(bare), ", ".join(repr(label) for label in bare[:3]), more,
            )
        return cls(
            labels=np.array([s.label for s in strategies], dtype=object),
            family=family,
            row=row,
            families=tuple(codes),
            params=tuple(fam.stack(vecs) for fam, vecs in zip(codes, rows)),
        )


def build_groups(members: np.ndarray, table: MemberTable) -> list[KernelGroup]:
    """Gather a flat slot-major lineup of member indices into kernel groups,
    one per family present, ordered by first slot."""
    codes = table.family[members]
    found = [(np.flatnonzero(codes == code), code) for code in range(len(table.families))]
    groups = []
    for slots, code in sorted((f for f in found if len(f[0])), key=lambda f: f[0][0]):
        picked = members[slots]
        family = table.families[code]
        params = table.params[code][table.row[picked]]
        groups.append(KernelGroup(
            family=family,
            params=params,
            slots=slots,
            members=picked,
            table=table,
            state=family.new_state(params),
        ))
    return groups


# Memory budget of one stack, in 8-byte words: ``play_blocks`` packs whole
# blocks up to it. Each block plays on its own kernel seed, so the budget
# sets only how many blocks share a stack, never an output.
STACK_WORDS = 1 << 17


def slot_words(table: MemberTable, rounds: int) -> int:
    """Words one slot of a stack holds: the engine's per-slot arrays and the
    widest parameter row. A game that holds a member without a kernel keeps
    its history as Python objects, about five words per player per round
    (an action and a boxed payoff), so such tables weigh that too."""
    words = 8 + max(P.shape[1] for P in table.params)
    if CALLABLE in table.families:
        words += 5 * rounds
    return words


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
    seed: int | Sequence[int],
    record: bool = False,
) -> BatchResult:
    """Run S games of identical shape in lockstep via kernel families.

    ``seed`` is one kernel seed per block of consecutive games, the blocks
    of equal size; a single int makes the stack one block. Each round, a
    block's generator draws the ``u`` of its slots that read it, in slot
    order, before its ``callable`` slots draw. ``groups`` must come fresh
    from ``build_groups``: every family's state is consumed by the run.
    """
    params.validate_for(kind)
    n, r = params.n, params.rounds
    S = n_games
    is_cpr = kind is GameKind.COMMON_POOL
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if S % len(seeds):
        raise ValueError(f"{S} games do not split into {len(seeds)} equal blocks")
    block_games = S // len(seeds)
    rngs = np.array([rng_for(s) for s in seeds], dtype=object)
    reads = set().union(*(group.family.reads for group in groups))
    if "u" in reads:
        # a round draws one uniform per drawing slot, in slot order: each
        # block's span of the draws, and each drawing group's place in them
        drawing = [i for i, g in enumerate(groups) if "u" in g.family.reads]
        draws = np.zeros(S * n, dtype=bool)
        for i in drawing:
            draws[groups[i].slots] = True
        ends = [0, *np.cumsum(draws.reshape(len(seeds), -1).sum(axis=1)).tolist()]
        place = np.cumsum(draws) - 1
        u_at = {i: place[groups[i].slots] if len(drawing) > 1 else slice(None) for i in drawing}
    whole = len(groups) == 1 and len(groups[0].slots) == S * n
    # each group's fields that are the same every round, gathered once
    fixed = [{} for _ in groups]
    for fields, group in zip(fixed, groups):
        idx, names = group.slots, group.family.reads
        if "slots" in names:
            fields["slots"] = idx
        if "col" in names:
            fields["col"] = idx % n
        if "rng" in names:
            fields["rng"] = rngs[idx // (block_games * n)]
    prev: np.ndarray | None = None  # bool (S, n)
    # whole numbers kept as floats, which row_counts sums without a copy
    coop_cum = np.zeros((S, n)) if "opp_rate" in reads else None
    stock = np.full(S, params.capacity, dtype=float) if is_cpr else None
    totals = np.zeros((S, n), dtype=float)
    rec_coop = np.empty((r, S, n), dtype=bool) if record else None
    rec_pay = np.empty((r, S, n), dtype=float) if record else None
    rec_stock = np.empty((r + 1, S), dtype=float) if (record and is_cpr) else None
    if rec_stock is not None:
        rec_stock[0] = stock

    for t in range(r):
        # the round's observables over the whole stack, only those some group reads
        flat = {}
        if t > 0:
            if "opp_coop" in reads:
                flat["opp_coop"] = (row_counts(prev)[:, None] - prev).ravel()
            if "opp_rate" in reads:
                rate = (row_counts(coop_cum)[:, None] - coop_cum) / ((n - 1) * t)
                flat["opp_rate"] = rate.ravel()
            if "prev_c" in reads:
                flat["prev_c"] = prev.ravel()
        if is_cpr and "stock_frac" in reads:
            flat["stock_frac"] = np.repeat(stock / params.capacity, n)
        if "u" in reads:
            u = np.empty(ends[-1])
            for rng, start, end in zip(rngs, ends, ends[1:]):
                rng.random(out=u[start:end])

        acts_flat = np.empty(S * n, dtype=bool)
        faults = []
        for i, group in enumerate(groups):
            idx = group.slots
            # a group that holds every slot reads and writes whole arrays
            at = slice(None) if whole else idx
            fields = dict(fixed[i])
            for name in group.family.reads:
                if name == "last":
                    fields[name] = prev
                elif name == "u":
                    fields[name] = u[u_at[i]]
                elif name in flat:
                    fields[name] = flat[name][at]
            view = SlotView(t=t, kind=kind, params=params, **fields)
            try:
                acts_flat[at] = decide_group(group.family, group.params, group.state, view)
            except SlotFault as fault:
                faults.append((int(idx[fault.slot]), group, fault))
        if faults:
            # the lowest (game, player) faults first, as in a per-decision replay
            slot, group, fault = min(faults, key=lambda item: item[0])
            label = group.table.labels[group.members[fault.slot]]
            game, player = divmod(slot, n)
            block, game = divmod(game, block_games)
            raise StrategyFault(
                label, player, t, fault.reason, fault.detail,
                game=game, block=None if len(seeds) == 1 else block,
            )
        coop = acts_flat.reshape(S, n)
        payoffs, next_stock = batch_round_payoffs(kind, params, coop, stock)
        totals += payoffs
        if coop_cum is not None:
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


def play_blocks(
    kind: GameKind,
    params: GameParams,
    table: MemberTable,
    blocks: Iterable[tuple[np.ndarray, int]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Play (lineups, seed) blocks of games; yields each block's (totals,
    mean_welfare) in order.

    ``lineups`` is an (S, n) array of ``table`` member indices, one row per
    game, the same S for every block. Blocks are drawn as needed and packed
    whole into ``simulate_batch`` stacks within ``STACK_WORDS`` (one block at
    least); each plays on its own kernel seed, so as it does alone. The
    fault raised is the earliest-listed faulting block's lone fault: when
    block ``b`` of a stack faults, the stack's first ``b`` blocks play again
    and raise theirs if they have one. Its ``block`` is the block's index in
    ``blocks``.
    """
    blocks = iter(blocks)
    done = 0
    for first in blocks:
        fit = STACK_WORDS // (slot_words(table, params.rounds) * first[0].size)
        parts, seeds = zip(first, *itertools.islice(blocks, max(1, fit) - 1))
        lineups = np.concatenate(parts)
        try:  # the groups live only in the call, so the next stack's are built alone
            result = simulate_batch(
                kind, params, build_groups(lineups.ravel(), table), len(lineups), seeds
            )
        except StrategyFault as fault:
            if fault.block:
                try:
                    for _ in play_blocks(kind, params, table, zip(parts, seeds[: fault.block])):
                        pass
                except StrategyFault as earlier:
                    fault = earlier
            raise StrategyFault(
                fault.label, fault.player, fault.round_index, fault.reason, fault.cause,
                game=fault.game, block=done + (fault.block or 0),
            ) from fault
        yield from zip(result.totals.reshape(len(seeds), -1, params.n),
                       result.mean_welfare.reshape(len(seeds), -1))
        done += len(seeds)


def play_game(
    kind: GameKind,
    params: GameParams,
    strategies: list[Strategy],
    seed: int,
) -> GameResult:
    """Run one full iterated game, as a stack of one; deterministic given
    the seed.

    Every round, all strategies observe the completed history and move
    simultaneously. The common-pool stock starts at the carrying capacity.
    """
    if len(strategies) != params.n:
        raise ValueError(f"need {params.n} strategies, got {len(strategies)}")
    # a single game has no faster path to point at, so no warning
    groups = build_groups(np.arange(params.n), MemberTable.compile(strategies, warn=False))
    batch = simulate_batch(kind, params, groups, 1, seed, record=True)
    stocks = None if batch.stocks is None else batch.stocks[:, 0]
    return GameResult(
        kind, params, batch.coop[:, 0], batch.payoffs[:, 0], stocks, player_totals=batch.totals[0]
    )
