"""Game execution: one engine for every strategy.

``simulate_batch`` runs a stack of games in lockstep with array operations;
every game plays through it, ``play_game`` as a stack of one that keeps the
round-by-round record. Kernel strategies (the built-in families and
compiled policy files) decide per family for all their slots at once. A
strategy without a kernel, such as a user-written callable, plays as the
``callable`` family: its ``decide`` is called once per decision on an
``Observation`` of the engine's own counts and its game's history, so only
its own slots pay the per-decision cost. A strategy with a kernel always
plays it.

``play_blocks`` packs independent blocks of games (grid cells, evolution
runs) into stacks; a block draws only from its own kernel seed, so it plays
exactly as it would alone, and a family never splits by block.
``play_split`` plays the tasks of a large run in two parts, one of them in
a forked child, where the process may use two CPUs; a task's output never
depends on its part.

A strategy that raises, exceeds its step budget, or returns a non-action
aborts the game with a ``StrategyFault`` naming the offender.
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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

    def __reduce__(self):
        """Pickle as the constructor's arguments, so a fault can cross a pipe."""
        return StrategyFault, (
            self.label, self.player, self.round_index, self.reason, self.cause,
            self.game, self.block,
        )


class HistoryAccumulator:
    """The completed rounds of one game, as a kernel-less slot sees them.

    The ``callable`` family keeps one per game that seats such a slot and
    records each round as the stack played it; a slot's other observables
    come from the engine's own counts.
    """

    def __init__(self, stock: float | None):
        self.history: tuple[RoundRecord, ...] = ()
        self.stock = stock  # entering the next round; None outside the common-pool game

    def push_round(
        self, coop: np.ndarray, payoffs: np.ndarray, stock_after: float | None
    ) -> None:
        """Record a completed round: its bool actions, its payoff row and
        its next stock (None outside the common-pool game), as the engine
        played them."""
        record = RoundRecord(
            actions=tuple(Action.C if c else Action.D for c in coop.tolist()),
            payoffs=tuple(payoffs.tolist()),
            stock_before=self.stock,
            stock_after=None if stock_after is None else float(stock_after),
        )
        self.history += (record,)
        self.stock = record.stock_after


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

    Raises ``SlotFault``, its ``round`` ``view.t``: the family's own, one
    at slot 0 for any other exception, or ``invalid_action`` at slot 0
    unless the result is a bool array with one entry per row of ``P``.
    """
    try:
        acts = family.decide_batch(P, state, view)
    except SlotFault as fault:
        fault.round = view.t
        raise
    except Exception as exc:  # noqa: BLE001 - any strategy error aborts the game
        raise SlotFault(0, "exception", f"{type(exc).__name__}: {exc}", view.t) from exc
    if isinstance(acts, np.ndarray) and acts.dtype == bool and acts.shape == (len(P),):
        return acts
    got = f"{acts.dtype} array of shape {acts.shape}" if isinstance(acts, np.ndarray) else repr(acts)
    detail = f"decide_batch returned {got}, expected {len(P)} bools"
    raise SlotFault(0, "invalid_action", detail, view.t)


class CallableFamily(KernelFamily):
    """Strategies without a kernel, such as user-written callables.

    A parameter row holds the strategy itself. Each game that seats a slot
    of this family keeps one ``HistoryAccumulator``; a slot's
    ``Observation`` holds that history and stock and, from round 1, the
    engine's ``opp_coop``, ``opp_rate`` and ``prev_c`` as an int, a float
    and an ``Action``. ``decide`` runs through ``decide_checked``, slot by
    slot on its block's generator; a fault is raised at its slot.
    """

    name = "callable"
    param_names = ("strategy",)
    reads = ("slots", "opp_coop", "opp_rate", "prev_c", "last", "last_payoffs", "stock", "rng")

    def stack(self, rows):
        return np.array(rows, dtype=object)[:, None]

    def slot_words(self, width, params):
        # its share of its game's accumulator, and its observations; the
        # history is charged once per game (``block_words``)
        return super().slot_words(width, params) + 7

    def new_state(self, P):
        return {}  # game index -> HistoryAccumulator, filled in round 0

    def decide_batch(self, P, state, view):
        games, players = np.divmod(view.slots, view.params.n)
        if view.t == 0:
            stock = None if view.stock is None else view.params.capacity
            for game in set(games.tolist()):
                state[game] = HistoryAccumulator(stock)
            aggregates = itertools.repeat((None, None, None))
        else:
            for game, acc in state.items():
                stock = None if view.stock is None else view.stock[game]
                acc.push_round(view.last[game], view.last_payoffs[game], stock)
            # each slot's opp_coop_last, opp_coop_rate and my_last_action
            mine = [Action.C if c else Action.D for c in view.prev_c.tolist()]
            aggregates = zip(view.opp_coop.astype(int).tolist(), view.opp_rate.tolist(), mine)
        acts = np.empty(len(P), dtype=bool)
        for i, (strategy, game, player, rng, seen) in enumerate(
            zip(P[:, 0], games.tolist(), players.tolist(), view.rng, aggregates)
        ):
            acc = state[game]
            obs = Observation(view.kind, view.params, view.t, player, acc.history, acc.stock, *seen)
            try:
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
    """Slots of one kernel family within a stack, with stacked params; a
    slot's member is its entry of the stack's flat ``lineup`` (whose
    ``table`` labels name a faulting slot)."""

    family: KernelFamily
    params: np.ndarray  # (n_slots, n_params)
    slots: np.ndarray  # flat indices into the (S * n) slot space
    lineup: np.ndarray  # (S * n,) the stack's member indices, shared by its groups
    table: MemberTable


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
        family = table.families[code]
        params = table.params[code][table.row[members[slots]]]
        groups.append(KernelGroup(
            family=family,
            params=params,
            slots=slots,
            lineup=members,
            table=table,
        ))
    return groups


# Memory budget of one stack, in 8-byte words: ``play_blocks`` packs whole
# blocks up to it. Each block plays on its own kernel seed, so the budget
# sets only how many blocks share a stack, never an output. At 2 MB, an
# n = 256 stack of the benchmark's mix grid holds about 12 cells of 8 games.
STACK_WORDS = 1 << 18

# Words the engine holds for every slot of a stack beyond its family's
# ``slot_words``: its lineup entry, its group's slot index, its total, its
# payoff this round and one other (S, n) round temporary.
_ENGINE_WORDS = 5


def slot_words(table: MemberTable, params: GameParams) -> np.ndarray:
    """Words a slot of each member of ``table`` holds in a stack, at most:
    the engine's and its family's ``slot_words``. The figures are
    tracemalloc peaks of stacks that tests/test_engine.py compares with
    their charge: built-in slots hold 6 (constant) to 19 words (a punishing
    rota), and policy slots about 13.5 words per rule plus 26."""
    family = np.array([
        family.slot_words(P.shape[1], params)
        for family, P in zip(table.families, table.params)
    ])
    return _ENGINE_WORDS + family[table.family]


def block_words(table: MemberTable, params: GameParams) -> Callable[[np.ndarray], int]:
    """The charge of a block of (S, n) ``lineups`` of ``table`` members: the
    ``slot_words`` of its slots and, once per game that seats a kernel-less
    member, the history all its kernel-less slots share."""
    words = slot_words(table, params)
    if CALLABLE not in table.families:
        return lambda lineups: int(words[lineups].sum())
    bare = table.family == table.families.index(CALLABLE)
    # a round of history: about five words per player (an action and a
    # boxed payoff) and 32 for its record
    history = params.rounds * (5 * params.n + 32)
    return lambda lineups: int(words[lineups].sum() + history * bare[lineups].any(axis=1).sum())


@dataclass
class BatchResult:
    """Outcome of a stack of S games: per-player totals and mean welfare."""

    totals: np.ndarray  # (S, n)
    mean_welfare: np.ndarray  # (S,)
    coop: np.ndarray | None = None  # (rounds, S, n) when recorded
    payoffs: np.ndarray | None = None
    stocks: np.ndarray | None = None  # (rounds + 1, S)


@dataclass
class _Playing:
    """A group as ``simulate_batch`` plays it: its view, built once, its
    family's state for the run, the fields its family reads, where its
    decisions go in the stack, each slot's game (when it reads a per-game
    observable), its place in the round's uniforms (when it draws but not
    all of them) and its decisions so far."""

    group: KernelGroup
    view: SlotView
    state: object
    reads: frozenset[str]
    at: slice | np.ndarray
    games: np.ndarray | None
    draws: np.ndarray | None
    own: np.ndarray | None = None
    own_cum: np.ndarray | None = None


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
    order, before its ``callable`` slots draw. The run makes each group's
    state, so one list of groups plays the same games every time.

    Each group's view is built once per stack and refilled every round. A
    round counts each game's cooperators once: the payoffs take that count,
    and next round a group reads its opponents as the count of each slot's
    game, one gather per group, less its own last decision (``opp_rate``
    likewise from cumulative counts), so no observable is built over the
    whole stack.
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
    u_at = {}
    if "u" in reads:
        # a round draws one uniform per drawing slot, in slot order: each
        # block's span of the draws, and each drawing group's place in them
        # unless one group draws them all
        drawing = [i for i, g in enumerate(groups) if "u" in g.family.reads]
        draws = np.zeros(S * n, dtype=bool)
        for i in drawing:
            draws[groups[i].slots] = True
        ends = [0, *np.cumsum(draws.reshape(len(seeds), -1).sum(axis=1)).tolist()]
        if len(drawing) > 1:
            place = np.cumsum(draws) - 1
            u_at = {i: place[groups[i].slots] for i in drawing}
        u = np.empty(ends[-1])  # refilled every round, each block's span from its stream
        spans = [(rng, u[start:end]) for rng, start, end in zip(rngs, ends, ends[1:])]
    whole = len(groups) == 1 and len(groups[0].slots) == S * n
    playing = []
    for i, group in enumerate(groups):
        idx, names = group.slots, frozenset(group.family.reads)
        view = SlotView(t=0, kind=kind, params=params)
        if "slots" in names:
            view.slots = idx
        if "col" in names:
            view.col = idx % n
        if "rng" in names:
            view.rng = rngs[idx // (block_games * n)]
        draws = u_at.get(i)
        if "u" in names:
            view.u = u if draws is None else np.empty(len(idx))
        per_game = names & {"opp_coop", "opp_rate"} or (is_cpr and "stock_frac" in names)
        playing.append(_Playing(
            group, view, group.family.new_state(group.params), names,
            at=slice(None) if whole else idx,  # a group that holds every slot writes them all
            games=idx // n if per_game else None,
            draws=draws,
            own_cum=np.zeros(len(idx)) if "opp_rate" in names else None,
        ))
    prev = count = payoffs = None  # last round's (S, n) bools, (S,) counts, (S, n) payoffs
    keep_payoffs = "last_payoffs" in reads
    # each game's cooperations so far, for ``opp_rate``
    count_cum = np.zeros(S) if "opp_rate" in reads else None
    stock = np.full(S, params.capacity, dtype=float) if is_cpr else None
    totals = np.zeros((S, n), dtype=float)
    rec_coop = np.empty((r, S, n), dtype=bool) if record else None
    rec_pay = np.empty((r, S, n), dtype=float) if record else None
    rec_stock = np.empty((r + 1, S), dtype=float) if (record and is_cpr) else None
    if rec_stock is not None:
        rec_stock[0] = stock

    for t in range(r):
        if "u" in reads:
            for rng, span in spans:
                rng.random(out=span)
        frac = stock / params.capacity if is_cpr and "stock_frac" in reads else None

        acts_flat = np.empty(S * n, dtype=bool)
        faults = []
        for g in playing:
            view, names = g.view, g.reads
            view.t = t
            if g.draws is not None:
                u.take(g.draws, out=view.u)
            if t:
                if "opp_coop" in names:
                    view.opp_coop = count[g.games] - g.own
                if "opp_rate" in names:
                    view.opp_rate = (count_cum[g.games] - g.own_cum) / ((n - 1) * t)
                if "prev_c" in names:
                    view.prev_c = g.own
                if "last" in names:
                    view.last = prev
                if "last_payoffs" in names:
                    view.last_payoffs = payoffs
            if frac is not None and "stock_frac" in names:
                view.stock_frac = frac[g.games]
            if "stock" in names:
                view.stock = stock
            group = g.group
            try:
                acts = decide_group(group.family, group.params, g.state, view)
            except SlotFault as fault:
                faults.append((int(group.slots[fault.slot]), group, fault))
                continue
            acts_flat[g.at] = acts
            g.own = acts
            if g.own_cum is not None:
                g.own_cum += acts
        if faults:
            # the lowest (game, player) faults first, as in a per-decision replay
            slot, group, fault = min(faults, key=lambda item: item[0])
            label = group.table.labels[group.lineup[slot]]
            game, player = divmod(slot, n)
            block, game = divmod(game, block_games)
            raise StrategyFault(
                label, player, fault.round, fault.reason, fault.detail,
                game=game, block=None if len(seeds) == 1 else block,
            )
        coop = acts_flat.reshape(S, n)
        count = row_counts(coop)
        payoffs, next_stock = batch_round_payoffs(kind, params, coop, stock, count)
        totals += payoffs
        if count_cum is not None:
            count_cum += count
        prev = coop
        if record:
            rec_coop[t] = coop
            rec_pay[t] = payoffs
            if rec_stock is not None:
                rec_stock[t + 1] = next_stock
        if not keep_payoffs:
            payoffs = None  # so that a round allocates its payoffs beside no others
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
    whole, in order, into ``simulate_batch`` stacks while their
    ``block_words`` fit in ``STACK_WORDS`` (one block at least); the first
    block that does not fit starts the next stack. Each plays on its own
    kernel seed, so as it does alone. The fault raised is the
    earliest-listed faulting block's lone fault: when block ``b`` of a stack
    faults, the stack's first ``b`` blocks play again and raise theirs if
    they have one. Its ``block`` is the block's index in ``blocks``.
    """
    charge = block_words(table, params)
    blocks = ((lineups, seed, charge(lineups)) for lineups, seed in blocks)
    block = next(blocks, None)
    done = 0
    while block is not None:
        parts, seeds, used = [], [], 0
        while block is not None and (not parts or used + block[2] <= STACK_WORDS):
            parts.append(block[0])
            seeds.append(block[1])
            used += block[2]
            block = next(blocks, None)
        lineups = np.concatenate(parts)
        del parts  # the stack keeps only its copy
        try:  # the groups live only in the call, so the next stack's are built alone
            result = simulate_batch(
                kind, params, build_groups(lineups.ravel(), table), len(lineups), seeds
            )
        except StrategyFault as fault:
            if fault.block:
                parts = lineups.reshape(len(seeds), -1, params.n)
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


# Decisions a run must hold before ``play_split`` forks for it. Forking,
# copying pages on write and reaping cost about 3 ms in a bare process and
# about 10 ms in one that holds two pools of 288 members; on two cores, mix
# grids of those pools broke even near 0.4 M decisions and took 0.65-0.73 of
# their one-process time from 2.8 M on. The benchmark's policy grid (178 k
# decisions) plays in one process, its mix grid (11.2 M) and the c04 grid
# (281 M) in two.
SPLIT_DECISIONS = 1 << 22

_Part = TypeVar("_Part")


def _may_fork_two() -> bool:
    """Whether this process can fork and its affinity mask holds two CPUs,
    so ``taskset -c 0`` keeps a run to one process."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def play_split(play: Callable[[int, int], _Part], decisions: int) -> list[_Part]:
    """``play(part, parts)`` of each part of a run of independent tasks, in
    part order.

    A run of ``decisions`` at least ``SPLIT_DECISIONS``, in a process that
    may fork and use two CPUs, is two parts: a forked child plays part 1
    while this process plays part 0, and the child's result comes back
    pickled through a pipe. Otherwise it is one part, played in-process.
    ``play`` should return the faults it meets with its result, so that the
    caller can choose among the parts' faults; an exception raised in the
    child is raised here as a ``RuntimeError`` that quotes it. No child
    outlives the call, however it ends.
    """
    if decisions < SPLIT_DECISIONS or not _may_fork_two():
        return [play(0, 1)]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit
        try:
            os.close(read)
            try:
                payload = pickle.dumps((True, play(1, 2)))
            except BaseException as exc:  # noqa: BLE001 - sent to the parent as text
                payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(write, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write)
    reaped = False
    try:
        with open(read, "rb") as pipe:
            mine = play(0, 2)
            payload = pipe.read()  # the whole result, before the child is reaped
        os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the forked part of the run ended without a result")
    ok, theirs = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"the forked part of the run raised {theirs}")
    return [mine, theirs]


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
