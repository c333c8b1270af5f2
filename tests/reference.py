"""Per-decision references of the built-in kernel families.

In the package each built-in family is its ``decide_batch`` kernel and
nothing else. Here each family's rule is written again, one decision at a
time on an ``Observation``, for the differential tests to compare the
kernels with; deterministic families must produce identical games both
ways, faults included. A policy member needs no twin here: its
per-decision form is the rule interpreter in ``ndilemma.policy``, which is
its ``decide``.

A reference of a family that draws calls ``rng.random()`` at most once per
decision, so handed the uniform the engine drew for its slot it decides as
the kernel did.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ndilemma import Action, Attitude, GameKind, GameParams, Strategy, StrategyPool
from ndilemma.engine import decide_checked
from ndilemma.fingerprint import DecisionNode
from ndilemma.games import RoundRecord, batch_round_payoffs
from ndilemma.kernels import _EPS, KernelError
from ndilemma.pools import DEFAULT_FAMILY_PARAMS, FamilySpec, synth_pool
from ndilemma.strategies import DecideFn, Observation


def constant(params, obs: Observation, rng) -> Action:
    return Action.C if params[0] >= 0.5 else Action.D


def bernoulli(params, obs: Observation, rng) -> Action:
    return Action.C if rng.random() < params[0] else Action.D


def threshold_trigger(params, obs: Observation, rng) -> Action:
    if obs.round_index == 0:
        return Action.C if params[0] >= 0.5 else Action.D
    meets = obs.opp_coop_last >= params[1]
    return Action.C if meets == (params[2] >= 0.5) else Action.D


def reciprocator(params, obs: Observation, rng) -> Action:
    if obs.round_index == 0:
        return Action.C
    if obs.opp_coop_last >= params[0] * (obs.n_players - 1) - _EPS:
        return Action.C
    return Action.C if rng.random() < params[1] else Action.D


def grim(params, obs: Observation, rng) -> Action:
    # rescans the whole history at every decision, so a game costs rounds²
    n_opp = obs.n_players - 1
    limit = params[0] * n_opp + _EPS
    me = obs.my_index
    for rec in obs.history:
        cooperators = sum(1 for a in rec.actions if a is Action.C)
        opp_coop = cooperators - (1 if rec.actions[me] is Action.C else 0)
        if n_opp - opp_coop > limit:
            return Action.D
    return Action.C


def endgame(params, obs: Observation, rng) -> Action:
    if obs.rounds_left <= params[0]:
        return Action.D
    if obs.round_index == 0:
        return Action.C
    meets = obs.opp_coop_last >= params[1] * (obs.n_players - 1) - _EPS
    return Action.C if meets else Action.D


def stock_guardian(params, obs: Observation, rng) -> Action:
    frac = obs.stock_fraction
    if frac is None:
        raise KernelError("stock_guardian requires a common-pool game")
    return Action.C if frac >= params[0] - _EPS else Action.D


def _scheduled_count(t: int, period: int, phase: int, n: int) -> int:
    # number of player indices j in [0, n) with (t + j) % period == phase
    resid = (phase - t) % period
    if resid >= n:
        return 0
    return (n - 1 - resid) // period + 1


def rota(params, obs: Observation, rng) -> Action:
    period, phase = int(params[0]), int(params[1])
    if params[2] >= 0.5 and obs.round_index > 0:
        last = obs.round_index - 1
        own_sched = (last + obs.my_index) % period == phase
        expected = _scheduled_count(last, period, phase, obs.n_players) - own_sched
        if obs.opp_coop_last < expected:
            return Action.D
    on_duty = (obs.round_index + obs.my_index) % period == phase
    return Action.C if on_duty else Action.D


# family name -> (params, obs, rng) -> Action, for every built-in family but
# ``policy``
DECIDE_ONE = {
    "constant": constant,
    "bernoulli": bernoulli,
    "threshold_trigger": threshold_trigger,
    "reciprocator": reciprocator,
    "grim": grim,
    "endgame": endgame,
    "stock_guardian": stock_guardian,
    "rota": rota,
}


def reference_decide(strategy: Strategy) -> DecideFn:
    """The per-decision rule of ``strategy``: its family's reference on its
    parameters for a built-in member, else its own ``decide`` (the rule
    interpreter for a policy member)."""
    if strategy.kernel is None or strategy.kernel[0] not in DECIDE_ONE:
        return strategy.decide
    name, params = strategy.kernel
    return partial(DECIDE_ONE[name], params)


def without_kernel(strategy: Strategy) -> Strategy:
    """Copy of ``strategy`` that plays its per-decision rule as the engine's
    ``callable`` family."""
    return Strategy(strategy.label, strategy.origin, reference_decide(strategy))


def twin_pool(kind: GameKind, per_family: int, seed: int, attitude: Attitude) -> StrategyPool:
    """A pool of ``per_family`` members of every built-in family at its
    default parameter draws (``stock_guardian`` only in the common-pool
    game), each played as its kernel-less twin."""
    members = []
    for i, name in enumerate(DEFAULT_FAMILY_PARAMS):
        if name != "stock_guardian" or kind is GameKind.COMMON_POOL:
            pool = synth_pool([FamilySpec(name)], per_family, seed + i, "twins", attitude)
            members += map(without_kernel, pool.members)
    return StrategyPool("twins", attitude, tuple(members))


class ReplayedGame:
    """One game replayed from its actions, round by round, for the
    per-decision references: its record, and each player's
    ``Observation`` counted from that record alone."""

    def __init__(self, kind: GameKind, params: GameParams):
        self.kind = kind
        self.params = params
        self.history: tuple[RoundRecord, ...] = ()
        self.stock = params.capacity if kind is GameKind.COMMON_POOL else None

    def push_round(self, coop) -> None:
        """Record a round of the given bool actions, its payoffs and next
        stock played as a one-game stack."""
        row = np.asarray(coop, dtype=bool)
        stock = None if self.stock is None else np.array([self.stock])
        payoffs, next_stock = batch_round_payoffs(self.kind, self.params, row[None], stock)
        after = None if next_stock is None else float(next_stock[0])
        actions = tuple(Action.C if c else Action.D for c in row.tolist())
        self.history += (RoundRecord(actions, tuple(payoffs[0].tolist()), self.stock, after),)
        self.stock = after

    def observation_for(self, player: int) -> Observation:
        t = len(self.history)
        obs = Observation(self.kind, self.params, t, player, self.history, self.stock)
        if t:
            opp_coop = [
                sum(a is Action.C for j, a in enumerate(rec.actions) if j != player)
                for rec in self.history
            ]
            obs.opp_coop_last = opp_coop[-1]
            obs.opp_coop_rate = sum(opp_coop) / ((self.params.n - 1) * t)
            obs.my_last_action = self.history[-1].actions[player]
        return obs


def fingerprint_node(
    strategy: Strategy,
    kind: GameKind,
    params: GameParams,
    node: DecisionNode,
    rollouts: int,
    rng: np.random.Generator,
) -> float:
    """The fingerprint value of ``node`` replayed one decision at a time:
    the fraction of ``rollouts`` in which the subject, player 0 playing its
    per-decision rule, cooperates at the node's round, each earlier round
    forcing the node's opponent count on the lowest-indexed opponents. Every
    rollout draws from ``rng``."""
    subject = without_kernel(strategy)
    cooperations = 0
    for _ in range(rollouts):
        game = ReplayedGame(kind, params)
        for forced in node.counts:
            own = decide_checked(subject, game.observation_for(0), rng, 0)
            game.push_round([own is Action.C] + [j <= forced for j in range(1, params.n)])
        final = decide_checked(subject, game.observation_for(0), rng, 0)
        if final is Action.C:
            cooperations += 1
    return cooperations / rollouts
