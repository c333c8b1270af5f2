"""Pool synthesis from parametric families and the pre-admission gate.

``synth_pool`` samples desk-scale strategy pools from the built-in kernel
families with configurable parameter distributions, standing in for
externally generated strategy sets so the full pipeline runs offline.

``validate_strategy`` is the safety gate: before a pool is admitted it plays
each member in randomized games against mixed reference opponents and checks
that it always returns a real action, stays within its step budget without
trapping, and replays identically under a fixed seed. Failing members are
rejected rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .engine import StrategyFault, play_game
from .games import GameKind, GameParams
from .kernels import FAMILIES, kernel_strategy, make_reference
from .seeding import derive_seed, rng_for
from .strategies import Attitude, Strategy, StrategyPool

# Per-family default parameter distributions, used when a family spec leaves
# a parameter unspecified. Fractional thresholds keep members meaningful at
# any group size.
DEFAULT_FAMILY_PARAMS: dict[str, dict[str, Any]] = {
    "constant": {"cooperate": {"choice": [0, 1]}},
    "bernoulli": {"p": {"uniform": [0.0, 1.0]}},
    "threshold_trigger": {
        "first_c": {"choice": [0, 1]},
        "threshold": {"int_uniform": [0, 3]},
        "sense": {"choice": [0, 1]},
    },
    "reciprocator": {
        "threshold_frac": {"uniform": [0.2, 0.9]},
        "forgive_prob": {"uniform": [0.0, 0.3]},
    },
    "grim": {"tolerance_frac": {"uniform": [0.0, 0.5]}},
    "endgame": {
        "horizon": {"int_uniform": [1, 5]},
        "threshold_frac": {"uniform": [0.0, 0.8]},
    },
    "stock_guardian": {"guard_frac": {"uniform": [0.2, 0.8]}},
    "rota": {
        "period": {"int_uniform": [2, 4]},
        "phase": {"int_uniform": [0, 3]},
        "punish": {"choice": [0, 1]},
    },
}


@dataclass(frozen=True)
class FamilySpec:
    """One family in a synthesis mix: name, draw weight, parameter dists.

    A parameter distribution is a plain number (fixed), ``{"uniform": [lo,
    hi]}``, ``{"int_uniform": [lo, hi]}`` (inclusive), or ``{"choice":
    [...]}``.
    """

    family: str
    weight: float = 1.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in DEFAULT_FAMILY_PARAMS:
            # policy tables come from policy files, not parameter draws
            raise ValueError(f"unknown or unsynthesizable strategy family {self.family!r}")
        if self.weight <= 0:
            raise ValueError(f"family weight must be positive, got {self.weight}")
        known = FAMILIES[self.family].param_names
        for name in self.params:
            if name not in known:
                raise ValueError(f"{self.family} has no parameter {name!r}; it has {known}")


def _draw_param(dist: Any, rng: np.random.Generator) -> float:
    if isinstance(dist, (int, float)) and not isinstance(dist, bool):
        return float(dist)
    if isinstance(dist, Mapping):
        if "uniform" in dist:
            lo, hi = dist["uniform"]
            return float(rng.uniform(lo, hi))
        if "int_uniform" in dist:
            lo, hi = dist["int_uniform"]
            return float(rng.integers(int(lo), int(hi) + 1))
        if "choice" in dist:
            options = dist["choice"]
            return float(options[int(rng.integers(len(options)))])
    raise ValueError(f"unrecognised parameter distribution {dist!r}")


def _draw_member(spec: FamilySpec, index: int, rng: np.random.Generator) -> Strategy:
    family = FAMILIES[spec.family]
    dists = dict(DEFAULT_FAMILY_PARAMS[spec.family])
    dists.update(spec.params)
    values = {name: _draw_param(dists[name], rng) for name in family.param_names}
    if spec.family == "rota":
        # the phase draw is only meaningful modulo the drawn period
        values["phase"] = float(int(values["phase"]) % int(values["period"]))
    vec = tuple(values[name] for name in family.param_names)
    label = f"{spec.family}#{index:03d}"
    return kernel_strategy(spec.family, *vec, label=label)


def synth_pool(
    families: Sequence[FamilySpec],
    size: int,
    seed: int,
    gene_tag: str,
    attitude: Attitude,
) -> StrategyPool:
    """Sample a pool of ``size`` strategies from weighted families."""
    if not families:
        raise ValueError("family list is empty")
    if size < 1:
        raise ValueError(f"pool size must be >= 1, got {size}")
    rng = rng_for(seed)
    weights = np.array([f.weight for f in families], dtype=float)
    weights /= weights.sum()
    members = []
    for i in range(size):
        spec = families[int(rng.choice(len(families), p=weights))]
        members.append(_draw_member(spec, i, rng))
    return StrategyPool(gene_tag=gene_tag, attitude=attitude, members=tuple(members))


# ---------------------------------------------------------------------------
# Validation gate.
# ---------------------------------------------------------------------------


def _reference_menu(n: int) -> list[Strategy]:
    menu = [make_reference("allc"), make_reference("alld")]
    menu += [make_reference("rnd", p=p) for p in (0.25, 0.5, 0.75)]
    menu += [make_reference("cc", t=t) for t in range(n)]
    menu += [make_reference("cd", t=t) for t in range(n)]
    return menu


@dataclass
class ValidationReport:
    """Outcome of the pre-admission checks for one strategy."""

    label: str
    trials: int
    action_ok: bool = True
    step_ok: bool = True
    deterministic: bool = True
    cooperation_rate: float = 0.0
    decisions: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.action_ok and self.step_ok and self.deterministic


def _note_fault(report: ValidationReport, fault: StrategyFault, where: str) -> None:
    if fault.reason == "invalid_action":
        report.action_ok = False
    else:
        report.step_ok = False
    report.failures.append(f"{where}: {fault}")


def validate_strategy(
    strategy: Strategy,
    kind: GameKind,
    params: GameParams,
    trials: int = 50,
    seed: int = 0,
) -> ValidationReport:
    """Play ``trials`` randomized games and report on the safety checks.

    Check failures land in the report; this function does not raise for a
    misbehaving strategy.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params.validate_for(kind)
    report = ValidationReport(label=strategy.label, trials=trials)
    menu = _reference_menu(params.n)
    coop_decisions = 0
    total_decisions = 0
    for trial in range(trials):
        rng = rng_for(seed, trial)
        me = int(rng.integers(params.n))
        lineup = [menu[int(rng.integers(len(menu)))] for _ in range(params.n)]
        lineup[me] = strategy
        game_seed = derive_seed(seed, trial, 1)
        try:
            first = play_game(kind, params, lineup, game_seed)
        except StrategyFault as fault:
            _note_fault(report, fault, f"trial {trial}")
            continue
        try:
            replay = play_game(kind, params, lineup, game_seed)
        except StrategyFault as fault:
            # the first play did not fault, so the replay differs from it
            report.deterministic = False
            _note_fault(report, fault, f"trial {trial}, replay")
            continue
        if not np.array_equal(first.coop[:, me], replay.coop[:, me]):
            report.deterministic = False
            report.failures.append(
                f"trial {trial}: actions differ between replays of the same seed"
            )
        coop_decisions += int(first.coop[:, me].sum())
        total_decisions += params.rounds
    report.decisions = total_decisions
    report.cooperation_rate = coop_decisions / total_decisions if total_decisions else 0.0
    return report


def validate_pool(
    pool: StrategyPool,
    kind: GameKind,
    params: GameParams,
    trials: int = 50,
    seed: int = 0,
) -> list[ValidationReport]:
    return [
        validate_strategy(member, kind, params, trials, derive_seed(seed, i))
        for i, member in enumerate(pool.members)
    ]


def admit_pool(
    pool: StrategyPool,
    kind: GameKind,
    params: GameParams,
    trials: int = 50,
    seed: int = 0,
) -> tuple[StrategyPool | None, list[ValidationReport]]:
    """Validate every member; return the pool of survivors (None if empty)."""
    reports = validate_pool(pool, kind, params, trials, seed)
    kept = tuple(m for m, rep in zip(pool.members, reports) if rep.passed)
    admitted = (
        StrategyPool(pool.gene_tag, pool.attitude, kept) if kept else None
    )
    return admitted, reports
