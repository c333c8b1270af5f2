"""Self-play mix grids: welfare as two pools trade places in a group.

For every group size and every split ``(n_e, n_c)`` with ``n_e + n_c = n``,
each sample draws ``n_e`` members from the first pool and ``n_c`` from the
second without replacement (a fresh draw per sample), plays one game, and
records its mean normalised reward. A cell reports the mean and standard
error over its samples, alongside the welfare bounds for the group size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import cached_bounds
from .engine import MemberTable, play_many
from .games import GameKind, GameParams
from .seeding import derive_seed, rng_for
from .strategies import StrategyPool

DEFAULT_GROUP_SIZES = (4, 16, 64, 256)
DEFAULT_SAMPLES_PER_CELL = 200

GRID_CSV_COLUMNS = (
    "game", "n", "n_e", "mean_welfare", "std_error",
    "welfare_min", "welfare_max", "samples",
)


@dataclass(frozen=True)
class MixGridConfig:
    """Grid setup: the game, group sizes, sample count, and the two pools.

    ``pool_e`` plays the exploitative side of the split and ``pool_c`` the
    collective side; any two pools can be compared. Per-size game parameters
    are derived from ``k`` and ``rounds`` with the standard defaults
    (threshold ``n // 2``, capacity ``4n``).
    """

    kind: GameKind
    pool_e: StrategyPool
    pool_c: StrategyPool
    k: float = 2.0
    rounds: int = 20
    group_sizes: tuple[int, ...] = DEFAULT_GROUP_SIZES
    samples_per_cell: int = DEFAULT_SAMPLES_PER_CELL
    master_seed: int = 0

    def params_for(self, n: int) -> GameParams:
        return GameParams(n=n, rounds=self.rounds, k=self.k)

    def validate(self) -> None:
        if self.samples_per_cell < 1:
            raise ValueError(f"samples_per_cell must be >= 1, got {self.samples_per_cell}")
        largest = max(self.group_sizes)
        for pool in (self.pool_e, self.pool_c):
            if len(pool) < largest:
                raise ValueError(
                    f"pool {pool.gene_tag!r}/{pool.attitude.value} has {len(pool)} "
                    f"members; group size {largest} needs at least that many"
                )
        for n in self.group_sizes:
            self.params_for(n).validate_for(self.kind)


@dataclass(frozen=True)
class MixGridRow:
    """One cell of the grid."""

    game: str
    n: int
    n_e: int
    mean_welfare: float
    std_error: float
    welfare_min: float
    welfare_max: float
    samples: int

    @property
    def n_c(self) -> int:
        return self.n - self.n_e


def _draw_cell_sample(config: MixGridConfig, n: int, n_e: int, sample: int) -> np.ndarray:
    """Member indices of one sample's lineup in ``config.pool_e`` then
    ``config.pool_c`` order (the latter offset by ``len(config.pool_e)``)."""
    rng = rng_for(config.master_seed, n, n_e, sample, 0)
    picked_e = config.pool_e.sample_without_replacement(n_e, rng)
    picked_c = config.pool_c.sample_without_replacement(n - n_e, rng)
    return np.concatenate([picked_e, len(config.pool_e) + picked_c])


def _run_cell(config: MixGridConfig, table: MemberTable, n: int, n_e: int) -> np.ndarray:
    """Mean welfare of each sample in one cell, played as one stack."""
    lineups = np.stack(
        [_draw_cell_sample(config, n, n_e, s) for s in range(config.samples_per_cell)]
    )
    seed = derive_seed(config.master_seed, n, n_e, 1)
    return play_many(config.kind, config.params_for(n), lineups, table, seed)[1]


def run_mix_grid(config: MixGridConfig) -> list[MixGridRow]:
    """All cells for all group sizes; deterministic given the master seed."""
    config.validate()
    table = MemberTable.compile(config.pool_e.members + config.pool_c.members)
    out: list[MixGridRow] = []
    for n in config.group_sizes:
        params = config.params_for(n)
        limits = cached_bounds(config.kind, params)
        for n_e in range(n + 1):
            welfare = _run_cell(config, table, n, n_e)
            std_error = (
                float(welfare.std(ddof=1) / np.sqrt(len(welfare)))
                if len(welfare) > 1
                else 0.0
            )
            out.append(
                MixGridRow(
                    game=config.kind.value,
                    n=n,
                    n_e=n_e,
                    mean_welfare=float(welfare.mean()),
                    std_error=std_error,
                    welfare_min=limits.min_mean,
                    welfare_max=limits.max_mean,
                    samples=len(welfare),
                )
            )
    return out


def emit_grid_csv(rows: Sequence[MixGridRow], path: str | Path) -> None:
    """Write the documented grid schema; floats use repr for lossless IO."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.game, row.n, row.n_e,
                repr(row.mean_welfare), repr(row.std_error),
                repr(row.welfare_min), repr(row.welfare_max),
                row.samples,
            ])


def read_grid_csv(path: str | Path) -> list[MixGridRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != GRID_CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected grid CSV header {reader.fieldnames}")
        return [
            MixGridRow(
                game=rec["game"],
                n=int(rec["n"]),
                n_e=int(rec["n_e"]),
                mean_welfare=float(rec["mean_welfare"]),
                std_error=float(rec["std_error"]),
                welfare_min=float(rec["welfare_min"]),
                welfare_max=float(rec["welfare_max"]),
                samples=int(rec["samples"]),
            )
            for rec in reader
        ]
