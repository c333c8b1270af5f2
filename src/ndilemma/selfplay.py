"""Self-play mix grids: welfare as two pools trade places in a group.

For every group size and every split ``(n_e, n_c)`` with ``n_e + n_c = n``,
each sample draws ``n_e`` members from the first pool and ``n_c`` from the
second without replacement, plays one game, and records its mean normalised
reward. A cell draws all of its samples in one vectorised call on its own
stream and plays them as one block of games on its own kernel seed, so its
row depends only on its address ``(n, n_e)``; the engine packs the cells of
one group size into a few large stacks, and a large grid plays its cells of
odd ``n_e`` in a forked child (``engine.play_split``), which changes no
output. A cell reports the mean and standard error over its samples,
alongside the welfare bounds for the group size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import WelfareBounds, cached_bounds
from .engine import MemberTable, StrategyFault, play_blocks, play_split
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
        if not self.group_sizes:
            raise ValueError("group_sizes must be non-empty")
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


def _smallest(keys: np.ndarray, count: int) -> np.ndarray:
    """Per row, the columns of the ``count`` smallest keys, in key order."""
    return np.argsort(keys, axis=1)[:, :count]


def _draw_cell(config: MixGridConfig, n: int, n_e: int) -> np.ndarray:
    """(samples, n) member indices of one cell's lineups, ``config.pool_e``
    members then ``config.pool_c`` members (offset by ``len(config.pool_e)``).

    One stream per cell: every row gives each member of a pool a uniform
    key and takes the members with the smallest keys, in key order, which is
    a uniform draw without replacement.
    """
    rng = rng_for(config.master_seed, n, n_e, 0)
    samples = config.samples_per_cell
    keys_e = rng.random((samples, len(config.pool_e)))
    keys_c = rng.random((samples, len(config.pool_c)))
    return np.concatenate(
        [_smallest(keys_e, n_e), len(config.pool_e) + _smallest(keys_c, n - n_e)], axis=1
    )


def _cell_rows(
    config: MixGridConfig, n: int, welfare: np.ndarray, limits: WelfareBounds
) -> list[MixGridRow]:
    """The rows of one group size's cells, ``n_e = 0..n``, from their
    (cells, samples) welfare: each row's mean, and the standard error of
    the mean, taken row by row."""
    samples = welfare.shape[1]
    means = welfare.mean(axis=1)
    if samples > 1:
        errors = welfare.std(axis=1, ddof=1) / np.sqrt(samples)
    else:
        errors = np.zeros(len(welfare))
    return [
        MixGridRow(
            game=config.kind.value,
            n=n,
            n_e=n_e,
            mean_welfare=mean,
            std_error=error,
            welfare_min=limits.min_mean,
            welfare_max=limits.max_mean,
            samples=samples,
        )
        for n_e, (mean, error) in enumerate(zip(means.tolist(), errors.tolist()))
    ]


def run_mix_grid(config: MixGridConfig) -> list[MixGridRow]:
    """All cells for all group sizes; deterministic given the master seed.

    Each cell is one block of games on its own kernel seed, so its row
    depends only on its address ``(n, n_e)``. A large grid plays its odd
    ``n_e`` in a forked child (``play_split``). A ``StrategyFault`` names
    the cell and the sample: the first faulting cell's lone fault, in grid
    order (group sizes, then ``n_e``), however the cells share stacks or
    processes.
    """
    config.validate()
    table = MemberTable.compile(config.pool_e.members + config.pool_c.members)

    def play(part: int, parts: int):
        """Cells ``n_e = part, part + parts, ...`` of each group size: their
        (cells, samples) welfare per group size, up to the first group size
        that faults, and that fault with its grid position, or None."""
        welfare = []
        for at, n in enumerate(config.group_sizes):
            cells = (
                (_draw_cell(config, n, n_e), derive_seed(config.master_seed, n, n_e, 1))
                for n_e in range(part, n + 1, parts)
            )
            try:
                welfare.append(np.array(
                    [w for _, w in play_blocks(config.kind, config.params_for(n), table, cells)]
                ))
            except StrategyFault as fault:
                return welfare, ((at, part + fault.block * parts), fault)
        return welfare, None

    decisions = config.samples_per_cell * config.rounds * sum(
        n * (n + 1) for n in config.group_sizes
    )
    played = play_split(play, decisions)
    faults = [fault for _, fault in played if fault is not None]
    if faults:
        ((at, n_e), fault) = min(faults, key=lambda found: found[0])
        raise StrategyFault(
            fault.label, fault.player, fault.round_index, fault.reason,
            f"{fault.cause} (sample {fault.game} of cell ({config.group_sizes[at]}, {n_e}))",
        ) from fault
    out: list[MixGridRow] = []
    for at, n in enumerate(config.group_sizes):
        welfare = np.empty((n + 1, config.samples_per_cell))
        for part, (rows, _) in enumerate(played):
            welfare[part :: len(played)] = rows[at]
        out += _cell_rows(config, n, welfare, cached_bounds(config.kind, config.params_for(n)))
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
