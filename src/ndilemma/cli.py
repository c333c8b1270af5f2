"""Command-line front end.

Commands: ``fingerprint``, ``selfplay``, ``evolve``, ``validate``,
``bounds``, ``verify``. Each pipeline command reads a JSON config (see
docs/formats.md), writes its data files plus a run manifest into ``--out``,
and uses the single master seed from the config (or ``--seed``) for all
randomness. ``verify`` re-hashes such an output directory.

Exit codes: 0 success, 1 configuration error or (``verify``) an output
that does not match its manifest, 2 strategy fault or failed validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bounds import welfare_bounds
from .engine import StrategyFault
from .evolution import (
    EvolutionConfig,
    Gene,
    batch_runs,
    run_evolution,
    write_generations_csv,
    write_summary_csv,
    write_summary_json,
)
from .fingerprint import (
    cohens_d,
    enumerate_nodes,
    fingerprint_many,
    mpd,
    participation_ratio,
    pca,
    write_fingerprint_csv,
    write_nodes_csv,
    write_pca_json,
    write_projections_csv,
)
from .games import GameConfigError, GameKind, GameParams
from .kernels import default_reference_overlay, make_reference
from .manifest import (
    MANIFEST_NAME,
    RunManifest,
    config_digest,
    verify_manifest,
    write_csv,
    write_json,
)
from .policy import SchemaError, load_pool
from .pools import FamilySpec, synth_pool, validate_pool
from .seeding import derive_seed
from .selfplay import MixGridConfig, emit_grid_csv, run_mix_grid
from .strategies import Attitude, Strategy, StrategyPool

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STRATEGY = 2


class ConfigError(ValueError):
    """Bad command configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


_EXPECTED = {
    int: "an integer", float: "a number", bool: "true or false",
    str: "a non-empty string", list: "a list", dict: "an object",
}


def _cast(value, to, key: str):
    """The config value at ``key`` as a ``to``; ``ConfigError`` naming the
    key if it does not fit.

    ``int`` and ``float`` cast a number or a numeric string but refuse a
    boolean and, for ``int``, a fractional number. ``bool``, ``str``, ``list``
    and ``dict`` take only their own JSON type, and a string must not be
    empty. ``(int,)`` takes a list of integers and returns it as a tuple;
    ``None`` takes any value.
    """
    if to is None:
        return value
    if isinstance(to, tuple):
        return tuple(_cast(item, to[0], key) for item in _cast(value, list, key))
    if to in (int, float):
        fractional = to is int and isinstance(value, float) and not value.is_integer()
        if not isinstance(value, bool) and not fractional:
            try:
                return to(value)
            except (TypeError, ValueError, OverflowError):
                pass
    elif isinstance(value, to) and value != "":
        return value
    raise ConfigError(f"{key} must be {_EXPECTED[to]}, got {value!r}")


class _Entry:
    """One object of a command config, at ``path`` in it (``""`` for the
    top level).

    Reading a key records it and casts its value (see ``_cast``), naming its
    full path, such as ``genes[0].source.members[1].p``, in any error.
    ``done`` then rejects every key that no read asked for.
    """

    def __init__(self, data, path: str):
        self.data = _cast(data, dict, path or "config")
        self.path = path
        self.read: dict[str, None] = {}

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def pick(self, **casts) -> dict:
        """The keys of ``casts`` that are present, each cast by its value.
        An absent key is left out, so the default of what takes the result
        holds."""
        self.read.update(dict.fromkeys(casts))
        return {key: _cast(self.data[key], to, self.where(key))
                for key, to in casts.items() if key in self.data}

    def get(self, key: str, to=None, default=None):
        """The value at ``key`` cast by ``to``, or ``default`` if absent."""
        return self.pick(**{key: to}).get(key, default)

    def need(self, key: str, to=None):
        """``get`` for a key that must be present."""
        if key not in self.data:
            raise ConfigError(f"{self.where(key)} is required")
        return self.get(key, to)

    def entry(self, key: str) -> "_Entry":
        return _Entry(self.need(key), self.where(key))

    def entries(self, key: str) -> list["_Entry"]:
        """The objects of the non-empty list at ``key``."""
        items = self.need(key, list)
        if not items:
            raise ConfigError(f"{self.where(key)} must be non-empty")
        return [_Entry(item, f"{self.where(key)}[{i}]") for i, item in enumerate(items)]

    def done(self) -> None:
        for key in self.data:
            if key not in self.read:
                raise ConfigError(
                    f"{self.path or 'config'}: unknown key {key!r}; "
                    f"expected one of {', '.join(self.read)}"
                )


def _scalars(entry: _Entry, cls, skip: tuple[str, ...] = ()) -> dict:
    """The keys of ``entry`` that name an int or float field of dataclass
    ``cls``, cast to the field's type; an absent key keeps its default."""
    hints = get_type_hints(cls)
    return entry.pick(**{
        f.name: hints[f.name] for f in fields(cls)
        if hints[f.name] in (int, float) and f.name not in skip
    })


def _load_config(args: argparse.Namespace) -> tuple[_Entry, int]:
    """The config at ``args.config`` and its master seed, which ``--seed``
    overrides."""
    config_path = Path(args.config)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        config = _Entry(json.loads(config_path.read_text()), "")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON: {exc}")
    version = config.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{config_path}: unsupported schema_version {version!r}; "
            f"expected {CONFIG_SCHEMA_VERSION}"
        )
    seed = config.get("seed", int, 0)
    if args.seed is not None:
        seed = args.seed
    _check_seed(seed)
    return config, seed


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def _game_params(game: _Entry, n: int | None = None) -> tuple[GameKind, GameParams]:
    """The game at ``game``; ``n``, when given, is the player count the
    command fixes, and ``game.n`` may only repeat it."""
    kind = GameKind.parse(game.need("kind", str))
    if n is None:
        n = game.need("n", int)
    given = _scalars(game, GameParams)
    if given.setdefault("n", n) != n:
        raise ConfigError(f"{game.where('n')} is {given['n']} but group_size is {n}")
    game.done()
    params = GameParams(**given)
    try:
        params.validate_for(kind)
    except GameConfigError as exc:
        where = "group_size" if exc.key == "n" and "n" not in game.data else game.path
        raise ConfigError(f"{where}: {exc}") from None
    return kind, params


def _flag_game(args: argparse.Namespace) -> tuple[GameKind, GameParams]:
    """The game that the ``validate`` and ``bounds`` flags set, checked; a
    flag left out keeps its ``GameParams`` default."""
    flags = {f.name: getattr(args, f.name) for f in fields(GameParams)}
    given = {name: value for name, value in flags.items() if value is not None}
    kind, params = GameKind.parse(args.game), GameParams(**given)
    params.validate_for(kind)
    return kind, params


def load_pool_source(spec: dict | _Entry, master_seed: int, pool_index: int) -> StrategyPool:
    """Build a pool from one config entry: file, synth, or reference.

    ``pool_index`` seeds a synth pool and, when ``spec`` is a plain dict,
    names the entry ``pools[pool_index]``. A malformed or out-of-range entry
    raises ``ConfigError`` naming it.
    """
    if not isinstance(spec, _Entry):
        spec = _Entry(spec, f"pools[{pool_index}]")
    try:
        return _pool_from_source(spec, master_seed, pool_index)
    except (ConfigError, SchemaError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{spec.path}: {exc}") from None


def _pool_from_source(pool: _Entry, master_seed: int, pool_index: int) -> StrategyPool:
    source = pool.entry("source")
    stype = source.need("type", str)
    gene_tag = pool.get("gene_tag", str) if stype == "file" else pool.need("gene_tag", str)
    attitude = pool.get("attitude", str)
    attitude = None if attitude is None else Attitude.parse(attitude)
    pool.done()
    if stype == "file":
        path = source.get("path", str)
        if path is None:
            raise ConfigError(f"{pool.path}: file source needs a 'path'")
        source.done()
        loaded = load_pool(path)
        return StrategyPool(gene_tag or loaded.gene_tag, attitude or loaded.attitude,
                            loaded.members)
    attitude = attitude or Attitude.COLLECTIVE
    if stype == "synth":
        families = []
        for family in source.entries("families"):
            families.append(FamilySpec(
                family.get("family", str), **family.pick(weight=float, params=dict)
            ))
            family.done()
        size = source.get("size", int, 512)
        source.done()
        return synth_pool(families, size, derive_seed(master_seed, 900, pool_index),
                          gene_tag, attitude)
    if stype != "reference":
        raise ConfigError(f"{pool.path}: unknown source type {stype!r}")
    members = []
    for member in source.entries("members"):
        kind = member.need("kind", str).lower()
        count = member.get("count", int, 1)
        if count < 1:
            raise ConfigError(f"{member.where('count')} must be >= 1, got {count}")
        if kind == "rnd":
            ref = make_reference(kind, p=member.get("p", float, 0.5))
        elif kind in ("cc", "cd"):
            ref = make_reference(kind, t=member.get("t", int, 1))
        elif kind in ("allc", "alld"):
            ref = make_reference(kind)
        else:
            raise ConfigError(f"{member.path}: unknown reference member kind {kind!r}")
        member.done()
        for _ in range(count):  # each copy is numbered by its place in the pool
            members.append(replace(ref, label=f"{ref.label}#{len(members):03d}"))
    source.done()
    return StrategyPool(gene_tag, attitude, tuple(members))


def _prepare_out(out: str | None) -> Path | None:
    """``--out`` as a directory, made if need be (None when not given).
    Each command makes it once its config checks out and before any work."""
    if out is None:
        return None
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot make the directory: {exc.strerror}") from None
    return out_dir


def _or_undefined(metric, *sets):
    """``metric(*sets)``, or ``"undefined"`` where it raises ``ValueError``
    (too few strategies, or no spread to compare against)."""
    try:
        return metric(*sets)
    except ValueError:
        return "undefined"


def _participation_ratio(block: np.ndarray) -> float:
    return participation_ratio(pca(block).eigenvalues)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_fingerprint(args: argparse.Namespace) -> int:
    config, seed = _load_config(args)
    kind, params = _game_params(config.entry("game"))
    # an absent rollouts keeps fingerprint_many's default
    rollouts = config.pick(rollouts=int)
    if rollouts.get("rollouts", 1) < 1:
        raise ConfigError(f"rollouts must be >= 1, got {rollouts['rollouts']}")
    pools = [load_pool_source(entry, seed, i) for i, entry in enumerate(config.entries("pools"))]
    pooled = sum(len(pool.members) for pool in pools)
    if pooled < 2:  # the PCA is fitted on the pooled strategies
        raise ConfigError(f"pools must hold at least 2 strategies in total, got {pooled}")
    include_refs = config.get("include_references", bool, True)
    config.done()
    nodes = enumerate_nodes(params.n, params.rounds)
    out_dir = _prepare_out(args.out)
    manifest = RunManifest("fingerprint", __version__, seed, config_digest(config.data))

    labels: list[str] = []
    sets: list[str] = []
    pool_slices: list[tuple[str, slice]] = []
    strategies: list[Strategy] = []
    for pool in pools:
        start = len(strategies)
        strategies.extend(pool.members)
        name = f"{pool.gene_tag}/{pool.attitude.value}"
        labels.extend(member.label for member in pool.members)
        sets.extend([name] * len(pool.members))
        pool_slices.append((name, slice(start, len(strategies))))

    matrix = fingerprint_many(strategies, kind, params, nodes, seed=derive_seed(seed, 1),
                             **rollouts)
    analysis = pca(matrix)
    refs = default_reference_overlay(params.n) if include_refs else []
    ref_matrix = fingerprint_many(refs, kind, params, nodes, seed=derive_seed(seed, 2),
                                  **rollouts)
    labels.extend(ref.label for ref in refs)
    sets.extend(["reference"] * len(refs))
    projections = np.vstack(
        [analysis.projections, (ref_matrix - analysis.mean) @ analysis.components.T]
    )
    metrics = [(name, _or_undefined(mpd, matrix[rows]),
                _or_undefined(_participation_ratio, matrix[rows]))
               for name, rows in pool_slices]
    separations = [(name_a, name_b, _or_undefined(cohens_d, matrix[rows_a], matrix[rows_b]))
                   for i, (name_a, rows_a) in enumerate(pool_slices)
                   for name_b, rows_b in pool_slices[i + 1 :]]
    manifest.write_outputs(out_dir, {
        "nodes.csv": partial(write_nodes_csv, nodes),
        "fingerprints.csv": partial(write_fingerprint_csv, labels,
                                    np.vstack([matrix, ref_matrix]), nodes),
        "pca.json": partial(write_pca_json, analysis),
        "projections.csv": partial(write_projections_csv, labels, sets, projections),
        "metrics.csv": partial(write_csv, header=["pool", "mpd", "pr"], rows=metrics),
        "cohens_d.csv": partial(write_csv, header=["pool_a", "pool_b", "cohens_d"],
                                rows=separations),
    })
    print(f"fingerprint outputs written to {out_dir}")
    return EXIT_OK


def cmd_selfplay(args: argparse.Namespace) -> int:
    config, seed = _load_config(args)
    game = config.entry("game")
    kind = GameKind.parse(game.need("kind", str))
    for key in ("n", "m", "capacity"):
        if key in game.data:
            raise ConfigError(
                f"selfplay does not read game.{key}: each group size n plays with "
                "m = n // 2 and capacity 4n"
            )
    grid_game = game.pick(k=float, rounds=int)
    game.done()
    if args.k is not None:
        grid_game["k"] = args.k
    pool_e = load_pool_source(config.entry("pool_e"), seed, 0)
    pool_c = load_pool_source(config.entry("pool_c"), seed, 1)
    grid = MixGridConfig(
        kind=kind, pool_e=pool_e, pool_c=pool_c, master_seed=derive_seed(seed, 3),
        **grid_game, **config.pick(group_sizes=(int,), samples_per_cell=int),
    )
    config.done()
    try:
        grid.validate()
    except GameConfigError as exc:
        # each group size is a game's n, and --k overrides game.k
        if exc.key == "n":
            where = "group_sizes"
        elif exc.key == "k" and args.k is not None:
            where = "--k"
        else:
            where = game.path
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc))
    out_dir = _prepare_out(args.out)
    rows = run_mix_grid(grid)
    # the digest covers the config as played, with any --k override applied
    played = game.data if args.k is None else {**game.data, "k": args.k}
    digest = config_digest({**config.data, "game": played})
    RunManifest("selfplay", __version__, seed, digest).write_outputs(
        out_dir, {"grid.csv": partial(emit_grid_csv, rows)}
    )
    print(f"mix grid written to {out_dir / 'grid.csv'} ({len(rows)} cells)")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    config, seed = _load_config(args)
    scalars = _scalars(config, EvolutionConfig, skip=("master_seed",))
    group_size = scalars.get("group_size", EvolutionConfig.group_size)
    kind, params = _game_params(config.entry("game"), n=group_size)
    genes = []
    pools = {}
    for i, entry in enumerate(config.entries("genes")):
        pool = load_pool_source(entry, seed, i)
        gene = Gene(pool.gene_tag, pool.attitude)
        if gene in pools:
            raise ConfigError(f"{entry.path}: duplicate gene {gene.label}")
        genes.append(gene)
        pools[gene] = pool
    runs = config.get("runs", int, 1)
    config.done()
    evo = EvolutionConfig(
        kind=kind, params=params, genes=tuple(genes), pools=pools,
        master_seed=derive_seed(seed, 4), **scalars,
    )
    try:
        evo.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    out_dir = _prepare_out(args.out)
    if runs == 1:
        result = run_evolution(evo)
        outputs = {
            "generations.csv": partial(write_generations_csv, result.history),
            "result.json": partial(write_json, doc={
                "winner": result.winner.label,
                "terminated_by": result.terminated_by,
                "generations_run": result.generations_run,
                "final_frequencies": {
                    gene.label: freq for gene, freq in result.final_frequencies.items()
                },
            }),
        }
        message = (
            f"evolution finished: winner {result.winner.label} by "
            f"{result.terminated_by} after {result.generations_run} generations"
        )
    else:
        summary = batch_runs(evo, runs)
        outputs = {
            "summary.csv": partial(write_summary_csv, summary),
            "summary.json": partial(write_summary_json, summary),
        }
        message = (
            f"{runs} runs finished: threshold reached in "
            f"{summary.threshold_reached}, average generations "
            f"{summary.average_generations:g}"
        )
    RunManifest("evolve", __version__, seed, config_digest(config.data)).write_outputs(
        out_dir, outputs
    )
    print(message)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    kind, params = _flag_game(args)
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    _check_seed(args.seed)
    pool = load_pool(args.pool)
    out_dir = _prepare_out(args.out)
    reports = validate_pool(pool, kind, params, trials=args.trials, seed=args.seed)
    failed = [rep for rep in reports if not rep.passed]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"[{status}] {rep.label}: action_ok={rep.action_ok} "
            f"step_ok={rep.step_ok} deterministic={rep.deterministic} "
            f"cooperation_rate={rep.cooperation_rate:.3f}"
        )
        for failure in rep.failures[:3]:
            print(f"    {failure}")
    if out_dir:
        manifest = RunManifest(
            "validate", __version__, args.seed,
            config_digest({
                "pool": str(args.pool), "game": kind.value, **asdict(params),
                "trials": args.trials, "seed": args.seed,
            }),
        )
        manifest.write_outputs(out_dir, {"validation.csv": partial(
            write_csv,
            header=["label", "passed", "action_ok", "step_ok", "deterministic",
                    "cooperation_rate", "decisions", "failures"],
            rows=[(rep.label, rep.passed, rep.action_ok, rep.step_ok, rep.deterministic,
                   rep.cooperation_rate, rep.decisions, " | ".join(rep.failures))
                  for rep in reports],
        )})
    print(f"{len(reports) - len(failed)}/{len(reports)} members admitted")
    return EXIT_STRATEGY if failed else EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    kind, params = _flag_game(args)
    out_dir = _prepare_out(args.out)
    limits = welfare_bounds(kind, params)
    print(f"min_mean_welfare {limits.min_mean!r}")
    print(f"max_mean_welfare {limits.max_mean!r}")
    if out_dir:
        manifest = RunManifest(
            "bounds", __version__, 0,
            config_digest({"game": kind.value, **asdict(params)}),
        )
        manifest.write_outputs(out_dir, {"bounds.json": partial(write_json, doc={
            "game": kind.value,
            "n": params.n,
            "rounds": params.rounds,
            "min_mean_welfare": limits.min_mean,
            "max_mean_welfare": limits.max_mean,
            "method": limits.method,
        })})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    out_dir = Path(args.dir)
    if not (out_dir / MANIFEST_NAME).exists():
        raise ConfigError(f"no {MANIFEST_NAME} in {out_dir}")
    try:
        problems = verify_manifest(out_dir)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{out_dir / MANIFEST_NAME}: malformed manifest: {exc!r}")
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_CONFIG
    print(f"{out_dir}: every output matches {MANIFEST_NAME}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndilemma",
        description="Iterated N-player social dilemma engine and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"ndilemma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    def game_flags(p: argparse.ArgumentParser) -> None:
        hints = get_type_hints(GameParams)
        for f in fields(GameParams):
            p.add_argument(f"--{f.name}", type=hints[f.name], required=f.name == "n")

    p_fp = sub.add_parser("fingerprint", help="behavioral fingerprints, PCA, metrics")
    common(p_fp)
    p_fp.set_defaults(func=cmd_fingerprint)

    p_sp = sub.add_parser("selfplay", help="pool-mix welfare grid")
    common(p_sp)
    p_sp.add_argument("--k", type=float, default=None, help="override payoff parameter k")
    p_sp.set_defaults(func=cmd_selfplay)

    p_ev = sub.add_parser("evolve", help="cultural evolution runs")
    common(p_ev)
    p_ev.set_defaults(func=cmd_evolve)

    p_va = sub.add_parser("validate", help="pre-admission checks for a policy pool")
    p_va.add_argument("pool", help="policy pool JSON file")
    p_va.add_argument("--game", required=True, help="pgg, crd, or cpr")
    game_flags(p_va)
    p_va.add_argument("--trials", type=int, default=50)
    p_va.add_argument("--seed", type=int, default=0)
    p_va.add_argument("--out", default=None, help="optional report directory")
    p_va.set_defaults(func=cmd_validate)

    p_bo = sub.add_parser("bounds", help="welfare bounds for a game setup")
    p_bo.add_argument("game", help="pgg, crd, or cpr")
    game_flags(p_bo)
    p_bo.add_argument("--out", default=None)
    p_bo.set_defaults(func=cmd_bounds)

    p_ve = sub.add_parser("verify", help="re-hash an output directory against its manifest")
    p_ve.add_argument("dir", help="output directory holding manifest.json")
    p_ve.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, GameConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StrategyFault as exc:
        print(f"strategy fault: {exc}", file=sys.stderr)
        return EXIT_STRATEGY


if __name__ == "__main__":
    sys.exit(main())
