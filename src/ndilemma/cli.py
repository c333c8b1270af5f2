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
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

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
from .manifest import MANIFEST_NAME, RunManifest, config_digest, verify_manifest
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


# The keys docs/formats.md documents for each config object; any other key
# is an error, not a silently ignored typo.
CONFIG_KEYS = {
    "fingerprint": ("game", "rollouts", "include_references", "pools"),
    "selfplay": ("game", "group_sizes", "samples_per_cell", "pool_e", "pool_c"),
    "evolve": (
        "game", "population", "group_size", "games_per_agent", "elites", "mutation_rate",
        "dominance_threshold", "max_generations", "runs", "genes",
    ),
}
GAME_KEYS = ("kind", "n", "rounds", "k", "m", "capacity")
POOL_KEYS = ("gene_tag", "attitude", "source")
SOURCE_KEYS = {"file": ("path",), "synth": ("size", "families"), "reference": ("members",)}
SYNTH_FAMILY_KEYS = ("family", "weight", "params")
# a reference member takes only the parameter its kind reads
REFERENCE_MEMBER_KEYS = {
    "allc": ("kind", "count"),
    "alld": ("kind", "count"),
    "rnd": ("kind", "count", "p"),
    "cc": ("kind", "count", "t"),
    "cd": ("kind", "count", "t"),
}


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _check_keys(entry, allowed: tuple[str, ...], where: str) -> None:
    """Raise ``ConfigError`` naming ``where`` unless ``entry`` is an object
    whose keys are all in ``allowed``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object, got {entry!r}")
    for key in entry:
        if key not in allowed:
            raise ConfigError(
                f"{where}: unknown key {key!r}; expected one of {', '.join(allowed)}"
            )


def _load_config(path: str, command: str) -> dict:
    """The config at ``path`` for ``command``, its top level and its game
    object checked for unknown keys."""
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        data = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{config_path}: expected a JSON object")
    version = data.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{config_path}: unsupported schema_version {version!r}; "
            f"expected {CONFIG_SCHEMA_VERSION}"
        )
    _check_keys(data, ("schema_version", "seed", *CONFIG_KEYS[command]), "config")
    if "game" in data:
        _check_keys(data["game"], GAME_KEYS, "game")
    return data


def _cast(value, to: type, key: str):
    """``to(value)`` for the config value at ``key``; a value that does not
    cast, a boolean, or a fractional number for an integer raises
    ``ConfigError`` naming the key."""
    expected = "an integer" if to is int else "a number"
    fractional = to is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        return to(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from None


def _game_params(game: dict, n: int | None = None) -> tuple[GameKind, GameParams]:
    if "kind" not in game:
        raise ConfigError("config needs a game object with a 'kind' field")
    kind = GameKind.parse(str(game["kind"]))
    fields = {}
    if n is not None:
        if "n" in game and _cast(game["n"], int, "game.n") != n:
            raise ConfigError(f"game.n is {game['n']!r} but group_size is {n}")
        fields["n"] = n
    elif "n" in game:
        fields["n"] = _cast(game["n"], int, "game.n")
    else:
        raise ConfigError("game config needs a player count 'n'")
    for key in ("rounds", "m"):
        if key in game:
            fields[key] = _cast(game[key], int, f"game.{key}")
    for key in ("k", "capacity"):
        if key in game:
            fields[key] = _cast(game[key], float, f"game.{key}")
    params = GameParams(**fields)
    params.validate_for(kind)
    return kind, params


def _reference_member(spec: dict, kind: str, index: int) -> Strategy:
    if kind == "rnd":
        strat = make_reference("rnd", p=_cast(spec.get("p", 0.5), float, "members.p"))
    elif kind in ("cc", "cd"):
        strat = make_reference(kind, t=_cast(spec.get("t", 1), int, "members.t"))
    else:
        strat = make_reference(kind)
    return Strategy(f"{strat.label}#{index:03d}", strat.origin, strat.decide, strat.kernel)


def load_pool_source(
    spec: dict, master_seed: int, pool_index: int, key: str | None = None
) -> StrategyPool:
    """Build a pool from one config entry: file, synth, or reference.

    ``pool_index`` seeds a synth pool; ``key`` is the entry's place in the
    config (default ``pools[pool_index]``). A malformed or out-of-range
    entry raises ``ConfigError`` naming it.
    """
    key = f"pools[{pool_index}]" if key is None else key
    try:
        return _pool_from_source(spec, master_seed, pool_index, key)
    except (ConfigError, SchemaError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _pool_from_source(spec: dict, master_seed: int, pool_index: int, key: str) -> StrategyPool:
    _check_keys(spec, POOL_KEYS, key)
    source = spec.get("source")
    if not isinstance(source, dict) or "type" not in source:
        raise ConfigError(f"{key}: needs a source object with a 'type'")
    stype = source["type"]
    if not isinstance(stype, str) or stype not in SOURCE_KEYS:
        raise ConfigError(f"{key}: unknown source type {stype!r}")
    _check_keys(source, ("type", *SOURCE_KEYS[stype]), f"{key}.source")
    if stype == "file":
        if "path" not in source:
            raise ConfigError(f"{key}: file source needs a 'path'")
        pool = load_pool(source["path"])
        gene_tag = spec.get("gene_tag", pool.gene_tag)
        attitude = Attitude.parse(spec["attitude"]) if "attitude" in spec else pool.attitude
        return StrategyPool(gene_tag, attitude, pool.members)
    gene_tag = spec.get("gene_tag")
    if not gene_tag:
        raise ConfigError(f"{key}: {stype} pools need a gene_tag")
    attitude = Attitude.parse(str(spec.get("attitude", "collective")))
    if stype == "synth":
        entries = source.get("families", [])
        if not entries:
            raise ConfigError(f"{key}: synth source needs families")
        for j, fam in enumerate(entries):
            _check_keys(fam, SYNTH_FAMILY_KEYS, f"{key}.source.families[{j}]")
        if not all("family" in fam for fam in entries):
            raise ConfigError(f"{key}: every synth family needs a 'family' name")
        families = [
            FamilySpec(
                family=fam["family"],
                weight=_cast(fam.get("weight", 1.0), float, f"{key}.weight"),
                params=fam.get("params", {}),
            )
            for fam in entries
        ]
        size = _cast(source.get("size", 512), int, f"{key}.size")
        return synth_pool(families, size, derive_seed(master_seed, 900, pool_index),
                          gene_tag, attitude)
    members = []
    for j, raw in enumerate(source.get("members", [])):
        where = f"{key}.source.members[{j}]"
        kind = str(raw.get("kind", "")).lower() if isinstance(raw, dict) else None
        if kind is not None and kind not in REFERENCE_MEMBER_KEYS:
            raise ConfigError(f"{where}: unknown reference member kind {kind!r}")
        _check_keys(raw, REFERENCE_MEMBER_KEYS.get(kind, ()), where)
        count = _cast(raw.get("count", 1), int, f"{key}.count")
        members.extend(_reference_member(raw, kind, len(members) + i) for i in range(count))
    if not members:
        raise ConfigError(f"{key}: reference source needs members")
    return StrategyPool(gene_tag, attitude, tuple(members))


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _seed_from(config: dict, override: int | None) -> int:
    if override is not None:
        return override
    return _cast(config.get("seed", 0), int, "seed")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_fingerprint(args: argparse.Namespace) -> int:
    config = _load_config(args.config, "fingerprint")
    seed = _seed_from(config, args.seed)
    kind, params = _game_params(config.get("game", {}))
    rollouts = _cast(config.get("rollouts", 50), int, "rollouts")
    if rollouts < 1:
        raise ConfigError(f"rollouts must be >= 1, got {rollouts}")
    pool_specs = config.get("pools", [])
    if not pool_specs:
        raise ConfigError("fingerprint config needs at least one pool")
    pools = [load_pool_source(spec, seed, i) for i, spec in enumerate(pool_specs)]
    include_refs = config.get("include_references", True)
    if not isinstance(include_refs, bool):
        raise ConfigError(f"include_references must be true or false, got {include_refs!r}")
    nodes = enumerate_nodes(params.n, params.rounds)
    out_dir = _prepare_out(args.out)
    manifest = RunManifest("fingerprint", __version__, seed, config_digest(config))

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

    matrix = fingerprint_many(strategies, kind, params, nodes, rollouts, derive_seed(seed, 1))
    analysis = pca(matrix)

    ref_labels: list[str] = []
    ref_matrix = None
    if include_refs:
        refs = default_reference_overlay(params.n)
        ref_labels = [ref.label for ref in refs]
        ref_matrix = fingerprint_many(refs, kind, params, nodes, rollouts, derive_seed(seed, 2))

    write_nodes_csv(nodes, out_dir / "nodes.csv")
    all_labels = labels + ref_labels
    all_sets = sets + ["reference"] * len(ref_labels)
    if ref_matrix is not None and len(ref_labels):
        full_matrix = np.vstack([matrix, ref_matrix])
        projections = np.vstack(
            [analysis.projections, (ref_matrix - analysis.mean) @ analysis.components.T]
        )
    else:
        full_matrix = matrix
        projections = analysis.projections
    write_fingerprint_csv(all_labels, full_matrix, nodes, out_dir / "fingerprints.csv")
    write_pca_json(analysis, out_dir / "pca.json")
    write_projections_csv(all_labels, all_sets, projections, out_dir / "projections.csv")

    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pool", "mpd", "pr"])
        for name, rows in pool_slices:
            block = matrix[rows]
            mpd_value = repr(mpd(block)) if len(block) >= 2 else "undefined"
            try:
                pr_value = repr(participation_ratio(pca(block).eigenvalues))
            except ValueError:
                pr_value = "undefined"
            writer.writerow([name, mpd_value, pr_value])

    with open(out_dir / "cohens_d.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pool_a", "pool_b", "cohens_d"])
        for i, (name_a, rows_a) in enumerate(pool_slices):
            for name_b, rows_b in pool_slices[i + 1 :]:
                try:
                    value = repr(cohens_d(matrix[rows_a], matrix[rows_b]))
                except ValueError:
                    value = "undefined"
                writer.writerow([name_a, name_b, value])

    for name in ("nodes.csv", "fingerprints.csv", "pca.json", "projections.csv",
                 "metrics.csv", "cohens_d.csv"):
        manifest.add_output(out_dir, out_dir / name)
    manifest.write(out_dir)
    print(f"fingerprint outputs written to {out_dir}")
    return EXIT_OK


def cmd_selfplay(args: argparse.Namespace) -> int:
    config = _load_config(args.config, "selfplay")
    seed = _seed_from(config, args.seed)
    game = dict(config.get("game", {}))
    if args.k is not None:
        game["k"] = args.k
    if "kind" not in game:
        raise ConfigError("selfplay config needs game.kind")
    kind = GameKind.parse(str(game["kind"]))
    for key in ("n", "m", "capacity"):
        if key in game:
            raise ConfigError(
                f"selfplay does not read game.{key}: each group size n plays with "
                "m = n // 2 and capacity 4n"
            )
    if "pool_e" not in config or "pool_c" not in config:
        raise ConfigError("selfplay config needs pool_e and pool_c")
    group_sizes = config.get("group_sizes", (4, 16, 64, 256))
    if not isinstance(group_sizes, (list, tuple)):
        raise ConfigError(f"group_sizes must be a list of integers, got {group_sizes!r}")
    pool_e = load_pool_source(config["pool_e"], seed, 0, "pool_e")
    pool_c = load_pool_source(config["pool_c"], seed, 1, "pool_c")
    grid = MixGridConfig(
        kind=kind,
        pool_e=pool_e,
        pool_c=pool_c,
        k=_cast(game.get("k", 2.0), float, "game.k"),
        rounds=_cast(game.get("rounds", 20), int, "game.rounds"),
        group_sizes=tuple(_cast(n, int, "group_sizes") for n in group_sizes),
        samples_per_cell=_cast(config.get("samples_per_cell", 200), int, "samples_per_cell"),
        master_seed=derive_seed(seed, 3),
    )
    try:
        grid.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = run_mix_grid(grid)
    out_dir = _prepare_out(args.out)
    emit_grid_csv(rows, out_dir / "grid.csv")
    # the digest covers the config as played, with any --k override applied
    digested = config if args.k is None else {**config, "game": game}
    manifest = RunManifest("selfplay", __version__, seed, config_digest(digested))
    manifest.add_output(out_dir, out_dir / "grid.csv")
    manifest.write(out_dir)
    print(f"mix grid written to {out_dir / 'grid.csv'} ({len(rows)} cells)")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    config = _load_config(args.config, "evolve")
    seed = _seed_from(config, args.seed)
    group_size = _cast(config.get("group_size", 4), int, "group_size")
    kind, params = _game_params(config.get("game", {}), n=group_size)
    gene_specs = config.get("genes", [])
    if not gene_specs:
        raise ConfigError("evolve config needs a non-empty genes list")
    genes = []
    pools = {}
    for i, spec in enumerate(gene_specs):
        pool = load_pool_source(spec, seed, i, f"genes[{i}]")
        gene = Gene(pool.gene_tag, pool.attitude)
        if gene in pools:
            raise ConfigError(f"genes[{i}]: duplicate gene {gene.label}")
        genes.append(gene)
        pools[gene] = pool
    evo = EvolutionConfig(
        kind=kind,
        params=params,
        genes=tuple(genes),
        pools=pools,
        population=_cast(config.get("population", 512), int, "population"),
        group_size=group_size,
        games_per_agent=_cast(config.get("games_per_agent", 4), int, "games_per_agent"),
        elites=_cast(config.get("elites", 64), int, "elites"),
        mutation_rate=_cast(config.get("mutation_rate", 0.10), float, "mutation_rate"),
        dominance_threshold=_cast(
            config.get("dominance_threshold", 0.75), float, "dominance_threshold"
        ),
        max_generations=_cast(config.get("max_generations", 200), int, "max_generations"),
        master_seed=derive_seed(seed, 4),
    )
    try:
        evo.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    runs = _cast(config.get("runs", 1), int, "runs")
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    out_dir = _prepare_out(args.out)
    manifest = RunManifest("evolve", __version__, seed, config_digest(config))
    if runs == 1:
        result = run_evolution(evo)
        write_generations_csv(result.history, out_dir / "generations.csv")
        (out_dir / "result.json").write_text(
            json.dumps(
                {
                    "winner": result.winner.label,
                    "terminated_by": result.terminated_by,
                    "generations_run": result.generations_run,
                    "final_frequencies": {
                        gene.label: freq for gene, freq in result.final_frequencies.items()
                    },
                },
                indent=2,
            )
            + "\n"
        )
        manifest.add_output(out_dir, out_dir / "generations.csv")
        manifest.add_output(out_dir, out_dir / "result.json")
        print(
            f"evolution finished: winner {result.winner.label} by "
            f"{result.terminated_by} after {result.generations_run} generations"
        )
    else:
        summary = batch_runs(evo, runs)
        write_summary_csv(summary, out_dir / "summary.csv")
        write_summary_json(summary, out_dir / "summary.json")
        manifest.add_output(out_dir, out_dir / "summary.csv")
        manifest.add_output(out_dir, out_dir / "summary.json")
        print(
            f"{runs} runs finished: threshold reached in "
            f"{summary.threshold_reached}, average generations "
            f"{summary.average_generations:g}"
        )
    manifest.write(out_dir)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    kind = GameKind.parse(args.game)
    params = GameParams(
        n=args.n, rounds=args.rounds,
        **({"k": args.k} if args.k is not None else {}),
    )
    params.validate_for(kind)
    pool = load_pool(args.pool)
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
    if args.out:
        out_dir = _prepare_out(args.out)
        with open(out_dir / "validation.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "label", "passed", "action_ok", "step_ok", "deterministic",
                "cooperation_rate", "decisions", "failures",
            ])
            for rep in reports:
                writer.writerow([
                    rep.label, rep.passed, rep.action_ok, rep.step_ok,
                    rep.deterministic, repr(rep.cooperation_rate),
                    rep.decisions, " | ".join(rep.failures),
                ])
        manifest = RunManifest(
            "validate", __version__, args.seed,
            config_digest({
                "pool": str(args.pool), "game": kind.value, **asdict(params),
                "trials": args.trials, "seed": args.seed,
            }),
        )
        manifest.add_output(out_dir, out_dir / "validation.csv")
        manifest.write(out_dir)
    print(f"{len(reports) - len(failed)}/{len(reports)} members admitted")
    return EXIT_STRATEGY if failed else EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    kind = GameKind.parse(args.game)
    fields: dict = {"n": args.n, "rounds": args.rounds}
    if args.k is not None:
        fields["k"] = args.k
    if args.m is not None:
        fields["m"] = args.m
    if args.capacity is not None:
        fields["capacity"] = args.capacity
    params = GameParams(**fields)
    limits = welfare_bounds(kind, params)
    print(f"min_mean_welfare {limits.min_mean!r}")
    print(f"max_mean_welfare {limits.max_mean!r}")
    if args.out:
        out_dir = _prepare_out(args.out)
        (out_dir / "bounds.json").write_text(
            json.dumps(
                {
                    "game": kind.value,
                    "n": params.n,
                    "rounds": params.rounds,
                    "min_mean_welfare": limits.min_mean,
                    "max_mean_welfare": limits.max_mean,
                    "method": limits.method,
                },
                indent=2,
            )
            + "\n"
        )
        manifest = RunManifest(
            "bounds", __version__, 0,
            config_digest({"game": kind.value, **asdict(params)}),
        )
        manifest.add_output(out_dir, out_dir / "bounds.json")
        manifest.write(out_dir)
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
    p_va.add_argument("--n", type=int, required=True, help="player count")
    p_va.add_argument("--rounds", type=int, default=20)
    p_va.add_argument("--k", type=float, default=None)
    p_va.add_argument("--trials", type=int, default=50)
    p_va.add_argument("--seed", type=int, default=0)
    p_va.add_argument("--out", default=None, help="optional report directory")
    p_va.set_defaults(func=cmd_validate)

    p_bo = sub.add_parser("bounds", help="welfare bounds for a game setup")
    p_bo.add_argument("game", help="pgg, crd, or cpr")
    p_bo.add_argument("--n", type=int, required=True)
    p_bo.add_argument("--rounds", type=int, default=20)
    p_bo.add_argument("--k", type=float, default=None)
    p_bo.add_argument("--m", type=int, default=None)
    p_bo.add_argument("--capacity", type=float, default=None)
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
