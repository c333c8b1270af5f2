"""The benchmark's four workloads.

Each workload writes a config the ``ndilemma`` command accepts
(``write_config``, untimed), runs the command itself through
``ndilemma.cli.main`` (``run``, the timed step), and then reads the data
files the command wrote and holds them to the independent oracles in
``oracles`` (``check``). ``load`` repeats what the command loads before its
main loop (pools, decision nodes, the first eigensolver call); ``setup_s``
times it in fresh processes.

Every workload's inputs have exact or statistically bounded answers:
pools whose members always cooperate or always defect for the grids and
the evolution runs, and reference strategies with closed-form fingerprints.
"""

from __future__ import annotations

import contextlib
import csv
import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from ndilemma import cli
from ndilemma.cli import load_pool_source
from ndilemma.evolution import run_evolution
from ndilemma.fingerprint import enumerate_nodes
from ndilemma.kernels import default_reference_overlay
from ndilemma.seeding import derive_seed

import oracles

ROUNDS = 20

# Built-in families with parameters that make them behave exactly as AllD
# or AllC in every game, so each grid cell has a closed-form answer.
DEFECTING_FAMILIES = [
    {"family": "constant", "params": {"cooperate": 0}},
    {"family": "threshold_trigger", "params": {"first_c": 0, "threshold": 0, "sense": 0}},
    {"family": "endgame", "params": {"horizon": ROUNDS, "threshold_frac": 0.0}},
    {"family": "bernoulli", "params": {"p": 0.0}},
]
COOPERATING_FAMILIES = [
    {"family": "constant", "params": {"cooperate": 1}},
    {"family": "grim", "params": {"tolerance_frac": 1.0}},
    {"family": "reciprocator", "params": {"threshold_frac": 0.0, "forgive_prob": 0.0}},
    {"family": "rota", "params": {"period": 1, "phase": 0, "punish": 0}},
]


def synth_source(tag: str, attitude: str, size: int, families: list) -> dict:
    """A pool entry of the config: ``size`` members drawn from ``families``
    with equal weights by the program's own synthesizer."""
    return {"gene_tag": tag, "attitude": attitude,
            "source": {"type": "synth", "size": size, "families": families}}


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name: str
    command: str

    def config(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def write_config(self, seed: int, workdir: Path) -> tuple[dict, Path]:
        config = self.config(seed, workdir)
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=1))
        return config, path

    def run(self, config_path: Path, out_dir: Path) -> None:
        """The timed step: the ``ndilemma`` command, as a user runs it."""
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"ndilemma {self.command} exited with code {code}")

    @staticmethod
    def digests(out_dir: Path) -> list[tuple[str, str]]:
        """(path, sha256) of every data file the run manifest lists."""
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return [(entry["path"], entry["sha256"]) for entry in manifest["outputs"]]


# ---------------------------------------------------------------------------
# Mix grids: `ndilemma selfplay`.
# ---------------------------------------------------------------------------


class MixGrid(Workload):
    """Public-goods self-play grid over two pools of built-in families."""

    name = "mix_grid"
    command = "selfplay"
    game = {"kind": "pgg", "k": 3.0, "rounds": ROUNDS}
    group_sizes = (4, 16, 64, 256)
    samples = 8
    pool_size = 288

    def pool_entries(self, seed: int, workdir: Path) -> tuple[dict, dict]:
        return (synth_source("mix", "exploitative", self.pool_size, DEFECTING_FAMILIES),
                synth_source("mix", "collective", self.pool_size, COOPERATING_FAMILIES))

    def config(self, seed: int, workdir: Path) -> dict:
        pool_e, pool_c = self.pool_entries(seed, workdir)
        return {
            "schema_version": 1,
            "seed": seed,
            "game": self.game,
            "group_sizes": list(self.group_sizes),
            "samples_per_cell": self.samples,
            "pool_e": pool_e,
            "pool_c": pool_c,
        }

    def load(self, config: dict, seed: int) -> list:
        return [load_pool_source(config[key], seed, i) for i, key in enumerate(("pool_e", "pool_c"))]

    def operations(self, config: dict) -> int:
        return sum(n + 1 for n in config["group_sizes"])

    def decisions(self, config: dict, out_dir: Path) -> int:
        rows = read_csv(out_dir / "grid.csv")
        return sum(int(row["samples"]) * int(row["n"]) for row in rows) * config["game"]["rounds"]

    def cell_oracle(self, config: dict, n: int, n_c: int, welfare: float) -> str | None:
        return oracles.check_pgg_cell(n, n_c, config["game"]["k"], welfare)

    def check(self, config: dict, seed: int, out_dir: Path) -> dict[str, str]:
        expected = {(n, n_e) for n in config["group_sizes"] for n_e in range(n + 1)}
        failures, seen = {}, set()
        for row in read_csv(out_dir / "grid.csv"):
            n, n_e = int(row["n"]), int(row["n_e"])
            welfare = float(row["mean_welfare"])
            key = f"cell n={n} n_e={n_e}"
            if (n, n_e) not in expected or (n, n_e) in seen:
                failures[key] = "unexpected or repeated cell"
                continue
            seen.add((n, n_e))
            reason = self.cell_oracle(config, n, n - n_e, welfare)
            if reason is None and int(row["samples"]) != config["samples_per_cell"]:
                reason = f"{row['samples']} samples, expected {config['samples_per_cell']}"
            if reason is None and float(row["std_error"]) > oracles.CPR_REL * welfare:
                reason = f"identical samples but std_error {row['std_error']}"
            if reason is not None:
                failures[key] = reason
        for n, n_e in sorted(expected - seen):
            failures[f"cell n={n} n_e={n_e}"] = "cell missing from the grid"
        return failures


class PolicyGrid(MixGrid):
    """Common-pool grid over two policy-file pools; every decision goes
    through the per-decision engine and the rule interpreter."""

    name = "policy_grid"
    game = {"kind": "cpr", "rounds": ROUNDS}
    group_sizes = (4, 16, 64)
    samples = 2
    pool_size = 72

    # Rules that never hold in a 20-round common-pool game with at most 64
    # players. Every member carries one of each, in an order and with
    # thresholds the seed draws, so a decision evaluates the same predicates
    # whatever the seed. ``stock_frac_le 0`` never holds while a cooperator
    # is in the group, so cooperators carry it in place of ``rounds_left_ge``.
    NEVER = ["round_ge", "last_coop_ge", "ratio_ge"]
    # Rules that always hold; each decides for a quarter of the members.
    ALWAYS = [
        {"op": "always"},
        {"op": "round_ge", "value": 0},
        {"op": "rounds_left_ge", "value": 1},
        {"op": "round_lt", "value": 1000},
    ]

    @staticmethod
    def never_rule(op: str, rng: np.random.Generator) -> dict:
        if op == "stock_frac_le":
            return {"op": op, "value": 0}
        value = int(rng.integers(1000, 10000))
        if op == "ratio_ge":
            return {"op": op, "num": "round", "den": "rounds_left", "value": value}
        return {"op": op, "value": value}

    def policy_file(self, rng: np.random.Generator, attitude: str, prob: float) -> dict:
        ops = self.NEVER + (["stock_frac_le"] if prob == 1.0 else ["rounds_left_ge"])
        deciders = rng.permutation(self.pool_size) % len(self.ALWAYS)
        members = []
        for i in range(self.pool_size):
            rules = [{"when": self.never_rule(ops[j], rng), "cooperate_prob": 1.0 - prob}
                     for j in rng.permutation(len(ops))]
            rules.append({"when": self.ALWAYS[deciders[i]], "cooperate_prob": prob})
            members.append({"label": f"rules-{attitude}#{i:03d}", "rules": rules,
                            "default_prob": 1.0 - prob})
        return {"schema_version": 1, "gene_tag": "rules", "attitude": attitude,
                "members": members}

    def pool_entries(self, seed: int, workdir: Path) -> tuple[dict, dict]:
        rng = np.random.default_rng(seed)
        entries = []
        for attitude, prob in (("exploitative", 0.0), ("collective", 1.0)):
            path = workdir / f"policy_{attitude}.json"
            path.write_text(json.dumps(self.policy_file(rng, attitude, prob), indent=1))
            entries.append({"source": {"type": "file", "path": str(path)}})
        return entries[0], entries[1]

    def cell_oracle(self, config: dict, n: int, n_c: int, welfare: float) -> str | None:
        # the config sets no capacity, so it is the documented default 4n
        return oracles.check_cpr_cell(n, n_c, config["game"]["rounds"], 4.0 * n, welfare)


# ---------------------------------------------------------------------------
# Cultural evolution: `ndilemma evolve` with several runs.
# ---------------------------------------------------------------------------


class _Captured(Exception):
    """Carries the EvolutionConfig out of the evolve command."""


class Evolution(Workload):
    """Batched evolution runs with one defecting and two cooperating genes."""

    name = "evolution"
    command = "evolve"
    population = 256
    generations = 20
    runs = 4
    replayed_run = 0

    def config(self, seed: int, workdir: Path) -> dict:
        half = len(COOPERATING_FAMILIES) // 2
        return {
            "schema_version": 1,
            "seed": seed,
            "game": {"kind": "pgg", "k": 2.0, "rounds": ROUNDS},
            "population": self.population,
            "group_size": 4,
            "games_per_agent": 4,
            "elites": self.population // 8,
            "mutation_rate": 0.1,
            "dominance_threshold": 1.0,
            "max_generations": self.generations,
            "runs": self.runs,
            "genes": [
                synth_source("mix", "exploitative", 64, DEFECTING_FAMILIES),
                synth_source("steady", "collective", 64, COOPERATING_FAMILIES[:half]),
                synth_source("reactive", "collective", 64, COOPERATING_FAMILIES[half:]),
            ],
        }

    def load(self, config: dict, seed: int) -> list:
        return [load_pool_source(spec, seed, i) for i, spec in enumerate(config["genes"])]

    def operations(self, config: dict) -> int:
        return config["runs"]

    def records(self, out_dir: Path) -> dict[int, dict]:
        summary = json.loads((out_dir / "summary.json").read_text())
        return {rec["run"]: rec for rec in summary["runs"]}

    def decisions(self, config: dict, out_dir: Path) -> int:
        per_generation = config["games_per_agent"] * config["population"] * config["game"]["rounds"]
        return sum(rec["generations"] for rec in self.records(out_dir).values()) * per_generation

    def check(self, config: dict, seed: int, out_dir: Path) -> dict[str, str]:
        defector = "{gene_tag}/{attitude}".format(**config["genes"][0])
        cap = config["max_generations"]
        records = self.records(out_dir)
        failures = {}
        for run in range(config["runs"]):
            rec = records.get(run)
            if rec is None:
                reason = "run missing from the summary"
            elif rec["generations"] != cap or rec["terminated_by"] != "max_generations":
                reason = (f"played {rec['generations']} generations ({rec['terminated_by']}), "
                          f"expected the cap of {cap}")
            elif rec["winner"] != defector:
                # k < n: defection earns more in every group, so it wins
                reason = f"winner {rec['winner']}, expected the defecting gene"
            else:
                reason = None
            if reason is not None:
                failures[f"run {run}"] = reason
        return failures

    def command_config(self, config_path: Path, out_dir: Path):
        """The EvolutionConfig the evolve command builds from the config:
        the command runs up to its call of ``batch_runs``, which hands the
        config back instead of running it."""
        def capture(evo, runs, threads=1):
            raise _Captured(evo)

        with mock.patch.object(cli, "batch_runs", capture):
            try:
                self.run(config_path, out_dir)
            except _Captured as got:
                return got.args[0]
        raise RuntimeError("the evolve command did not reach batch_runs")

    def replay_check(self, config_path: Path, out_dir: Path) -> dict[str, str]:
        """Replay one run through ``run_evolution`` and hold it to the
        method's invariants and to the batch record of the same run."""
        evo = self.command_config(config_path, out_dir.parent / "replay")
        run = self.replayed_run
        cooperating = set(evo.genes[1:])
        problems = []

        def on_generation(outcome) -> None:
            stats = outcome.stats
            share = sum(f for g, f in stats.gene_frequencies.items() if g in cooperating)
            share /= evo.population
            # pgg with k=2, n=4: welfare spans [1, 2] and each game's
            # welfare is 1 + (cooperators / 4), so efficiency is the share
            if not oracles.close(stats.welfare_efficiency, share, oracles.EXACT_REL):
                problems.append(f"generation {stats.generation}: efficiency "
                                f"{stats.welfare_efficiency!r} != cooperating share {share!r}")
            for wave, partition in enumerate(outcome.partitions):
                if sorted(partition.ravel().tolist()) != list(range(evo.population)):
                    problems.append(f"generation {stats.generation} wave {wave}: "
                                    "partition does not cover the population")

        result = run_evolution(
            replace(evo, master_seed=derive_seed(evo.master_seed, run)), on_generation
        )
        rec = self.records(out_dir).get(run)
        if rec is None:
            problems.append("run missing from the batch summary")
        else:
            final = result.history[-1].welfare_efficiency if result.history else float("nan")
            replayed = (result.winner.label, result.terminated_by, result.generations_run, final)
            recorded = (rec["winner"], rec["terminated_by"], rec["generations"],
                        rec["final_welfare_efficiency"])
            if replayed != recorded:
                problems.append(f"replay {replayed} differs from batch record {recorded}")
        return {f"run {run}": "; ".join(problems[:3])} if problems else {}


# ---------------------------------------------------------------------------
# Fingerprints: `ndilemma fingerprint`.
# ---------------------------------------------------------------------------


_REFERENCE_LABEL = re.compile(r"^(AllC|AllD|Rnd\((?P<p>[0-9.]+)\)|(?P<cc>CC|CD)\((?P<t>\d+)\))$")


class Fingerprint(Workload):
    """Fingerprints of two synthesized pools plus the reference overlay,
    PCA and the variation metrics, written as data files."""

    name = "fingerprint"
    command = "fingerprint"
    pool_size = 16

    def config(self, seed: int, workdir: Path) -> dict:
        return {
            "schema_version": 1,
            "seed": seed,
            "game": {"kind": "pgg", "n": 4, "rounds": 5, "k": 2.0},
            "rollouts": 50,
            "include_references": True,
            "pools": [
                synth_source("reactive", "collective", self.pool_size, [
                    {"family": "reciprocator"}, {"family": "grim"},
                    {"family": "constant"}, {"family": "bernoulli"},
                ]),
                synth_source("closing", "exploitative", self.pool_size, [
                    {"family": "endgame"}, {"family": "bernoulli"},
                    {"family": "constant"}, {"family": "grim"},
                ]),
            ],
        }

    def load(self, config: dict, seed: int):
        game = config["game"]
        pools = [load_pool_source(spec, seed, i) for i, spec in enumerate(config["pools"])]
        nodes = enumerate_nodes(game["n"], game["rounds"])
        refs = default_reference_overlay(game["n"])
        # the first eigensolver call initialises LAPACK; users pay it once
        np.linalg.eigh(np.eye(2))
        return pools, nodes, refs

    def operations(self, config: dict) -> int:
        pooled = sum(spec["source"]["size"] for spec in config["pools"])
        return pooled + len(default_reference_overlay(config["game"]["n"]))

    def decisions(self, config: dict, out_dir: Path) -> int:
        per_strategy = sum(config["rollouts"] * (int(node["depth"]) + 1)
                           for node in read_csv(out_dir / "nodes.csv"))
        return len(read_csv(out_dir / "fingerprints.csv")) * per_strategy

    def _row_oracle(self, label: str, strategy, row: np.ndarray, nodes, rollouts: int):
        reason = oracles.check_rollout_grid(row, rollouts)
        if reason is not None:
            return reason
        if strategy is None:
            ref = _REFERENCE_LABEL.match(label)
            if ref is None:
                return "not a member of the reference overlay"
            if ref["p"] is not None:
                p = float(ref["p"])
                if p in (0.0, 1.0):
                    return oracles.check_exact_row(row, oracles.reference_row(f"rnd{p:g}", nodes))
                return oracles.check_binomial_row(row, p, rollouts)
            if ref["cc"] is not None:
                expected = oracles.reference_row(ref["cc"].lower(), nodes, int(ref["t"]))
            else:
                expected = oracles.reference_row(label.lower(), nodes)
            return oracles.check_exact_row(row, expected)
        family, vec = strategy.kernel
        if label != strategy.label:
            return f"label {label!r}, expected pool member {strategy.label!r}"
        if family == "constant":
            return oracles.check_exact_row(row, np.full(row.shape, vec[0]))
        if family == "bernoulli":
            return oracles.check_binomial_row(row, vec[0], rollouts)
        return None

    def check(self, config: dict, seed: int, out_dir: Path) -> dict[str, str]:
        game, rollouts = config["game"], config["rollouts"]
        # the same seed gives the same pools, so the oracle learns each
        # member's family and parameters from a second synthesis
        pools = self.load(config, seed)[0]
        members = [member for pool in pools for member in pool.members]
        rows = read_csv(out_dir / "fingerprints.csv")
        if len(rows) != self.operations(config):
            return {f"row {i}": f"fingerprints.csv has {len(rows)} rows"
                    for i in range(self.operations(config))}
        labels = [row.pop("label") for row in rows]
        matrix = np.array([[float(v) for v in row.values()] for row in rows])
        strategies = members + [None] * (len(rows) - len(members))

        oracle_nodes = oracles.decision_nodes(game["n"], game["rounds"])
        written = [(int(node["depth"]), node["counts"]) for node in read_csv(out_dir / "nodes.csv")]
        expected = [(len(c), ".".join(map(str, c)) if c else "root") for c in oracle_nodes]
        if written != expected:
            return {f"row {i}": "nodes.csv differs from the enumeration" for i in range(len(rows))}

        failures = {}
        for i, (label, strategy, row) in enumerate(zip(labels, strategies, matrix)):
            reason = self._row_oracle(label, strategy, row, oracle_nodes, rollouts)
            if reason is not None:
                failures[f"row {i} {label}"] = reason

        pooled = matrix[: len(members)]
        blocks, start = {}, 0
        for pool in pools:
            blocks[f"{pool.gene_tag}/{pool.attitude.value}"] = pooled[start: start + len(pool)]
            start += len(pool)
        analysis = json.loads((out_dir / "pca.json").read_text())
        shared = [oracles.check_pca(pooled, np.array(analysis["eigenvalues"]),
                                    np.array(analysis["components"]))]
        metric_rows = read_csv(out_dir / "metrics.csv")
        d_rows = read_csv(out_dir / "cohens_d.csv")
        if sorted(row["pool"] for row in metric_rows) != sorted(blocks):
            shared.append("metrics.csv does not have one row per pool")
        if len(d_rows) != len(blocks) * (len(blocks) - 1) // 2:
            shared.append("cohens_d.csv does not have one row per pair of pools")
        for row in metric_rows:
            block = blocks[row["pool"]]
            shared.append(oracles.check_metric(
                f"mpd {row['pool']}", float(row["mpd"]), oracles.mean_pairwise_distance(block)))
            shared.append(oracles.check_metric(
                f"pr {row['pool']}", float(row["pr"]), oracles.participation_ratio(block)))
        for row in d_rows:
            expected_d = oracles.cohens_d(blocks[row["pool_a"]], blocks[row["pool_b"]])
            shared.append(oracles.check_metric(
                f"cohens_d {row['pool_a']} {row['pool_b']}", float(row["cohens_d"]), expected_d))
        shared = [reason for reason in shared if reason is not None]
        if shared:
            # the analysis covers every pool member, so all of them fail
            for i, label in enumerate(labels[: len(members)]):
                failures.setdefault(f"row {i} {label}", shared[0])
        return failures


WORKLOADS = {wl.name: wl for wl in (MixGrid(), PolicyGrid(), Evolution(), Fingerprint())}
