"""Command-line behaviour: exit codes, outputs, manifests, determinism."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ndilemma import GameKind, GameParams, cli
from ndilemma.cli import main
from ndilemma.manifest import config_digest, verify_manifest

REPO = Path(__file__).resolve().parents[1]


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


def manifest_digest(out: Path) -> str:
    return json.loads((out / "manifest.json").read_text())["config_digest"]


def selfplay_config(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "seed": 5,
        "game": {"kind": "pgg", "k": 2.0, "rounds": 10},
        "group_sizes": [4],
        "samples_per_cell": 20,
        "pool_e": {
            "gene_tag": "t", "attitude": "exploitative",
            "source": {"type": "reference", "members": [{"kind": "alld", "count": 8}]},
        },
        "pool_c": {
            "gene_tag": "t", "attitude": "collective",
            "source": {"type": "reference", "members": [{"kind": "allc", "count": 8}]},
        },
    }
    doc.update(overrides)
    return doc


class TestBounds:
    def test_pgg_prints_min_and_max(self, capsys):
        assert main(["bounds", "pgg", "--n", "6", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "min_mean_welfare 1.0" in out
        assert "max_mean_welfare 2.0" in out

    def test_cpr_bounds_are_exact(self, tmp_path, capsys):
        out = tmp_path / "bounds"
        assert main(["bounds", "cpr", "--n", "16", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "min_mean_welfare 0.2\n" in printed
        assert "max_mean_welfare 2.1\n" in printed
        assert "approximate" not in printed
        written = json.loads((out / "bounds.json").read_text())
        assert written["method"] == "closed_form"
        assert "approximate" not in written
        assert verify_manifest(out) == []

    def test_bad_game_name(self, capsys):
        assert main(["bounds", "tictactoe", "--n", "4"]) == 1
        assert "unknown game" in capsys.readouterr().err

    @pytest.mark.parametrize("game, flag, value", [
        ("crd", "k", "nan"), ("crd", "k", "inf"), ("crd", "k", "-inf"), ("cpr", "capacity", "inf"),
    ])
    def test_a_value_that_is_not_finite_exits_one_naming_it(self, capsys, game, flag, value):
        assert main(["bounds", game, "--n", "4", f"--{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f"finite {flag}{' > 0' * (flag == 'capacity')}, "
                                     f"got {flag}={value}\n")

    def test_out_dir_gets_manifest(self, tmp_path):
        out = tmp_path / "bounds"
        assert main(["bounds", "pgg", "--n", "4", "--out", str(out)]) == 0
        assert (out / "bounds.json").exists()
        assert verify_manifest(out) == []

    def test_config_digest_covers_every_parameter(self, tmp_path):
        runs = {
            "base": ["pgg", "--n", "4"],
            "rounds": ["pgg", "--n", "4", "--rounds", "5"],
            "k": ["pgg", "--n", "4", "--k", "3"],
            "m": ["crd", "--n", "4", "--m", "3"],
            "crd": ["crd", "--n", "4"],
            "capacity": ["cpr", "--n", "4", "--rounds", "3", "--capacity", "8"],
            "cpr": ["cpr", "--n", "4", "--rounds", "3"],
        }
        digests = {}
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["bounds", *args, "--out", str(out)]) == 0
            digests[name] = manifest_digest(out)
        assert len(set(digests.values())) == len(runs)
        again = tmp_path / "again"
        assert main(["bounds", "pgg", "--n", "4", "--out", str(again)]) == 0
        assert manifest_digest(again) == digests["base"]


class TestSelfplay:
    def test_writes_grid_and_manifest(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", selfplay_config())
        out = tmp_path / "run"
        assert main(["selfplay", "--config", str(config), "--out", str(out)]) == 0
        grid = (out / "grid.csv").read_text()
        assert grid.splitlines()[0].startswith("game,n,n_e")
        assert len(grid.splitlines()) == 1 + 5
        assert verify_manifest(out) == []

    def test_missing_config_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["selfplay", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_bad_schema_version_exits_one(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", selfplay_config(schema_version=9))
        code = main(["selfplay", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "schema_version" in capsys.readouterr().err

    def test_rerun_byte_identical_three_runs(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", selfplay_config())
        runs = {}
        for name in ("a", "b", "c"):
            out = tmp_path / name
            assert main(["selfplay", "--config", str(config), "--out", str(out)]) == 0
            runs[name] = (out / "grid.csv").read_bytes()
        assert runs["a"] == runs["b"] == runs["c"]

    def test_k_flag_overrides_config(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", selfplay_config())
        out2 = tmp_path / "k2"
        out3 = tmp_path / "k3"
        assert main(["selfplay", "--config", str(config), "--out", str(out2)]) == 0
        assert main(["selfplay", "--config", str(config), "--out", str(out3), "--k", "3"]) == 0
        from ndilemma import read_grid_csv

        by_ne_k2 = {r.n_e: r.mean_welfare for r in read_grid_csv(out2 / "grid.csv")}
        by_ne_k3 = {r.n_e: r.mean_welfare for r in read_grid_csv(out3 / "grid.csv")}
        assert by_ne_k2[0] == 2.0
        assert by_ne_k3[0] == 3.0


    def test_k_flag_is_in_the_config_digest(self, tmp_path):
        doc = selfplay_config()
        config = write_json(tmp_path / "cfg.json", doc)
        digests = {}
        for k in (None, "2", "3"):
            out = tmp_path / f"k{k}"
            flag = [] if k is None else ["--k", k]
            assert main(["selfplay", "--config", str(config), "--out", str(out), *flag]) == 0
            digests[k] = manifest_digest(out)
        assert digests["2"] != digests["3"]
        assert digests[None] == config_digest(doc)


    def test_a_grid_fault_names_the_first_cell_whatever_the_packing(self, tmp_path, capsys):
        """``late-divider`` divides by zero in round 19 of cell (64, 0); every
        ``pool_e`` member faults in round 0 of every other cell. Twelve
        never-matching rules on one ``pool_e`` member widen every stack slot
        from 23 to 89 words, which puts each cell in a stack of its own; the
        fault named is the same."""
        def divider_pool(extra_rules: int) -> dict:
            readers = [{"label": f"stock-reader{i}", "rules": [
                {"when": {"op": "stock_frac_ge", "value": 0.5}, "cooperate_prob": 0.0},
            ], "default_prob": 0.0} for i in range(64)]
            readers[0]["rules"] += [
                {"when": {"op": "round_ge", "value": 1000}, "cooperate_prob": 0.0}
            ] * extra_rules
            return {"schema_version": 1, "gene_tag": "e", "attitude": "exploitative",
                    "members": readers}

        plain = [{"label": f"plain{i}", "rules": [], "default_prob": 1.0} for i in range(63)]
        divider = {"label": "late-divider", "rules": [
            {"when": {"op": "round_lt", "value": 19}, "cooperate_prob": 1.0},
            {"when": {"op": "ratio_ge", "num": "round", "den": "rounds_left_after",
                      "value": 100}, "cooperate_prob": 1.0},
        ], "default_prob": 1.0}
        write_json(tmp_path / "pool_c.json", {
            "schema_version": 1, "gene_tag": "c", "attitude": "collective",
            "members": plain + [divider]})
        errors = []
        for extra_rules in (0, 12):
            pool_e = write_json(tmp_path / f"pool_e{extra_rules}.json", divider_pool(extra_rules))
            config = write_json(tmp_path / "cfg.json", selfplay_config(
                seed=1, game={"kind": "pgg", "k": 2.0, "rounds": 20}, group_sizes=[64],
                pool_e={"source": {"type": "file", "path": str(pool_e)}},
                pool_c={"source": {"type": "file", "path": str(tmp_path / "pool_c.json")}},
            ))
            code = main(["selfplay", "--config", str(config), "--out", str(tmp_path / "o")])
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "strategy fault: strategy 'late-divider' (player 53, round 19) exception: "
            "ZeroDivisionError: float division by zero (rule 1) (sample 0 of cell (64, 0))\n"
        )


class TestEvolve:
    def evolve_config(self, **overrides) -> dict:
        doc = {
            "schema_version": 1,
            "seed": 9,
            "game": {"kind": "pgg", "k": 2.0, "rounds": 10},
            "population": 16,
            "group_size": 4,
            "games_per_agent": 4,
            "elites": 2,
            "mutation_rate": 0.1,
            "dominance_threshold": 0.75,
            "max_generations": 1,
            "runs": 1,
            "genes": [
                {
                    "gene_tag": "t", "attitude": "exploitative",
                    "source": {"type": "reference", "members": [{"kind": "alld", "count": 16}]},
                },
                {
                    "gene_tag": "t", "attitude": "collective",
                    "source": {"type": "reference", "members": [{"kind": "allc", "count": 16}]},
                },
            ],
        }
        doc.update(overrides)
        return doc

    def test_single_generation_history(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", self.evolve_config())
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "generations.csv").read_text().strip().splitlines()
        assert rows[0].startswith("generation,gene")
        assert len(rows) == 1 + 2  # one generation, two genes
        result = json.loads((out / "result.json").read_text())
        assert result["generations_run"] == 1
        assert verify_manifest(out) == []

    def test_multi_run_summary(self, tmp_path):
        config = write_json(
            tmp_path / "cfg.json", self.evolve_config(runs=3, max_generations=3)
        )
        out = tmp_path / "runs"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sum(w["wins"] for w in summary["winners"]) == 3
        assert len(summary["runs"]) == 3
        table = (out / "summary.csv").read_text()
        assert "threshold_reached" in table
        assert "average_generations" in table

    def test_rerun_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", self.evolve_config(max_generations=4))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
            blobs.append((out / "generations.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_multi_run_summary_byte_identical_three_runs(self, tmp_path):
        doc = self.evolve_config(runs=3, max_generations=3, dominance_threshold=1.0)
        doc["genes"][1]["source"] = {"type": "synth", "size": 16, "families": [
            {"family": "bernoulli"}, {"family": "reciprocator"}, {"family": "grim"}]}
        config = write_json(tmp_path / "cfg.json", doc)
        blobs = []
        for name in ("a", "b", "c"):
            out = tmp_path / name
            assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
            blobs.append([(out / f).read_bytes() for f in ("summary.json", "summary.csv")])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_zero_runs_exits_one_before_writing(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", self.evolve_config(runs=0))
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 1
        assert "error: runs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", self.evolve_config())
        with pytest.raises(SystemExit) as info:
            main(["evolve", "--config", str(config), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestFingerprintCmd:
    def fingerprint_config(self) -> dict:
        return {
            "schema_version": 1,
            "seed": 2,
            "game": {"kind": "pgg", "n": 4, "rounds": 3, "k": 2.0},
            "rollouts": 10,
            "include_references": False,
            "pools": [
                {
                    "gene_tag": "mass", "attitude": "collective",
                    "source": {"type": "reference", "members": [{"kind": "allc", "count": 4}]},
                },
                {
                    "gene_tag": "mass", "attitude": "exploitative",
                    "source": {"type": "reference", "members": [{"kind": "alld", "count": 4}]},
                },
            ],
        }

    def test_point_mass_pools_mark_undefined(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", self.fingerprint_config())
        out = tmp_path / "fp"
        assert main(["fingerprint", "--config", str(config), "--out", str(out)]) == 0
        cohen = (out / "cohens_d.csv").read_text()
        assert "undefined" in cohen
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "pool,mpd,pr"
        assert len(metrics) == 3
        for name in ("fingerprints.csv", "nodes.csv", "pca.json", "projections.csv"):
            assert (out / name).exists()
        assert verify_manifest(out) == []

    def test_reference_overlay_projected(self, tmp_path):
        config = self.fingerprint_config()
        config["include_references"] = True
        path = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "fp"
        assert main(["fingerprint", "--config", str(path), "--out", str(out)]) == 0
        projections = (out / "projections.csv").read_text()
        assert "reference" in projections
        assert "CC(2)" in projections

    def test_rerun_identical_digests(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", self.fingerprint_config())
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["fingerprint", "--config", str(config), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append({e["path"]: e["sha256"] for e in manifest["outputs"]})
        assert digests[0] == digests[1]

    def test_zero_rollouts_exits_one_before_writing(self, tmp_path, capsys):
        config = self.fingerprint_config()
        config["rollouts"] = 0
        path = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "fp"
        assert main(["fingerprint", "--config", str(path), "--out", str(out)]) == 1
        assert "error: rollouts must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("include_references", [False, True])
    def test_one_pooled_strategy_exits_one_before_writing(
        self, tmp_path, capsys, include_references
    ):
        """The PCA is fitted on the pooled strategies alone, so it needs two
        of them, whatever the reference overlay adds."""
        config = self.fingerprint_config()
        config["include_references"] = include_references
        config["pools"] = [{
            "gene_tag": "one", "attitude": "collective",
            "source": {"type": "synth", "size": 1, "families": [{"family": "grim"}]},
        }]
        path = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "fp"
        assert main(["fingerprint", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: pools must hold at least 2 strategies in total, got 1\n"
        )
        assert not out.exists()


def _with_game(doc: dict, **game) -> dict:
    return {**doc, "game": {**doc["game"], **game}}


class TestNonNumericConfig:
    """A config value that does not cast exits 1 naming its key, before the
    output directory is created."""

    CASES = [
        ("evolve", lambda: TestEvolve().evolve_config(runs="two"), "runs"),
        ("evolve", lambda: TestEvolve().evolve_config(population="many"), "population"),
        ("evolve", lambda: TestEvolve().evolve_config(group_size="four"), "group_size"),
        ("evolve", lambda: _with_game(TestEvolve().evolve_config(), rounds="ten"), "game.rounds"),
        ("evolve", lambda: _with_game(TestEvolve().evolve_config(), k=[2]), "game.k"),
        ("selfplay", lambda: selfplay_config(samples_per_cell="many"), "samples_per_cell"),
        ("selfplay", lambda: selfplay_config(group_sizes=["four"]), "group_sizes"),
        ("selfplay", lambda: selfplay_config(group_sizes=4), "group_sizes"),
        ("fingerprint", lambda: {**TestFingerprintCmd().fingerprint_config(), "rollouts": "ten"},
         "rollouts"),
        ("fingerprint", lambda: _with_game(TestFingerprintCmd().fingerprint_config(), n="4"),
         None),
        ("fingerprint", lambda: _with_game(TestFingerprintCmd().fingerprint_config(), n="four"),
         "game.n"),
        ("fingerprint", lambda: _with_game(TestFingerprintCmd().fingerprint_config(),
                                           capacity="full"), "game.capacity"),
        ("evolve", lambda: TestEvolve().evolve_config(genes=5), "genes"),
        ("evolve", lambda: TestEvolve().evolve_config(genes={"a": 1}), "genes"),
        ("fingerprint", lambda: {**TestFingerprintCmd().fingerprint_config(), "pools": 3},
         "pools"),
        ("evolve", lambda: _with_gene(0, source={"type": "synth", "families": 3}),
         "genes[0].source.families"),
        ("evolve", lambda: _with_gene(1, source={"type": "reference", "members": 3}),
         "genes[1].source.members"),
        ("evolve", lambda: _with_gene(0, source={"type": "file", "path": 5}),
         "genes[0].source.path"),
        ("evolve", lambda: _with_gene(0, attitude=5, source={
            "type": "file", "path": str(REPO / "configs" / "pool_example.json")}),
         "genes[0].attitude"),
        ("evolve", lambda: _with_gene(1, gene_tag=5), "genes[1].gene_tag"),
        ("selfplay", lambda: selfplay_config(group_sizes=[]), "group_sizes"),
    ]

    @pytest.mark.parametrize(
        "command, doc, key", CASES, ids=[f"{c}-{k or 'numeric-string'}" for c, _, k in CASES]
    )
    def test_exits_one_naming_the_key(self, tmp_path, capsys, command, doc, key):
        config = write_json(tmp_path / "cfg.json", doc())
        out = tmp_path / "out"
        code = main([command, "--config", str(config), "--out", str(out)])
        if key is None:  # a numeric string casts as before
            assert code == 0
            return
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert "Traceback" not in err
        assert not out.exists()


class TestUnreadGameKeys:
    """A game key that a command would not read exits 1 naming it, before
    the output directory is created."""

    CASES = {
        "selfplay-n": ("selfplay", _with_game(selfplay_config(), n=4), "game.n"),
        "selfplay-m": ("selfplay", _with_game(selfplay_config(), kind="crd", m=1), "game.m"),
        "selfplay-capacity": (
            "selfplay", _with_game(selfplay_config(), kind="cpr", capacity=99), "game.capacity",
        ),
        "evolve-n": ("evolve", _with_game(TestEvolve().evolve_config(), n=5), "game.n"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_one_naming_the_key(self, tmp_path, capsys, name):
        command, doc, key = self.CASES[name]
        config = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_evolve_accepts_n_equal_to_group_size(self, tmp_path):
        doc = _with_game(TestEvolve().evolve_config(), n=4)
        config = write_json(tmp_path / "cfg.json", doc)
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def _with_gene(index: int, **changes) -> dict:
    doc = TestEvolve().evolve_config()
    doc["genes"][index].update(changes)
    return doc


def _with_pool_c(**changes) -> dict:
    doc = selfplay_config()
    doc["pool_c"] = {**doc["pool_c"], **changes}
    return doc


def _with_fingerprint_source(index: int, source: dict) -> dict:
    doc = TestFingerprintCmd().fingerprint_config()
    doc["pools"][index]["source"] = source
    return doc


class TestPoolSourceErrors:
    """A bad pool entry exits 1 naming its config key (a policy file that
    cannot be read, its path), before the output directory is created."""

    UNKNOWN_FAMILY = {"type": "synth", "families": [{"family": "nope"}]}
    UNNAMED_FAMILY = {"type": "synth", "families": [{"weight": 1}]}
    BAD_PROBABILITY = {"type": "reference", "members": [{"kind": "rnd", "p": 5}]}
    MISSPELLED_PARAM = {
        "type": "synth", "families": [{"family": "reciprocator", "params": {"threshold": 0.9}}],
    }
    # synth parameter distributions of the wrong shape
    BAD_DISTRIBUTIONS = {
        "uniform-number": {"uniform": 5},
        "uniform-one-bound": {"uniform": [0.1]},
        "uniform-reversed": {"uniform": [1, 0]},
        "uniform-nan": {"uniform": [float("nan"), 1]},
        "infinity": float("inf"),
        "int_uniform-reversed": {"int_uniform": [3, 1]},
        "int_uniform-three-bounds": {"int_uniform": [1, 2, 3]},
        "choice-empty": {"choice": []},
        "choice-of-strings": {"choice": ["a"]},
        "unknown-shape": {"normal": [0, 1]},
        "two-shapes": {"uniform": [0, 1], "choice": [0]},
        "string": "0.5",
        "boolean": True,
    }
    DIRECTORY = str(REPO / "configs")
    # name -> (command, config, what the error names first)
    CASES = {
        "attitude": ("evolve", _with_gene(0, attitude="greedy"), "genes[0]"),
        "synth-family": ("evolve", _with_gene(0, source=UNKNOWN_FAMILY), "genes[0]"),
        "synth-no-family": ("evolve", _with_gene(0, source=UNNAMED_FAMILY), "genes[0]"),
        "file-no-path": ("evolve", _with_gene(0, source={"type": "file"}), "genes[0]"),
        "reference-probability": ("evolve", _with_gene(0, source=BAD_PROBABILITY), "genes[0]"),
        "synth-param": ("evolve", _with_gene(0, source=MISSPELLED_PARAM), "genes[0]"),
        "pool_c": ("selfplay", _with_pool_c(attitude="greedy"), "pool_c"),
        "genes-1": ("evolve", _with_gene(1, source=UNKNOWN_FAMILY), "genes[1]"),
        "file-directory": ("evolve", _with_gene(0, source={"type": "file", "path": DIRECTORY}),
                           DIRECTORY),
        **{
            f"distribution-{name}": (
                "evolve",
                _with_gene(0, source={"type": "synth", "families": [
                    {"family": "bernoulli", "params": {"p": dist}},
                ]}),
                "genes[0]: bernoulli parameter 'p'",
            )
            for name, dist in BAD_DISTRIBUTIONS.items()
        },
        **{
            f"weight-{name}": (
                "fingerprint",
                _with_fingerprint_source(1, {"type": "synth", "size": 8, "families": [
                    {"family": "grim"}, {"family": "bernoulli", "weight": weight},
                ]}),
                "pools[1]",
            )
            for name, weight in (("nan", float("nan")), ("infinity", float("inf")))
        },
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_one_naming_the_pool(self, tmp_path, capsys, name):
        command, doc, key = self.CASES[name]
        config = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert "Traceback" not in err
        assert not out.exists()


def _with_source(index: int, source: dict) -> dict:
    return _with_gene(index, source=source)


@pytest.mark.parametrize("command, doc, message", [
    ("selfplay", selfplay_config(game={"kind": "crd", "k": float("nan"), "rounds": 10}),
     "game: collective risk requires a finite k, got k=nan"),
    ("evolve", _with_game(TestEvolve().evolve_config(), kind="crd", k=float("-inf")),
     "game: collective risk requires a finite k, got k=-inf"),
    ("fingerprint", {**TestFingerprintCmd().fingerprint_config(),
                     "game": {"kind": "cpr", "n": 4, "rounds": 3, "capacity": float("inf")}},
     "game: common pool requires a finite capacity > 0, got capacity=inf"),
    ("selfplay", selfplay_config(game={"kind": "pgg", "k": 4.5, "rounds": 10}),
     "game: public goods requires 1 < k < n, got k=4.5, n=4"),
    ("selfplay", selfplay_config(group_sizes=[1]),
     "group_sizes: player count must be >= 2, got 1"),
    ("evolve", {**TestEvolve().evolve_config(), "group_size": 1},
     "group_size: player count must be >= 2, got 1"),
], ids=[
    "selfplay-k", "evolve-k", "fingerprint-capacity", "selfplay-pgg-k", "selfplay-n", "evolve-n",
])
def test_a_game_value_that_is_not_finite_exits_one(tmp_path, capsys, command, doc, message):
    config = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("k, rounds, message", [
    ("4.0", 10, "--k: public goods requires 1 < k < n, got k=4.0, n=4"),
    ("3.0", 0, "game: round count must be >= 1, got 0"),
], ids=["k", "rounds"])
def test_a_selfplay_game_error_names_the_flag_or_entry_at_fault(tmp_path, capsys, k, rounds, message):
    """A ``--k`` out of range is named as the flag; another game value under
    a valid ``--k`` is named by the game entry."""
    doc = selfplay_config(game={"kind": "pgg", "k": 2.0, "rounds": rounds})
    config = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["selfplay", "--config", str(config), "--out", str(out), "--k", k]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_reference_copies_are_numbered_by_their_place_in_the_pool():
    members = [
        {"kind": "allc", "count": 3}, {"kind": "allc"}, {"kind": "rnd", "p": 0.25, "count": 2},
    ]
    source = {"type": "reference", "members": members}
    pool = cli.load_pool_source({"gene_tag": "t", "source": source}, 0, 0)
    assert [m.label for m in pool.members] == [
        "AllC#000", "AllC#001", "AllC#002", "AllC#003", "Rnd(0.25)#004", "Rnd(0.25)#005",
    ]


RECIPROCATORS = {"type": "synth", "size": 8, "families": [{"family": "reciprocator"}]}


class TestUnknownConfigKeys:
    """A key that docs/formats.md does not document, or an entry that is not
    an object, exits 1 naming where it is, before the output directory is
    created."""

    # name -> (command, config, the start of the error after "error: ")
    CASES = {
        "evolve-top": (
            "evolve", TestEvolve().evolve_config(max_generation=1),
            "config: unknown key 'max_generation'",
        ),
        "selfplay-top": (
            "selfplay", selfplay_config(sample_per_cell=3), "config: unknown key 'sample_per_cell'",
        ),
        "fingerprint-top": (
            "fingerprint", {**TestFingerprintCmd().fingerprint_config(), "rollout": 5},
            "config: unknown key 'rollout'",
        ),
        "game": ("evolve", _with_game(TestEvolve().evolve_config(), rnds=5),
                 "game: unknown key 'rnds'"),
        "game-not-object": ("selfplay", selfplay_config(game="pgg"), "game must be an object"),
        "pool-entry": ("evolve", _with_gene(0, tag="x"), "genes[0]: unknown key 'tag'"),
        "pool-entry-not-object": (
            "evolve", {**TestEvolve().evolve_config(), "genes": ["x"]}, "genes[0] must be an object",
        ),
        "pool_c-not-object": ("selfplay", selfplay_config(pool_c=[]), "pool_c must be an object"),
        "source": (
            "evolve", _with_source(1, {**RECIPROCATORS, "path": "pool.json"}),
            "genes[1].source: unknown key 'path'",
        ),
        "synth-family": (
            "evolve",
            _with_source(0, {"type": "synth", "families": [
                {"family": "bernoulli"}, {"family": "bernoulli", "param": {"p": 0.0}},
            ]}),
            "genes[0].source.families[1]: unknown key 'param'",
        ),
        "synth-family-not-object": (
            "evolve", _with_source(0, {"type": "synth", "families": ["bernoulli"]}),
            "genes[0].source.families[0] must be an object",
        ),
        "reference-member": (
            "selfplay",
            _with_pool_c(source={"type": "reference", "members": [{"kind": "rnd", "prob": 0.2}]}),
            "pool_c.source.members[0]: unknown key 'prob'",
        ),
        "reference-member-not-object": (
            "evolve", _with_source(0, {"type": "reference", "members": ["allc"]}),
            "genes[0].source.members[0] must be an object",
        ),
        # each kind takes only the parameter it reads
        "reference-member-alld-p": (
            "selfplay",
            _with_pool_c(source={"type": "reference", "members": [
                {"kind": "alld", "p": 0.9, "t": 3, "count": 64},
            ]}),
            "pool_c.source.members[0]: unknown key 'p'; expected one of kind, count",
        ),
        "reference-member-rnd-t": (
            "selfplay",
            _with_pool_c(source={"type": "reference", "members": [
                {"kind": "allc"}, {"kind": "rnd", "t": 2},
            ]}),
            "pool_c.source.members[1]: unknown key 't'; expected one of kind, count, p",
        ),
        "reference-member-cd-p": (
            "evolve",
            _with_source(0, {"type": "reference", "members": [{"kind": "cd", "p": 0.5}]}),
            "genes[0].source.members[0]: unknown key 'p'; expected one of kind, count, t",
        ),
        "reference-member-kind": (
            "evolve", _with_source(0, {"type": "reference", "members": [{"kind": "allx"}]}),
            "genes[0].source.members[0]: unknown reference member kind 'allx'",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_one_naming_the_key(self, tmp_path, capsys, name):
        command, doc, message = self.CASES[name]
        config = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_the_documented_keys_run(self, tmp_path):
        """Every documented key of each command's config, each source type
        and reference member key included, is accepted."""
        doc = _with_game(TestEvolve().evolve_config(), n=4, m=2, capacity=16.0)
        doc["genes"][0]["source"] = {"type": "reference", "members": [
            {"kind": "rnd", "p": 0.5, "count": 8}, {"kind": "cc", "t": 1, "count": 8},
        ]}
        doc["genes"][1]["source"] = {"type": "synth", "size": 16, "families": [
            {"family": "bernoulli", "weight": 2.0, "params": {"p": 0.5}},
        ]}
        config = write_json(tmp_path / "cfg.json", doc)
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

        policy = json.loads((REPO / "configs" / "pool_example.json").read_text())
        policy["members"] *= 2  # enough members for a group of 4
        policy_path = write_json(tmp_path / "policy.json", policy)
        file_source = {"type": "file", "path": str(policy_path)}
        doc = selfplay_config()  # its game sets kind, k and rounds
        doc["pool_e"] = {"gene_tag": "f", "attitude": "exploitative", "source": file_source}
        doc["pool_c"]["source"] = {"type": "reference", "members": [
            {"kind": "cd", "t": 2, "count": 4}, {"kind": "alld"}, {"kind": "allc", "count": 3},
        ]}
        config = write_json(tmp_path / "selfplay.json", doc)
        assert main(["selfplay", "--config", str(config), "--out", str(tmp_path / "sp")]) == 0

        doc = _with_game(TestFingerprintCmd().fingerprint_config(), m=2, capacity=16.0)
        doc["include_references"] = True
        doc["pools"] += [
            {"gene_tag": "f", "source": file_source},
            {"gene_tag": "s", "attitude": "collective", "source": {
                "type": "synth", "size": 4,
                "families": [{"family": "grim", "weight": 1.0, "params": {}}],
            }},
        ]
        config = write_json(tmp_path / "fingerprint.json", doc)
        assert main(["fingerprint", "--config", str(config), "--out", str(tmp_path / "fp")]) == 0


class TestInexactConfigValues:
    """A boolean, a fractional number for an integer key, or a reference
    member's count below 1, exits 1 naming its key before the output
    directory is created, instead of being cast or dropped (2.7 rollouts
    used to play 2, true played as 1, and a count of -3 as none)."""

    CASES = {
        "fractional-rollouts": (
            "fingerprint", {**TestFingerprintCmd().fingerprint_config(), "rollouts": 2.7},
            "rollouts must be an integer, got 2.7",
        ),
        "boolean-rollouts": (
            "fingerprint", {**TestFingerprintCmd().fingerprint_config(), "rollouts": True},
            "rollouts must be an integer, got True",
        ),
        "fractional-runs": ("evolve", TestEvolve().evolve_config(runs=1.5), "runs must be "),
        "boolean-seed": ("evolve", TestEvolve().evolve_config(seed=True), "seed must be "),
        "fractional-rounds": (
            "evolve", _with_game(TestEvolve().evolve_config(), rounds=4.5), "game.rounds must be ",
        ),
        "boolean-k": (
            "selfplay", _with_game(selfplay_config(), k=True), "game.k must be a number",
        ),
        "fractional-group-size": (
            "selfplay", selfplay_config(group_sizes=[4.5]), "group_sizes must be ",
        ),
        "fractional-count": (
            "evolve",
            _with_source(0, {"type": "reference", "members": [{"kind": "allc", "count": 2.5}]}),
            "genes[0].source.members[0].count must be ",
        ),
        "count-below-one": (
            "evolve",
            _with_source(0, {"type": "reference", "members": [
                {"kind": "allc", "count": -3}, {"kind": "alld", "count": 2},
            ]}),
            "genes[0].source.members[0].count must be >= 1, got -3",
        ),
        "string-p": (
            "selfplay",
            _with_pool_c(source={"type": "reference", "members": [
                {"kind": "allc", "count": 8}, {"kind": "rnd", "p": "high"},
            ]}),
            "pool_c.source.members[1].p must be a number, got 'high'",
        ),
        "fractional-t": (
            "evolve", _with_source(0, {"type": "reference", "members": [{"kind": "cc", "t": 1.5}]}),
            "genes[0].source.members[0].t must be an integer, got 1.5",
        ),
        "boolean-weight": (
            "selfplay",
            _with_pool_c(source={"type": "synth", "size": 8, "families": [
                {"family": "bernoulli"}, {"family": "grim", "weight": True},
            ]}),
            "pool_c.source.families[1].weight must be a number, got True",
        ),
        "fractional-size": (
            "evolve", _with_source(1, {**RECIPROCATORS, "size": 8.5}),
            "genes[1].source.size must be an integer, got 8.5",
        ),
        "string-include-references": (
            "fingerprint",
            {**TestFingerprintCmd().fingerprint_config(), "include_references": "false"},
            "include_references must be true or false, got 'false'",
        ),
        "numeric-include-references": (
            "fingerprint",
            {**TestFingerprintCmd().fingerprint_config(), "include_references": 0},
            "include_references must be true or false, got 0",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_one_naming_the_key(self, tmp_path, capsys, name):
        command, doc, message = self.CASES[name]
        config = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_an_integral_float_plays_as_its_integer(self, tmp_path):
        outputs = []
        for name, rollouts in (("int", 4), ("float", 4.0)):
            doc = {**TestFingerprintCmd().fingerprint_config(), "rollouts": rollouts}
            config = write_json(tmp_path / f"{name}.json", doc)
            out = tmp_path / name
            assert main(["fingerprint", "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "fingerprints.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestNegativeSeed:
    """A negative master seed, from the config or ``--seed``, exits 1 naming
    ``seed`` before the output directory is created."""

    @pytest.mark.parametrize("command, doc, flags, seed", [
        ("selfplay", selfplay_config(seed=-2), [], -2),
        ("evolve", TestEvolve().evolve_config(), ["--seed", "-3"], -3),
        ("fingerprint", TestFingerprintCmd().fingerprint_config(), ["--seed", "-1"], -1),
    ], ids=["selfplay", "evolve", "fingerprint"])
    def test_pipeline_command_exits_one(self, tmp_path, capsys, command, doc, flags, seed):
        config = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert not out.exists()

    def test_validate_exits_one(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main([
            "validate", str(REPO / "configs" / "pool_example.json"),
            "--game", "pgg", "--n", "4", "--seed", "-3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
        assert not out.exists()


class _Built(Exception):
    """Carries the config object a command built out of the command."""


def built_by(monkeypatch, tmp_path, command: str, target: str, doc: dict):
    """The config object ``command`` builds from ``doc`` and hands to
    ``cli.<target>``, which hands it back instead of running it."""
    def capture(config, *args):
        raise _Built(config)

    monkeypatch.setattr(cli, target, capture)
    path = write_json(tmp_path / f"{command}-{len(list(tmp_path.iterdir()))}.json", doc)
    with pytest.raises(_Built) as info:
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return info.value.args[0]


def members(pool) -> list:
    return [(member.label, member.kernel) for member in pool.members]


def reference(kind: str, **spelled) -> dict:
    """A reference pool entry of one ``kind`` member, its optional keys left
    out, or, given ``spelled``, spelled out with those values."""
    member = {"kind": kind, **spelled}
    entry = {"gene_tag": kind, "source": {"type": "reference", "members": [member]}}
    return {**entry, "attitude": "collective"} if spelled else entry


class TestDefaults:
    """A config that leaves out every optional key plays as one that spells
    out the defaults docs/formats.md lists."""

    SYNTH = {"gene_tag": "synth", "source": {"type": "synth", "families": [{"family": "grim"}]}}
    SYNTH_SPELLED = {"gene_tag": "synth", "attitude": "collective", "source": {
        "type": "synth", "size": 512,
        "families": [{"family": "grim", "weight": 1.0, "params": {}}],
    }}

    def test_evolve(self, monkeypatch, tmp_path):
        # runs >= 2 reaches batch_runs, which hands the EvolutionConfig back
        bare = {"schema_version": 1, "game": {"kind": "pgg"}, "runs": 2, "genes": [
            reference("alld"), reference("rnd"), reference("cc"), self.SYNTH,
        ]}
        spelled = {
            "schema_version": 1, "seed": 0,
            "game": {"kind": "pgg", "rounds": 20, "k": 2.0, "m": 2, "capacity": 16.0},
            "population": 512, "group_size": 4, "games_per_agent": 4, "elites": 64,
            "mutation_rate": 0.1, "dominance_threshold": 0.75, "max_generations": 200,
            "runs": 2, "genes": [
                reference("alld", count=1), reference("rnd", count=1, p=0.5),
                reference("cc", count=1, t=1), self.SYNTH_SPELLED,
            ],
        }
        evos = [built_by(monkeypatch, tmp_path, "evolve", "batch_runs", doc)
                for doc in (bare, spelled)]
        assert replace(evos[0], pools={}) == replace(evos[1], pools={})
        pools = [{gene: members(pool) for gene, pool in evo.pools.items()} for evo in evos]
        assert pools[0] == pools[1]

    def test_selfplay(self, monkeypatch, tmp_path):
        bare = {"schema_version": 1, "game": {"kind": "pgg"},
                "pool_e": reference("alld"), "pool_c": self.SYNTH}
        bare["pool_e"]["source"]["members"][0]["count"] = 256
        spelled = {
            "schema_version": 1, "seed": 0, "game": {"kind": "pgg", "k": 2.0, "rounds": 20},
            "group_sizes": [4, 16, 64, 256], "samples_per_cell": 200,
            "pool_e": reference("alld", count=256), "pool_c": self.SYNTH_SPELLED,
        }
        grids = [built_by(monkeypatch, tmp_path, "selfplay", "run_mix_grid", doc)
                 for doc in (bare, spelled)]
        assert replace(grids[0], pool_e=None, pool_c=None) == replace(
            grids[1], pool_e=None, pool_c=None)
        pools = [(members(grid.pool_e), members(grid.pool_c)) for grid in grids]
        assert pools[0] == pools[1]

    def test_fingerprint(self, tmp_path):
        # game.rounds is set in both: at the default 20 rounds a fingerprint
        # has 4**19 decision nodes
        bare = {"schema_version": 1, "game": {"kind": "pgg", "n": 4, "rounds": 3},
                "pools": [reference("alld"), reference("rnd")]}
        spelled = {
            "schema_version": 1, "seed": 0,
            "game": {"kind": "pgg", "n": 4, "rounds": 3, "k": 2.0, "m": 2, "capacity": 16.0},
            "rollouts": 50, "include_references": True,
            "pools": [reference("alld", count=1), reference("rnd", count=1, p=0.5)],
        }
        outputs = []
        for name, doc in (("bare", bare), ("spelled", spelled)):
            config = write_json(tmp_path / f"{name}.json", doc)
            out = tmp_path / name
            assert main(["fingerprint", "--config", str(config), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append({entry["path"]: entry["sha256"] for entry in manifest["outputs"]})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]


class TestVerifyCmd:
    def run_selfplay(self, tmp_path) -> Path:
        config = write_json(tmp_path / "cfg.json", selfplay_config())
        out = tmp_path / "run"
        assert main(["selfplay", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_untouched_outputs_exit_zero(self, tmp_path, capsys):
        out = self.run_selfplay(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert "every output matches" in capsys.readouterr().out

    def test_one_corrupted_byte_exits_one(self, tmp_path, capsys):
        out = self.run_selfplay(tmp_path)
        grid = out / "grid.csv"
        data = bytearray(grid.read_bytes())
        data[-2] ^= 0x01
        grid.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == ["grid.csv: digest mismatch"]

    def test_missing_output_exits_one(self, tmp_path, capsys):
        out = self.run_selfplay(tmp_path)
        (out / "grid.csv").unlink()
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "grid.csv: missing" in capsys.readouterr().out

    def test_directory_without_manifest_exits_one(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_malformed_manifest_exits_one(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"outputs": 3}')
        assert main(["verify", str(tmp_path)]) == 1
        assert "malformed manifest" in capsys.readouterr().err


class TestValidateCmd:
    def test_faulting_member_exits_two(self, tmp_path, capsys):
        pool = {
            "schema_version": 1,
            "gene_tag": "mixed",
            "attitude": "collective",
            "members": [
                {"label": "fine", "rules": [{"when": {"op": "always"}, "cooperate_prob": 1.0}],
                 "default_prob": 1.0},
                {"label": "last-round-divider",
                 "rules": [{"when": {"op": "ratio_ge", "num": "last_opp_coop",
                                     "den": "rounds_left_after", "value": 0.5},
                            "cooperate_prob": 1.0}],
                 "default_prob": 1.0},
            ],
        }
        path = write_json(tmp_path / "pool.json", pool)
        code = main(["validate", str(path), "--game", "pgg", "--n", "4", "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL] last-round-divider" in out
        assert "[PASS] fine" in out

    def test_clean_pool_exits_zero(self, tmp_path, capsys):
        code = main([
            "validate", str(REPO / "configs" / "pool_example.json"),
            "--game", "pgg", "--n", "4", "--trials", "10",
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 0
        assert (tmp_path / "rep" / "validation.csv").exists()

    @pytest.mark.parametrize("game, flag, value", [
        ("crd", "m", 3), ("cpr", "capacity", 8.0),
    ], ids=["m", "capacity"])
    def test_the_pool_plays_the_game_its_flags_set(self, monkeypatch, game, flag, value):
        played, validate_pool = [], cli.validate_pool

        def recorded(pool, kind, params, **kwargs):
            played.append((kind, params))
            return validate_pool(pool, kind, params, **kwargs)

        monkeypatch.setattr(cli, "validate_pool", recorded)
        pool = str(REPO / "configs" / "pool_example.json")
        args = ["--game", game, "--n", "4", "--trials", "3", f"--{flag}", str(value)]
        assert main(["validate", pool, *args]) == 0
        assert played == [(GameKind.parse(game), GameParams(n=4, **{flag: value}))]

    def test_a_threshold_outside_the_group_exits_one(self, capsys):
        pool = str(REPO / "configs" / "pool_example.json")
        assert main(["validate", pool, "--game", "crd", "--n", "4", "--m", "5"]) == 1
        err = capsys.readouterr().err
        assert err == "error: collective risk requires 1 <= m <= n, got m=5, n=4\n"

    def test_config_digest_covers_every_parameter(self, tmp_path):
        pool = str(REPO / "configs" / "pool_example.json")
        base = ["--game", "pgg", "--n", "4", "--trials", "3"]
        runs = {
            "base": base,
            "rounds": base + ["--rounds", "5"],
            "k": base + ["--k", "3"],
            "m": base + ["--m", "3"],
            "capacity": base + ["--capacity", "8"],
            "trials": ["--game", "pgg", "--n", "4", "--trials", "4"],
            "seed": base + ["--seed", "1"],
        }
        digests = {}
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["validate", pool, *args, "--out", str(out)]) == 0
            digests[name] = manifest_digest(out)
        assert len(set(digests.values())) == len(runs)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_one_before_writing(self, tmp_path, capsys, trials):
        out = tmp_path / "rep"
        code = main([
            "validate", str(REPO / "configs" / "pool_example.json"),
            "--game", "pgg", "--n", "4", "--trials", trials, "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: trials must be >= 1, got {trials}\n"
        assert not out.exists()

    def test_schema_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{notjson")
        assert main(["validate", str(path), "--game", "pgg", "--n", "4"]) == 1

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path), "--game", "pgg", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: not a readable file: Is a directory\n"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ndilemma.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ndilemma" in proc.stdout


# sha256 of the fingerprint demo's stream-dependent outputs; a change to
# how the fingerprint driver consumes random streams changes them
FINGERPRINT_DEMO_SHA256 = {
    "fingerprints.csv": "371174c36676b7c5e93beda483c1ad5b1c12240ddb389d5827f18f294743887b",
    "nodes.csv": "d21e36efee6f584bb5514c47e97b26196cfc69af7c0e8a16f2a8c60e52b4ecce",
}


def test_fingerprint_demo_outputs_are_pinned(tmp_path):
    out = tmp_path / "fp"
    assert main([
        "fingerprint", "--config", str(REPO / "configs" / "fingerprint_demo.json"),
        "--out", str(out),
    ]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in FINGERPRINT_DEMO_SHA256
    }
    assert digests == FINGERPRINT_DEMO_SHA256



def every_family_pool(attitude: str, families: list[str]) -> dict:
    return {
        "gene_tag": "all", "attitude": attitude,
        "source": {"type": "synth", "size": 24,
                   "families": [{"family": family} for family in families]},
    }


SYNTH_FAMILIES = [
    "constant", "bernoulli", "threshold_trigger", "reciprocator", "grim", "endgame", "rota",
]


def policy_member(label: str, rules: list[tuple[dict, float]], default_prob: float) -> dict:
    return {"label": label, "default_prob": default_prob,
            "rules": [{"when": when, "cooperate_prob": prob} for when, prob in rules]}


# Two policy files of eight members each whose members use every predicate
# op between them, with every cooperate probability strictly between 0 and
# 1, so that every decision reads its uniform, and no rule that can trap in
# the common-pool game: the ratios divide by ``rounds_left``, which is never 0.
POLICY_FILES = {
    "policy_e.json": {
        "schema_version": 1, "gene_tag": "pe", "attitude": "exploitative", "members": [
            *(policy_member(f"opener{i}", [
                ({"op": "round_lt", "value": 1 + i}, 0.9 - 0.1 * i),
                ({"op": "round_is", "value": 5 + i}, 0.15),
                ({"op": "last_coop_ge", "value": 1 + i / 2}, 0.7),
                ({"op": "always"}, 0.35 + 0.1 * i),
            ], 0.5) for i in range(4)),
            *(policy_member(f"closer{i}", [
                ({"op": "rounds_left_le", "value": 2 + i}, 0.05),
                ({"op": "stock_frac_le", "value": 0.2 + 0.1 * i}, 0.95),
                ({"op": "rounds_left_ge", "value": 9 + i}, 0.8),
                ({"op": "ratio_ge", "num": "last_opp_coop", "den": "rounds_left",
                  "value": 0.25 * (i + 1)}, 0.4),
                ({"op": "round_ge", "value": 3.5 + i}, 0.25),
                ({"op": "my_last_is", "value": "CD"[i % 2]}, 0.6),
            ], 0.45) for i in range(4)),
        ]},
    "policy_c.json": {
        "schema_version": 1, "gene_tag": "pc", "attitude": "collective", "members": [
            *(policy_member(f"steward{i}", [
                ({"op": "stock_frac_ge", "value": 0.6 + 0.1 * i}, 0.3),
                ({"op": "coop_rate_ge", "value": 0.5 + 0.125 * i}, 0.85),
                ({"op": "coop_rate_le", "value": 0.125 * i}, 0.1),
            ], 0.65) for i in range(4)),
            *(policy_member(f"mirror{i}", [
                ({"op": "my_last_is", "value": "DC"[i % 2]}, 0.55),
                ({"op": "last_coop_le", "value": i}, 0.2),
                ({"op": "ratio_ge", "num": "stock_frac", "den": "rounds_left",
                  "value": 0.0625 * (i + 1)}, 0.75),
            ], 0.9 - 0.2 * i) for i in range(4)),
        ]},
}

# Synth pools of every family at its default parameter distributions, so
# they hold rota members with period 2-4 and punish on, drawing members and
# stateful ones; stock_guardian plays only the common-pool game. The third
# run plays the policy files above, which the test writes where the run's
# relative paths find them. The fingerprints' stock follows each node's
# forced counts; their stacks hold several strategies each, so how many
# share one cannot change what each strategy draws.
PINNED_STREAM_RUNS = [
    pytest.param("selfplay", "grid.csv", {
        "schema_version": 1,
        "seed": 13,
        "game": {"kind": "cpr", "rounds": 12},
        "group_sizes": [3, 8],
        "samples_per_cell": 6,
        "pool_e": every_family_pool("exploitative", SYNTH_FAMILIES + ["stock_guardian"]),
        "pool_c": every_family_pool("collective", SYNTH_FAMILIES + ["stock_guardian"]),
    }, "4c1660330b24a4430738342889fd103edfb788e126f8125cf421affaca709a13", id="selfplay"),
    pytest.param("evolve", "summary.json", {
        "schema_version": 1,
        "seed": 17,
        "game": {"kind": "pgg", "k": 2.0, "rounds": 10},
        "population": 24,
        "group_size": 4,
        "games_per_agent": 2,
        "elites": 4,
        "mutation_rate": 0.1,
        "dominance_threshold": 0.75,
        "max_generations": 6,
        "runs": 2,
        "genes": [
            every_family_pool("exploitative", SYNTH_FAMILIES),
            every_family_pool("collective", SYNTH_FAMILIES),
        ],
    }, "f19fbd5746187e91d1c0202880e7945e2995b6cd407913de34e899b6f02622b0", id="evolve"),
    pytest.param("selfplay", "grid.csv", {
        "schema_version": 1,
        "seed": 19,
        "game": {"kind": "cpr", "rounds": 12},
        "group_sizes": [3, 8],
        "samples_per_cell": 6,
        "pool_e": {"source": {"type": "file", "path": "policy_e.json"}},
        "pool_c": {"source": {"type": "file", "path": "policy_c.json"}},
    }, "41f9af1fc9efb475afa6c22526568315dded61707363709b822c13ded6b75582", id="selfplay-policy"),
    pytest.param("selfplay", "grid.csv", {
        "schema_version": 1,
        "seed": 29,
        "game": {"kind": "crd", "k": 2.0, "rounds": 10},
        "group_sizes": [3, 6],
        "samples_per_cell": 6,
        "pool_e": every_family_pool("exploitative", SYNTH_FAMILIES),
        "pool_c": every_family_pool("collective", SYNTH_FAMILIES),
    }, "0e365a76dde9eb588f258a582720ffd20d892bd19f4eb74a35f2851f58d46b10", id="selfplay-crd"),
    pytest.param("fingerprint", "fingerprints.csv", {
        "schema_version": 1,
        "seed": 31,
        "game": {"kind": "cpr", "n": 4, "rounds": 4},
        "rollouts": 8,
        "include_references": True,
        "pools": [
            every_family_pool("exploitative", SYNTH_FAMILIES + ["stock_guardian"]),
            every_family_pool("collective", SYNTH_FAMILIES + ["stock_guardian"]),
        ],
    }, "ee5da46be9dcdc3b4c081d6cb9b3812ebfedc8bf9f6d050e91349c6cbaf5b2a6", id="fingerprint-cpr"),
    pytest.param("fingerprint", "fingerprints.csv", {
        "schema_version": 1,
        "seed": 37,
        "game": {"kind": "cpr", "n": 4, "rounds": 4},
        "rollouts": 8,
        "include_references": True,
        "pools": [
            {"source": {"type": "file", "path": "policy_e.json"}},
            {"source": {"type": "file", "path": "policy_c.json"}},
        ],
    }, "853f27df35d1dd323af0482fd9f2947cc07da9994290ca3c3b46c3bd07fc5dab", id="fingerprint-cpr-policy"),
    pytest.param("evolve", "summary.json", {
        "schema_version": 1,
        "seed": 41,
        "game": {"kind": "crd", "k": 2.0, "rounds": 10},
        "population": 24,
        "group_size": 4,
        "games_per_agent": 2,
        "elites": 4,
        "mutation_rate": 0.1,
        "dominance_threshold": 0.75,
        "max_generations": 6,
        "runs": 2,
        "genes": [
            every_family_pool("exploitative", SYNTH_FAMILIES),
            every_family_pool("collective", SYNTH_FAMILIES),
        ],
    }, "6d5f776e8846022b8039b5d7f1e985850c75a5e078074b32db18d6d88550a6cf", id="evolve-crd"),
    pytest.param("evolve", "summary.json", {
        "schema_version": 1,
        "seed": 43,
        "game": {"kind": "cpr", "rounds": 12},
        "population": 24,
        "group_size": 4,
        "games_per_agent": 2,
        "elites": 4,
        "mutation_rate": 0.1,
        "dominance_threshold": 0.75,
        "max_generations": 6,
        "runs": 2,
        "genes": [
            every_family_pool("exploitative", SYNTH_FAMILIES + ["stock_guardian"]),
            every_family_pool("collective", SYNTH_FAMILIES + ["stock_guardian"]),
        ],
    }, "5d4e48d5aa58931636c675770c940d500793b6a47a784dc5b234de904b15853d", id="evolve-cpr"),
    pytest.param("fingerprint", "fingerprints.csv", {
        "schema_version": 1,
        "seed": 47,
        "game": {"kind": "crd", "n": 4, "rounds": 5, "k": 2.0},
        "rollouts": 12,
        "include_references": True,
        "pools": [
            every_family_pool("exploitative", SYNTH_FAMILIES),
            every_family_pool("collective", SYNTH_FAMILIES),
        ],
    }, "07848ef2e57a572e30669bb9f00ff259e78ba2f20fda02749fb50ab77c9cc664", id="fingerprint-crd"),
]


@pytest.mark.parametrize("command, name, config, sha256", PINNED_STREAM_RUNS)
def test_stream_outputs_are_pinned(tmp_path, monkeypatch, command, name, config, sha256):
    monkeypatch.chdir(tmp_path)
    for file_name, doc in POLICY_FILES.items():
        write_json(tmp_path / file_name, doc)
    out = tmp_path / "out"
    path = write_json(tmp_path / "config.json", config)
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256

def test_shipped_demo_configs_run(tmp_path):
    assert main([
        "selfplay", "--config", str(REPO / "configs" / "selfplay_demo.json"),
        "--out", str(tmp_path / "sp"),
    ]) == 0
    assert main([
        "evolve", "--config", str(REPO / "configs" / "evolve_demo.json"),
        "--out", str(tmp_path / "ev"),
    ]) == 0
    assert main([
        "fingerprint", "--config", str(REPO / "configs" / "fingerprint_demo.json"),
        "--out", str(tmp_path / "fp"),
    ]) == 0
    # plain text numbers only; numpy scalar reprs must never leak into output
    for path in tmp_path.rglob("*.csv"):
        text = path.read_text()
        assert "np.float" not in text and "np.int" not in text
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text())
