"""ndilemma benchmark: four workloads, end-to-end metrics and a traced mode.

Run from the root of a checkout; the program is imported from ``src``:

    python3 bench/run.py --workload policy_grid --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``decisions_per_s``, ``peak_rss_mb``). ``--trace 1`` prints the per-layer
metrics of a traced run instead. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the same object, and in traced mode the spans, are written under
``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = Path(".bench_out")
WORKLOAD_NAMES = ("mix_grid", "policy_grid", "evolution", "fingerprint")
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build one workload's inputs in a fresh process, then exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    src = Path.cwd() / "src"
    if not (src / "ndilemma" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'ndilemma'} not found; run from the root of an "
                         "ndilemma checkout")
    sys.path.insert(0, str(src))
    import workloads

    import ndilemma

    if Path(ndilemma.__file__).resolve().parent != (src / "ndilemma").resolve():
        raise SystemExit(f"error: imported ndilemma from {ndilemma.__file__}, not {src}")
    return workloads


def setup_probe(args) -> int:
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload]
    config, _ = workload.write_config(args.seed, args.workdir)
    workload.load(config, args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args, probe_dir: Path) -> float:
    """Wall time from starting a fresh interpreter until it has imported the
    program, written the workload's config and loaded what the command
    loads before its main loop."""
    if probe_dir.exists():
        shutil.rmtree(probe_dir)
    probe_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(probe_dir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe exited with code {code}")
    return elapsed


class Round:
    """One timed run of the workload, with its checked outcome."""

    def __init__(self, ops: int):
        self.ops = ops
        self.failures: dict[str, str] = {}  # operation -> failed check
        self.fatal = None  # a failure that spoils every operation of the round
        self.errors = 0  # operations that raised
        self.wall = 0.0  # config written + command run, for the tracing overhead
        self.rate = None  # decisions per second of the command
        self.digests = None
        self.traced = False


def play_round(workload, seed: int, workdir: Path, clear_caches, tracer=None) -> Round:
    """Write a fresh config, clear the program's caches and time one run of
    the command; with a tracer, the command runs traced."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    begin = time.perf_counter()
    config, config_path = workload.write_config(seed, workdir)
    clear_caches()
    gc.collect()
    rnd = Round(workload.operations(config))
    rnd.traced = tracer is not None
    if tracer:
        tracer.install([sys.modules["workloads"]])
    start = time.perf_counter()
    try:
        workload.run(config_path, workdir / "out")
    except Exception:  # noqa: BLE001 - a raise fails the round's operations
        end = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        rnd.errors = rnd.ops
    else:
        end = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    rnd.wall = end - begin
    if not rnd.errors:
        check_round(workload, rnd, config, seed, workdir)
        if rnd.digests is not None:
            rnd.rate = workload.decisions(config, workdir / "out") / (end - start)
    return rnd


def check_round(workload, rnd: Round, config: dict, seed: int, workdir: Path) -> None:
    """Hold the data files the command wrote to the oracles."""
    try:
        rnd.failures.update(workload.check(config, seed, workdir / "out"))
        rnd.digests = workload.digests(workdir / "out")
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        traceback.print_exc(file=sys.stderr)
        rnd.fatal = f"check raised {type(exc).__name__}: {exc}"


def run_rounds(workload, args, workdir: Path, clear_caches, tracer=None):
    """Whole rounds for ``args.seconds``: a round starts only if one more
    round as long as the last is expected to end in time, and there is at
    least one. With a tracer, rounds alternate untraced and traced, so both
    see the same machine state. Without one, the set-up probes run between
    rounds, spread over the run, and any left run at its end.

    Every round's data files must hash the same as the first's (same seed,
    so the same bytes). After the first round that ran, a workload with a
    replay check replays part of it outside the timed span."""
    rounds: list[Round] = []
    setup: list[float] = []
    reference = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            rnd = play_round(workload, args.seed, workdir / "round", clear_caches,
                             tracer if traced else None)
            rounds.append(rnd)
            if rnd.digests is None:
                continue
            if reference is None:
                reference = rnd.digests
                replay = getattr(workload, "replay_check", None)
                if replay is not None:
                    run_replay(replay, rnd, workdir / "round")
            elif rnd.digests != reference:
                rnd.fatal = "data files differ from the first run with this seed"
        due = SETUP_PROBES * (time.perf_counter() - start) / args.seconds
        while not tracer and len(setup) < min(due, SETUP_PROBES):
            setup.append(measure_setup(args, workdir / "probe"))
        now = time.perf_counter()
        if now + (now - began) - start > args.seconds:
            break
    while not tracer and len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args, workdir / "probe"))
    return rounds, setup


def run_replay(replay, rnd: Round, workdir: Path) -> None:
    try:
        rnd.failures.update(replay(workdir / "config.json", workdir / "out"))
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        rnd.fatal = f"replay raised {type(exc).__name__}: {exc}"


def summarise(rounds: list[Round]) -> tuple[bool, int, int]:
    """Operations attempted and failed; the run is correct only when no
    operation failed, whether by a raise or by a check."""
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.ops if r.fatal else min(r.ops, r.errors + len(r.failures)) for r in rounds)
    for rnd in rounds:
        if rnd.fatal:
            print(f"FAILED round: {rnd.fatal}", file=sys.stderr)
        if rnd.errors:
            print("FAILED round: the command raised", file=sys.stderr)
        for op, reason in list(rnd.failures.items())[:5]:
            print(f"FAILED {op}: {reason}", file=sys.stderr)
    return failed == 0, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads = import_program()
    from ndilemma.bounds import cached_bounds

    workload = workloads.WORKLOADS[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            import layers

            tracer = layers.Tracer()
            rounds, _ = run_rounds(workload, args, workdir, cached_bounds.cache_clear, tracer)
            metrics = layer_metrics(tracer, rounds)
            (OUT_ROOT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans_document()))
        else:
            rounds, setup = run_rounds(workload, args, workdir, cached_bounds.cache_clear)
            rates = [r.rate for r in rounds if r.rate is not None]
            print("decisions/s per round: " + " ".join(f"{r:.4g}" for r in rates),
                  file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                # no rates only when every round failed, and then correct is false
                "decisions_per_s": (statistics.median(rates) if rates else 0.0, "decisions/s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        correct, attempted, failed = summarise(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} rounds = {len(rounds)}, operations attempted = {attempted}, "
          f"failed = {failed}, correct = {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_ROOT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(tracer, rounds: list[Round]) -> dict:
    """Per-layer metrics per traced round, plus the tracing overhead: the
    median wall time of a traced round (config written and command run)
    minus that of an untraced one."""
    traced = [r.wall for r in rounds if r.traced]
    plain = [r.wall for r in rounds if not r.traced]
    values = tracer.metrics(len(traced))
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: (value, unit_of(name)) for name, value in values.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "output.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
