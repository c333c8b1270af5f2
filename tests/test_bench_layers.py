"""The traced benchmark mode wraps ndilemma names from outside the package
(``bench/layers.py``); renaming or deleting one of them must fail here, not
only in ``bench/run.py --trace 1`` runs."""

import importlib.util
from pathlib import Path

import ndilemma.cli  # noqa: F401 - loads every module the tracer wraps
from ndilemma import Action, GameKind, GameParams, Strategy, make_reference
from ndilemma import engine

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    originals = (engine.play_game, engine.simulate_batch, engine.HistoryAccumulator.push_round)
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        assert engine.play_game is not originals[0]
        probe = Strategy("probe", "file", lambda obs, rng: Action.C)
        lineup = [probe, make_reference("alld"), make_reference("allc")]
        engine.play_game(GameKind.PUBLIC_GOODS, GameParams(n=3, rounds=4, k=2.0), lineup, seed=0)
        assert tracer.layer("engine.play_game").calls == 1
        assert tracer.layer("engine.simulate_batch").calls == 1
        assert tracer.layer("engine.decide_checked").calls == 4
        assert tracer.layer("engine.push_round").calls == 3
    finally:
        tracer.uninstall()
    assert (engine.play_game, engine.simulate_batch, engine.HistoryAccumulator.push_round) == originals
