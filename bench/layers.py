"""Per-layer tracing for the benchmark's traced mode.

``Tracer.install`` wraps the public functions of each ndilemma layer from
outside the package. A wrapper replaces every module attribute that refers
to the original, because modules import names from each other (``selfplay``
holds its own ``build_groups``; ``engine`` and ``fingerprint`` both hold
``decide_checked``), and class attributes for methods. ``uninstall``
restores the originals.

Each wrapped call adds to its layer's call count, inclusive time and self
time (its duration minus the time spent in wrapped calls it made). Calls
outside the hot set also record a span ``(name, parent span, start, end)``;
hot calls, made once per decision or per stream, keep only the summed
counters so that tracing stays affordable. Spans stay in memory until
``spans_document`` is written out at the end of the run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter


def _first_len(args, result) -> int:
    return len(args[0])


def _kernel_slots(args, result) -> int:
    return len(args[1])  # (self, P, state, view, rng)


def _stack_games(args, result) -> int:
    return int(args[3])  # (kind, params, groups, n_games, seed)


def _result_len(args, result) -> int:
    return len(result)


def _generations(args, result) -> int:
    return result.generations_run


def _node_count(args, result) -> int:
    return len(args[3])  # (strategy, kind, params, nodes, ...)


def _added_bytes(args, result) -> int:
    return args[0].outputs[-1]["bytes"]


def _manifest_bytes(args, result) -> int:
    return Path(result).stat().st_size


# (module, function, layer, hot, units)
FUNCTIONS = [
    ("ndilemma.pools", "synth_pool", "pools.synth_pool", False, None),
    ("ndilemma.policy", "load_pool", "policy.parse_pool", False, None),
    ("ndilemma.seeding", "rng_for", "seeding.rng_for", True, None),
    ("ndilemma.engine", "build_groups", "engine.build_groups", False, _first_len),
    ("ndilemma.engine", "simulate_batch", "engine.simulate_batch", False, _stack_games),
    ("ndilemma.games", "batch_round_payoffs", "games.batch_round_payoffs", True, None),
    ("ndilemma.engine", "play_game", "engine.play_game", False, None),
    ("ndilemma.engine", "decide_checked", "engine.decide_checked", True, None),
    ("ndilemma.bounds", "welfare_bounds", "bounds.welfare_bounds", False, None),
    ("ndilemma.selfplay", "run_mix_grid", "selfplay.run_mix_grid", False, _result_len),
    ("ndilemma.evolution", "evaluate_fitness", "evolution.evaluate_fitness", False, None),
    ("ndilemma.evolution", "next_population", "evolution.next_population", False, None),
    ("ndilemma.evolution", "run_evolution", "evolution.run_evolution", False, _generations),
    ("ndilemma.fingerprint", "fingerprint", "fingerprint.fingerprint", False, _node_count),
    ("ndilemma.fingerprint", "pca", "fingerprint.pca", False, None),
    ("ndilemma.fingerprint", "mpd", "fingerprint.metrics", False, None),
    ("ndilemma.fingerprint", "cohens_d", "fingerprint.metrics", False, None),
    ("ndilemma.fingerprint", "participation_ratio", "fingerprint.metrics", False, None),
    ("ndilemma.selfplay", "emit_grid_csv", "output.write", False, None),
    ("ndilemma.evolution", "write_summary_csv", "output.write", False, None),
    ("ndilemma.evolution", "write_summary_json", "output.write", False, None),
    ("ndilemma.fingerprint", "write_nodes_csv", "output.write", False, None),
    ("ndilemma.fingerprint", "write_fingerprint_csv", "output.write", False, None),
    ("ndilemma.fingerprint", "write_pca_json", "output.write", False, None),
    ("ndilemma.fingerprint", "write_projections_csv", "output.write", False, None),
]


def _methods():
    """(class, method, layer, hot, units) for the wrapped methods."""
    from ndilemma.engine import HistoryAccumulator
    from ndilemma.kernels import FAMILIES
    from ndilemma.manifest import RunManifest
    from ndilemma.policy import Predicate
    from ndilemma.strategies import StrategyPool

    methods = [
        (StrategyPool, "sample_without_replacement", "strategies.sample", True, None),
        (StrategyPool, "sample_one", "strategies.sample", True, None),
        (HistoryAccumulator, "push_round", "engine.push_round", True, None),
        (Predicate, "evaluate", "policy.evaluate", True, None),
        (RunManifest, "add_output", "output.write", False, _added_bytes),
        (RunManifest, "write", "output.write", False, _manifest_bytes),
    ]
    methods += [
        (type(family), "decide_batch", "kernels.decide_batch", True, _kernel_slots)
        for family in FAMILIES.values()
    ]
    return methods


class LayerStats:
    __slots__ = ("calls", "total", "self_time", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list = []
        self._open = [None]  # ids of the open (non-hot) spans
        self._child = [0.0]  # wrapped time spent inside each open call
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, hot: bool, units):
        stat = self.stats.setdefault(layer, LayerStats())
        child, open_spans, spans = self._child, self._open, self.spans

        def wrapper(*args, **kwargs):
            if not hot:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                if not hot:
                    open_spans.pop()
                    spans[span_id] = (layer, parent, start, end)
            if units is not None:
                stat.units += units(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every traced name wherever ndilemma or ``extra_modules``
        look it up."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "ndilemma" or name.startswith("ndilemma.")
        ] + list(extra_modules)
        for module_name, func, layer, hot, units in FUNCTIONS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(original, layer, hot, units)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for cls, method, layer, hot, units in _methods():
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, layer, hot, units))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def metrics(self, rounds: int) -> dict[str, float]:
        """The per-layer metrics, per traced round."""
        s = self.layer
        stacks = s("engine.simulate_batch")
        values = {
            "pools.synth_pool_s": s("pools.synth_pool").total,
            "policy.parse_pool_s": s("policy.parse_pool").total,
            "seeding.rng_for_calls": s("seeding.rng_for").calls,
            "seeding.rng_for_s": s("seeding.rng_for").total,
            "strategies.sample_calls": s("strategies.sample").calls,
            "strategies.sample_s": s("strategies.sample").total,
            "engine.build_groups_calls": s("engine.build_groups").calls,
            "engine.build_groups_slots": s("engine.build_groups").units,
            "engine.build_groups_s": s("engine.build_groups").total,
            "kernels.decide_batch_calls": s("kernels.decide_batch").calls,
            "kernels.decide_batch_slots": s("kernels.decide_batch").units,
            "kernels.decide_batch_s": s("kernels.decide_batch").total,
            "engine.simulate_batch_calls": stacks.calls,
            "engine.simulate_batch_games": stacks.units,
            "engine.simulate_batch_self_s": stacks.self_time,
            "games.batch_round_payoffs_calls": s("games.batch_round_payoffs").calls,
            "games.batch_round_payoffs_s": s("games.batch_round_payoffs").total,
            "engine.play_game_calls": s("engine.play_game").calls,
            "engine.play_game_self_s": s("engine.play_game").self_time,
            "engine.decide_checked_calls": s("engine.decide_checked").calls,
            "engine.decide_checked_s": s("engine.decide_checked").total,
            "engine.push_round_calls": s("engine.push_round").calls,
            "engine.push_round_s": s("engine.push_round").total,
            "policy.predicate_evals": s("policy.evaluate").calls,
            "policy.evaluate_s": s("policy.evaluate").total,
            "bounds.welfare_bounds_calls": s("bounds.welfare_bounds").calls,
            "bounds.welfare_bounds_s": s("bounds.welfare_bounds").total,
            "selfplay.cells": s("selfplay.run_mix_grid").units,
            "selfplay.run_mix_grid_self_s": s("selfplay.run_mix_grid").self_time,
            "evolution.generations": s("evolution.run_evolution").units,
            "evolution.evaluate_fitness_self_s": s("evolution.evaluate_fitness").self_time,
            "evolution.next_population_s": s("evolution.next_population").total,
            "evolution.run_evolution_self_s": s("evolution.run_evolution").self_time,
            "fingerprint.node_evals": s("fingerprint.fingerprint").units,
            "fingerprint.fingerprint_self_s": s("fingerprint.fingerprint").self_time,
            "fingerprint.pca_s": s("fingerprint.pca").total,
            "fingerprint.metrics_s": s("fingerprint.metrics").total,
            "output.bytes": s("output.write").units,
            "output.write_s": s("output.write").total,
        }
        per_round = {}
        for name, value in values.items():
            if isinstance(value, int) and value % rounds == 0:
                per_round[name] = value // rounds
            else:
                per_round[name] = value / rounds
        # a ratio of two counts, so the same per round as over the run
        per_round["engine.games_per_stack"] = stacks.units / stacks.calls if stacks.calls else 0.0
        return per_round

    def spans_document(self) -> dict:
        return {
            "layers": {
                name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time,
                       "units": st.units}
                for name, st in sorted(self.stats.items())
            },
            "spans": [
                {"id": i, "layer": layer, "parent": parent, "start": start, "end": end}
                for i, (layer, parent, start, end) in enumerate(self.spans)
            ],
        }
