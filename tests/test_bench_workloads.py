"""The benchmark's evolution workload captures the EvolutionConfig that
``ndilemma evolve`` builds by patching ``cli.batch_runs``
(``bench/workloads.py``); a change to how the command calls ``batch_runs``
must fail here, not only in the benchmark's replay check."""

from pathlib import Path

from ndilemma import EvolutionConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_evolve_command_config_is_captured(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workload = workloads.Evolution()
    _, config_path = workload.write_config(7, tmp_path)
    evo = workload.command_config(config_path, tmp_path / "out")
    assert isinstance(evo, EvolutionConfig)
    assert evo.population == 256
    assert len(evo.genes) == 3
