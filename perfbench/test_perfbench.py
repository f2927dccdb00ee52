"""Tests of the benchmark itself: one tiny pass per workload.

    python3 -m pytest perfbench
"""

import dataclasses

import pytest

from perfbench import run

run.pin_blas()
run.import_program()

import dcelab.cli  # noqa: E402
import dcelab.output  # noqa: E402
from perfbench.tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def _scenario_files(workload, seed, work_dir, tiny):
    """name -> bytes of each generated scenario; Runner validates them all
    with load_config on the way."""
    runner = run.Runner(workload, seed, work_dir, tiny=tiny)
    return {n: p.read_bytes() for n, p in runner.paths.items()
            if p.is_relative_to(work_dir)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("tiny", [False, True])
def test_scenarios_validate_and_follow_the_seed(workload, tiny, tmp_path):
    same = [_scenario_files(workload, 7, tmp_path / d, tiny) for d in ("a", "b")]
    other = _scenario_files(workload, 8, tmp_path / "c", tiny)
    assert same[0]
    assert same[0] == same[1]
    assert same[0].keys() == other.keys()
    assert all(same[0][k] != other[k] for k in other)
    assert generate(workload, 7, tiny) == generate(workload, 7, tiny)
    assert generate(workload, 7, tiny) != generate(workload, 8, tiny)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_is_correct_and_byte_reproducible(workload, tmp_path):
    first = run.Runner(workload, 3, tmp_path / "first", tiny=True)
    assert not any(first.verify(first.run_pass()[2]).values())
    assert not any(first.verify(first.run_pass()[2]).values())
    again = run.Runner(workload, 3, tmp_path / "again", tiny=True)
    assert not any(again.verify(again.run_pass()[2]).values())
    assert again.results_hash() == first.results_hash()


def test_broken_output_is_counted_as_failed(tmp_path, monkeypatch):
    real = dcelab.cli.nonadiabatic_cycle

    def beats_adiabatic(spec):
        return dataclasses.replace(real(spec), eta=2.0 * spec.eps)

    monkeypatch.setattr(dcelab.cli, "nonadiabatic_cycle", beats_adiabatic)
    runner = run.Runner("ramp", 3, tmp_path, tiny=True)
    errors = runner.verify(runner.run_pass()[2])
    assert {n for n, e in errors.items() if e} == {"otto_fast", "otto_slow"}
    assert "eta exceeds eps" in errors["otto_fast"]


def test_changed_bytes_on_a_later_pass_fail_the_hash(tmp_path, monkeypatch):
    runner = run.Runner("ramp", 3, tmp_path, tiny=True)
    assert not any(runner.verify(runner.run_pass()[2]).values())
    # 15 digits still pass every value check; only the bytes change
    monkeypatch.setattr(dcelab.output, "FLOAT_FMT", ".15g")
    errors = runner.verify(runner.run_pass()[2])
    assert errors and all("hash" in e for e in errors.values())


def test_traced_pass_reports_every_layer_and_restores(tmp_path):
    runner = run.Runner("drive", 3, tmp_path, tiny=True)
    original = dcelab.cli.integrate_modes
    with Tracer() as tracer:
        assert dcelab.cli.integrate_modes is not original
        wall, _, raw, _ = runner.run_pass()
    assert dcelab.cli.integrate_modes is original
    assert not any(runner.verify(raw).values())
    metrics = layer_metrics(tracer, wall, wall)
    assert metrics.keys() == PER_LAYER.keys()
    assert metrics["bogoliubov.integrate_modes.calls"] == 5
    assert metrics["trajectories.evals"] > 0
    # three seeded slow flows, slow_flow.yaml and two crosschecks
    assert metrics["msa.evolve_slow.calls"] == 6
    assert 0.9 < metrics["trace.coverage"] <= 1.0
