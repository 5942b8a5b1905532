"""The benchmark's own tests: ``python3 -m pytest e2ebench/tests``."""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_repro()

import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def private_state(tmp_path, monkeypatch):
    """Keep digests and spans of test runs out of the checkout's state."""
    monkeypatch.setattr(run, "STATE", tmp_path / "state")


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _campaign_profiles(monkeypatch, *names) -> None:
    """Make ``fuzz-campaign`` fuzz only the named profiles per round."""
    profiles = {name: workloads.PROFILES[name] for name in names}
    monkeypatch.setattr(workloads, "PROFILES", profiles)


def _main_fails(argv, capsys) -> dict:
    """Run the benchmark expecting exit 1; its JSON line, all ops failed."""
    assert run.main(argv) == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    return result


@pytest.mark.parametrize(
    "trace,section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_printed_metric_names_match_benchmark_json(trace, section, capsys):
    argv = ["--workload", "fuzz-campaign", "--seed", "3", "--seconds", "0.1"]
    assert run.main(argv + ["--trace", trace]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(workloads.WORKLOADS)


FAST_FUZZ = ["--workload", "fuzz-campaign", "--seed", "5", "--seconds", "0.1"]


def test_injected_scheme_bug_registers_failed_ops(monkeypatch, capsys):
    _campaign_profiles(monkeypatch, "store_pressure")
    mutated = functools.partial(
        workloads.FuzzSession, mutation="commit-bitflip", minimize_findings=False
    )
    monkeypatch.setattr(workloads, "FuzzSession", mutated)
    _main_fails(FAST_FUZZ + ["--trace", "0"], capsys)


def test_round_raising_after_its_ops_fails_them(monkeypatch, capsys):
    # Every program is journaled (and so complete) before the campaign's
    # manifest write raises: the verdict checks never ran.
    _campaign_profiles(monkeypatch, "store_pressure")

    def broken(session, summary):
        raise OSError("manifest write failed")

    monkeypatch.setattr(workloads.FuzzSession, "write_manifest", broken)
    _main_fails(FAST_FUZZ + ["--trace", "0"], capsys)


def test_round_raising_before_any_op_still_reports(monkeypatch, capsys):
    def broken(workload, index, workdir):
        raise RuntimeError("cannot construct the session")

    # In process only: the set-up probes run in children and succeed.
    monkeypatch.setattr(workloads.FuzzCampaign, "prepare", broken)
    result = _main_fails(FAST_FUZZ + ["--trace", "0"], capsys)
    assert "op_s_p50" not in result["metrics"]
    assert "ops_per_s" in result["metrics"]


def test_layer_self_times_fit_in_the_traced_wall(tmp_path, monkeypatch):
    _campaign_profiles(monkeypatch, "default", "store_pressure")
    workload = workloads.FuzzCampaign(7)
    traced = run.measure_pass(workload, 1, True, tmp_path)
    assert not traced.failures
    self_times = [own for own, _calls, _inclusive in traced.layers.values()]
    assert all(seconds >= 0 for seconds in self_times)
    assert 0 < sum(self_times) <= traced.ref_wall_s
    calls = {key: n for key, (_own, n, _inclusive) in traced.layers.items()}
    assert calls[("fuzz.generate", "")] == 2
    assert calls[("pipeline.init", "")] == 2 * 24


def test_host_clock_scales_an_interval_by_the_samples_around_it():
    from hostclock import EVERY_S, REFERENCE_S, HostClock

    clock = HostClock()
    clock.samples = [(10.0, REFERENCE_S / 2), (20.0, REFERENCE_S * 2)]
    assert clock.scale_at(9.9, 10.1) == 2.0
    assert clock.scale_at(20.0 + EVERY_S / 2, 21.0) == 0.5
    # No sample near the interval: the run's median.
    assert clock.scale_at(14.0, 15.0) == clock.scale() == REFERENCE_S / (
        1.25 * REFERENCE_S
    )
