"""Fast checks of the benchmark itself, on shrunken copies of its workloads.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps these checks out of the package's own test run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from coopdetect import harness, solver  # noqa: E402
from coopdetect.errors import NotPositiveDefinite  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def tiny(name: str) -> workloads.Workload:
    """The workload with small N, L, M and at most 5 rounds; modes, failure
    plan and threshold policy unchanged."""
    w = workloads.WORKLOADS[name]
    overrides = dict(w.overrides, num_devices=24, num_active=4, pilot_len=8,
                     num_antennas=8, trials=1, calibration_trials=1)
    overrides["num_iters"] = min(overrides.get("num_iters", 5), 5)
    return workloads.Workload(name, w.why, overrides)


@pytest.fixture
def shrunk(monkeypatch):
    """Swap every workload for its tiny copy, with a matching pinned hash."""
    for name in NAMES:
        w = tiny(name)
        monkeypatch.setitem(workloads.WORKLOADS, name, w)
        monkeypatch.setitem(workloads.PINNED_HASHES, name,
                            w.config(workloads.PINNED_SEED).config_hash())
    monkeypatch.setattr(measure, "SETUP_SAMPLES", 1)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["result"]["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_timed_at_tiny_size(shrunk, name):
    out = measure.timed_run(name, seed=3, seconds=0.0, src=ROOT / "src")
    assert out["info"]["problems"] == []
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert emitted(out) == declared("end_to_end")
    assert result["metrics"]["trials_ok_frac"]["value"] == 1.0
    # wall_s is the fastest of the timed repetitions.
    assert out["info"]["timed_reps"] >= measure.MIN_REPS
    assert result["metrics"]["wall_s"]["value"] == out["info"]["rep_wall_s_quartiles"][0]


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_traced_at_tiny_size(shrunk, name):
    out = measure.traced_run(name, seed=3, seconds=0.0)
    assert out["info"]["problems"] == []
    assert out["result"]["correct"]
    assert emitted(out) == declared("per_layer")
    metrics = out["result"]["metrics"]
    # Self times partition the root span, so they cannot exceed the wall time.
    assert out["info"]["self_s_sum"] <= metrics["trace.wall_s"]["value"]
    cfg = workloads.WORKLOADS[name].config(workloads.rep_seed(3, name, 1))
    assert metrics["solver.ap_iteration.calls"]["value"] == workloads.ap_iterations(cfg)
    calibrates = metrics["metrics.calibrate_threshold.calls"]["value"] > 0
    assert calibrates == (cfg.iota is None)


def test_wrappers_restore_originals():
    targets = [(m, a) for pairs in tracing.SPANS.values() for m, a in pairs]
    before = [getattr(m, a) for m, a in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            assert solver.run is not before[targets.index((solver, "run"))]
            raise RuntimeError("leave the block early")
    assert [getattr(m, a) for m, a in targets] == before
    assert tracer.missing == []


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    spans = tracer.summary()
    outer, inner = spans["outer"], spans["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert inner["self_s"] == inner["total_s"]


def test_failed_frac_counts_a_trial_that_raises(shrunk, monkeypatch):
    def broken_run(*args, **kwargs):
        raise NotPositiveDefinite("injected")

    monkeypatch.setattr(solver, "run", broken_run)
    out = measure.timed_run("desk_sweep", seed=3, seconds=0.0, src=ROOT / "src")
    result = out["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert out["info"]["failed_frac"] == 1.0
    assert result["metrics"]["trials_ok_frac"]["value"] == 0.0
    assert result["metrics"]["aer"]["value"] == measure.FAILED_AER
    assert all("NotPositiveDefinite" in e for e in out["info"]["errors"])


def test_invalid_row_counts_as_failed(shrunk, monkeypatch):
    real = harness.run_experiment

    def corrupt(cfg):
        artifact = real(cfg)
        artifact.rows[0]["aer"] = 2.5
        return artifact

    monkeypatch.setattr(harness, "run_experiment", corrupt)
    rep = measure.run_rep(workloads.WORKLOADS["wide_lossy"].config(5))
    assert rep.failed == 1 and rep.problems


def test_repetitions_with_other_rows_are_flagged():
    rows = [{"mode": "cmd", "aer": 0.1}]
    reps = [measure.Rep(7, 0.1, 1, 0, rows=rows), measure.Rep(7, 0.1, 1, 0, rows=list(rows)),
            measure.Rep(7, 0.1, 1, 0, rows=[{"mode": "cmd", "aer": 0.2}])]
    problems = measure.differing(reps)
    assert len(problems) == 1 and "repetition 2" in problems[0]


def test_benchmark_json_describes_these_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", NAMES)
def test_pinned_hashes_match_definitions(name):
    assert measure.pin_problems(name) == []


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "desk_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
