"""Timed and traced runs of one workload, with the checks on their outputs.

A timed run (tracing off) gives the end-to-end metrics.  It first runs the
workload once at ``PINNED_SEED``, whose mean AER is the gated quality
figure, so the figure is identical in every run; that repetition also warms
up the interpreter and is not timed.  It then repeats the workload at one
master seed derived from the benchmark seed for as long as the time budget
lasts, and reports the fastest repetition.  The repetitions do identical
work, so their spread is the machine's: on a shared host a phase of slow
repetitions lasts seconds, and the median of a run moves with it, while the
fastest of a few hundred short repetitions stays put.

A traced run gives the per-layer metrics.  It alternates untraced and
traced repetitions of the same seed-derived experiment while the budget
lasts, takes the layer times from the fastest traced one and the tracing
overhead from the difference of the fastest traced and untraced times.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import coopdetect
from coopdetect import harness
from coopdetect.errors import CoopDetectError

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
MIN_REPS = 3          # timed (or traced) repetitions, however short the budget
FAILED_AER = 2.0      # a trial that fails scores the worst possible AER

# Work done in one set-up sample; it runs in a fresh interpreter so that the
# import is timed cold, the way a user's process pays for it.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import coopdetect
from workloads import WORKLOADS
WORKLOADS[{name!r}].config({seed}).validate()
print(time.perf_counter() - t0, coopdetect.__file__)
"""


@dataclass
class Rep:
    """One ``run_experiment`` call and what the checks made of it."""

    master_seed: int
    wall_s: float
    attempted: int
    failed: int
    aer_sum: float = 0.0              # over valid rows only
    mode_aer: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    error: str | None = None
    problems: list = field(default_factory=list)


def run_rep(cfg, tracer: tracing.Tracer | None = None) -> Rep:
    """Run the experiment once; a package error fails every trial of it."""
    attempted = cfg.trials * len(cfg.modes) * len(cfg.sweep_values)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            artifact = harness.run_experiment(cfg)
        else:
            with tracer.span("harness.run_experiment"):
                artifact = harness.run_experiment(cfg)
    except CoopDetectError as err:
        return Rep(cfg.master_seed, time.perf_counter() - t0, attempted, attempted,
                   error=f"{type(err).__name__}: {err}")
    wall = time.perf_counter() - t0
    valid, problems = workloads.check_rows(cfg, artifact.rows)
    rep = Rep(cfg.master_seed, wall, attempted, attempted - min(len(valid), attempted),
              rows=artifact.rows, problems=problems)
    rep.aer_sum = sum(r["aer"] for r in valid)
    for mode in cfg.modes:
        aers = [r["aer"] for r in valid if r["mode"] == mode]
        if aers:
            rep.mode_aer[mode] = statistics.fmean(aers)
    if artifact.config_hash != cfg.config_hash():
        rep.problems.append("artifact config_hash differs from the config's")
    return rep


def setup_times(workload: str, seed: int, src: Path) -> list[float]:
    """Seconds to import coopdetect and build and validate the config, per sample."""
    code = SETUP_CODE.format(src=str(src), bench=str(BENCH_DIR), name=workload, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, check=True).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"set-up imported coopdetect from {out[1]}, not {src}")
        samples.append(float(out[0]))
    return samples


def pin_problems(workload: str) -> list[str]:
    got = workloads.WORKLOADS[workload].config(workloads.PINNED_SEED).config_hash()
    want = workloads.PINNED_HASHES[workload]
    return [] if got == want else [f"{workload} config_hash {got} != pinned {want}"]


def timed_run(workload: str, seed: int, seconds: float, src: Path) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    w = workloads.WORKLOADS[workload]
    setup = setup_times(workload, seed, src)
    problems = pin_problems(workload)
    pinned = run_rep(w.config(workloads.PINNED_SEED))
    cfg = w.config(workloads.rep_seed(seed, workload, 1))
    ap_iters = workloads.ap_iterations(cfg)
    reps = repeat(lambda: run_rep(cfg), seconds)

    ok = [r for r in reps if r.error is None] or reps
    walls = [r.wall_s for r in ok]
    everything = [pinned] + reps
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (min(walls), "s"),
        "ap_rounds_per_s": (ap_iters / min(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "aer": ((pinned.aer_sum + FAILED_AER * pinned.failed) / pinned.attempted, "ratio"),
        "trials_ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    info = {
        "setup_samples_s": setup,
        "pinned_wall_s": pinned.wall_s,
        "pinned_aer_by_mode": pinned.mode_aer,
        "master_seed": cfg.master_seed,
        "timed_reps": len(reps),
        "rep_wall_s_quartiles": _quartiles(walls),
        "ap_iterations_per_rep": ap_iters,
        "failed_frac": failed / attempted,
        "errors": [r.error for r in everything if r.error],
    }
    problems += [p for r in everything for p in r.problems] + differing(reps)
    return _result(everything, problems, metrics, info)


def repeat(step, seconds: float) -> list:
    """Call ``step()`` until ``seconds`` have passed; return its results.

    Stops before a call that would overrun the budget, but makes at least
    ``MIN_REPS`` calls.
    """
    out = []
    start = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if len(out) >= MIN_REPS and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def differing(reps: list[Rep]) -> list[str]:
    """Repetitions of one config whose rows or error differ from the first's."""
    first = reps[0]
    return [f"repetition {i} of master seed {r.master_seed} gave other rows than the first"
            for i, r in enumerate(reps) if (r.rows, r.error) != (first.rows, first.error)]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values)
    return [min(values), *statistics.quantiles(values, n=4), max(values)]


def _solve_summary(result) -> dict:
    """What the traced run keeps of each ``solver.run`` result."""
    states = result.states
    gamma = np.asarray(result.gamma)
    ledger = result.ledger
    return {
        "rounds": result.rounds_completed,
        "max_delta": max((float(s.last_delta) for s in states), default=0.0),
        "clamped": sum(int(s.clamp_count) for s in states),
        "degenerate": sum(int(s.degenerate_count) for s in states),
        "gamma_ok": bool(np.all(np.isfinite(gamma)) and np.all(gamma >= 0.0)),
        "attempted": sum(r["attempted"] for r in ledger.rounds),
        "delivered": ledger.total_messages,
        "dropped": ledger.total_dropped,
        "scalars": ledger.total_scalars,
    }


def kernel_flops(pilot_len: int, num_devices: int) -> float:
    """Real flops of one ``ml_gradient`` call, computed from L and N.

    Complex Cholesky (8/3 L^3), the two triangular solves over N columns
    (8 L^2 N together), the product with the sample covariance (8 L^2 N)
    and the two column-wise inner products (8 L N each).
    """
    l, n = pilot_len, num_devices
    return 8.0 / 3.0 * l**3 + 16.0 * l * l * n + 16.0 * l * n


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one seed-derived experiment, from traced runs."""
    w = workloads.WORKLOADS[workload]
    cfg = w.config(workloads.rep_seed(seed, workload, 1))

    def pair():
        base = run_rep(cfg)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, on_return={"solver.run": _solve_summary}):
            traced = run_rep(cfg, tracer)
        spans = tracer.summary()
        solves = tracer.returns.get("solver.run", [])
        if not all(s["gamma_ok"] for s in solves):
            traced.problems.append("a traced solve ended with a negative or non-finite gamma")
        self_sum = sum(rec["self_s"] for rec in spans.values())
        if self_sum > traced.wall_s:
            traced.problems.append(f"span self times sum to {self_sum} s > wall {traced.wall_s} s")
        return base, traced, spans, solves, len(tracer.span_name), tracer.missing

    pairs = repeat(pair, seconds)
    bases = [p[0] for p in pairs]
    traced, spans, solves, spans_recorded, missing = min(
        (p[1:] for p in pairs), key=lambda p: p[0].wall_s)
    everything = [rep for p in pairs for rep in p[:2]]
    problems = pin_problems(workload) + [p for r in everything for p in r.problems]
    problems += differing(everything)
    self_sum = sum(rec["self_s"] for rec in spans.values())
    ap_calls = spans.get("solver.ap_iteration", {}).get("calls", 0)
    if ap_calls > workloads.ap_iterations(cfg):
        problems.append(f"{ap_calls} AP-iterations, configured {workloads.ap_iterations(cfg)}")

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = span(name, "calls")
        return span(name, "total_s") / calls * 1e6 if calls else 0.0

    def self_s(*names):
        return sum(span(name, "self_s") for name in names)

    # Every span's calls are reported, but a self time only where the span
    # runs on every workload; spans that some workload never enters share a
    # self time with one that always runs, so no time reads a constant zero.
    metrics = {f"{name}.calls": (span(name, "calls"), "count") for name in tracing.SPANS}
    for name in ("objective.ml_gradient", "linalg.cholesky_factor",
                 "linalg.downdate_quadforms_batch", "objective.sparsity_step",
                 "solver.ap_iteration", "solver.run", "netsim.deliver_round",
                 "harness.build_scenario", "scenario.synthesize"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics.update({
        "objective.combiner_prox.self_s": (
            self_s("objective.combiner_weights", "objective.similarity_prox"), "s"),
        "metrics.self_s": (self_s("metrics.calibrate_threshold", "metrics.evaluate"), "s"),
        "harness.self_s": (self_s("harness.run_experiment", "harness.calibrate",
                                  "harness.mode_dispatch"), "s"),
        "harness.calibrate.share": (span("harness.calibrate", "total_s") / traced.wall_s,
                                    "ratio"),
    })
    grad_s = span("objective.ml_gradient", "total_s")
    flops = kernel_flops(cfg.pilot_len, cfg.num_devices) * span("objective.ml_gradient", "calls")
    attempted = sum(s["attempted"] for s in solves)
    delivered = sum(s["delivered"] for s in solves)
    lapack_s = self_s("linalg.cholesky_factor", "linalg.downdate_quadforms_batch")
    metrics.update({
        "linalg.kernel.gflops_computed": (flops / grad_s / 1e9 if grad_s else 0.0, "GFLOP/s"),
        "linalg.lapack_share": (lapack_s / traced.wall_s, "ratio"),
        "solver.ap_iteration.us_per_call": (per_call_us("solver.ap_iteration"), "us"),
        "solver.rounds_completed": (sum(s["rounds"] for s in solves), "count"),
        "solver.final_max_delta": (max((s["max_delta"] for s in solves), default=0.0), "gamma"),
        "solver.clamped": (sum(s["clamped"] for s in solves), "count"),
        "solver.degenerate": (sum(s["degenerate"] for s in solves), "count"),
        "netsim.deliver_round.us_per_call": (per_call_us("netsim.deliver_round"), "us"),
        "netsim.deliver_round.share": (span("netsim.deliver_round", "self_s") / traced.wall_s,
                                       "ratio"),
        "netsim.messages_attempted": (attempted, "count"),
        "netsim.messages_delivered": (delivered, "count"),
        "netsim.messages_dropped": (sum(s["dropped"] for s in solves), "count"),
        "netsim.delivered_ratio": (delivered / attempted if attempted else 1.0, "ratio"),
        "netsim.scalars_delivered": (sum(s["scalars"] for s in solves), "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - min(r.wall_s for r in bases), "s"),
    })
    info = {
        "master_seed": cfg.master_seed,
        "pairs": len(pairs),
        "untraced_wall_s_quartiles": _quartiles([r.wall_s for r in bases]),
        "traced_wall_s_quartiles": _quartiles([p[1].wall_s for p in pairs]),
        "span_counts": {name: rec["calls"] for name, rec in spans.items()},
        "spans_recorded": spans_recorded,
        "self_s_sum": self_sum,
        "unpatched_attributes": missing,
        "configured_ap_iterations": workloads.ap_iterations(cfg),
        "errors": [r.error for r in everything if r.error],
    }
    return _result(everything, problems, metrics, info)


def _result(reps: list[Rep], problems: list[str], metrics: dict, info: dict) -> dict:
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            metrics[name] = (0.0, unit)
    info.update(problems=problems, environment=environment())
    return {
        "info": info,
        "result": {
            "correct": not problems,
            "attempted": sum(r.attempted for r in reps),
            "failed": sum(r.failed for r in reps),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def environment() -> dict:
    """Machine, library and thread settings the numbers were taken with."""
    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    src = Path(coopdetect.__file__).resolve().parent
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }

