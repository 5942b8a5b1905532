"""End-to-end benchmark of what people run: a figure sweep, a fuzz
campaign and the leak differential.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload figure-sweep --seed 3 --seconds 30 --trace 0

One process, one op at a time (closed loop, one client, ``jobs=1``).
A pass runs a fixed number of rounds of the workload (see
``workloads.py``): about ``--seconds`` of reference time, and the same
ops in every run of one seed.  Every time it reports is host time scaled
to reference seconds by a host clock (see ``hostclock.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass run in a fresh process over the same
rounds as an untraced pass.  Every op is checked for correctness, and the
SimStats digest of every op is compared with every earlier run of the
same seed on the same code; the exit code is non-zero on any failure or
disagreement.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "e2ebench"
sys.path.insert(0, str(HERE))

from hostclock import HostClock  # noqa: E402

#: Fresh-process set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 5


def import_repro() -> None:
    """Import the simulator from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no simulator sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        sys.stderr.write(f"e2ebench: imported repro from {repro.__file__}\n")
        raise SystemExit(2)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    #: Host seconds in rounds, host-clock samples taken out.
    wall_s: float
    rounds: int
    records: List[Any]
    attempted: int
    failures: List[Tuple[int, str, str]]
    committed: int
    #: ``wall_s`` in reference seconds (see ``hostclock.py``).
    ref_wall_s: float
    #: The run's median host seconds -> reference seconds factor.
    host_scale: float
    host_samples: int
    layers: Dict[Tuple[str, str], Tuple[float, int, float]] = field(
        default_factory=dict
    )
    run_instructions: int = 0

    def digests(self) -> List[Tuple[str, str]]:
        return [(r.op_id, op_digest(r)) for r in self.records]

    def stats_digest(self) -> str:
        """SHA-256 over every op's digest, in op order."""
        lines = [f"{r.round} {r.op_id} {op_digest(r)}" for r in self.records]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def op_digest(record: Any) -> str:
    body = json.dumps(
        {"cores": record.core_stats, "window": record.window_stats},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


def measure_pass(
    workload: Any,
    rounds: int,
    trace: bool,
    workdir: Path,
    clock: Optional[HostClock] = None,
) -> PassResult:
    """Run ``rounds`` rounds of ``workload``, one op at a time."""
    from instrument import Instrument, OpLog

    clock = clock if clock is not None else HostClock()
    ops = OpLog(clock)
    failures: List[Tuple[int, str, str]] = []
    attempted = 0
    wall = 0.0
    instrument = Instrument(
        ops,
        trace,
        ledger_op=workload.ledger_op,
        cell_labels=workload.cell_labels,
    )
    gc.collect()
    with instrument:
        for index in range(rounds):
            planned = workload.planned(index)
            attempted += len(planned)
            error = ""
            clock.maybe_sample()
            ops.start_round(index)
            sampled = clock.spent_s
            started = time.perf_counter()
            try:
                session = workload.prepare(index, workdir / f"round{index}")
                workload.run(index, session, ops)
            except Exception as exc:  # a crashing round fails all its ops
                error = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - started - (clock.spent_s - sampled)
            records = ops.round_records(index)
            for record in records:
                if record.op_id not in planned:
                    record.fail("op not in the round's plan")
                elif error:
                    # The round's own checks never ran to the end.
                    record.fail(f"round raised {error}")
            done = {r.op_id for r in records}
            for op_id in planned:
                if op_id not in done:
                    reason = "did not complete" + (f" ({error})" if error else "")
                    failures.append((index, op_id, reason))
    failures.extend((r.round, r.op_id, r.reason) for r in ops.records if not r.ok)
    # Each op (its round's session set-up included, for the first) at
    # the host speed sampled around it; the campaign's tail after its
    # last op at the run's median.
    timed = ref_timed = 0.0
    for record in ops.records:
        record.host_scale = clock.scale_at(
            record.started, record.started + record.latency_s
        )
        timed += record.latency_s
        ref_timed += record.latency_s * record.host_scale
    result = PassResult(
        wall_s=wall,
        rounds=rounds,
        records=ops.records,
        attempted=attempted,
        failures=failures,
        committed=ops.committed,
        ref_wall_s=ref_timed + max(0.0, wall - timed) * clock.scale(),
        host_scale=clock.scale(),
        host_samples=len(clock.samples),
    )
    if instrument.tracer is not None:
        result.layers = instrument.tracer.self_times(
            [r.host_scale for r in ops.records], result.host_scale
        )
        result.run_instructions = instrument.tracer.run_instructions()
        STATE.mkdir(parents=True, exist_ok=True)
        spans_path = STATE / f"spans-{workload.name}-seed{workload.seed}.json"
        write_json(spans_path, instrument.tracer.to_json())
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(latencies: List[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten ops beyond it.

    Returns (value, percentile).  With ten ops or fewer this is the
    maximum, reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def end_to_end(result: PassResult, setup: List[float]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric that has samples: a run whose set-up or
    ops all failed still reports the rest (and is not correct).  Times
    are in reference seconds (``hostclock.py``); ``setup`` already is.

    The latency percentiles cover the ops that ran a simulation: a leak
    cell the static judge settled alone completes in about 0 s, and how
    many of those a seed draws would otherwise move the percentiles."""
    latencies = [
        r.latency_s * r.host_scale for r in result.records if not r.static_only
    ]
    n = len(latencies)
    static = sum(r.static_only for r in result.records)
    wall = result.ref_wall_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {}
    if setup:
        out["setup_s"] = metric(statistics.median(setup), "s", len(setup))
    out["ops_per_s"] = metric(result.attempted / wall, "1/s", result.attempted)
    if latencies:
        tail_value, tail_pct = tail(latencies)
        out["op_s_p50"] = metric(
            statistics.median(latencies), "s", n, static_only=static
        )
        out["op_s_tail"] = metric(
            tail_value, "s", n, percentile=tail_pct, static_only=static
        )
    out["sim_ips"] = metric(result.committed / wall, "instr/s", n)
    out["peak_rss_mb"] = metric(rss_mb, "MB", 1)
    return out


def metric(value: float, unit: str, n: int, **extra: Any) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n, **extra}


def describe(entry: Dict[str, Any]) -> str:
    """The sample note printed next to a metric."""
    notes = [f"n={entry['n']}"]
    if "percentile" in entry:
        notes.insert(0, f"p{entry['percentile']}")
    if entry.get("static_only"):
        notes.append(f"{entry['static_only']} settled statically, not timed")
    return ", ".join(notes)


def _summed_stats(result: PassResult) -> Dict[str, int]:
    """Every core's counters, summed; figure-sweep uses its windows."""
    total: Dict[str, int] = {}
    for record in result.records:
        groups = (
            [record.window_stats]
            if record.window_stats is not None
            else record.core_stats
        )
        for stats in groups:
            for name, value in stats.items():
                total[name] = total.get(name, 0) + value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: PassResult) -> Dict[str, Dict[str, Any]]:
    """Self times (in reference seconds, each span at its op's scale),
    calls and the modelled design's counters; ``trace.overhead_ratio`` is
    filled in by the caller, who holds the untraced pass."""
    from instrument import INCLUSIVE, LAYERS, layer_metric

    out: Dict[str, Dict[str, Any]] = {}
    for stem, variant in LAYERS:
        own, calls, inclusive = traced.layers.get((stem, variant), (0.0, 0, 0.0))
        seconds = inclusive if stem in INCLUSIVE else own
        out[layer_metric(stem, variant, "s")] = metric(seconds, "s", calls)
        out[layer_metric(stem, variant, "calls")] = metric(calls, "count", calls)
    run_s, run_calls, _ = traced.layers.get(("pipeline.run", ""), (0.0, 0, 0.0))
    out["pipeline.run_ns_per_instr"] = metric(
        _ratio(run_s * 1e9, traced.run_instructions), "ns/instr", run_calls
    )
    s = _summed_stats(traced)
    n = len(traced.records)
    out["sim.cycles"] = metric(s.get("cycles", 0), "cycles", n)
    out["sim.committed"] = metric(s.get("committed_instructions", 0), "instr", n)
    out["pipeline.squash_ratio"] = metric(
        _ratio(s.get("squashed_instructions", 0), s.get("fetched_instructions", 0)),
        "ratio",
        n,
    )
    out["memory.l1_miss_ratio"] = metric(
        _ratio(s.get("l1_misses", 0), s.get("l1_accesses", 0)), "ratio", n
    )
    out["memory.dram_accesses"] = metric(s.get("dram_accesses", 0), "count", n)
    out["memory.mshr_stalls"] = metric(s.get("mshr_stalls", 0), "count", n)
    out["schemes.delayed"] = metric(
        s.get("delayed_propagations", 0)
        + s.get("delayed_transmitters", 0)
        + s.get("dom_delayed_misses", 0),
        "count",
        n,
    )
    out["doppelganger.coverage"] = metric(
        _ratio(s.get("dl_covered_commits", 0), s.get("committed_loads", 0)),
        "ratio",
        n,
    )
    out["doppelganger.accuracy"] = metric(
        _ratio(s.get("dl_correct_commits", 0), s.get("dl_covered_commits", 0)),
        "ratio",
        n,
    )
    out["trace.wall_s"] = metric(traced.ref_wall_s, "s", 1)
    out["trace.overhead_ratio"] = metric(0.0, "ratio", 1)
    return out


# ----------------------------------------------------------------------
# Digest bookkeeping across runs of one seed
# ----------------------------------------------------------------------
def code_key() -> str:
    """Digest of the simulator sources and the benchmark's own code."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.py"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(
    workload: str, seed: int, digests: List[Tuple[str, str]]
) -> List[str]:
    """Compare per-op digests with this run's repeats and earlier runs of
    the same seed on the same code; record the new ones."""
    path = STATE / "digests" / f"{workload}-seed{seed}-{code_key()}.json"
    known: Dict[str, str] = {}
    if path.is_file():
        known = json.loads(path.read_text())
    problems = []
    for op_id, digest in digests:
        seen = known.setdefault(op_id, digest)
        if seen != digest:
            problems.append(f"{op_id}: SimStats digest {digest[:12]} != {seen[:12]}")
    write_json(path, known)
    return problems


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temporary.write_text(json.dumps(payload))
    os.replace(temporary, path)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, *extra: str) -> List[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        *extra,
    ]


def in_child(command: List[str]) -> str:
    """Run ``command``; its last line of standard error if it fails."""
    child = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    if child.returncode == 0:
        return ""
    lines = child.stderr.strip().splitlines() or [""]
    return f"exit {child.returncode}: {lines[-1]}"


def measure_setup(
    args: argparse.Namespace, workdir: Path, clock: HostClock
) -> Tuple[List[float], List[str]]:
    """Fresh-process set-up (interpreter, imports, first session), each
    in reference seconds from the host-clock samples on either side of
    it; and the errors of the probes that failed."""
    spans, errors = [], []
    for repeat in range(SETUP_REPEATS):
        clock.sample()
        command = _child(args, "--setup-probe", str(workdir / f"setup{repeat}"))
        started = time.perf_counter()
        error = in_child(command)
        if error:
            errors.append(f"set-up probe {repeat} {error}")
        else:
            spans.append((started, time.perf_counter()))
    clock.sample()
    times = [(end - start) * clock.scale_at(start, end) for start, end in spans]
    return times, errors


def traced_in_child(
    args: argparse.Namespace, workdir: Path
) -> Tuple[Optional[Dict[str, Any]], str]:
    out = workdir / "traced.json"
    error = in_child(_child(args, "--traced-pass", str(out)))
    return (None, f"traced pass {error}") if error else (json.loads(out.read_text()), "")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: the set-up probe and the traced pass run in children.
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int) -> Any:
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.stderr.write(f"e2ebench: unknown workload {name!r}\n")
        raise SystemExit(2)
    return WORKLOADS[name](seed)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_repro()
    workload = make_workload(args.workload, args.seed)
    if args.setup_probe is not None:
        workload.prepare(0, args.setup_probe)
        return 0
    if args.traced_pass is not None:
        workdir = args.traced_pass.parent / "traced"
        traced = measure_pass(workload, workload.rounds(args.seconds), True, workdir)
        write_json(
            args.traced_pass,
            {
                "digests": traced.digests(),
                "failures": traced.failures,
                "per_layer": per_layer(traced),
            },
        )
        return 0

    workdir = STATE / f"work-{os.getpid()}"
    try:
        return report(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args: argparse.Namespace, workload: Any, workdir: Path) -> int:
    setup, problems = [], []
    clock = HostClock()
    if not args.trace:
        setup, problems = measure_setup(args, workdir, clock)
    result = measure_pass(
        workload, workload.rounds(args.seconds), False, workdir / "untraced", clock
    )
    failures = {(f[0], f[1]): f[2] for f in result.failures}
    digests = result.digests()
    stats_digest = result.stats_digest()
    problems += check_digests(workload.name, workload.seed, digests)

    print(
        f"workload {workload.name} seed {workload.seed}: {result.rounds} "
        f"round(s), {result.attempted} ops in {result.wall_s:.3f} host s = "
        f"{result.ref_wall_s:.3f} reference s (median host scale "
        f"{result.host_scale:.4f}, {result.host_samples} kernel samples)"
    )
    if args.trace:
        traced, error = traced_in_child(args, workdir)
        metrics = {}
        if traced is None:
            problems.append(error)
        else:
            for index, op_id, reason in traced["failures"]:
                failures.setdefault((index, op_id), f"traced pass: {reason}")
            if [tuple(d) for d in traced["digests"]] != digests:
                problems.append("traced pass SimStats differ from the untraced pass")
            metrics = traced["per_layer"]
            metrics["trace.overhead_ratio"]["value"] = (
                metrics["trace.wall_s"]["value"] / result.ref_wall_s
            )
    else:
        metrics = end_to_end(result, setup)

    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']} ({describe(entry)})")
    failed = len(failures)
    print(f"  failed_ratio = {failed}/{result.attempted} ops")
    print(f"  stats_digest = {stats_digest} ({len(digests)} ops)")
    for (index, op_id), reason in sorted(failures.items()):
        print(f"  FAILED round {index} {op_id}: {reason}")
    for problem in problems:
        print(f"  FAILED {problem}")

    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
