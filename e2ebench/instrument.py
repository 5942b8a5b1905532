"""Hooks the benchmark installs around the calls it makes into each layer.

Nothing under ``src/`` knows about the benchmark: every hook here is a
wrapper the benchmark swaps onto a module or class attribute for the
length of one pass and restores afterwards.

Two kinds of hook exist:

* **Op hooks** run in every pass.  They mark where one op (one unit of
  user work) completes and keep the final :class:`SimStats` of every
  core the op ran, for the correctness check and the stats digest.
  They cost one extra Python call per hooked call.
* **Spans** run only in a traced pass.  Each records name, start, end,
  parent span and op id around one call into a layer's public function;
  a layer's self time is its spans' durations minus the time their child
  spans cover.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.analysis.specflow.differential as specflow_differential
import repro.fuzz.differential as fuzz_differential
import repro.fuzz.session as fuzz_session
import repro.harness.runner as runner
import repro.oracle as oracle
from repro.harness.store import ProgressLedger, ResultStore
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core

from hostclock import HostClock

#: Every traced layer, in report order: (metric stem, variant).  A span
#: named ``(stem, variant)`` reports ``<stem>_s[.<variant>]`` (self time,
#: except for ``fuzz.mode``: see :data:`INCLUSIVE`) and
#: ``<stem>_calls[.<variant>]``.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("workloads.build", ""),
    ("pipeline.init", ""),
    ("pipeline.run", ""),
    ("fuzz.generate", ""),
    ("fuzz.mode", "skip-off"),
    ("fuzz.mode", "skip-full"),
    ("fuzz.mode", "ref-off"),
    ("fuzz.mode", "ref-full"),
    ("isa.interpret", ""),
    ("oracle.snapshot", ""),
    ("oracle.diff", ""),
    ("oracle.noninterference", ""),
    ("memory.warm", ""),
    ("analysis.specflow", ""),
    ("harness.store_put", ""),
    ("harness.ledger_record", ""),
    ("harness.store_get", ""),
)


#: Layers reported by their spans' whole duration: the four execution
#: modes of the fuzz matrix differ only in what runs *inside* ``Core``
#: (reference loop, invariant checker), so their self time says nothing.
INCLUSIVE = ("fuzz.mode",)


def layer_metric(stem: str, variant: str, kind: str) -> str:
    """``kind`` is ``"s"`` (self time) or ``"calls"``."""
    name = f"{stem}_{kind}"
    return f"{name}.{variant}" if variant else name


def _fixed(stem: str, variant: str = "") -> Callable[..., Tuple[str, str]]:
    return lambda args, kwargs: (stem, variant)


def _mode_span(args, kwargs) -> Tuple[str, str]:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    loop = "skip" if mode.idle_skip else "ref"
    return ("fuzz.mode", f"{loop}-{mode.guardrails}")


#: The span around a host-clock sample.  It is the benchmark's own
#: time: no layer is charged for it, and it is left out of every layer
#: metric and of the pass's wall.
HOSTCLOCK_SPAN = ("e2ebench.hostclock", "")

#: (owner, attribute, span namer) for every traced call.
_SPAN_TARGETS = (
    (runner, "build_workload", _fixed("workloads.build")),
    (Core, "__init__", _fixed("pipeline.init")),
    (Core, "run", _fixed("pipeline.run")),
    (fuzz_session, "generate_program", _fixed("fuzz.generate")),
    (fuzz_differential, "run_mode", _mode_span),
    (Program, "interpret", _fixed("isa.interpret")),
    (fuzz_differential, "arch_snapshot", _fixed("oracle.snapshot")),
    (fuzz_differential, "reference_snapshot", _fixed("oracle.snapshot")),
    (oracle, "observable_snapshot", _fixed("oracle.snapshot")),
    (fuzz_differential, "diff_snapshots", _fixed("oracle.diff")),
    (
        specflow_differential,
        "noninterference_check",
        _fixed("oracle.noninterference"),
    ),
    (MemoryHierarchy, "warm", _fixed("memory.warm")),
    (specflow_differential, "analyze_program", _fixed("analysis.specflow")),
    (ResultStore, "put", _fixed("harness.store_put")),
    (ProgressLedger, "record", _fixed("harness.ledger_record")),
    (ResultStore, "get", _fixed("harness.store_get")),
    (HostClock, "sample", _fixed(*HOSTCLOCK_SPAN)),
)


@dataclass
class OpRecord:
    """One completed op: its latency, verdict and the stats it produced."""

    op_id: str
    round: int
    #: Host seconds, from ``started`` (a ``perf_counter`` reading).
    latency_s: float
    started: float
    ok: bool = True
    reason: str = ""
    core_stats: List[Dict[str, int]] = field(default_factory=list)
    window_stats: Optional[Dict[str, int]] = None
    #: A leak cell the static judge settled without a simulator run; it
    #: completes with its program's check, at a latency of about 0 s.
    static_only: bool = False
    #: Host seconds -> reference seconds around this op (``hostclock``).
    host_scale: float = 1.0

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok = False
            self.reason = reason


class OpLog:
    """Completion-ordered ops of one pass (closed loop, one client).

    An op's latency is the host time from the previous op's completion
    (or the start of its round) to its own, so the ops of a round tile
    the round's wall time up to the campaign's own tail (manifest write,
    ledger close).  The host clock samples its kernel at op boundaries,
    outside every latency.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.records: List[OpRecord] = []
        self.round = 0
        self.committed = 0
        self._last = time.perf_counter()
        self._cores: "weakref.WeakKeyDictionary[Core, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._stats: List[Dict[str, int]] = []

    def start_round(self, index: int) -> None:
        self.round = index
        self._last = time.perf_counter()
        self._cores = weakref.WeakKeyDictionary()
        self._stats = []

    def core_ran(self, core: Core) -> None:
        """Keep the latest stats of ``core`` for the op in progress.

        Only a stats copy is kept, never the core, so no core outlives
        the simulator's own references (peak memory stays the program's).
        """
        stats = core.stats.as_dict()
        slot = self._cores.get(core)
        if slot is None:
            self._cores[core] = len(self._stats)
            self._stats.append(stats)
        else:
            self._stats[slot] = stats

    def complete(self, op_id: str, ok: bool = True, reason: str = "") -> OpRecord:
        now = time.perf_counter()
        record = OpRecord(
            op_id=op_id,
            round=self.round,
            latency_s=now - self._last,
            started=self._last,
            ok=ok,
            reason=reason,
            core_stats=self._stats,
        )
        self.committed += sum(s["committed_instructions"] for s in self._stats)
        self.records.append(record)
        self._cores = weakref.WeakKeyDictionary()
        self._stats = []
        self.clock.maybe_sample()
        self._last = time.perf_counter()
        return record

    def round_records(self, index: int) -> List[OpRecord]:
        return [r for r in self.records if r.round == index]


@dataclass
class Span:
    stem: str
    variant: str
    start: float
    end: float
    parent: int
    op: int
    instructions: int = 0


class Tracer:
    """In-memory spans; written out by the caller when the pass ends."""

    def __init__(self, ops: OpLog) -> None:
        self.ops = ops
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, original: Callable, namer: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        ops = self.ops
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stem, variant = namer(args, kwargs)
            index = len(spans)
            span = Span(
                stem,
                variant,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                len(ops.records),
            )
            spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def self_times(
        self, op_scales: Sequence[float], rest_scale: float
    ) -> Dict[Tuple[str, str], Tuple[float, int, float]]:
        """(stem, variant) -> (self seconds, calls, inclusive seconds).

        A span's seconds are multiplied by the scale of the op it ran in,
        ``op_scales[span.op]``, or by ``rest_scale`` after the last op.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[Tuple[str, str], Tuple[float, int, float]] = {}
        for index, span in enumerate(self.spans):
            key = (span.stem, span.variant)
            seconds, calls, inclusive = totals.get(key, (0.0, 0, 0.0))
            scale = op_scales[span.op] if span.op < len(op_scales) else rest_scale
            duration = span.end - span.start
            totals[key] = (
                seconds + (duration - child_time[index]) * scale,
                calls + 1,
                inclusive + duration * scale,
            )
        totals.pop(HOSTCLOCK_SPAN, None)
        return totals

    def run_instructions(self) -> int:
        return sum(s.instructions for s in self.spans if s.stem == "pipeline.run")

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": f"{s.stem}.{s.variant}" if s.variant else s.stem,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
        ]


class Instrument:
    """Install the op hooks (always) and spans (when tracing) for a pass.

    ``ledger_op`` maps a :class:`ProgressLedger` key to an op id, for
    workloads whose campaign journals one record per op; ``cell_labels``
    turns on the per-cell hooks of the leak differential, which has no
    ledger.
    """

    def __init__(
        self,
        ops: OpLog,
        trace: bool,
        ledger_op: Optional[Callable[[Any], str]] = None,
        cell_labels: Optional[Sequence[str]] = None,
    ) -> None:
        self.ops = ops
        self.tracer = Tracer(ops) if trace else None
        self.ledger_op = ledger_op
        self.cell_labels = tuple(cell_labels) if cell_labels else ()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, replacement: Callable) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Instrument":
        try:
            if self.tracer is not None:
                for owner, name, namer in _SPAN_TARGETS:
                    self._patch(
                        owner, name, self.tracer.wrap(getattr(owner, name), namer)
                    )
            self._install_op_hooks()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _install_op_hooks(self) -> None:
        ops = self.ops
        tracer = self.tracer
        inner_run = Core.run

        def run(core, *args, **kwargs):
            before = core.stats.committed_instructions
            try:
                return inner_run(core, *args, **kwargs)
            finally:
                if tracer is not None:
                    # The span inner_run just closed is the last one with
                    # this name: attribute the committed delta to it.
                    for span in reversed(tracer.spans):
                        if span.stem == "pipeline.run":
                            span.instructions = (
                                core.stats.committed_instructions - before
                            )
                            break
                ops.core_ran(core)

        self._patch(Core, "run", run)

        if self.ledger_op is not None:
            inner_record = ProgressLedger.record
            ledger_op = self.ledger_op

            def record(ledger, key, ok, payload=None):
                inner_record(ledger, key, ok, payload)
                failure = payload or {}
                reason = (
                    ""
                    if ok
                    else f"{failure.get('error_type')}: {failure.get('message')}"
                )
                ops.complete(ledger_op(key), ok=bool(ok), reason=reason)

            self._patch(ProgressLedger, "record", record)

        if self.cell_labels:
            self._install_cell_hooks()

    def _install_cell_hooks(self) -> None:
        """One op per (program, scheme) cell of the leak differential.

        A cell completes when its noninterference run returns; cells the
        static judge settles alone (no dynamic run) complete when their
        program's check returns.  Disagreements returned by the check
        fail their cells.
        """
        ops = self.ops
        labels = self.cell_labels
        state: Dict[str, Any] = {"program": "?", "done": set()}
        inner_dynamic = specflow_differential.dynamic_verdict

        def dynamic_verdict(build, label, *args, **kwargs):
            verdict = inner_dynamic(build, label, *args, **kwargs)
            ops.complete(f"{state['program']}/{label}")
            state["done"].add(label)
            return verdict

        def checked(inner: Callable, program_name: Callable[[Any], str]):
            def check(subject, *args, **kwargs):
                state["program"] = program_name(subject)
                state["done"] = set()
                first = len(ops.records)
                result = inner(subject, *args, **kwargs)
                for label in labels:
                    if label not in state["done"]:
                        record = ops.complete(f"{state['program']}/{label}")
                        record.static_only = True
                _report, _unknown, problems = result
                by_id = {r.op_id: r for r in ops.records[first:]}
                for problem in problems:
                    record = by_id.get(f"{state['program']}/{problem.scheme}")
                    if record is not None:
                        record.fail(problem.render())
                return result

            return check

        self._patch(specflow_differential, "dynamic_verdict", dynamic_verdict)
        self._patch(
            specflow_differential,
            "check_entry",
            checked(specflow_differential.check_entry, lambda entry: entry.name),
        )
        self._patch(
            specflow_differential,
            "check_fuzz_seed",
            checked(
                specflow_differential.check_fuzz_seed,
                lambda seed: f"secret-seed{seed}",
            ),
        )
