"""Run (benchmark, scheme) pairs and collect measurement-window stats.

The paper measures 100M-instruction simpoints after warmup; we scale that
to Python speeds with an explicit warmup window (caches, branch predictor,
and stride table train) followed by a measurement window whose counter
*deltas* are reported.  The session every figure runs on,
:class:`~repro.harness.parallel.ParallelSession`, memoizes runs by
:func:`run_key` so the figures that share configurations (6, 7, 8 all
use the same sweep) don't re-simulate.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import EmptyMeasurementError
from repro.common.stats import RunResult, SimStats
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import build_workload, get_profile

DEFAULT_WARMUP = 6_000
DEFAULT_MEASURE = 30_000

#: The seven configurations of Figure 6 / Figure 8, in plot order.
FIGURE_SCHEMES: Tuple[str, ...] = (
    "nda",
    "nda+ap",
    "stt",
    "stt+ap",
    "dom",
    "dom+ap",
)
BASELINE_SCHEME = "unsafe"


def _stats_delta(before: Dict[str, int], after: SimStats) -> SimStats:
    delta = SimStats()
    for f in fields(SimStats):
        setattr(delta, f.name, getattr(after, f.name) - before[f.name])
    return delta


def run_program(
    program,
    scheme: str,
    config: Optional[SystemConfig] = None,
    warmup: int = DEFAULT_WARMUP,
    measure: int = DEFAULT_MEASURE,
) -> RunResult:
    """Run ``program`` under ``scheme`` and return measurement-window stats."""
    core = Core(program, make_scheme(scheme), config=config)
    if warmup > 0:
        core.run(max_instructions=warmup)
    # run() maintains stats.cycles at every return, reporting the cycle
    # after the last executed step on a budget break — NOT core.cycle,
    # whose trailing idle-skip jump may overshoot into a stretch nothing
    # observes.  Window boundaries must use the corrected value so cycle
    # deltas are independent of idle skipping.
    before = core.stats.as_dict()
    core.run(max_instructions=warmup + measure)
    stats = _stats_delta(before, core.stats)
    if core.halted and measure > 0 and stats.committed_instructions == 0:
        raise EmptyMeasurementError(
            f"program shorter than warmup window (halted after "
            f"{before['committed_instructions']} instructions, "
            f"warmup={warmup})",
            benchmark=program.name,
            scheme=scheme,
        )
    return RunResult(
        benchmark=program.name,
        scheme=scheme,
        stats=stats,
        metadata={"warmup": warmup, "measure": measure},
    )


def run_benchmark(
    benchmark: str,
    scheme: str,
    config: Optional[SystemConfig] = None,
    warmup: int = DEFAULT_WARMUP,
    measure: int = DEFAULT_MEASURE,
) -> RunResult:
    """Build the named SPEC stand-in and measure it under ``scheme``."""
    get_profile(benchmark)  # fail fast on unknown names
    program = build_workload(benchmark)
    return run_program(program, scheme, config, warmup, measure)


#: The memo key of one run: (benchmark, scheme, warmup, measure,
#: config fingerprint).  The window sizes and the config digest are part
#: of the key so mutating ``session.warmup`` / ``session.config`` after a
#: run can never replay results from the old configuration, and so the
#: session memo and the result store (:mod:`repro.harness.parallel`)
#: agree on what "the same experiment" means.
RunKey = Tuple[str, str, int, int, str]


def run_key(
    benchmark: str,
    scheme: str,
    warmup: int,
    measure: int,
    config: SystemConfig,
) -> RunKey:
    """The canonical memo key shared by every runner and cache layer."""
    return (benchmark, scheme, warmup, measure, config.fingerprint())
