"""The (benchmark × scheme) sweep: the job kind behind every figure.

The paper's evaluation is a (benchmark × scheme) matrix — Figures 1, 6,
7, and 8 all re-sweep the same seven configurations over every SPEC
stand-in.  :class:`ParallelSession` is the one session the figure code
runs on.  :meth:`ParallelSession.run` is inline and memoized;
:meth:`ParallelSession.sweep` fans the grid out over the shared
:class:`~repro.harness.campaign.Campaign` (engine, store, ledger,
failure manifest).  What is specific to sweeps lives here:

* **The job** — a picklable :class:`SweepJob` (labels, window sizes,
  the config as plain data).  :func:`execute_job` rebuilds the
  :class:`~repro.pipeline.core.Core` from scratch in the worker and ships
  the measurement-window :class:`~repro.common.stats.SimStats` back as a
  dict, so results are bit-identical between ``jobs=1`` and ``jobs=N``;
  the parent reassembles them strictly in request order.
* **The cache** — with ``cache_dir`` set, every finished run is stored
  under its :func:`~repro.harness.runner.run_key`; the store is always
  read as a cache, so re-running any figure is a hit and changing any
  config knob or window size misses by construction.  The session memo
  holds decoded :class:`RunResult` objects, and the failures of this
  session: deterministic ones replay, transient ones re-run.
* **Errors** — a deterministic failure is re-raised (typed, naming the
  pair) from :meth:`run` and :meth:`sweep`, or, with
  ``skip_errors=True``, recorded in :attr:`skipped` while the rest of
  the sweep completes.  A resumed ledger's deterministic failures replay
  without re-simulating.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.config import (
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
)
from repro.common.errors import (
    DeadlockError,
    EmptyMeasurementError,
    InvariantViolationError,
    JobTimeoutError,
    ReproError,
    WorkerCrashError,
)
from repro.common.stats import RunResult
from repro.harness.campaign import Campaign, FailureRecord, replay_command
from repro.harness.jobs import run_guarded
from repro.harness.runner import (
    BASELINE_SCHEME,
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    RunKey,
    run_benchmark,
    run_key,
)


def _sweep_entry_slug(key: RunKey) -> str:
    """Human-readable prefix for a sweep entry's file name."""
    benchmark, scheme, warmup, measure, _digest = key
    safe_scheme = str(scheme).replace("+", "_").replace("/", "_")
    return f"{benchmark}-{safe_scheme}-w{warmup}-m{measure}"


@dataclass(frozen=True)
class SweepJob:
    """One (benchmark, scheme) run as a picklable, process-portable spec."""

    benchmark: str
    scheme: str
    warmup: int
    measure: int
    config: Dict[str, Any]  # config_to_dict() form

    @classmethod
    def build(
        cls,
        benchmark: str,
        scheme: str,
        warmup: int,
        measure: int,
        config: SystemConfig,
    ) -> "SweepJob":
        return cls(benchmark, scheme, warmup, measure, config_to_dict(config))

    def spec(self) -> Dict[str, Any]:
        """The full job as replayable data (manifest ``spec`` entries)."""
        payload = asdict(self)
        payload["kind"] = "sweep"
        return payload

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "SweepJob":
        return cls(
            benchmark=spec["benchmark"],
            scheme=spec["scheme"],
            warmup=spec["warmup"],
            measure=spec["measure"],
            config=dict(spec["config"]),
        )


def sweep_job_fields(job: SweepJob) -> Dict[str, Any]:
    """Label + spec fields attached to every failure payload for ``job``."""
    return {
        "benchmark": job.benchmark,
        "scheme": job.scheme,
        "spec": job.spec(),
    }


def _measure(job: SweepJob) -> Dict[str, Any]:
    return run_benchmark(
        job.benchmark,
        job.scheme,
        config_from_dict(job.config),
        job.warmup,
        job.measure,
    ).to_dict()


def execute_job(job: SweepJob) -> Dict[str, Any]:
    """Worker entry point: rebuild the Core, run, return plain data.

    Must stay a module-level function (pickled by name into the pool);
    :func:`~repro.harness.jobs.run_guarded` turns every error into a
    failure payload.
    """
    return run_guarded(_measure, job, sweep_job_fields)


def _decode_entry(entry: Any) -> Optional[RunResult]:
    """A stored sweep entry as a result; never trust one without a body."""
    if not isinstance(entry, dict) or not entry.get("result"):
        return None
    return RunResult.from_dict(entry["result"])


def _raise_job_error(payload: Dict[str, Any]) -> None:
    """Re-raise a failure payload as the typed error it came from."""
    error_type = payload["error_type"]
    benchmark = payload["benchmark"]
    scheme = payload["scheme"]
    message = payload["message"]
    labelled = f"({benchmark}, {scheme}): {message}"
    if error_type == "EmptyMeasurementError":
        # The worker's message already carries the "(benchmark, scheme):"
        # prefix, so rebuild without re-prefixing and reattach the labels.
        error = EmptyMeasurementError(message)
        error.benchmark = benchmark
        error.scheme = scheme
        raise error
    if error_type == "InvariantViolationError":
        raise InvariantViolationError(
            labelled,
            invariant=payload.get("invariant", "unknown"),
            violations=payload.get("violations"),
            dump_path=payload.get("dump_path"),
        )
    if error_type == "DeadlockError":
        raise DeadlockError(
            labelled,
            kind=payload.get("kind", "deadlock"),
            dump_path=payload.get("dump_path"),
        )
    if error_type == "JobTimeoutError":
        raise JobTimeoutError(labelled)
    if error_type in ("WorkerCrashError", "KeyboardInterrupt"):
        raise WorkerCrashError(labelled)
    raise ReproError(labelled)


@dataclass
class SkippedRun:
    """A pair that a skip-errors sweep dropped, and why."""

    benchmark: str
    scheme: str
    message: str
    error_type: str = "ReproError"
    dump_path: Optional[str] = None


class ParallelSession:
    """The memoizing, parallel, disk-backed sweep session.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`sweep`.  ``None`` means one per CPU;
        ``1`` runs everything inline (no pool, still disk-cached).
    cache_dir:
        Directory for the result store, ledger and failure manifest;
        ``None`` keeps results in the session memo only.
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` (default) waits
        forever.  A wave of jobs gets ``job_timeout × ceil(n / workers)``
        to finish — the bound a fair scheduler would need — and anything
        still unfinished is marked :class:`JobTimeoutError` (transient),
        the stuck workers are killed, and the jobs retried.
    retries:
        How many times a *transient* failure (timeout, worker crash,
        unexpected exception) is re-run before being recorded as failed.
        Deterministic simulator errors are never retried.
    retry_backoff:
        Base delay in seconds before each retry wave, doubling per wave.
    mp_context:
        ``multiprocessing`` start method for the pool (``"fork"``,
        ``"spawn"``...); ``None`` uses the platform default.
    resume:
        Adopt the cache directory's progress ledger from an interrupted
        campaign of the same grid: deterministic failures it recorded
        replay without re-simulating, successes load from the store, and
        only genuinely unresolved pairs reach the pool.
    chaos:
        Optional armed :class:`~repro.harness.chaos.ChaosEngine`; routes
        store writes through its fault-injecting filesystem and worker
        submissions through its fault stages.  Test-harness only.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        warmup: int = DEFAULT_WARMUP,
        measure: int = DEFAULT_MEASURE,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        mp_context: Optional[str] = None,
        resume: bool = False,
        chaos: Optional[Any] = None,
    ):
        self.config = config if config is not None else default_config()
        self.warmup = warmup
        self.measure = measure
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.campaign = Campaign(
            execute_job,
            sweep_job_fields,
            directory=self.cache_dir,
            store_dir=self.cache_dir,
            namer=_sweep_entry_slug,
            encode=self._store_entry,
            decode=_decode_entry,
            read_store=True,
            replay_failures=True,
            resume=resume,
            chaos=chaos,
            jobs=jobs,
            job_timeout=job_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            mp_context=mp_context,
        )
        self.store = self.campaign.store
        self._memo: Dict[RunKey, RunResult] = {}
        self._failures: Dict[RunKey, Dict[str, Any]] = {}
        self.skipped: List[SkippedRun] = []
        # Provenance counters: where did each requested run come from?
        self.memo_hits = 0
        self.disk_hits = 0
        self.simulated = 0
        self.ledger_hits = 0

    def _store_entry(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """A success as stored: the config it ran under, and its result."""
        return {"config": config_to_dict(self.config), "result": payload["result"]}

    def _key(self, benchmark: str, scheme: str) -> RunKey:
        return run_key(benchmark, scheme, self.warmup, self.measure, self.config)

    def _job(self, benchmark: str, scheme: str) -> SweepJob:
        return SweepJob.build(benchmark, scheme, self.warmup, self.measure, self.config)

    def _replays(self, key: RunKey) -> bool:
        """Is ``key`` a deterministic failure of this session?  Those
        replay; transient ones (timeout, crash) re-run."""
        recorded = self._failures.get(key)
        return recorded is not None and not recorded.get("transient", False)

    def _resolved(self, key: RunKey, payload: Dict[str, Any]) -> None:
        """Memoize one resolved (already stored and journaled) run."""
        self.simulated += 1
        if not payload["ok"]:
            self._failures[key] = payload
            return
        self._failures.pop(key, None)  # a retry succeeded; clear the record
        self._memo[key] = RunResult.from_dict(payload["result"])

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, benchmark: str, scheme: str) -> RunResult:
        """Run (or recall) one pair.  Always inline — no pool spin-up."""
        key = self._key(benchmark, scheme)
        if self._replays(key):
            _raise_job_error(self._failures[key])
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key]
        stored = self.campaign.load(key)
        if stored is not None:
            self.disk_hits += 1
            self._memo[key] = stored
            return stored
        payload = execute_job(self._job(benchmark, scheme))
        self.campaign.resolve(key, payload)
        self._resolved(key, payload)
        if not payload["ok"]:
            _raise_job_error(payload)
        return self._memo[key]

    def sweep(
        self,
        benchmarks: Iterable[str],
        schemes: Iterable[str],
        skip_errors: bool = False,
    ) -> List[RunResult]:
        """Run the full (benchmark × scheme) grid, fanned out over the pool.

        Results come back in request order — ``for b in benchmarks for s
        in schemes`` — regardless of worker scheduling, minus failed
        pairs when ``skip_errors`` is set (those are appended to
        :attr:`skipped`).  Each run is stored the moment it finishes, so
        interrupting a sweep preserves all completed work; after the cold
        jobs run, the failure manifest in the cache directory is
        rewritten to match this sweep's outcome.
        """
        pairs: List[Tuple[str, str]] = [
            (b, s) for b in benchmarks for s in schemes
        ]
        keys = [self._key(b, s) for b, s in pairs]
        with self.campaign.journal(keys):
            # Memo and replayed failures first, then the store and a
            # resumed ledger; only cold pairs reach the pool.  A pair
            # may appear twice in a grid; dedupe while keeping order.
            unknown: List[Tuple[RunKey, SweepJob]] = []
            seen = set()
            for key, (benchmark, scheme) in zip(keys, pairs):
                if key in seen or self._replays(key):
                    continue
                if key in self._memo:
                    self.memo_hits += 1
                    continue
                seen.add(key)
                unknown.append((key, self._job(benchmark, scheme)))
            hits, replayed, cold = self.campaign.partition(unknown)
            for key, _job, result in hits:
                self.disk_hits += 1
                self._memo[key] = result
            for key, _job, payload in replayed:
                self.ledger_hits += 1
                self._failures[key] = payload
            if cold:
                try:
                    self.campaign.execute(cold, self._resolved)
                finally:
                    # Even an interrupted sweep leaves an accurate manifest
                    # for whatever resolved before the interrupt.
                    self.write_failure_manifest()

        results: List[RunResult] = []
        for key, (benchmark, scheme) in zip(keys, pairs):
            if key in self._failures:
                payload = self._failures[key]
                if not skip_errors:
                    _raise_job_error(payload)
                self.skipped.append(
                    SkippedRun(
                        benchmark,
                        scheme,
                        payload["message"],
                        error_type=payload["error_type"],
                        dump_path=payload.get("dump_path"),
                    )
                )
                continue
            results.append(self._memo[key])
        return results

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def failures(self) -> List[FailureRecord]:
        """Every currently-recorded failed run, as structured records."""
        path = self.failure_manifest_path
        replay = replay_command(path) if path is not None else None
        return [
            FailureRecord.from_payload(key, payload, replay=replay)
            for key, payload in sorted(self._failures.items())
        ]

    @property
    def failure_manifest_path(self) -> Optional[Path]:
        return self.campaign.manifest_path

    def write_failure_manifest(self) -> Optional[Path]:
        """Write the failure manifest; returns its path (None if no cache)."""
        return self.campaign.write_manifest(self.failures())

    # ------------------------------------------------------------------
    # Derived metrics and introspection
    # ------------------------------------------------------------------
    def normalized_ipc(self, benchmark: str, scheme: str) -> float:
        """IPC of ``scheme`` normalized to the unsafe baseline."""
        baseline = self.run(benchmark, BASELINE_SCHEME).ipc
        if baseline == 0:
            raise EmptyMeasurementError(
                "baseline committed nothing in its measurement window",
                benchmark=benchmark,
                scheme=BASELINE_SCHEME,
            )
        return self.run(benchmark, scheme).ipc / baseline

    def cached_runs(self) -> int:
        return len(self._memo)

    def counters(self) -> Dict[str, int]:
        """Provenance summary: how many runs came from where."""
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "simulated": self.simulated,
            "skipped": len(self.skipped),
            "ledger_hits": self.ledger_hits,
        }

    def store_counters(self) -> Dict[str, Any]:
        """The store's integrity/health counters plus failed ledger
        writes ({} without a cache)."""
        if self.store is None:
            return {}
        return {
            **self.store.counters(),
            "ledger_errors": self.campaign.ledger_errors,
        }
