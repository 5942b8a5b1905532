"""A generic fault-tolerant process-pool job engine.

Every campaign (:class:`~repro.harness.campaign.Campaign`) — the sweep
session, the differential fuzzer — runs on this engine and so inherits
the same hard-won failure semantics instead of re-implementing them:

* **Waves with bounded retry** — every job resolves exactly once:
  success, deterministic failure, or a transient failure that exhausted
  its retries.  Transient failures (timeout, worker crash, unexpected
  exception) re-run up to ``retries`` times with exponential backoff;
  deterministic ones never re-run.
* **Per-job wall-clock budget** — a wave gets
  ``job_timeout × ceil(n / workers)`` (the bound a fair scheduler would
  need); anything still in flight when it expires is reported as a
  timeout and the stuck workers are killed rather than leaked.
* **Crash isolation** — a dead worker breaks the whole pool and CPython
  cannot say which job killed it, so every in-flight job is marked
  transient and re-run: the culprit fails again, bystanders complete.
* **Incremental resolution** — the ``store`` callback fires the moment
  each job resolves (not at the end of the wave), so an interrupt loses
  only in-flight work.

The engine is payload-shaped, not result-shaped: the worker must be a
**module-level function** (pickled by qualified name into the pool) that
**never raises**, returning a dict with at least ``ok`` (bool) and — for
failures — ``transient`` (bool), ``error_type``, and ``message``.  The
``describe`` hook supplies per-job label fields (benchmark/scheme,
seed/profile, the full job spec...) merged into engine-generated
timeout/crash payloads so every failure is attributable and replayable.
:func:`run_guarded` is the one exception ladder every worker runs its
body under.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import DeadlockError, InvariantViolationError, ReproError

Payload = Dict[str, Any]
"""What a worker returns: ``{"ok": True, ...}`` or a failure payload."""


def backoff_schedule(
    retries: int,
    base: float,
    cap: float = 30.0,
    seed: int = 0,
) -> Tuple[float, ...]:
    """Seeded jittered-exponential retry delays, one per retry wave.

    Wave ``n`` (1-based) waits ``min(cap, base * 2**(n-1))`` scaled by a
    jitter factor drawn uniformly from [0.5, 1.0] — decorrelating the
    retry storms of concurrent campaigns sharing a disk or cache without
    ever waiting *longer* than the capped exponential.  The jitter comes
    from a string-seeded :class:`random.Random`, so a given ``seed``
    always produces the same schedule (campaigns replay byte-for-byte)
    and ``base=0`` always produces all-zero delays.
    """
    rng = random.Random(f"repro-backoff:{seed}")
    schedule = []
    for wave in range(1, max(0, retries) + 1):
        raw = min(float(cap), float(base) * (2.0 ** (wave - 1)))
        schedule.append(raw * (0.5 + 0.5 * rng.random()))
    return tuple(schedule)


def failure_payload(
    error_type: str,
    message: str,
    transient: bool,
    fields: Optional[Dict[str, Any]] = None,
) -> Payload:
    """The canonical failure payload shape shared by all job runners."""
    payload: Payload = {
        "ok": False,
        "error_type": error_type,
        "message": message,
        "transient": transient,
    }
    if fields:
        payload.update(fields)
    return payload


def _error_extras(error: ReproError) -> Dict[str, Any]:
    """The fields a guardrail error carries beyond its message."""
    if isinstance(error, InvariantViolationError):
        return {
            "invariant": error.invariant,
            "violations": list(error.violations),
            "dump_path": error.dump_path,
        }
    if isinstance(error, DeadlockError):
        return {"kind": error.kind, "dump_path": error.dump_path}
    return {}


def run_guarded(
    body: Callable[[Any], Any],
    job: Any,
    describe: Callable[[Any], Dict[str, Any]],
) -> Payload:
    """Run a worker's ``body(job)`` and return its payload; never raises.

    Errors travel back as data, so one bad job cannot poison the pool or
    lose the rest of a campaign.  A :class:`ReproError` is
    deterministic — the simulator has no nondeterminism, so retrying is
    pointless — and keeps its guardrail extras (invariant, violations,
    dump path...).  Anything else is transient, including a
    ``KeyboardInterrupt`` delivered to the worker on Ctrl-C, so the
    parent can finish storing completed results and retry cleanly later
    instead of unwinding through a half-written pool protocol.
    """
    try:
        return {"ok": True, "result": body(job)}
    except ReproError as error:
        fields = describe(job)
        fields.update(_error_extras(error))
        return failure_payload(
            type(error).__name__, str(error), transient=False, fields=fields
        )
    except KeyboardInterrupt:
        return failure_payload(
            "KeyboardInterrupt",
            "interrupted mid-run",
            transient=True,
            fields=describe(job),
        )
    except Exception as error:  # crash isolation: bugs travel back as data
        return failure_payload(
            type(error).__name__,
            str(error) or repr(error),
            transient=True,
            fields=describe(job),
        )


def _no_fields(job: Any) -> Dict[str, Any]:
    return {}


class JobEngine:
    """Run picklable jobs through waves of execution + bounded retry.

    Parameters
    ----------
    worker:
        Module-level function mapping one job to a :data:`Payload`.
        Must never raise (errors travel back as data).
    jobs:
        Worker processes.  ``None`` means one per CPU; ``1`` with no
        ``job_timeout`` runs everything inline in the parent (no pool —
        a wall-clock budget can only be enforced on a killable child).
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` waits forever.
    retries:
        Re-runs granted to each *transient* failure.
    retry_backoff:
        Base delay before each retry wave; waves follow the seeded
        jittered-exponential :func:`backoff_schedule` capped at
        ``backoff_cap``.
    backoff_cap:
        Ceiling on the per-wave exponential delay (before jitter).
    backoff_seed:
        Seed for the jitter draw, so a campaign's schedule replays.
    mp_context:
        ``multiprocessing`` start method; ``None`` is the platform default.
    describe:
        ``job -> dict`` of label fields merged into engine-generated
        timeout/crash payloads (e.g. benchmark/scheme plus a replayable
        job spec).
    chaos:
        Optional armed :class:`~repro.harness.chaos.ChaosEngine`.  When
        set, every submission is routed through ``chaos.wrap`` (which may
        substitute a fault-staging worker) and every resolution through
        ``chaos.on_resolved`` (which may raise the injected interrupt).
        The engine only speaks this two-method protocol — it never
        imports the chaos module.
    """

    def __init__(
        self,
        worker: Callable[[Any], Payload],
        *,
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        backoff_cap: float = 30.0,
        backoff_seed: int = 0,
        mp_context: Optional[str] = None,
        describe: Callable[[Any], Dict[str, Any]] = _no_fields,
        chaos: Optional[Any] = None,
    ):
        self.worker = worker
        self.jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self.backoff = backoff_schedule(
            self.retries, self.retry_backoff, backoff_cap, backoff_seed
        )
        self.mp_context = mp_context
        self.describe = describe
        self.chaos = chaos

    # ------------------------------------------------------------------
    # Engine-generated payloads
    # ------------------------------------------------------------------
    def timeout_payload(self, job: Any) -> Payload:
        return failure_payload(
            "JobTimeoutError",
            f"no result within the {self.job_timeout:g}s per-job budget",
            transient=True,
            fields=self.describe(job),
        )

    def crash_payload(self, job: Any) -> Payload:
        return failure_payload(
            "WorkerCrashError",
            "worker process died before returning a result",
            transient=True,
            fields=self.describe(job),
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        cold: Sequence[Tuple[Any, Any]],
        store: Callable[[Any, Payload], None],
    ) -> None:
        """Run ``(key, job)`` pairs; call ``store(key, payload)`` per job.

        Every job resolves exactly once — success, deterministic failure,
        or transient failure that exhausted its retries — and ``store``
        fires *the moment it resolves*, so an interrupt can only lose
        jobs still in flight.  Resolved payloads carry an ``attempts``
        count.
        """
        unresolved: Dict[int, Tuple[Any, Any]] = dict(enumerate(cold))
        attempts: Dict[int, int] = {index: 0 for index in unresolved}
        last_transient: Dict[int, Payload] = {}

        def resolve(index: int, payload: Payload) -> None:
            attempts[index] += 1
            final_wave = wave == self.retries
            if payload["ok"] or not payload.get("transient", False) or final_wave:
                key, _ = unresolved.pop(index)
                payload["attempts"] = attempts[index]
                store(key, payload)
                if self.chaos is not None:
                    self.chaos.on_resolved(key, payload)
            else:
                last_transient[index] = payload

        for wave in range(self.retries + 1):
            if not unresolved:
                break
            if wave and self.backoff[wave - 1]:
                time.sleep(self.backoff[wave - 1])
            self._run_wave(dict(unresolved), resolve, wave)

        # A wave can end without resolving everything only if it was cut
        # short (pool broke after its futures were marked transient, or a
        # kill raced a result); record whatever we last saw.
        for index in list(unresolved):
            key, job = unresolved.pop(index)
            payload = last_transient.get(index, self.crash_payload(job))
            payload["attempts"] = max(1, attempts[index])
            store(key, payload)

    def _target(
        self, key: Any, job: Any, attempt: int, inline: bool
    ) -> Tuple[Callable[..., Payload], Tuple[Any, ...]]:
        """What to actually run for one submission: the worker itself, or
        — under an armed chaos engine — whatever fault stage it wraps in."""
        if self.chaos is None:
            return self.worker, (job,)
        return self.chaos.wrap(self.worker, key, job, attempt, inline=inline)

    def _run_wave(
        self,
        items: Dict[int, Tuple[Any, Any]],
        resolve: Callable[[int, Payload], None],
        attempt: int,
    ) -> None:
        """One attempt at every unresolved job; calls ``resolve`` per job.

        ``resolve`` fires as each future completes (not after the wave),
        which is what makes mid-batch interrupts lossless for finished
        work.  On a per-wave timeout the hung workers are killed; on a
        broken pool every in-flight job is reported as a (transient)
        worker crash and the next wave sorts the culprit from bystanders.
        """
        # Inline only for a serial engine with no timeout: a wall-clock
        # budget can only be enforced on a killable child process, and a
        # parallel engine must keep crash isolation even when a retry
        # wave is down to a single job — running that job in the parent
        # would let a crashing worker take the whole batch with it.
        if self.jobs == 1 and self.job_timeout is None:
            for index, (key, job) in items.items():
                target, args = self._target(key, job, attempt, inline=True)
                resolve(index, target(*args))
            return

        workers = min(self.jobs, len(items))
        context = multiprocessing.get_context(self.mp_context)
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            # The worker (and any chaos stage) must be module-level for
            # the pool to pickle it by qualified name.
            futures: Dict[Future, int] = {}
            for index, (key, job) in items.items():
                target, args = self._target(key, job, attempt, inline=False)
                futures[executor.submit(target, *args)] = index
            pending = set(futures)
            deadline = None
            if self.job_timeout is not None:
                # Each worker may serve ceil(n / workers) queued jobs.
                budget = self.job_timeout * math.ceil(len(items) / workers)
                deadline = time.monotonic() + budget
            while pending:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Wave budget exhausted: everything still in flight is
                    # a timeout; kill the stuck workers so the pool dies
                    # with this wave instead of leaking hung processes.
                    for future in pending:
                        index = futures[future]
                        resolve(index, self.timeout_payload(items[index][1]))
                    self._kill_workers(executor)
                    return
                broken = False
                for future in done:
                    index = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        payload = self.crash_payload(items[index][1])
                        broken = True
                    except Exception as error:  # unpicklable payloads etc.
                        payload = failure_payload(
                            type(error).__name__,
                            str(error) or repr(error),
                            transient=True,
                            fields=self.describe(items[index][1]),
                        )
                    resolve(index, payload)
                if broken:
                    # The pool is gone; every remaining future died with
                    # it.  CPython cannot say *which* worker crashed, so
                    # all of them go back for retry — the deterministic
                    # culprit fails again, the bystanders complete.
                    for future in pending:
                        index = futures[future]
                        resolve(index, self.crash_payload(items[index][1]))
                    return
        except BaseException:
            # Ctrl-C (or an unexpected bug) mid-wave: results already
            # resolved are stored; kill the workers so the interpreter
            # does not block on join at exit.
            self._kill_workers(executor)
            raise
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _kill_workers(executor: ProcessPoolExecutor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):  # already gone
                pass
