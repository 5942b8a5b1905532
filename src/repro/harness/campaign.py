"""One campaign layer under every job kind.

A campaign runs a batch of picklable jobs through the fault-tolerant
:class:`~repro.harness.jobs.JobEngine`, persists what they produce in a
:class:`~repro.harness.store.ResultStore`, and journals its progress in
a :class:`~repro.harness.store.ProgressLedger`.  The paper's two kinds
of campaign — the (benchmark × scheme) sweep behind the figures
(:class:`~repro.harness.parallel.ParallelSession`) and the differential
fuzz campaigns behind the safety argument
(:class:`~repro.fuzz.session.FuzzSession`) — are two job kinds over one
:class:`Campaign`, which owns for both:

* the engine, built from the shared knobs;
* the store, and the ledger of each run: opened by :func:`campaign_id`
  and dropped on any ``OSError`` — opening, or writing a record — after
  which the run continues without checkpoints;
* the one resolve path: a success is written to the store *before* its
  done-marker goes to the ledger, so a done-marker never names a result
  the store lacks; a failure is journaled with its payload and never
  stored (a failure cached as data would mask a later fix);
* resume partitioning into store hits, deterministic failures replayed
  from a resumed ledger, and cold jobs;
* the versioned failure manifest.

Kinds differ only in what they pass in: how a success payload is
stored and read back (``encode``/``decode``), whether the store is read
as a cache (``read_store``), and whether a resumed ledger's
deterministic failures replay (``replay_failures``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.io import atomic_write_json
from repro.harness.jobs import JobEngine, Payload
from repro.harness.store import ProgressLedger, ResultStore, campaign_id

#: Version of the failure-manifest layout.  (Store entries are versioned
#: by the store's own STORE_FORMAT_VERSION; see repro.harness.store.)
MANIFEST_FORMAT_VERSION = 1

#: Name of the per-campaign-directory record of failed jobs.
FAILURE_MANIFEST_NAME = "failure_manifest.json"

#: Name of the per-campaign-directory progress ledger.
LEDGER_NAME = "ledger.jsonl"


def replay_command(manifest_path: Path) -> str:
    """The one-liner that re-runs every entry of a manifest."""
    return f"python -m repro fuzz --replay {manifest_path}"


@dataclass
class FailureRecord:
    """One failed job (or fuzz finding), as recorded in the manifest.

    ``spec`` carries the *complete* job description (window sizes, full
    config, generator seed and knobs for fuzz jobs), and ``replay`` the
    one command that re-runs it — so any manifest entry is reproducible
    without reconstructing the campaign that produced it.
    """

    benchmark: str
    scheme: str
    error_type: str
    message: str
    attempts: int = 1
    transient: bool = False
    dump_path: Optional[str] = None
    key: List[Any] = field(default_factory=list)
    spec: Dict[str, Any] = field(default_factory=dict)
    replay: Optional[str] = None

    @classmethod
    def from_payload(
        cls,
        key: Sequence[Any],
        payload: Dict[str, Any],
        replay: Optional[str] = None,
    ) -> "FailureRecord":
        return cls(
            benchmark=payload["benchmark"],
            scheme=payload["scheme"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=payload.get("attempts", 1),
            transient=payload.get("transient", False),
            dump_path=payload.get("dump_path"),
            key=list(key),
            spec=dict(payload.get("spec", {})),
            replay=payload.get("replay", replay),
        )


class Campaign:
    """Engine, store, ledger and manifest for one job kind.

    Parameters
    ----------
    worker, describe:
        The kind's module-level worker and its per-job label fields
        (see :class:`~repro.harness.jobs.JobEngine`).
    directory:
        Where the ledger and failure manifest live; ``None`` runs
        without either.
    store_dir:
        Root of the result store; ``None`` runs without one.
    namer:
        Cosmetic ``key -> slug`` for store entry names.
    encode, decode:
        Success payload -> stored entry, and stored entry -> value (or
        ``None`` for an entry that is not one of this kind's).
    read_store:
        Whether stored entries count as results (store hits).
    replay_failures:
        Whether a resumed ledger's deterministic failures replay instead
        of re-running.
    resume:
        Adopt the directory's ledger if it is this campaign's.
    chaos:
        Optional armed :class:`~repro.harness.chaos.ChaosEngine`; its
        filesystem backs the store and its stages wrap the workers.
    jobs, job_timeout, retries, retry_backoff, mp_context:
        The engine's knobs.
    """

    def __init__(
        self,
        worker: Callable[[Any], Payload],
        describe: Callable[[Any], Dict[str, Any]],
        *,
        directory: Optional[Path],
        store_dir: Optional[Path],
        namer: Callable[[Any], str],
        encode: Callable[[Payload], Any],
        decode: Callable[[Any], Optional[Any]],
        read_store: bool,
        replay_failures: bool,
        resume: bool,
        chaos: Optional[Any],
        jobs: Optional[int],
        job_timeout: Optional[float],
        retries: int,
        retry_backoff: float,
        mp_context: Optional[str],
    ):
        self.engine = JobEngine(
            worker,
            jobs=jobs,
            job_timeout=job_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            mp_context=mp_context,
            describe=describe,
            chaos=chaos,
        )
        self.store: Optional[ResultStore] = None
        if store_dir is not None:
            self.store = ResultStore(
                store_dir,
                fs=chaos.fs if chaos is not None else None,
                namer=namer,
            )
        self.directory = directory
        self.encode = encode
        self.decode = decode
        self.read_store = read_store
        self.replay_failures = replay_failures
        self.resume = resume
        self.ledger: Optional[ProgressLedger] = None
        #: Ledger writes that failed (each drops the ledger for its run).
        self.ledger_errors = 0

    # ------------------------------------------------------------------
    # The ledger of one run
    # ------------------------------------------------------------------
    @contextmanager
    def journal(self, keys: Sequence[Any]) -> Iterator[None]:
        """Keep this run's ledger open for the duration of the block.

        The ledger belongs to the job set ``keys``: a resumed run adopts
        the previous one only if it journaled the same set.  A ledger
        that cannot be opened (read-only directory...) is not worth
        failing a campaign over; the run just goes checkpoint-less.
        """
        if self.directory is not None:
            try:
                self.ledger = ProgressLedger(
                    self.directory / LEDGER_NAME,
                    campaign_id(keys),
                    resume=self.resume,
                )
            except OSError:
                self.ledger = None
        try:
            yield
        finally:
            if self.ledger is not None:
                self.ledger.close()
                self.ledger = None

    # ------------------------------------------------------------------
    # Resume partitioning
    # ------------------------------------------------------------------
    def load(self, key: Any) -> Optional[Any]:
        """``key``'s stored value, if the store counts as a cache here.

        Corrupt entries are quarantined by the store and read as a miss.
        """
        if not self.read_store or self.store is None:
            return None
        return self.decode(self.store.get(key))

    def partition(
        self, items: Iterable[Tuple[Any, Any]]
    ) -> Tuple[
        List[Tuple[Any, Any, Any]],
        List[Tuple[Any, Any, Payload]],
        List[Tuple[Any, Any]],
    ]:
        """Split ``(key, job)`` pairs by what this run already knows.

        Returns ``(hits, replayed, cold)``: store hits as
        ``(key, job, value)``, deterministic failures of a resumed ledger
        as ``(key, job, payload)``, and the ``(key, job)`` pairs left to
        run.  Successes in a ledger need no replay (their results are in
        the store); transient failures re-run.
        """
        hits: List[Tuple[Any, Any, Any]] = []
        replayed: List[Tuple[Any, Any, Payload]] = []
        cold: List[Tuple[Any, Any]] = []
        for key, job in items:
            value = self.load(key)
            if value is not None:
                hits.append((key, job, value))
                continue
            failure = self._replayable_failure(key)
            if failure is not None:
                replayed.append((key, job, failure))
                continue
            cold.append((key, job))
        return hits, replayed, cold

    def _replayable_failure(self, key: Any) -> Optional[Payload]:
        ledger = self.ledger
        if not self.replay_failures or ledger is None or not ledger.resumed:
            return None
        entry = ledger.get(key)
        if entry is None or entry.get("ok", False):
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict) or payload.get("transient", False):
            return None
        return payload

    # ------------------------------------------------------------------
    # Running and resolving
    # ------------------------------------------------------------------
    def execute(
        self,
        cold: Sequence[Tuple[Any, Any]],
        on_resolved: Callable[[Any, Payload], None],
    ) -> None:
        """Run ``(key, job)`` pairs; each resolves, then ``on_resolved``."""

        def resolved(key: Any, payload: Payload) -> None:
            self.resolve(key, payload)
            on_resolved(key, payload)

        self.engine.run(cold, resolved)

    def resolve(self, key: Any, payload: Payload) -> None:
        """Store a success, then journal the outcome.

        A ledger write error (a full disk...) must not kill the campaign
        any more than an unopenable ledger does: the ledger is dropped
        and the run continues without checkpoints.
        """
        ok = payload["ok"]
        if ok and self.store is not None:
            self.store.put(key, self.encode(payload))
        if self.ledger is None:
            return
        try:
            self.ledger.record(key, ok, None if ok else payload)
        except OSError:
            self.ledger_errors += 1
            self.ledger.close()
            self.ledger = None

    # ------------------------------------------------------------------
    # The failure manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / FAILURE_MANIFEST_NAME

    def write_manifest(self, records: Iterable[FailureRecord]) -> Optional[Path]:
        """Rewrite the manifest; returns its path (None without a directory).

        An empty ``failures`` list is the machine-readable all-clear,
        replacing any stale manifest from an earlier broken run.  Records
        without their own replay command get the manifest's.
        """
        path = self.manifest_path
        if path is None:
            return None
        entries = []
        for record in records:
            entry = asdict(record)
            entry["replay"] = entry["replay"] or replay_command(path)
            entries.append(entry)
        payload = {"version": MANIFEST_FORMAT_VERSION, "failures": entries}
        return atomic_write_json(path, payload, indent=2)
