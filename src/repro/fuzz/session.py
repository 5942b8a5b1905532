"""The fuzz campaign: the job kind behind the differential safety check.

One :class:`FuzzJob` is one (seed, profile) pair run through the full
differential matrix; :class:`FuzzSession` runs a batch of them over the
shared :class:`~repro.harness.campaign.Campaign` (engine, store, ledger,
failure manifest).  What is specific to fuzzing lives here:

* **Verdicts, not results** — a divergence is a *successful* execution
  (the worker found what it was sent to find): it comes back as data,
  is minimized in the worker, and the parent writes one self-contained
  repro file per finding.  Only infrastructure problems are failures.
* **Store policy** — verdicts, clean and findings alike, are stored
  under the repro dir but read back only under ``resume``; failures of
  an earlier run re-run rather than replay (they are infrastructure
  problems worth a fresh attempt).
* **Time budget** — jobs go to the engine in batches, and a campaign
  stops submitting once its budget is spent.
* **The manifest** lists findings *and* failures, each with its full
  job spec and one replay command.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig, config_from_dict, config_to_dict
from repro.fuzz.corpus import ReproFile
from repro.fuzz.differential import (
    KIND_CLEAN,
    MatrixReport,
    fuzz_config,
    run_matrix,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.profiles import FuzzProfile
from repro.fuzz.shrink import minimize
from repro.harness.campaign import Campaign, FailureRecord, replay_command
from repro.harness.jobs import run_guarded
from repro.harness.parallel import SweepJob, execute_job

#: Default schemes a campaign crosses — the unsafe baseline plus every
#: secure scheme, with and without address prediction for DoM.
DEFAULT_FUZZ_SCHEMES: Tuple[str, ...] = (
    "unsafe",
    "nda",
    "stt",
    "dom",
    "dom+ap",
    "dom+vp",
)


@dataclass(frozen=True)
class FuzzJob:
    """One (seed, profile) differential run as a picklable spec."""

    seed: int
    profile: Dict[str, Any]
    schemes: Tuple[str, ...]
    matrix: str
    config: Dict[str, Any]  # config_to_dict() form
    mutation: Optional[str] = None
    minimize: bool = True

    @classmethod
    def build(
        cls,
        seed: int,
        profile: FuzzProfile,
        schemes: Sequence[str],
        matrix: str,
        config: SystemConfig,
        mutation: Optional[str] = None,
        minimize_findings: bool = True,
    ) -> "FuzzJob":
        return cls(
            seed=seed,
            profile=profile.to_dict(),
            schemes=tuple(schemes),
            matrix=matrix,
            config=config_to_dict(config),
            mutation=mutation,
            minimize=minimize_findings,
        )

    @property
    def profile_name(self) -> str:
        return self.profile.get("name", "?")

    @property
    def label(self) -> str:
        return f"fuzz/{self.profile_name}/seed{self.seed}"

    def spec(self) -> Dict[str, Any]:
        """The full job as replayable data (manifest ``spec`` entries)."""
        payload = asdict(self)
        payload["kind"] = "fuzz"
        return payload

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FuzzJob":
        return cls(
            seed=spec["seed"],
            profile=dict(spec["profile"]),
            schemes=tuple(spec["schemes"]),
            matrix=spec["matrix"],
            config=dict(spec["config"]),
            mutation=spec.get("mutation"),
            minimize=spec.get("minimize", True),
        )


def _fuzz_entry_slug(key: Dict[str, Any]) -> str:
    """Human-readable prefix for a fuzz verdict's file name."""
    profile = key.get("profile") or {}
    return f"{profile.get('name', 'p')}-seed{key.get('seed')}"


def fuzz_job_fields(job: FuzzJob) -> Dict[str, Any]:
    """Label + spec fields attached to engine-generated failure payloads."""
    return {
        "benchmark": job.label,
        "scheme": ",".join(job.schemes),
        "spec": job.spec(),
    }


def _shrink_predicate(job: FuzzJob, config: SystemConfig, kind: str):
    """The shrinker's "still fails the same way" test for one finding."""

    def predicate(candidate) -> bool:
        report = run_matrix(
            candidate,
            job.schemes,
            config=config,
            matrix=job.matrix,
            mutation=job.mutation,
        )
        return report.kind == kind

    return predicate


def _verdict(job: FuzzJob) -> Dict[str, Any]:
    """Generate, run the matrix, and minimize a finding."""
    profile = FuzzProfile.from_dict(job.profile)
    config = config_from_dict(job.config)
    program = generate_program(job.seed, profile)
    report = run_matrix(
        program,
        job.schemes,
        config=config,
        matrix=job.matrix,
        mutation=job.mutation,
    )
    result: Dict[str, Any] = {
        "kind": report.kind,
        "executions": len(report.executions),
        "divergences": list(report.divergences),
    }
    if not report.clean:
        minimized = program
        if job.minimize:
            minimized = minimize(
                program, _shrink_predicate(job, config, report.kind)
            )
            # Report the divergences of the *minimized* program — that
            # is what lands in the repro file and what a triager reads
            # first.
            report = run_matrix(
                minimized,
                job.schemes,
                config=config,
                matrix=job.matrix,
                mutation=job.mutation,
            )
        repro = ReproFile.from_finding(
            seed=job.seed,
            profile=job.profile,
            schemes=job.schemes,
            matrix=job.matrix,
            config=config,
            report=report,
            minimized=minimized,
            original_length=len(program),
            mutation=job.mutation,
        )
        result["repro"] = repro.to_dict()
        result["divergences"] = list(report.divergences)
    return result


def execute_fuzz_job(job: FuzzJob) -> Dict[str, Any]:
    """Worker entry point: one job's verdict as plain data.

    Must stay module-level (pickled by name into the pool).  A
    divergence is a *successful* execution — the payload is ``ok`` with
    a non-clean verdict and a ready-to-save repro dict; only
    infrastructure problems (generator crash, unpicklable state...)
    produce failure payloads.
    """
    return run_guarded(_verdict, job, fuzz_job_fields)


def _decode_verdict(entry: Any) -> Optional[Dict[str, Any]]:
    return entry if isinstance(entry, dict) and "kind" in entry else None


@dataclass
class Finding:
    """One non-clean verdict, with its repro file (if written)."""

    job: FuzzJob
    kind: str
    divergences: List[str]
    repro_path: Optional[Path] = None

    def summary(self) -> str:
        where = f" -> {self.repro_path}" if self.repro_path else ""
        return f"{self.job.label}: {self.kind}{where}"


@dataclass
class FuzzSummary:
    """Outcome of one campaign."""

    programs: int = 0
    clean: int = 0
    findings: List[Finding] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    skipped_budget: int = 0
    store_hits: int = 0
    #: Ledger writes that failed; the campaign went on without checkpoints.
    ledger_errors: int = 0
    elapsed: float = 0.0
    manifest_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.findings and not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.programs} program(s) in {self.elapsed:.1f}s — "
            f"{self.clean} clean, {len(self.findings)} finding(s), "
            f"{len(self.failures)} infrastructure failure(s)"
            + (
                f", {self.skipped_budget} skipped (time budget)"
                if self.skipped_budget
                else ""
            )
            + (
                f", {self.store_hits} resumed from store"
                if self.store_hits
                else ""
            )
        ]
        if self.ledger_errors:
            lines.append(
                "  note: the progress ledger could not be written; the "
                "campaign finished without checkpoints"
            )
        for finding in self.findings:
            lines.append(f"  FINDING {finding.summary()}")
            lines.extend(f"    {entry}" for entry in finding.divergences[:6])
        for failure in self.failures:
            lines.append(
                f"  FAILURE {failure.benchmark}: {failure.error_type}: "
                f"{failure.message}"
            )
        if (self.findings or self.failures) and self.manifest_path:
            lines.append(
                f"  replay everything: python -m repro fuzz --replay "
                f"{self.manifest_path}"
            )
        return "\n".join(lines)


class FuzzSession:
    """Run a fuzzing campaign over the shared campaign layer.

    Parameters mirror :class:`~repro.harness.parallel.ParallelSession`
    where they overlap; ``repro_dir`` is where repro files, the verdict
    store, the ledger and the failure manifest land (``None`` keeps
    findings in memory only).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        schemes: Sequence[str] = DEFAULT_FUZZ_SCHEMES,
        matrix: str = "full",
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        mp_context: Optional[str] = None,
        repro_dir: Optional[os.PathLike] = None,
        mutation: Optional[str] = None,
        minimize_findings: bool = True,
        resume: bool = False,
        chaos: Optional[Any] = None,
    ):
        self.config = fuzz_config(config)
        self.schemes = tuple(schemes)
        self.matrix = matrix
        self.repro_dir = Path(repro_dir) if repro_dir is not None else None
        self.mutation = mutation
        self.minimize_findings = minimize_findings
        self.campaign = Campaign(
            execute_fuzz_job,
            fuzz_job_fields,
            directory=self.repro_dir,
            store_dir=(
                self.repro_dir / "store" if self.repro_dir is not None else None
            ),
            namer=_fuzz_entry_slug,
            encode=lambda payload: payload["result"],
            decode=_decode_verdict,
            read_store=resume,
            replay_failures=False,
            resume=resume,
            chaos=chaos,
            jobs=jobs,
            job_timeout=job_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            mp_context=mp_context,
        )
        self.store = self.campaign.store

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------
    def build_jobs(
        self,
        seeds: Sequence[int],
        profiles: Sequence[FuzzProfile],
    ) -> List[FuzzJob]:
        """One job per seed, profiles assigned round-robin.

        Round-robin (rather than the full seeds × profiles grid) keeps
        ``--seeds N`` meaning "N programs" while still rotating through
        every pressure profile.
        """
        return [
            FuzzJob.build(
                seed,
                profiles[index % len(profiles)],
                self.schemes,
                self.matrix,
                self.config,
                mutation=self.mutation,
                minimize_findings=self.minimize_findings,
            )
            for index, seed in enumerate(seeds)
        ]

    def run(
        self,
        seeds: Sequence[int],
        profiles: Sequence[FuzzProfile],
        time_budget: Optional[float] = None,
    ) -> FuzzSummary:
        return self.run_jobs(self.build_jobs(seeds, profiles), time_budget)

    def run_jobs(
        self,
        jobs: Sequence[FuzzJob],
        time_budget: Optional[float] = None,
    ) -> FuzzSummary:
        """Run prebuilt jobs; honors an optional wall-clock budget.

        The budget is checked between engine batches, so a campaign stops
        *submitting* once the budget is spent — jobs already in flight
        still finish, and every finished verdict is kept.  Batches are
        several pool-loads wide: each batch boundary pays a pool restart
        plus a wait-for-the-slowest barrier, so narrow batches throw away
        real wall-clock (profiles differ ~7× in matrix cost).  With no
        budget there is nothing to check between batches and the whole
        campaign runs as one.
        """
        campaign = self.campaign
        summary = FuzzSummary()
        started = time.monotonic()
        ledger_errors = campaign.ledger_errors
        if time_budget is None:
            batch_size = max(len(jobs), 1)
        else:
            batch_size = campaign.engine.jobs * 8
        # A job's store and ledger key is its full replayable spec, so any
        # change to seed, profile knobs, schemes, matrix, config, or
        # mutation misses by construction.
        keyed = [(job.spec(), job) for job in jobs]
        try:
            with campaign.journal([key for key, _job in keyed]):
                hits, _replayed, pending = campaign.partition(keyed)
                for _key, job, verdict in hits:
                    summary.store_hits += 1
                    self._tally(summary, job.label, verdict)

                def resolved(key: Dict[str, Any], payload: Dict[str, Any]) -> None:
                    label = FuzzJob.from_spec(key).label
                    if payload["ok"]:
                        self._tally(summary, label, payload["result"])
                    else:
                        summary.programs += 1
                        summary.failures.append(
                            FailureRecord.from_payload([label], payload)
                        )

                while pending:
                    if (
                        time_budget is not None
                        and time.monotonic() - started > time_budget
                    ):
                        summary.skipped_budget = len(pending)
                        break
                    batch, pending = pending[:batch_size], pending[batch_size:]
                    campaign.execute(batch, resolved)
        finally:
            summary.ledger_errors = campaign.ledger_errors - ledger_errors
            summary.elapsed = time.monotonic() - started
            summary.manifest_path = self.write_manifest(summary)
        return summary

    def _tally(
        self, summary: FuzzSummary, label: str, verdict: Dict[str, Any]
    ) -> None:
        summary.programs += 1
        if verdict["kind"] == KIND_CLEAN:
            summary.clean += 1
        else:
            summary.findings.append(self._record_finding(label, verdict))

    def _record_finding(self, label: str, result: Dict[str, Any]) -> Finding:
        repro_payload = result.get("repro")
        repro_path: Optional[Path] = None
        finding_job = None
        if repro_payload is not None:
            repro = ReproFile(**{
                key: repro_payload[key]
                for key in ReproFile.__dataclass_fields__
                if key in repro_payload
            })
            finding_job = FuzzJob.build(
                repro.seed,
                FuzzProfile.from_dict(repro.profile),
                repro.schemes,
                repro.matrix,
                config_from_dict(repro.config),
                mutation=repro.mutation,
                minimize_findings=self.minimize_findings,
            )
            if self.repro_dir is not None:
                name = f"repro-{repro.profile.get('name', 'p')}-{repro.seed}.json"
                repro_path = repro.save(self.repro_dir / name)
        if finding_job is None:
            finding_job = FuzzJob(
                seed=-1,
                profile={"name": label},
                schemes=self.schemes,
                matrix=self.matrix,
                config=config_to_dict(self.config),
            )
        return Finding(
            job=finding_job,
            kind=result["kind"],
            divergences=list(result.get("divergences", [])),
            repro_path=repro_path,
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def failure_manifest_path(self) -> Optional[Path]:
        return self.campaign.manifest_path

    def write_manifest(self, summary: FuzzSummary) -> Optional[Path]:
        """Record findings *and* infrastructure failures, each entry with
        its full job spec and one replay command."""
        findings = [
            FailureRecord(
                benchmark=finding.job.label,
                scheme=",".join(finding.job.schemes),
                error_type=finding.kind,
                message=(
                    finding.divergences[0] if finding.divergences else finding.kind
                ),
                dump_path=str(finding.repro_path) if finding.repro_path else None,
                key=[finding.job.label],
                spec=finding.job.spec(),
                replay=(
                    replay_command(finding.repro_path)
                    if finding.repro_path
                    else None
                ),
            )
            for finding in summary.findings
        ]
        return self.campaign.write_manifest(findings + summary.failures)


def replay_manifest(path: os.PathLike) -> List[Tuple[str, MatrixReport]]:
    """Re-run every fuzz entry of a failure manifest, spec by spec.

    Returns ``(label, report)`` pairs.  Sweep-job entries (``kind:
    "sweep"``) are re-run through the sweep worker and reported by their
    outcome; entries with no spec are skipped with a note.
    """
    payload = json.loads(Path(path).read_text())
    results: List[Tuple[str, MatrixReport]] = []
    for entry in payload.get("failures", []):
        spec = entry.get("spec") or {}
        label = entry.get("benchmark", "?")
        if spec.get("kind") == "fuzz":
            job = FuzzJob.from_spec(spec)
            outcome = execute_fuzz_job(job)
            if outcome["ok"]:
                report = MatrixReport(
                    program_name=job.label,
                    kind=outcome["result"]["kind"],
                    divergences=list(outcome["result"]["divergences"]),
                )
            else:
                report = MatrixReport(
                    program_name=job.label,
                    kind="error",
                    divergences=[
                        f"{outcome['error_type']}: {outcome['message']}"
                    ],
                )
            results.append((job.label, report))
        elif spec.get("kind") == "sweep":
            job = SweepJob.from_spec(spec)
            outcome = execute_job(job)
            if outcome["ok"]:
                report = MatrixReport(
                    program_name=f"sweep/{job.benchmark}/{job.scheme}",
                    kind=KIND_CLEAN,
                )
            else:
                report = MatrixReport(
                    program_name=f"sweep/{job.benchmark}/{job.scheme}",
                    kind="error",
                    divergences=[
                        f"{outcome['error_type']}: {outcome['message']}"
                    ],
                )
            results.append((report.program_name, report))
        else:
            results.append(
                (
                    label,
                    MatrixReport(
                        program_name=label,
                        kind="error",
                        divergences=["manifest entry has no replayable spec"],
                    ),
                )
            )
    return results
