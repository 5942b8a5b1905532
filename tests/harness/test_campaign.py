"""The shared campaign layer, checked once for each job kind.

Sweeps (:class:`ParallelSession`) and fuzz campaigns
(:class:`FuzzSession`) run over one :class:`~repro.harness.campaign.
Campaign`; every contract here is parametrized over both kinds:

* a success is in the store before its ledger done-marker is written;
* an interrupted campaign resumed with ``resume=True`` re-simulates
  nothing already stored;
* a clean rerun rewrites the failure manifest as an empty all-clear;
* a ledger that fails mid-run (a full disk) costs the checkpoints, not
  the campaign.

Everything runs inline (``jobs=1``), so counting wrappers installed with
``monkeypatch`` see every simulation.
"""

import errno
import json
import os

import pytest

from repro.cli import main
from repro.common.config import small_config
from repro.common.errors import ConfigError, EmptyMeasurementError
from repro.fuzz import session as fuzz_session
from repro.fuzz.profiles import resolve_profiles
from repro.fuzz.session import FuzzSession
from repro.harness import parallel
from repro.harness import store as store_module
from repro.harness.campaign import FAILURE_MANIFEST_NAME
from repro.harness.chaos import ChaosEngine, ChaosInterrupt, FaultPlan
from repro.harness.parallel import ParallelSession
from repro.harness.store import ProgressLedger


class SweepKind:
    """Four small real (benchmark, scheme) runs; one simulation each."""

    benchmarks = ("hmmer", "mcf")
    schemes = ("unsafe", "dom")

    def __init__(self, monkeypatch):
        self.simulated = []
        self.broken = None
        real = parallel.run_benchmark

        def counting(benchmark, scheme, *args, **kwargs):
            self.simulated.append((benchmark, scheme))
            if benchmark == self.broken:
                raise EmptyMeasurementError(
                    "too short", benchmark=benchmark, scheme=scheme
                )
            return real(benchmark, scheme, *args, **kwargs)

        monkeypatch.setattr(parallel, "run_benchmark", counting)

    def session(self, directory, **kwargs):
        return ParallelSession(
            config=small_config(),
            warmup=100,
            measure=300,
            jobs=1,
            cache_dir=directory,
            retry_backoff=0.0,
            **kwargs,
        )

    def run(self, session):
        return session.sweep(self.benchmarks, self.schemes, skip_errors=True)

    def outcome(self, results):
        return [(r.benchmark, r.scheme, r.stats.as_dict()) for r in results]

    def ledger_errors(self, session, results):
        return session.store_counters()["ledger_errors"]


class FuzzKind:
    """Four generated programs under a two-scheme matrix."""

    seeds = (0, 1, 2, 3)

    def __init__(self, monkeypatch):
        self.simulated = []
        self.broken = None
        real = fuzz_session.generate_program

        def counting(seed, profile):
            self.simulated.append(seed)
            if seed == self.broken:
                raise ConfigError(f"cannot generate seed {seed}")
            return real(seed, profile)

        monkeypatch.setattr(fuzz_session, "generate_program", counting)

    def session(self, directory, **kwargs):
        return FuzzSession(
            schemes=("unsafe", "dom+ap"),
            matrix="schemes",
            jobs=1,
            repro_dir=directory,
            retry_backoff=0.0,
            **kwargs,
        )

    def run(self, session):
        return session.run(self.seeds, resolve_profiles(("default",)))

    def outcome(self, summary):
        return (
            summary.programs,
            summary.clean,
            [finding.kind for finding in summary.findings],
            [failure.error_type for failure in summary.failures],
        )

    def ledger_errors(self, session, summary):
        return summary.ledger_errors


@pytest.fixture(params=[SweepKind, FuzzKind], ids=["sweep", "fuzz"])
def kind(request, monkeypatch):
    return request.param(monkeypatch)


def read_manifest(directory):
    return json.loads((directory / FAILURE_MANIFEST_NAME).read_text())


class TestResolveOrder:
    def test_store_entry_exists_before_its_done_marker(
        self, kind, tmp_path, monkeypatch
    ):
        session = kind.session(tmp_path)
        markers = []
        real_record = ProgressLedger.record

        def record(ledger, key, ok, payload=None):
            if ok:
                markers.append(session.store.path_for(key).exists())
            real_record(ledger, key, ok, payload)

        monkeypatch.setattr(ProgressLedger, "record", record)
        kind.run(session)
        assert len(markers) == 4
        assert all(markers)


class TestResume:
    def test_resume_resimulates_nothing_already_stored(self, kind, tmp_path):
        chaos = ChaosEngine(FaultPlan(seed=0, interrupt_after=2))
        with pytest.raises(ChaosInterrupt):
            kind.run(kind.session(tmp_path, chaos=chaos))
        interrupted = list(kind.simulated)
        assert len(interrupted) == 2

        kind.simulated.clear()
        resumed = kind.session(tmp_path, resume=True)
        kind.run(resumed)
        assert len(kind.simulated) == 2
        assert not set(kind.simulated) & set(interrupted)
        assert resumed.store.counters()["hits"] == 2


class TestManifest:
    def test_clean_rerun_writes_an_empty_all_clear(self, kind, tmp_path):
        kind.broken = "mcf" if isinstance(kind, SweepKind) else 1
        kind.run(kind.session(tmp_path))
        assert read_manifest(tmp_path)["failures"]

        kind.broken = None
        kind.run(kind.session(tmp_path))
        manifest = read_manifest(tmp_path)
        assert manifest == {"version": 1, "failures": []}


class _FsyncFailsAfter:
    """``os`` as the store module sees it, with ``fsync`` failing ENOSPC
    once ``allowed`` calls have gone through."""

    def __init__(self, allowed):
        self.allowed = allowed

    def fsync(self, fd):
        if self.allowed <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.allowed -= 1
        os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


def _disk_full_after_first_record(monkeypatch):
    # The ledger header, the first stored result, and its done-marker.
    monkeypatch.setattr(store_module, "os", _FsyncFailsAfter(3))


class TestLedgerWriteErrors:
    def test_campaign_finishes_without_checkpoints(
        self, kind, tmp_path, monkeypatch
    ):
        clean = kind.outcome(kind.run(kind.session(tmp_path / "clean")))

        _disk_full_after_first_record(monkeypatch)
        session = kind.session(tmp_path / "full")
        outcome = kind.run(session)
        assert kind.outcome(outcome) == clean
        assert kind.ledger_errors(session, outcome) == 1

    def test_sweep_cli_notes_the_lost_checkpoints(
        self, tmp_path, monkeypatch, capsys
    ):
        _disk_full_after_first_record(monkeypatch)
        status = main([
            "sweep", "--benchmarks", "hmmer", "--schemes", "unsafe,dom",
            "--jobs", "1", "--cache-dir", str(tmp_path),
            "--warmup", "100", "--measure", "300",
        ])
        assert status == 0
        assert "progress ledger could not be written" in capsys.readouterr().out
