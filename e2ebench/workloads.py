"""The benchmark's three workloads, each a sequence of rounds.

A round is one call into the public API a user runs (a sweep, a fuzz
campaign, a leak differential) with a fresh cache or repro directory.
Rounds are deterministic in ``(seed, round index)`` and draw fresh inputs
each time, so later rounds never replay earlier work out of a warm cache.
A run does a fixed number of rounds, the whole rounds of the workload's
``round_s`` (a round's cost in reference seconds, see ``hostclock.py``,
when the benchmark was set) that fit in ``--seconds``, so every run of a
seed does the same ops on every commit.

Why each workload exists (see README.md for the layer table):

* ``figure-sweep`` — ``repro sweep`` at the paper window over large
  footprints: construction (workload build + ``Core()``) dominates.
* ``fuzz-campaign`` — ``repro fuzz`` under ``small_config``: simulation
  and the oracle's snapshot comparisons dominate; construction is under
  a tenth.
* ``leak-differential`` — ``repro specflow``'s static-vs-dynamic
  differential: tiny programs on the full Table-1 hierarchy, so cache
  allocation dominates; the only workload reaching specflow and the
  noninterference oracle.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis.specflow.differential import run_differential
from repro.attacks.corpus import ATTACK_CORPUS, CORPUS_SCHEME_LABELS
from repro.fuzz import DEFAULT_FUZZ_SCHEMES, PROFILES, FuzzSession
from repro.harness.parallel import ParallelSession
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES

from instrument import OpLog


class Workload:
    """One workload: planned op ids and one API call per round."""

    name = ""
    #: Reference seconds one round took when the benchmark was set;
    #: fixes the rounds per run, never measured again.
    round_s = 1.0
    #: ``ProgressLedger`` key -> op id, for campaigns journaling per op.
    ledger_op = None
    #: Scheme labels of the leak differential's per-cell hooks.
    cell_labels: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rounds(self, seconds: float) -> int:
        """Whole rounds that fit in ``seconds`` at the nominal cost."""
        return max(1, int(seconds // self.round_s))

    def planned(self, index: int) -> List[str]:
        raise NotImplementedError

    def prepare(self, index: int, workdir: Path) -> Any:
        """The round's session (what a user constructs before the ops)."""
        return None

    def run(self, index: int, session: Any, ops: OpLog) -> None:
        """Run the round; mark ops that fail their correctness check, and
        raise if the API's own totals disagree with the ops."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# figure-sweep
# ----------------------------------------------------------------------
#: The paper window from EXPERIMENTS.md: 2k warmup + 8k measured.
SWEEP_WARMUP = 2_000
SWEEP_MEASURE = 8_000
SWEEP_SCHEMES: Tuple[str, ...] = (BASELINE_SCHEME,) + FIGURE_SCHEMES

#: The large-footprint pool (every profile of at least 2^16 words),
#: stratified by the host cost of one pair (README.md lists them) so
#: that every round costs about the same whichever members the seed
#: draws.  Each round takes one member of each tier, 49 pairs in all.
#: The three single-member tiers are in every round: libquantum (2^19
#: words, the largest image) fixes peak memory, and mcf and omnetpp hold
#: the pairs where the p79 tail (the 11th slowest of 49) and the median
#: (the 25th) fall, so neither percentile depends on the draw.
SWEEP_TIERS: Tuple[Tuple[str, ...], ...] = (
    ("libquantum",),
    ("mcf",),
    ("mcf_s", "omnetpp_s", "GemsFDTD", "lbm"),
    ("omnetpp",),
    ("milc", "lbm_s", "fotonik3d_s"),
    ("xalancbmk_s", "bzip2", "zeusmp"),
    ("xz_s", "roms_s"),
)


class FigureSweep(Workload):
    """``ParallelSession(jobs=1, cache_dir=<fresh>).sweep(...)``.

    An op is one (benchmark, scheme) pair.  The seed permutes each tier;
    round ``r`` sweeps member ``r`` of every permuted tier, in a
    seed-drawn order, under ``unsafe`` plus the six figure schemes.
    """

    name = "figure-sweep"
    round_s = 35.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"e2ebench:{self.name}:{seed}")
        self._tiers = [rng.sample(tier, len(tier)) for tier in SWEEP_TIERS]

    def benchmarks(self, index: int) -> List[str]:
        drawn = [tier[index % len(tier)] for tier in self._tiers]
        order = random.Random(f"e2ebench:{self.name}:{self.seed}:{index}")
        return order.sample(drawn, len(drawn))

    @staticmethod
    def ledger_op(key: Any) -> str:
        benchmark, scheme = key[0], key[1]
        return f"{benchmark}/{scheme}"

    def planned(self, index: int) -> List[str]:
        return [f"{b}/{s}" for b in self.benchmarks(index) for s in SWEEP_SCHEMES]

    def prepare(self, index: int, workdir: Path) -> ParallelSession:
        return ParallelSession(
            warmup=SWEEP_WARMUP,
            measure=SWEEP_MEASURE,
            jobs=1,
            cache_dir=workdir,
        )

    def run(self, index: int, session: ParallelSession, ops: OpLog) -> None:
        results = session.sweep(
            self.benchmarks(index), SWEEP_SCHEMES, skip_errors=True
        )
        windows = {f"{r.benchmark}/{r.scheme}": r.stats for r in results}
        skipped = {
            f"{s.benchmark}/{s.scheme}": f"{s.error_type}: {s.message}"
            for s in session.skipped
        }
        for record in ops.round_records(index):
            if record.op_id in skipped:
                record.fail(f"skipped: {skipped[record.op_id]}")
                continue
            window = windows.get(record.op_id)
            if window is None:
                record.fail("no result")
            elif window.committed_instructions == 0:
                record.fail("committed nothing in its measurement window")
            else:
                record.window_stats = window.as_dict()
        planned = len(self.planned(index))
        if len(results) + len(session.skipped) != planned:
            raise RuntimeError(
                f"sweep returned {len(results)} result(s) and "
                f"{len(session.skipped)} skip(s) for {planned} pairs"
            )


# ----------------------------------------------------------------------
# fuzz-campaign
# ----------------------------------------------------------------------
class FuzzCampaign(Workload):
    """``FuzzSession(jobs=1, repro_dir=<fresh>, matrix="full")``.

    An op is one generated program run through the 24-execution matrix.
    The campaign's first seed is ``1000 * seed`` (so different seeds
    never share programs); each round fuzzes the next
    ``len(PROFILES)`` seeds with profiles assigned round-robin.
    """

    name = "fuzz-campaign"
    #: A round costs about 4.2 reference seconds; 3.75 makes a 30 s run
    #: eight rounds, so the median falls among ``branchy``'s programs and
    #: the tail among ``chase``'s, not on the edges of either.
    round_s = 3.75

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.profiles = list(PROFILES.values())

    def seeds(self, index: int) -> List[int]:
        first = 1000 * self.seed + index * len(self.profiles)
        return list(range(first, first + len(self.profiles)))

    @staticmethod
    def ledger_op(key: Any) -> str:
        return f"{key['profile']['name']}/seed{key['seed']}"

    def planned(self, index: int) -> List[str]:
        return [
            f"{profile.name}/seed{seed}"
            for profile, seed in zip(self.profiles, self.seeds(index))
        ]

    def prepare(self, index: int, workdir: Path) -> FuzzSession:
        return FuzzSession(
            schemes=DEFAULT_FUZZ_SCHEMES,
            matrix="full",
            jobs=1,
            repro_dir=workdir,
        )

    def run(self, index: int, session: FuzzSession, ops: OpLog) -> None:
        summary = session.run(self.seeds(index), self.profiles)
        verdicts: Dict[str, str] = {}
        for finding in summary.findings:
            verdicts[finding.job.label] = f"verdict {finding.kind}"
        for failure in summary.failures:
            verdicts[failure.benchmark] = f"{failure.error_type}: {failure.message}"
        records = ops.round_records(index)
        for record in records:
            label = f"fuzz/{record.op_id}"
            if label in verdicts:
                record.fail(verdicts[label])
        clean = sum(record.ok for record in records)
        if summary.programs != len(self.planned(index)) or summary.clean != clean:
            raise RuntimeError(
                f"campaign counts {summary.clean} clean of {summary.programs} "
                f"programs, the ops {clean} clean of {len(records)}"
            )


# ----------------------------------------------------------------------
# leak-differential
# ----------------------------------------------------------------------
#: Generated secret cases per round, after the pinned corpus.
LEAK_FUZZ_SEEDS = 10


class LeakDifferential(Workload):
    """``run_differential(fuzz_seeds=N, seed_start=...)``.

    An op is one (program, scheme) cell: the pinned attack corpus plus
    ``N`` generated secret cases, each under all 11 scheme labels with
    ``attack_config()``.  Round ``r`` generates cases from seed
    ``1000 * seed + r * N`` on.
    """

    name = "leak-differential"
    round_s = 27.5
    cell_labels = tuple(CORPUS_SCHEME_LABELS)

    def seed_start(self, index: int) -> int:
        return 1000 * self.seed + index * LEAK_FUZZ_SEEDS

    def planned(self, index: int) -> List[str]:
        start = self.seed_start(index)
        programs = [entry.name for entry in ATTACK_CORPUS] + [
            f"secret-seed{seed}" for seed in range(start, start + LEAK_FUZZ_SEEDS)
        ]
        return [f"{p}/{label}" for p in programs for label in self.cell_labels]

    def run(self, index: int, session: Any, ops: OpLog) -> None:
        # Cells fail inside the per-cell hooks, which see each program's
        # disagreements as its check returns.
        report = run_differential(
            fuzz_seeds=LEAK_FUZZ_SEEDS, seed_start=self.seed_start(index)
        )
        cells = report.corpus_cells + report.fuzz_cells
        disagreeing = {(d.program, d.scheme) for d in report.disagreements}
        failed = [r for r in ops.round_records(index) if not r.ok]
        if cells != len(self.planned(index)) or len(disagreeing) != len(failed):
            raise RuntimeError(
                f"differential reports {cells} cells, {len(disagreeing)} "
                f"disagreeing; the ops show {len(failed)} failed"
            )


WORKLOADS = {
    workload.name: workload
    for workload in (FigureSweep, FuzzCampaign, LeakDifferential)
}
