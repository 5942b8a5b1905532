"""reprolint — AST-based static analysis enforcing simulator invariants.

The last two PRs caught serious bugs only at runtime: a stale
config-fingerprint memo that poisoned the sweep cache, a rename-map leak
found by the invariant checker, untyped exceptions that broke retry
classification.  Each of those bug classes is *statically* detectable,
and this package moves them from dynamic guardrails to review-time
guarantees:

==========  ==========================================================
``RPL101``  nondeterministic call/import in simulator code
``RPL102``  iteration over a bare set in simulator code
``RPL103``  ``id()`` (allocation-order) identity in simulator code
``RPL201``  config field dropped from the cache fingerprint without an
            explicit exclusion-list entry
``RPL301``  ``raise`` of a builtin exception instead of a ReproError
``RPL401``  layering violation (schemes→pipeline not via schemes.base,
            memory→pipeline, simulator core→guardrails)
``RPL501``  unpicklable callable submitted to a process pool
``RPL502``  process-pool worker mutating module-level state
``RPL601``  mutable default argument
``RPL602``  mutation of an undeclared SimStats counter
``RPL603``  private function or method its own module never names
==========  ==========================================================

Run it as ``repro lint [paths]``; findings are suppressed inline with
``# repro: noqa[RULE-ID]`` or grandfathered (with a justification) in
the packaged ``baseline.json``.  See ``docs/internals.md`` for the full
rule catalogue and how to add a rule.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, PACKAGED_BASELINE
from repro.analysis.engine import LintReport, LintRunner
from repro.analysis.finding import Finding
from repro.analysis.registry import ModuleContext, Rule, all_rules, register
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "LintRunner",
    "ModuleContext",
    "PACKAGED_BASELINE",
    "Rule",
    "all_rules",
    "register",
    "render_json",
    "render_text",
]
