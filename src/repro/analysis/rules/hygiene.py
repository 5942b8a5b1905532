"""Hygiene rules (RPL601/RPL602/RPL603).

RPL601 (mutable default arguments) is the classic Python trap with a
simulator-specific sting: a default ``[]`` on a config or harness helper
is shared across *every* run in a sweep, so the first run's state leaks
into the second — another way to get silently-wrong cached numbers.

RPL602 (unregistered stat counters) guards the flat-attribute design of
:class:`repro.common.stats.SimStats`: counters are plain attributes for
speed, so ``stats.l1_hitz += 1`` (a typo) raises ``AttributeError`` only
with luck — an *assignment* typo creates a brand-new attribute, the real
counter stays 0, and the figure built from it is quietly wrong.  Every
``<...>.stats.<name>`` mutation must name a declared SimStats field.

RPL603 (unreferenced private definitions) keeps dead code from
regrowing: a private (``_name``) module-level function or method that
its own module never names is reachable only from another module —
which the leading underscore says should not happen — or not at all.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.registry import ModuleContext, Rule, register
from repro.analysis.rules._util import (
    dataclass_field_names,
    dotted_name,
    is_dataclass_def,
    terminal_name,
)

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


@register
class MutableDefaultRule(Rule):
    rule_id = "RPL601"
    name = "mutable-default-argument"
    rationale = (
        "a mutable default is created once and shared by every call; in "
        "sweep helpers that silently carries state from one run into the "
        "next — use None and create the value inside the function"
    )

    def check(self, ctx: ModuleContext) -> Iterator:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in '{label}' is shared "
                        f"across calls; default to None and build it inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            return callee is not None and callee.split(".")[-1] in _MUTABLE_CALLS
        return False


def _sim_stats_fields(ctx: ModuleContext) -> Optional[Set[str]]:
    """Declared SimStats counter names.

    A module that defines its own ``SimStats`` dataclass (fixtures, the
    stats module itself) is read statically; otherwise the live class is
    the source of truth.
    """
    for node in ctx.tree.body:
        if (
            isinstance(node, ast.ClassDef)
            and node.name == "SimStats"
            and is_dataclass_def(node)
        ):
            return set(dataclass_field_names(node))
    try:
        import dataclasses

        from repro.common.stats import SimStats
    except ImportError:  # pragma: no cover - only outside a repro checkout
        return None
    return {field.name for field in dataclasses.fields(SimStats)}


@register
class UnregisteredStatRule(Rule):
    rule_id = "RPL602"
    name = "unregistered-stat-counter"
    rationale = (
        "SimStats counters are plain attributes; mutating a name that is "
        "not a declared field creates a new attribute instead of "
        "counting, so the real counter silently stays 0"
    )

    def check(self, ctx: ModuleContext) -> Iterator:
        fields = _sim_stats_fields(ctx)
        if fields is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                counter = self._stats_counter(target)
                if counter is not None and counter not in fields:
                    yield self.finding(
                        ctx,
                        target,
                        f"'{counter}' is not a declared SimStats field; "
                        f"register the counter in repro.common.stats or "
                        f"fix the typo",
                    )

    @staticmethod
    def _stats_counter(target: ast.AST) -> Optional[str]:
        """``X`` when the target is ``<chain ending in .stats>.X``."""
        if not isinstance(target, ast.Attribute):
            return None
        receiver = target.value
        if terminal_name(receiver) == "stats":
            return target.attr
        return None


def _is_private(name: str) -> bool:
    return (
        name.startswith("_")
        and name.strip("_") != ""
        and not (name.startswith("__") and name.endswith("__"))
    )


@register
class UnreferencedPrivateRule(Rule):
    rule_id = "RPL603"
    name = "unreferenced-private-definition"
    rationale = (
        "a private function or method that its own module never names is "
        "dead code (or is reached from another module despite the "
        "underscore); delete it, or suppress with the module that uses it"
    )

    def check(self, ctx: ModuleContext) -> Iterator:
        used: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # getattr(obj, "_name") and friends
        for definition in self._definitions(ctx.tree.body):
            if definition.name not in used:
                yield self.finding(
                    ctx,
                    definition,
                    f"private '{definition.name}' is never referenced in its "
                    f"module; delete it if it is dead",
                )

    @classmethod
    def _definitions(cls, body: List[ast.stmt]) -> Iterator[ast.AST]:
        """Private functions of a module or class body, classes nested."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_private(node.name):
                    yield node
            elif isinstance(node, ast.ClassDef):
                yield from cls._definitions(node.body)
