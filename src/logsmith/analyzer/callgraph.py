"""Cross-file call resolution over a parsed project.

The call graph maps (class fqn, method name, arity) to the first method
the class declares with that key; of two files declaring one class, the later
file's method is kept. Call expressions whose receiver names an imported or
same-package class resolve through that map; a bare call resolves to the
first such method of the calling file itself. Anything else is left for the
built-in / unknown classification done during path enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .syntax import Call, Ident, MethodDecl, SourceUnit


@dataclass(frozen=True, slots=True)
class ResolvedTarget:
    unit: SourceUnit
    method: MethodDecl

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.unit.fqn, self.method.name, len(self.method.params))


@dataclass(slots=True)
class CallGraph:
    methods: dict[tuple[str, str, int], ResolvedTarget] = field(default_factory=dict)
    units_by_fqn: dict[str, SourceUnit] = field(default_factory=dict)
    # bare-call targets by (id of the unit, name, arity); a target keeps its unit alive
    own: dict[tuple[int, str, int], ResolvedTarget] = field(default_factory=dict)

    def resolve_class(self, unit: SourceUnit, name: str) -> str | None:
        """Resolve a simple class name as seen from ``unit``, or None."""
        if name == unit.class_name:
            return unit.fqn
        for imp in unit.imports:
            if imp.rsplit(".", 1)[-1] == name:
                return imp
        same_pkg = f"{unit.package}.{name}"
        if same_pkg in self.units_by_fqn:
            return same_pkg
        return None

    def resolve_call(self, unit: SourceUnit, call: Call) -> ResolvedTarget | None:
        """Resolve a call expression to a project method, or None.

        Bare calls look up the calling file; calls on a class-name
        receiver look up the named class. Calls on values (parameters,
        literals, other call results) never resolve here.
        """
        if call.receiver is None:
            return self.own.get((id(unit), call.method, len(call.args)))
        if isinstance(call.receiver, Ident):
            fqn = self.resolve_class(unit, call.receiver.name)
            if fqn is not None:
                return self.methods.get((fqn, call.method, len(call.args)))
        return None


def build_call_graph(units: Iterable[SourceUnit]) -> CallGraph:
    """Index all method declarations of a parsed project for resolution."""
    graph = CallGraph()
    for unit in units:
        graph.units_by_fqn[unit.fqn] = unit
        # reversed, so the first of two same-arity overloads is the one kept
        for method in reversed(unit.methods):
            target = ResolvedTarget(unit, method)
            graph.methods[target.key] = target
            graph.own[(id(unit), method.name, len(method.params))] = target
    return graph
