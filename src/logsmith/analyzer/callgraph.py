"""Cross-file call resolution over a parsed project.

The call graph holds one method index: (unit, method name, arity) to the
first method that unit declares with that name and arity. A bare call
looks up the calling file itself. A call whose receiver names the calling,
an imported or a same-package class looks up the one file that class name
means: of two files declaring one class, the later in input order. A method
that only an earlier file declares is not found there. Anything else is
left for the built-in / unknown classification done during path enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .syntax import Call, Ident, MethodDecl, SourceUnit


# compared by identity: two files declaring one class have distinct targets
@dataclass(frozen=True, slots=True, eq=False)
class ResolvedTarget:
    unit: SourceUnit
    method: MethodDecl


@dataclass(slots=True)
class CallGraph:
    # the later file of each class fqn: the one file a class name means
    units_by_fqn: dict[str, SourceUnit] = field(default_factory=dict)
    # targets by (id of the unit, name, arity); a target keeps its unit alive
    methods: dict[tuple[int, str, int], ResolvedTarget] = field(default_factory=dict)
    # each unit's first import of a simple name, by (id of the unit, name)
    imports: dict[tuple[int, str], str] = field(default_factory=dict)

    def resolve_class(self, unit: SourceUnit, name: str) -> str | None:
        """Resolve a simple class name as seen from ``unit``, or None."""
        if name == unit.class_name:
            return unit.fqn
        imported = self.imports.get((id(unit), name))
        if imported is not None:
            return imported
        same_pkg = f"{unit.package}.{name}"
        if same_pkg in self.units_by_fqn:
            return same_pkg
        return None

    def resolve_call(self, unit: SourceUnit, call: Call) -> ResolvedTarget | None:
        """Resolve a call expression to a project method, or None.

        Bare calls look up the calling file; calls on a class-name
        receiver look up the file that class name means. Calls on values
        (parameters, literals, other call results) never resolve here.
        """
        if isinstance(call.receiver, Ident):
            unit = self.units_by_fqn.get(self.resolve_class(unit, call.receiver.name))
            if unit is None:
                return None
        elif call.receiver is not None:
            return None
        return self.methods.get((id(unit), call.method, len(call.args)))


def build_call_graph(units: Iterable[SourceUnit]) -> CallGraph:
    """Index all method declarations of a parsed project for resolution."""
    graph = CallGraph()
    for unit in units:
        graph.units_by_fqn[unit.fqn] = unit
        for imp in reversed(unit.imports):
            graph.imports[(id(unit), imp.rsplit(".", 1)[-1])] = imp
        # reversed, so the first of two same-arity overloads is the one kept
        for method in reversed(unit.methods):
            graph.methods[(id(unit), method.name, len(method.params))] = ResolvedTarget(unit, method)
    return graph
