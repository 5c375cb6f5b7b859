"""Inter-procedural enumeration of string-construction paths.

For each logging call site the tracer follows the first argument through
concatenations and resolved helper methods, splitting on every if/else it
meets, and yields one call path per branch combination. String literals
become constant segments; identifiers, built-in methods and unresolved
calls become wildcard slots. ``{}`` placeholders in a literal format string
each become a wildcard as well.

Call cycles collapse to a wildcard and are flagged; enumeration stops at
the configured depth and path budget, and after a fixed number of calls
traced per site, setting the truncation flag rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..templates import WILD, TemplateBody
from .callgraph import CallGraph, build_call_graph
from .logcalls import LogCallSite, find_log_calls
from .syntax import (
    Call,
    Concat,
    If,
    Ident,
    MethodDecl,
    Return,
    SourceUnit,
    StrLit,
    expr_to_source,
    method_to_source,
)

# String operations recognized as opaque built-ins: the call is terminated
# with a wildcard instead of being traced.
DEFAULT_BUILTIN_METHODS = (
    "toUpperCase", "toLowerCase", "trim", "strip", "substring", "replace",
    "valueOf", "toString", "format", "concat", "join", "getMessage", "name",
)

_JAVA_LANG_TYPES = {
    "String", "Object", "Integer", "Long", "Double", "Float", "Boolean",
    "Character", "Short", "Byte", "StringBuilder", "StringBuffer",
}

KIND_LOG = "log-invocation"
KIND_USER = "user-method"
KIND_BUILTIN = "built-in"
KIND_UNKNOWN = "unknown"

# A helper level whose return is nested to the parser's bound costs about 64
# frames, so 16 levels hit the recursion limit; 12 leaves the caller room.
MAX_CALL_DEPTH = 12

# Calls traced per site, over all its paths: past this many, a call is a
# wildcard with no step. Without it, helpers that each call the next one k
# times cost about k ** depth steps; no generated corpus traces more than 56.
MAX_CALLS_PER_SITE = 1024


@dataclass(frozen=True, slots=True)
class PathBudget:
    max_call_depth: int = 8
    max_paths_per_site: int = 64

    def __post_init__(self):
        if self.max_call_depth < 1 or self.max_paths_per_site < 1:
            raise ValueError("path budget values must be positive")
        if self.max_call_depth > MAX_CALL_DEPTH:
            raise ValueError(f"max_call_depth must be at most {MAX_CALL_DEPTH}")


@dataclass(frozen=True, slots=True)
class PathStep:
    class_fqn: str
    call_code: str
    callee_kind: str
    callee_source: str | None = None
    # the file a user-method step entered, or the file a class-name receiver
    # means when the call does not resolve there; not rendered
    path: str | None = None


@dataclass(frozen=True, slots=True)
class CallPath:
    steps: tuple[PathStep, ...]
    yielded: TemplateBody


@dataclass(slots=True)
class PathEnumeration:
    """All feasible paths of one call site, plus analysis flags."""

    site: LogCallSite
    paths: list[CallPath]
    truncated: bool = False
    # each detected call cycle, as the chain of method names that closed it
    cycles: tuple[tuple[str, ...], ...] = ()
    involves_conditional: bool = False
    involves_external_call: bool = False
    placeholder_mismatch: bool = False


# An alternative is (segments, steps) for one branch combination.
_Alt = tuple[tuple, tuple]


def _returns(stmt) -> bool:
    """Whether ``stmt`` is or holds a return statement."""
    if isinstance(stmt, If):
        return any(map(_returns, stmt.then_body + stmt.else_body))
    return isinstance(stmt, Return)


def _return_branches(stmts: tuple) -> Iterator[tuple]:
    """Yield (return expression, reached through a conditional) per branch.

    Only an ``if`` with a return in one of its branches forks; any other
    ``if`` still marks the statements after it as conditional.
    """
    pending = [(stmts, False)]
    while pending:
        stmts, saw_if = pending.pop()
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, Return):
                yield (stmt.value, saw_if)
                break
            if isinstance(stmt, If):
                if _returns(stmt):
                    rest = stmts[i + 1:]
                    pending.append((stmt.else_body + rest, True))
                    pending.append((stmt.then_body + rest, True))
                    break
                saw_if = True
            # other statements do not affect the returned value
        # a branch without a return contributes nothing


class _Tracer:
    """Traces expressions of one call site; collects the analysis flags."""

    def __init__(self, graph: CallGraph, budget: PathBudget, builtins: frozenset,
                 with_steps: bool):
        self.graph = graph
        self.budget = budget
        self.builtins = builtins
        self.with_steps = with_steps
        self.truncated = False
        self.calls = 0
        self.conditional = False
        self.external = False
        self.cycles: list[tuple[str, ...]] = []
        # callee source by the id of its method, which the graph keeps alive: a
        # helper reached on several branch combinations is rendered once
        self.sources: dict[int, str] = {}

    def expr(self, expr, unit: SourceUnit, method: MethodDecl,
             stack: tuple) -> Iterator[_Alt]:
        """Alternatives of ``expr``; ``stack`` holds the targets of the helpers entered."""
        if isinstance(expr, StrLit):
            yield ((expr.text,) if expr.text else (), ())
        elif isinstance(expr, Ident):
            yield ((WILD,), ())
        elif isinstance(expr, Concat):
            # nested loops over the parts, in one frame: a later part is traced
            # again per combination of those before it, held in segs and steps
            parts, segs, steps = expr.parts, [], []
            walks = [(self.expr(parts[0], unit, method, stack), 0, 0)]
            while walks:
                walk, nsegs, nsteps = walks[-1]
                alt = next(walk, None)
                if alt is None:
                    walks.pop()
                elif len(walks) == len(parts):
                    yield (tuple(segs) + alt[0], tuple(steps) + alt[1])
                else:
                    segs[nsegs:], steps[nsteps:] = alt
                    walks.append((self.expr(parts[len(walks)], unit, method, stack),
                                  len(segs), len(steps)))
        elif isinstance(expr, Call):
            yield from self.call(expr, unit, method, stack)
        else:
            raise TypeError(f"cannot trace {expr!r}")

    def unresolved_step(self, call: Call, unit: SourceUnit, method: MethodDecl) -> PathStep:
        """The step of a built-in or unresolved call.

        Its class is the class a class-name receiver means; else a parameter
        receiver's declared type, resolved, or in ``java.lang`` for a core
        type; else a capitalised receiver's raw name; else ``java.lang.String``
        (``unit``'s class for a bare call). A class-name receiver that means a
        project file records that file, so the prompt shows that the method
        is not declared there.
        """
        graph, recv = self.graph, call.receiver
        class_fqn = unit.fqn if recv is None else "java.lang.String"
        path = None
        if isinstance(recv, Ident):
            named = graph.resolve_class(unit, recv.name)
            ptype = method.params.get(recv.name)
            if named is not None:
                named_unit = graph.units_by_fqn.get(named)
                class_fqn, path = named, named_unit.path if named_unit else None
            elif ptype is not None:
                class_fqn = (graph.resolve_class(unit, ptype)
                             or (f"java.lang.{ptype}" if ptype in _JAVA_LANG_TYPES else ptype))
            elif recv.name[:1].isupper():
                class_fqn = recv.name
        kind = KIND_BUILTIN if call.method in self.builtins else KIND_UNKNOWN
        return PathStep(class_fqn, expr_to_source(call), kind, path=path)

    def call(self, call: Call, unit: SourceUnit, method: MethodDecl,
             stack: tuple) -> Iterator[_Alt]:
        self.external = True
        self.calls += 1
        if self.calls > MAX_CALLS_PER_SITE:
            self.truncated = True
            yield ((WILD,), ())
            return
        target = self.graph.resolve_call(unit, call)
        if target is None:
            yield ((WILD,), (self.unresolved_step(call, unit, method),)
                   if self.with_steps else ())
            return

        step = ()
        if self.with_steps:
            source = self.sources.get(id(target.method))
            if source is None:
                source = self.sources[id(target.method)] = method_to_source(target.method)
            step = (PathStep(
                class_fqn=target.unit.fqn,
                call_code=expr_to_source(call),
                callee_kind=KIND_USER,
                callee_source=source,
                path=target.unit.path,
            ),)
        if target in stack:
            chain = stack[stack.index(target):] + (target,)
            cycle = tuple(f"{t.unit.fqn}.{t.method.name}" for t in chain)
            if cycle not in self.cycles:
                self.cycles.append(cycle)
            yield ((WILD,), ())
            return
        if len(stack) >= self.budget.max_call_depth:
            self.truncated = True
            yield ((WILD,), step)
            return

        produced = False
        for ret_expr, through_if in _return_branches(target.method.body):
            if through_if:
                self.conditional = True
            produced = True
            if ret_expr is None:
                yield ((), step)
                continue
            for segs, steps in self.expr(ret_expr, target.unit, target.method,
                                         stack + (target,)):
                yield (segs, step + steps)
        if not produced:
            # callee never returns a value; its contribution is opaque
            yield ((WILD,), step)


def enumerate_paths(site: LogCallSite, graph: CallGraph,
                    budget: PathBudget = PathBudget(),
                    builtin_methods=DEFAULT_BUILTIN_METHODS, *,
                    with_steps: bool = True) -> PathEnumeration:
    """Enumerate every feasible string-construction path of one call site.

    Each path pairs the step chain (logging invocation first, then every
    method call followed on that branch combination) with the template body
    the branch produces. Paths beyond ``budget.max_paths_per_site``, calls
    deeper than ``budget.max_call_depth`` and calls past the site's
    ``MAX_CALLS_PER_SITE`` set the truncation flag;
    call cycles collapse to a wildcard and record the offending chain.
    ``with_steps=False`` leaves every path's steps empty, for a caller that
    reads only the template bodies and flags: no call code or callee source
    is rendered.
    """
    tracer = _Tracer(graph, budget, frozenset(builtin_methods), with_steps)

    log_step = ()
    if with_steps:
        log_step = (PathStep(
            class_fqn=site.unit.fqn,
            call_code=expr_to_source(site.call),
            callee_kind=KIND_LOG,
        ),)

    literal = site.literal_format
    mismatch = False
    if literal is not None:
        placeholders = literal.count("{}")
        if placeholders > 0 and placeholders != len(site.args) - 1:
            mismatch = True
        alts: Iterator[_Alt] = iter([(TemplateBody.parse(literal, "{}").segments, ())])
    elif not site.args:
        alts = iter([((), ())])
    else:
        alts = tracer.expr(site.args[0], site.unit, site.method, ())

    paths: list[CallPath] = []
    for segments, steps in alts:
        if len(paths) >= budget.max_paths_per_site:
            tracer.truncated = True
            break
        paths.append(CallPath(
            steps=log_step + steps,
            yielded=TemplateBody.from_segments(segments),
        ))

    return PathEnumeration(
        site=site,
        paths=paths,
        truncated=tracer.truncated,
        cycles=tuple(tracer.cycles),
        involves_conditional=tracer.conditional,
        involves_external_call=tracer.external,
        placeholder_mismatch=mismatch,
    )


def analyze_project(units: list[SourceUnit], budget: PathBudget = PathBudget(),
                    builtin_methods=DEFAULT_BUILTIN_METHODS) -> Iterator[list[PathEnumeration]]:
    """Per unit, in input order, the enumeration of each log call in line order,
    computed only when that unit is reached; one call graph over all ``units``
    resolves every helper call."""
    graph = build_call_graph(units)
    for unit in units:
        yield [enumerate_paths(site, graph, budget, builtin_methods)
               for site in find_log_calls(unit)]
