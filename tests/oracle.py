"""Brute-force interpreter used as an independent oracle for path enumeration.

The interpreter executes a log call site under every branch assignment:
every if/else encountered forks the execution instead of evaluating its
condition, parameters and opaque calls produce fresh non-empty marker
strings, and resolved calls execute the callee body. The produced string
set is compared against the enumerated path templates in both directions
— it shares no code with the path enumerator beyond the parsed syntax
trees.

Preconditions: helpers used in string context return on every branch
(executions that fall off a method end are discarded), and expression
statements inside callees are skipped (the subset has no side effects).

``compile_body`` is the reference regex of a template, which the matcher's
constant scan is tested against, ``result_record`` is the reference
match-results record, which ``parse --out`` is tested against, and
``canonical`` is the reference segment walk that ``evaluation.canonical``
is tested against. ``parse_body`` is the reference split-then-normalise
construction that ``TemplateBody.parse`` is tested against, and
``compile_reference`` the reference sort, per-template plan and index build
that ``compile_repository`` is tested against. ``load_repository_reference``
is the reference load, ``json.loads`` and the record checks line by line,
that ``load_repository`` is tested against. ``templates_equal`` is the
strict template equality the evaluation tests state their cases with.
"""

from __future__ import annotations

import json
import re

from logsmith import evaluation
from logsmith.analyzer.syntax import Call, Concat, Ident, If, Return, StrLit
from logsmith.matcher import (
    CompiledEntry,
    CompiledRepository,
    ConstantIndex,
    DuplicateTemplate,
)
from logsmith.templates import WILD, WILDCARD_TOKEN, Template, TemplateBody, Wildcard


class _NeedDecision(Exception):
    pass


class _InvalidExecution(Exception):
    pass


class _Run:
    def __init__(self, decisions: tuple[bool, ...]):
        self.decisions = decisions
        self.used = 0
        self.counter = 0

    def choose(self) -> bool:
        if self.used < len(self.decisions):
            value = self.decisions[self.used]
            self.used += 1
            return value
        raise _NeedDecision()

    def marker(self) -> str:
        self.counter += 1
        return f"val{self.counter}"


def _first_method(unit, name: str, arity: int):
    """The first method ``unit`` declares with this name and argument count."""
    for decl in unit.methods:
        if decl.name == name and len(decl.params) == arity:
            return decl
    return None


class Interpreter:
    def __init__(self, units, max_call_depth: int = 8):
        # of two files declaring one class, the later is the one its name means
        self.units = {unit.fqn: unit for unit in units}
        self.max_call_depth = max_call_depth

    def _class_unit(self, unit, name: str):
        """The project file a class name means in ``unit``: the calling class,
        else an import of that simple name, else the same package; None when
        that class is not in the project."""
        if name == unit.class_name:
            fqn = unit.fqn
        else:
            fqn = next((imp for imp in unit.imports if imp.split(".")[-1] == name),
                       f"{unit.package}.{name}")
        return self.units.get(fqn)

    def _resolve(self, unit, call):
        """Own resolution logic: bare calls hit the calling file, class-name
        receivers the file that class name means."""
        if call.receiver is None:
            target = _first_method(unit, call.method, len(call.args))
            return (unit, target) if target is not None else None
        if not isinstance(call.receiver, Ident):
            return None
        candidate = self._class_unit(unit, call.receiver.name)
        if candidate is None:
            return None
        target = _first_method(candidate, call.method, len(call.args))
        return (candidate, target) if target is not None else None

    def _eval(self, expr, unit, run, stack):
        if isinstance(expr, StrLit):
            return expr.text
        if isinstance(expr, Ident):
            return run.marker()
        if isinstance(expr, Concat):
            return "".join([self._eval(part, unit, run, stack) for part in expr.parts])
        if isinstance(expr, Call):
            resolved = self._resolve(unit, expr)
            if resolved is None:
                return run.marker()
            target_unit, target = resolved
            key = (id(target_unit), id(target))
            if key in stack or len(stack) >= self.max_call_depth:
                return run.marker()
            outcome = self._eval_body(target.body, target_unit, run, stack + (key,))
            if outcome is None:
                raise _InvalidExecution()
            return outcome
        raise TypeError(f"cannot interpret {expr!r}")

    def _eval_body(self, stmts, unit, run, stack):
        """Execute statements; returns the returned string or None on fall-through."""
        for stmt in stmts:
            if isinstance(stmt, Return):
                if stmt.value is None:
                    return ""
                return self._eval(stmt.value, unit, run, stack)
            if isinstance(stmt, If):
                branch = stmt.then_body if run.choose() else stmt.else_body
                outcome = self._eval_body(branch, unit, run, stack)
                if outcome is not None:
                    return outcome
                continue
            # ExprStmt: no side effects in the subset, nothing to do
        return None

    def run_site(self, site, max_executions: int = 100_000) -> set[str]:
        """All strings the site can emit, one per branch assignment."""
        outputs: set[str] = set()
        pending: list[tuple[bool, ...]] = [()]
        executions = 0
        while pending:
            executions += 1
            if executions > max_executions:
                raise RuntimeError("oracle execution budget exceeded")
            prefix = pending.pop()
            run = _Run(prefix)
            try:
                outputs.add(self._emit(site, run))
            except _NeedDecision:
                pending.append(prefix + (False,))
                pending.append(prefix + (True,))
            except _InvalidExecution:
                pass
        return outputs

    def _emit(self, site, run) -> str:
        literal = site.literal_format
        if literal is not None:
            parts = literal.split("{}")
            return parts[0] + "".join(run.marker() + part for part in parts[1:])
        if not site.args:
            return ""
        return self._eval(site.args[0], site.unit, run, ())


def compile_body(body: TemplateBody, allow_empty_inner: bool = False) -> re.Pattern:
    """The reference regex of a template; the matcher's scan agrees with it."""
    last = len(body.segments) - 1
    parts = []
    for i, segment in enumerate(body.segments):
        if isinstance(segment, Wildcard):
            at_edge = i == 0 or i == last
            if at_edge or allow_empty_inner:
                parts.append("(.*?)")
            else:
                parts.append("(.+?)")
        else:
            parts.append(re.escape(segment))
    return re.compile("".join(parts))


def result_record(result) -> dict:
    """The reference record of a match result; ``json.dumps(record,
    ensure_ascii=False)`` of it is one line of ``parse --out``."""
    record = {"line": result.log_line, "matched": result.matched}
    if result.matched:
        record["template_id"] = result.template_id
        record["template"] = result.template
        record["captures"] = list(result.captures)
    elif result.cluster_id is not None:
        record["cluster_id"] = result.cluster_id
        record["cluster_template"] = result.cluster_template
    return record


def canonical(body: TemplateBody) -> TemplateBody:
    """The reference canonical form: drop each whitespace-only constant whose
    kept predecessor and whose successor are wildcards."""
    segments = body.segments
    out: list = []
    for i, segment in enumerate(segments):
        if (isinstance(segment, str) and segment.strip() == ""
                and out and isinstance(out[-1], Wildcard)
                and i + 1 < len(segments) and isinstance(segments[i + 1], Wildcard)):
            continue
        out.append(segment)
    return TemplateBody.from_segments(out)


def templates_equal(a: TemplateBody, b: TemplateBody) -> bool:
    """Strict equality: any mistake in static text or variable bounds counts."""
    return evaluation.canonical(a) == evaluation.canonical(b)


def parse_body(text: str, token: str = WILDCARD_TOKEN) -> TemplateBody:
    """The reference parse: a wildcard between each two pieces of the text
    split on ``token``, normalised by ``from_segments``."""
    raw: list = []
    for i, piece in enumerate(text.split(token)):
        if i > 0:
            raw.append(WILD)
        raw.append(piece)
    return TemplateBody.from_segments(raw)


def load_repository_reference(path) -> list[Template]:
    """The reference load: each stripped line through ``json.loads``, then the
    record checks with each key looked up where a check names it."""
    templates = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or not isinstance(record.get("template"), str):
                    raise ValueError("a record must be an object with a string template")
                methods = record.get("methods", [])
                if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
                    raise ValueError("methods must be a list of strings")
                templates.append(Template(
                    body=parse_body(record["template"]), level=record.get("level"),
                    methods=tuple(methods), source=record.get("source", "whitebox"),
                    match_count=record.get("match_count")))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
    return templates


def _render(body: TemplateBody) -> str:
    return "".join(WILDCARD_TOKEN if isinstance(s, Wildcard) else s for s in body.segments)


def _reference_entry(template_id: int, template: Template,
                     allow_empty_inner: bool) -> CompiledEntry:
    segments = list(template.body.segments)
    prefix = segments.pop(0) if segments and isinstance(segments[0], str) else ""
    suffix = segments.pop() if segments and isinstance(segments[-1], str) else ""
    inner_gap = 0 if allow_empty_inner else 1
    gaps = [inner_gap] * ((len(segments) + 1) // 2)
    if gaps:
        if not prefix:
            gaps[0] = 0
        if not suffix:
            gaps[-1] = 0
    inner = tuple(s for s in segments if isinstance(s, str))
    return CompiledEntry(template_id=template_id, template=template,
                         text=_render(template.body),
                         prefix=prefix, suffix=suffix, gaps=tuple(gaps),
                         inner=inner)


def _reference_index(entries, key) -> ConstantIndex:
    """Each key's group gathered afresh from the whole chain of its prefixes."""
    by_key: dict = {}
    for entry in entries:
        by_key.setdefault(key(entry), []).append(entry)
    keys = sorted(by_key)
    chain: list[int] = []
    groups, parents = [], []
    for position, constant in enumerate(keys):
        while chain and not constant.startswith(keys[chain[-1]]):
            chain.pop()
        parents.append(chain[-1] if chain else -1)
        chain.append(position)
        groups.append(tuple(sorted((e for k in chain for e in by_key[keys[k]]),
                                   key=lambda e: e.template_id)))
    return ConstantIndex(tuple(keys), tuple(groups), tuple(parents))


def compile_reference(templates: list[Template],
                      allow_empty_inner: bool = False) -> CompiledRepository:
    """The reference compile: the sort key recounted segment by segment, each
    plan cut from a copied segment list, each index group gathered from the
    whole prefix chain."""
    seen: set[TemplateBody] = set()
    for template in templates:
        if template.body in seen:
            raise DuplicateTemplate(template.body)
        seen.add(template.body)
    ordered = sorted(
        enumerate(templates),
        key=lambda pair: (-sum(len(s) for s in pair[1].body.segments if isinstance(s, str)),
                          sum(1 for s in pair[1].body.segments if isinstance(s, Wildcard)),
                          _render(pair[1].body),
                          pair[0]),
    )
    entries = tuple(_reference_entry(position, template, allow_empty_inner)
                    for position, (_, template) in enumerate(ordered))
    floating = tuple(e for e in entries if not e.prefix and not e.suffix)
    return CompiledRepository(
        entries=entries,
        leading=_reference_index((e for e in entries if e.prefix), lambda e: e.prefix),
        trailing=_reference_index((e for e in entries if not e.prefix and e.suffix),
                                  lambda e: e.suffix[::-1]),
        floating=floating,
        floating_ids=tuple(e.template_id for e in floating),
        needles=tuple(max(e.inner, key=len, default="") for e in floating))


def matches(body, text: str) -> bool:
    """Match a produced string against a template via the reference regex."""
    return compile_body(body).fullmatch(text) is not None


def check_agreement(units, site, enumeration) -> list[str]:
    """Compare interpreter strings and enumerated templates both ways.

    Returns a list of human-readable counterexamples; empty means the two
    independent constructions agree on this site.
    """
    interpreter = Interpreter(units)
    strings = interpreter.run_site(site)
    bodies = [path.yielded for path in enumeration.paths]
    problems = []
    for text in sorted(strings):
        if not any(matches(body, text) for body in bodies):
            problems.append(f"string {text!r} matches no enumerated template")
    for body in bodies:
        if not any(matches(body, text) for text in strings):
            problems.append(f"template {body.render()!r} produced by no execution")
    return problems
