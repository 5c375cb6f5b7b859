"""Locating logger invocations inside a parsed unit."""

from __future__ import annotations

from dataclasses import dataclass

from ..templates import LEVELS
from .syntax import Call, Concat, ExprStmt, Ident, If, MethodDecl, Return, SourceUnit, StrLit

LOGGER_NAMES = {"log", "logger"}


@dataclass(frozen=True, slots=True)
class LogCallSite:
    """One logger invocation: ``log.<level>(...)`` or ``logger.<level>(...)``."""

    unit: SourceUnit
    method: MethodDecl
    line: int
    level: str
    call: Call

    @property
    def args(self) -> tuple:
        return self.call.args

    @property
    def literal_format(self) -> str | None:
        """First argument's text when it is a string literal, else None."""
        if self.call.args and isinstance(self.call.args[0], StrLit):
            return self.call.args[0].text
        return None

    @property
    def method_fqn(self) -> str:
        return f"{self.unit.fqn}.{self.method.name}"


def is_logger_call(expr) -> bool:
    return (
        isinstance(expr, Call)
        and isinstance(expr.receiver, Ident)
        and expr.receiver.name.lower() in LOGGER_NAMES
        and expr.method.lower() in LEVELS
    )


def _walk_exprs(stmts):
    for stmt in stmts:
        if isinstance(stmt, ExprStmt):
            yield stmt.expr
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                yield stmt.value
        elif isinstance(stmt, If):
            yield stmt.cond
            yield from _walk_exprs(stmt.then_body)
            yield from _walk_exprs(stmt.else_body)


def _sub_exprs(expr):
    yield expr
    if isinstance(expr, Concat):
        for part in expr.parts:
            yield from _sub_exprs(part)
    elif isinstance(expr, Call):
        if expr.receiver is not None:
            yield from _sub_exprs(expr.receiver)
        for arg in expr.args:
            yield from _sub_exprs(arg)


def find_log_calls(unit: SourceUnit) -> list[LogCallSite]:
    """Return every logger invocation of a unit, ordered by line."""
    sites = []
    for method in unit.methods:
        for expr in _walk_exprs(method.body):
            for sub in _sub_exprs(expr):
                if is_logger_call(sub):
                    sites.append(LogCallSite(
                        unit=unit,
                        method=method,
                        line=sub.line,
                        level=sub.method.lower(),
                        call=sub,
                    ))
    sites.sort(key=lambda site: site.line)
    return sites
