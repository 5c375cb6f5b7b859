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


def find_log_calls(unit: SourceUnit) -> list[LogCallSite]:
    """Return every logger invocation of a unit, ordered by line; calls on one
    line keep the order of a pre-order walk, receiver before arguments."""
    sites = []
    for method in unit.methods:
        # one walk over statements and expressions, with an explicit stack, so
        # a receiver chain of any length costs no recursion; children are
        # pushed last first, so they are visited in source order, and a
        # missing receiver or return value is pushed as None and passed over
        stack = list(reversed(method.body))
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Call:
                if is_logger_call(node):
                    sites.append(LogCallSite(unit=unit, method=method, line=node.line,
                                             level=node.method.lower(), call=node))
                stack.extend(reversed(node.args))
                stack.append(node.receiver)
            elif kind is Concat:
                stack.extend(reversed(node.parts))
            elif kind is ExprStmt:
                stack.append(node.expr)
            elif kind is Return:
                stack.append(node.value)
            elif kind is If:
                stack.extend(reversed(node.else_body))
                stack.extend(reversed(node.then_body))
                stack.append(node.cond)
    sites.sort(key=lambda site: site.line)
    return sites
