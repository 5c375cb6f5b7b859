"""Syntax trees for the analyzed source subset.

The analyzer front end covers a small object-oriented subset: one class per
file with a package declaration and imports, static or instance methods,
if/else statements, returns, string literals, identifiers, ``+``
concatenation and method calls. No stage changes a tree once it is parsed.
Units and methods are frozen; expression and statement nodes are not, since
a frozen instance costs about twice as much to build and the parser builds
one per node. Nothing hashes a node; a method cannot be hashed, as its
parameters are a dict. The pretty printers below produce the canonical
source text used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass


# --- expressions ---

@dataclass(slots=True)
class StrLit:
    text: str


@dataclass(slots=True)
class Ident:
    name: str


@dataclass(slots=True)
class Concat:
    parts: tuple["Expr", ...]  # a whole "+" chain: two or more operands


@dataclass(slots=True)
class Call:
    # receiver is None for bare same-class calls; an Ident receiver may name
    # either a variable or a class (resolution decides later).
    receiver: "Expr | None"
    method: str
    args: tuple["Expr", ...]
    line: int = 0


Expr = StrLit | Ident | Concat | Call


# --- statements ---

@dataclass(slots=True)
class If:
    cond: "Expr"
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]


@dataclass(slots=True)
class Return:
    value: "Expr | None"


@dataclass(slots=True)
class ExprStmt:
    expr: "Expr"


Stmt = If | Return | ExprStmt


@dataclass(frozen=True, slots=True)
class MethodDecl:
    name: str
    params: dict[str, str]  # name to declared type, in declaration order
    body: tuple["Stmt", ...]
    return_type: str = "void"
    modifiers: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class SourceUnit:
    path: str
    package: str
    class_name: str
    imports: tuple[str, ...]
    methods: tuple[MethodDecl, ...]

    @property
    def fqn(self) -> str:
        return f"{self.package}.{self.class_name}"


# The one escape table of a string literal: the printer writes each of these
# characters as its escape, and the lexer reads each escape back, so a
# rendered literal lexes back to the same text ("'" needs no escape between
# double quotes).
ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r",
           "\b": "\\b", "\f": "\\f"}


def escape_string(text: str) -> str:
    return "".join(ESCAPES.get(ch, ch) for ch in text)


def expr_to_source(expr) -> str:
    """Render an expression as canonical single-line source text."""
    if isinstance(expr, StrLit):
        return f'"{escape_string(expr.text)}"'
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Concat):
        return " + ".join(map(_operand_source, expr.parts))
    if isinstance(expr, Call):
        # a receiver chain of any length in one loop, from its last link back
        links = []
        while isinstance(expr, Call):
            links.append(f"{expr.method}({', '.join(map(expr_to_source, expr.args))})")
            expr = expr.receiver
        if expr is not None:
            links.append(_operand_source(expr))
        return ".".join(reversed(links))
    raise TypeError(f"not an expression: {expr!r}")


def _operand_source(expr) -> str:
    """A ``+`` operand or a call receiver: a ``+`` chain keeps its parentheses."""
    return f"({expr_to_source(expr)})" if isinstance(expr, Concat) else expr_to_source(expr)


def _stmt_lines(stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Return):
        value = "" if stmt.value is None else " " + expr_to_source(stmt.value)
        return [f"{pad}return{value};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{expr_to_source(stmt.expr)};"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({expr_to_source(stmt.cond)}) {{"]
        for inner in stmt.then_body:
            lines.extend(_stmt_lines(inner, indent + 1))
        current = stmt
        # else-if chains render as "} else if (...) {" continuations
        while len(current.else_body) == 1 and isinstance(current.else_body[0], If):
            current = current.else_body[0]
            lines.append(f"{pad}}} else if ({expr_to_source(current.cond)}) {{")
            for inner in current.then_body:
                lines.extend(_stmt_lines(inner, indent + 1))
        if current.else_body:
            lines.append(f"{pad}}} else {{")
            for inner in current.else_body:
                lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"not a statement: {stmt!r}")


def method_to_source(decl: MethodDecl) -> str:
    """Render a method declaration as canonical source text (2-space indent)."""
    mods = " ".join(decl.modifiers)
    head = f"{mods} " if mods else ""
    params = ", ".join(f"{ptype} {pname}" for pname, ptype in decl.params.items())
    lines = [f"{head}{decl.return_type} {decl.name}({params}) {{"]
    for stmt in decl.body:
        lines.extend(_stmt_lines(stmt, 1))
    lines.append("}")
    return "\n".join(lines)
