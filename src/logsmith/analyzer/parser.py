"""Recursive-descent parser for the analyzed source subset.

Accepts one class per file: package declaration, imports, modifiers,
methods with typed parameters, if/else, return, expression statements,
string literals, identifiers, ``+`` concatenation and method calls.
Line and block comments are skipped. Anything outside the subset, and
nesting deeper than ``MAX_NESTING``, raises :class:`SourceSyntaxError` with
the offending line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (
    Call,
    Concat,
    ExprStmt,
    Ident,
    If,
    MethodDecl,
    Return,
    SourceUnit,
    StrLit,
)


class SourceSyntaxError(Exception):
    """Source text outside the supported subset."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_KEYWORDS = {
    "package", "import", "class", "if", "else", "return",
    "public", "private", "protected", "static", "final",
}
_MODIFIERS = {"public", "private", "protected", "static", "final"}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}

# Deepest nesting the parser accepts: parentheses, call arguments, if and
# else-if levels, and one level per "+" operand or "." call link, since those
# build left-nested trees. Every later stage recurses over these trees, and a
# chain of helpers each nested this deep still fits Python's default
# recursion limit when paths are traced through all of them.
MAX_NESTING = 64

_STRING_BODY = r'[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'
# "\w" is exactly str.isalnum() or "_"; the first character of a word is
# checked against str.isalpha() separately, as no regex class matches it.
_LEXEME = re.compile(
    r'(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)'
    rf'|"(?P<string>{_STRING_BODY})"'
    r'|(?P<word>\w+)'
    r'|(?P<punct>[{}();,.+])'
    r'|(?P<bad>.)',
    re.DOTALL)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


class _Token(NamedTuple):
    kind: str  # "ident", "string", "eof", or the keyword or punctuation itself
    value: str
    line: int


def _unescape(match: re.Match) -> str:
    return _STRING_ESCAPES.get(match[1], match[1])


def _lex_error(text: str, pos: int, line: int) -> SourceSyntaxError:
    """The error for text at ``pos`` that starts no token."""
    if text.startswith("/*", pos):
        return SourceSyntaxError(line, "unterminated block comment")
    if text[pos] == '"':
        end = _STRING_PREFIX.match(text, pos + 1).end()
        if end == len(text):
            return SourceSyntaxError(line, "unterminated string literal")
        if text[end] == "\\" and end + 1 == len(text):
            return SourceSyntaxError(line, "dangling escape in string literal")
        return SourceSyntaxError(line, "newline in string literal")
    return SourceSyntaxError(line, f"unexpected character {text[pos]!r}")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        if kind == "skip":
            line += value.count("\n")
        elif kind == "word" and (value[0].isalpha() or value[0] == "_"):
            tokens.append(_Token(value if value in _KEYWORDS else "ident", value, line))
        elif kind == "punct":
            tokens.append(_Token(value, value, line))
        elif kind == "string":
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            tokens.append(_Token("string", value, line))
        else:
            raise _lex_error(text, match.start(), line)
    tokens.append(_Token("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> SourceSyntaxError:
        return SourceSyntaxError(self.peek().line, message)

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def expect(self, kind: str, what: str | None = None) -> _Token:
        if not self.at(kind):
            found = self.peek().value
            raise self.error(f"expected {what or repr(kind)}, found {found!r}")
        return self.advance()

    def nest(self):
        """Enter one more nesting level; the caller restores ``depth`` on leaving."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("source nested too deep")

    # --- grammar ---

    def parse_unit(self) -> SourceUnit:
        self.expect("package")
        package = self.parse_dotted()
        self.expect(";")

        imports = []
        while self.at("import"):
            self.advance()
            imports.append(self.parse_dotted())
            self.expect(";")

        self.parse_modifiers()
        self.expect("class")
        class_name = self.expect("ident", "class name").value
        self.expect("{")
        methods = []
        while not self.at("}"):
            methods.append(self.parse_method())
        self.expect("}")
        if not self.at("eof"):
            raise self.error("trailing content after class body")
        return SourceUnit(
            path=self.path,
            package=package,
            class_name=class_name,
            imports=tuple(imports),
            methods=tuple(methods),
        )

    def parse_dotted(self) -> str:
        parts = [self.expect("ident", "name").value]
        while self.at("."):
            self.advance()
            parts.append(self.expect("ident", "name").value)
        return ".".join(parts)

    def parse_modifiers(self) -> tuple[str, ...]:
        mods = []
        while self.peek().kind in _MODIFIERS:
            mods.append(self.advance().value)
        return tuple(mods)

    def parse_method(self) -> MethodDecl:
        start = self.peek().line
        mods = self.parse_modifiers()
        return_type = self.parse_type()
        name = self.expect("ident", "method name").value
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect("ident", "parameter name").value
                if any(existing == pname for existing, _ in params):
                    raise self.error(f"duplicate parameter name {pname!r}")
                params.append((pname, ptype))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return MethodDecl(
            name=name,
            params=tuple(params),
            is_static="static" in mods,
            body=body,
            return_type=return_type,
            modifiers=mods,
            line=start,
        )

    def parse_type(self) -> str:
        # "void" lexes as an identifier; any single identifier is a type name
        return self.expect("ident", "type name").value

    def parse_block(self) -> tuple:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "return":
            self.advance()
            if self.at(";"):
                self.advance()
                return Return(None, line=tok.line)
            value = self.parse_expr()
            self.expect(";")
            return Return(value, line=tok.line)
        if tok.kind in _KEYWORDS:
            raise self.error(f"unsupported statement {tok.value!r}")
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr, line=tok.line)

    def parse_if(self) -> If:
        outer = self.depth
        self.nest()
        start = self.expect("if").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_branch_body()
        else_body: tuple = ()
        if self.at("else"):
            self.advance()
            if self.at("if"):
                else_body = (self.parse_if(),)
            else:
                else_body = self.parse_branch_body()
        self.depth = outer
        return If(cond, then_body, else_body, line=start)

    def parse_branch_body(self) -> tuple:
        if self.at("{"):
            return self.parse_block()
        return (self.parse_stmt(),)

    def parse_expr(self):
        outer = self.depth
        self.nest()
        expr = self.parse_postfix()
        while self.at("+"):
            plus = self.advance()
            self.nest()
            right = self.parse_postfix()
            expr = Concat(expr, right, line=plus.line)
        self.depth = outer
        return expr

    def parse_postfix(self):
        outer = self.depth
        expr = self.parse_primary()
        while self.at("."):
            self.advance()
            self.nest()
            name = self.expect("ident", "method name")
            self.expect("(")
            args = self.parse_args()
            expr = Call(expr, name.value, args, line=name.line)
        self.depth = outer
        return expr

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return StrLit(tok.value, line=tok.line)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = self.parse_args()
                return Call(None, tok.value, args, line=tok.line)
            return Ident(tok.value, line=tok.line)
        if tok.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error(f"expected expression, found {tok.value!r}")

    def parse_args(self) -> tuple:
        # caller consumed "("
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        return tuple(args)


def parse_source(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse subset source text into a :class:`SourceUnit`.

    Raises:
        SourceSyntaxError: when the text falls outside the subset grammar.
    """
    return _Parser(_tokenize(text), path).parse_unit()
