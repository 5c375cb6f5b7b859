"""The analyzer's parser before its one-scan lexer and flatter parser.

Kept unchanged, apart from this docstring, importing
:class:`SourceSyntaxError` rather than defining it, ``parse_expr``
building a ``+`` chain as one n-ary :class:`Concat` at one nesting level,
and ``parse_postfix`` counting no nesting level per ``.`` call link, as the
reference that ``test_parser.py`` compares ``parse_source`` and
``parse_sources`` against: the same units, or the same error text, for
every input. Its lexer walks
``finditer`` matches and stops at the first text that starts no token; its
parser has one method per grammar rule.
"""

from __future__ import annotations

import re
from sys import intern

from logsmith.analyzer import SourceSyntaxError

from logsmith.analyzer.syntax import (
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


_KEYWORDS = {
    "package", "import", "class", "if", "else", "return",
    "public", "private", "protected", "static", "final",
}
_MODIFIERS = {"public", "private", "protected", "static", "final"}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}

# Deepest nesting the parser accepts: parentheses, call arguments, and if
# and else-if levels. A "+" chain of any length is one level: it is one
# Concat node. A "." call chain of any length is one level too: it builds a
# left-nested tree, but the stages that walk receivers loop over its links.
# Every later stage recurses over the rest of these trees, and a chain of
# helpers each nested this deep still fits Python's default recursion limit
# when paths are traced through all of them.
MAX_NESTING = 64

_PUNCT = "{}();,.+"
_STRING_BODY = r'[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'
# One match per lexeme, with the blanks before it as a prefix: a newline, a
# comment, a string literal, a word, a punctuation mark, or any other single
# character, which _tokenize rejects unless it is a blank the prefix gave back
# at the end of the text. "\w" is exactly str.isalnum() or "_"; the first
# character of a word is checked against str.isalpha() separately, as no
# regex class matches it.
_LEXEME = re.compile(
    r'[ \t\r]*(\n|//[^\n]*|/\*.*?\*/'
    rf'|"{_STRING_BODY}"'
    rf'|\w+|[{re.escape(_PUNCT)}]|.)',
    re.DOTALL)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    append = tokens.append
    line = 1
    for match in _LEXEME.finditer(text):
        lexeme = match[1]
        first = lexeme[0]
        if first == "\n":
            line += 1
        elif first in _PUNCT:
            append((lexeme, lexeme, line))
        elif first.isalpha() or first == "_":
            # one string object per distinct word of the project, however
            # many files and nodes name it
            word = intern(lexeme)
            append((word if word in _KEYWORDS else "ident", word, line))
        elif first == '"' and len(lexeme) > 1:
            value = lexeme[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(("string", value, line))
        elif first == "/" and len(lexeme) > 1:
            line += lexeme.count("\n")
        elif first not in " \t\r":
            raise _lex_error(text, match.start(1), line)
    append(("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    def error(self, message: str) -> SourceSyntaxError:
        return SourceSyntaxError(self.tokens[self.pos][2], message)

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        """The current token, which must be of ``kind`` (never "eof"); moves past it."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise SourceSyntaxError(
                token[2], f"expected {what or repr(kind)}, found {token[1]!r}")
        self.pos += 1
        return token

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
            self.pos += 1
            imports.append(self.parse_dotted())
            self.expect(";")

        self.parse_modifiers()
        self.expect("class")
        class_name = self.expect("ident", "class name")[1]
        self.expect("{")
        methods = []
        while not self.at("}"):
            methods.append(self.parse_method())
        self.expect("}")
        return SourceUnit(
            path=self.path,
            package=package,
            class_name=class_name,
            imports=tuple(imports),
            methods=tuple(methods),
        )

    def parse_dotted(self) -> str:
        parts = [self.expect("ident", "name")[1]]
        while self.at("."):
            self.pos += 1
            parts.append(self.expect("ident", "name")[1])
        return ".".join(parts)

    def parse_modifiers(self) -> tuple[str, ...]:
        mods = []
        while self.tokens[self.pos][0] in _MODIFIERS:
            mods.append(self.tokens[self.pos][1])
            self.pos += 1
        return tuple(mods)

    def parse_method(self) -> MethodDecl:
        mods = self.parse_modifiers()
        return_type = self.parse_type()
        name = self.expect("ident", "method name")[1]
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect("ident", "parameter name")[1]
                if any(existing == pname for existing, _ in params):
                    raise self.error(f"duplicate parameter name {pname!r}")
                params.append((pname, ptype))
                if self.at(","):
                    self.pos += 1
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return MethodDecl(
            name=name,
            params=tuple(params),
            body=body,
            return_type=return_type,
            modifiers=mods,
        )

    def parse_type(self) -> str:
        # "void" lexes as an identifier; any single identifier is a type name
        return self.expect("ident", "type name")[1]

    def parse_block(self) -> tuple:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_stmt(self):
        kind, value, _ = self.tokens[self.pos]
        if kind == "if":
            return self.parse_if()
        if kind == "return":
            self.pos += 1
            if self.tokens[self.pos][0] == ";":
                self.pos += 1
                return Return(None)
            result = self.parse_expr()
            self.expect(";")
            return Return(result)
        if kind in _KEYWORDS:
            raise self.error(f"unsupported statement {value!r}")
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr)

    def parse_if(self) -> If:
        outer = self.depth
        self.nest()
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_branch_body()
        else_body: tuple = ()
        if self.at("else"):
            self.pos += 1
            if self.at("if"):
                else_body = (self.parse_if(),)
            else:
                else_body = self.parse_branch_body()
        self.depth = outer
        return If(cond, then_body, else_body)

    def parse_branch_body(self) -> tuple:
        if self.at("{"):
            return self.parse_block()
        return (self.parse_stmt(),)

    def parse_expr(self):
        outer = self.depth
        self.nest()
        parts = [self.parse_postfix()]
        tokens = self.tokens
        while tokens[self.pos][0] == "+":
            self.pos += 1
            parts.append(self.parse_postfix())
        self.depth = outer
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix(self):
        expr = self.parse_primary()
        tokens = self.tokens
        while tokens[self.pos][0] == ".":
            self.pos += 1
            _, name, line = self.expect("ident", "method name")
            self.expect("(")
            expr = Call(expr, name, self.parse_args(), line=line)
        return expr

    def parse_primary(self):
        tokens = self.tokens
        kind, value, line = tokens[self.pos]
        if kind == "string":
            self.pos += 1
            return StrLit(value)
        if kind == "ident":
            self.pos += 1
            if tokens[self.pos][0] == "(":
                self.pos += 1
                return Call(None, value, self.parse_args(), line=line)
            return Ident(value)
        if kind == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error(f"expected expression, found {value!r}")

    def parse_args(self) -> tuple:
        # caller consumed "("
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.pos += 1
                    continue
                break
        self.expect(")")
        return tuple(args)


def parse_source(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse one unit's source text; :class:`SourceSyntaxError` when it falls
    outside the subset grammar."""
    parser = _Parser(_tokenize(text), path)
    unit = parser.parse_unit()
    if not parser.at("eof"):
        raise parser.error("trailing content after class body")
    return unit


def parse_sources(text: str, path: str = "<memory>") -> list[SourceUnit]:
    """Parse one or more units written one after another, such as source files
    joined end to end; :class:`SourceSyntaxError` also for no unit at all."""
    parser = _Parser(_tokenize(text), path)
    units = [parser.parse_unit()]
    while not parser.at("eof"):
        units.append(parser.parse_unit())
    return units
