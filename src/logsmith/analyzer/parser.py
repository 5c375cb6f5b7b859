"""Recursive-descent parser for the analyzed source subset.

Accepts one class per file: package declaration, imports, modifiers,
methods with typed parameters, if/else, return, expression statements,
string literals, identifiers, ``+`` concatenation and method calls.
Line and block comments are skipped. Anything outside the subset, and
nesting deeper than ``MAX_NESTING``, raises :class:`SourceSyntaxError` with
the offending line; a ``+`` chain or a ``.`` call chain of any length is one
level.

Each token is a plain ``(kind, value, line)`` tuple. ``kind`` is "ident",
"string", "eof", or the keyword or punctuation mark itself; ``value`` is the
text, with a string literal's escapes resolved. The lexer splits the whole
text into lexemes with one ``findall`` call and then walks the plain strings,
rejecting at the first lexeme that starts no token. That scan is linear on
any input because every alternative that scans ahead consumes what it
scanned, terminated or not: an unterminated ``/*`` takes the rest of the
text, and a string literal's closing quote is optional, so its body is never
scanned twice. The walk rejects those unterminated lexemes.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from sys import intern

from .syntax import (
    ESCAPES,
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


_MODIFIERS = {"public", "private", "protected", "static", "final"}
_KEYWORDS = {"package", "import", "class", "if", "else", "return"} | _MODIFIERS

# The printer's escapes read backwards; any other escaped character, such as
# "'", reads as itself.
_STRING_ESCAPES = {escape[1]: char for char, escape in ESCAPES.items()}

# Deepest nesting the parser accepts: parentheses, call arguments, and if
# and else-if levels, one level each; a "+" chain or a "." call chain of any
# length is one level, and the stages that walk a receiver chain loop over
# its links. Every later stage recurses over the rest of the tree, and a
# chain of helpers each nested this deep still fits Python's default
# recursion limit when paths are traced through all of them.
MAX_NESTING = 64

_PUNCT = "{}();,.+"
_PUNCT_MARKS = frozenset(_PUNCT)
_STRING_BODY = r'[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'
# One match per lexeme, with the blanks before it as a prefix: a newline, a
# comment, a string literal, a word, a punctuation mark, or any other single
# character, which _tokenize rejects unless it is a blank the prefix gave back
# at the end of the text. A block comment without its "*/" and a string
# literal without its closing quote are lexemes too, which _tokenize rejects.
# "\w" is exactly str.isalnum() or "_"; the first character of a word is
# checked against str.isalpha() separately, as no regex class matches it.
_LEXEME = re.compile(
    r'[ \t\r]*(\n|//[^\n]*|/\*(?:.*?\*/|.*)'
    rf'|"{_STRING_BODY}"?'
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
    lexemes = _LEXEME.findall(text)
    walk = iter(lexemes)
    for lexeme in walk:
        if lexeme in _PUNCT_MARKS:
            append((lexeme, lexeme, line))
            continue
        if lexeme == "\n":
            line += 1
            continue
        first = lexeme[0]
        if first.isalpha() or first == "_":
            # one string object per distinct word of the project, however
            # many files and nodes name it
            word = intern(lexeme)
            append((word if word in _KEYWORDS else "ident", word, line))
        elif first == '"':
            if len(lexeme) == 1 or lexeme[-1] != '"':
                break
            value = lexeme[1:-1]
            if "\\" in value:
                # the last quote is escaped, so the literal is unterminated,
                # when an odd run of backslashes precedes it
                if (len(value) - len(value.rstrip("\\"))) % 2:
                    break
                value = _ESCAPE.sub(_unescape, value)
            append(("string", value, line))
        elif first == "/" and len(lexeme) > 1:
            if lexeme[1] == "*" and (len(lexeme) < 4 or not lexeme.endswith("*/")):
                break
            line += lexeme.count("\n")
        elif first not in " \t\r":
            break
    else:
        append(("eof", "", line))
        return tokens
    # A second, error-only pass finds where the rejected lexeme starts: the
    # walk has length_hint(walk) lexemes left after it.
    index = len(lexemes) - length_hint(walk) - 1
    raise _lex_error(text, next(islice(_LEXEME.finditer(text), index, None)).start(1), line)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    def error(self, message: str) -> SourceSyntaxError:
        return SourceSyntaxError(self.tokens[self.pos][2], message)

    def expected(self, what: str) -> SourceSyntaxError:
        """The error for a current token that is not ``what``."""
        return self.error(f"expected {what}, found {self.tokens[self.pos][1]!r}")

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        """The current token, which must be of ``kind`` (never "eof"); moves past it."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.expected(what or repr(kind))
        self.pos += 1
        return token

    # --- grammar ---
    # The methods called per statement and per expression test token kinds
    # inline, not through at and expect, which saves a method call per token
    # on the parser's hottest paths.

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
        params: dict[str, str] = {}
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect("ident", "parameter name")[1]
                if pname in params:
                    raise self.error(f"duplicate parameter name {pname!r}")
                params[pname] = ptype
                if self.at(","):
                    self.pos += 1
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return MethodDecl(
            name=name,
            params=params,
            body=body,
            return_type=return_type,
            modifiers=mods,
        )

    def parse_type(self) -> str:
        # "void" lexes as an identifier; any single identifier is a type name
        return self.expect("ident", "type name")[1]

    def parse_block(self) -> tuple:
        tokens = self.tokens
        if tokens[self.pos][0] != "{":
            raise self.expected("'{'")
        self.pos += 1
        stmts = []
        while tokens[self.pos][0] != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        return tuple(stmts)

    def parse_stmt(self):
        tokens = self.tokens
        kind, value, _ = tokens[self.pos]
        if kind == "if":
            return self.parse_if()
        if kind == "return":
            self.pos += 1
            if tokens[self.pos][0] == ";":
                self.pos += 1
                return Return(None)
            stmt = Return(self.parse_expr())
        elif kind in _KEYWORDS:
            raise self.error(f"unsupported statement {value!r}")
        else:
            stmt = ExprStmt(self.parse_expr())
        if tokens[self.pos][0] != ";":
            raise self.expected("';'")
        self.pos += 1
        return stmt

    def parse_if(self) -> If:
        outer = self.depth
        depth = self.depth = outer + 1
        if depth > MAX_NESTING:
            raise self.error("source nested too deep")
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
        """One expression: a ``+`` chain of postfix operands, one level in all."""
        outer = self.depth
        depth = self.depth = outer + 1
        if depth > MAX_NESTING:
            raise self.error("source nested too deep")
        parts = [self.parse_postfix()]
        tokens = self.tokens
        while tokens[self.pos][0] == "+":
            self.pos += 1
            parts.append(self.parse_postfix())
        self.depth = outer
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix(self):
        """A literal, a name, a bare call or a parenthesized expression, then
        its ``.`` call links, which nest only through their arguments."""
        tokens = self.tokens
        kind, value, line = tokens[self.pos]
        if kind == "string":
            self.pos += 1
            expr = StrLit(value)
        elif kind == "ident":
            self.pos += 1
            if tokens[self.pos][0] == "(":
                self.pos += 1
                expr = Call(None, value, self.parse_args(), line=line)
            else:
                expr = Ident(value)
        elif kind == "(":
            self.pos += 1
            expr = self.parse_expr()
            if tokens[self.pos][0] != ")":
                raise self.expected("')'")
            self.pos += 1
        else:
            raise self.error(f"expected expression, found {value!r}")
        while tokens[self.pos][0] == ".":
            self.pos += 1
            _, name, line = self.expect("ident", "method name")
            self.expect("(")
            expr = Call(expr, name, self.parse_args(), line=line)
        return expr

    def parse_args(self) -> tuple:
        # caller consumed "("
        tokens = self.tokens
        if tokens[self.pos][0] == ")":
            self.pos += 1
            return ()
        args = [self.parse_expr()]
        while tokens[self.pos][0] == ",":
            self.pos += 1
            args.append(self.parse_expr())
        if tokens[self.pos][0] != ")":
            raise self.expected("')'")
        self.pos += 1
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
