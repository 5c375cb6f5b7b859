"""The per-character lexer the analyzer used before its master-regex lexer.

Kept unchanged as the reference that ``test_lexer.py`` compares the
analyzer's ``_tokenize`` against. It differs on one input only: inside a
string literal it reads a backslash followed by a newline as an escape.
"""

from __future__ import annotations

from dataclasses import dataclass

from logsmith.analyzer import SourceSyntaxError


_KEYWORDS = {
    "package", "import", "class", "if", "else", "return",
    "public", "private", "protected", "static", "final",
}
_PUNCT = {"{", "}", "(", ")", ";", ",", ".", "+"}

_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "keyword", "string", "punct", "eof"
    value: str
    line: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise SourceSyntaxError(line, "unterminated block comment")
            line += text.count("\n", i, end)
            i = end + 2
            continue
        if ch == '"':
            start_line = line
            i += 1
            chars: list[str] = []
            while True:
                if i >= n:
                    raise SourceSyntaxError(start_line, "unterminated string literal")
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\n":
                    raise SourceSyntaxError(start_line, "newline in string literal")
                if c == "\\":
                    if i + 1 >= n:
                        raise SourceSyntaxError(start_line, "dangling escape in string literal")
                    esc = text[i + 1]
                    chars.append(_STRING_ESCAPES.get(esc, esc))
                    i += 2
                    continue
                chars.append(c)
                i += 1
            tokens.append(_Token("string", "".join(chars), start_line))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line))
            i += 1
            continue
        raise SourceSyntaxError(line, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line))
    return tokens
