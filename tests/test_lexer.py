"""The master-regex lexer against the per-character reference lexer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith.analyzer import SourceSyntaxError
from logsmith.analyzer.parser import _KEYWORDS, _tokenize

from reference_lexer import _tokenize as reference_tokenize

# Joined, these pieces form every lexeme class, escapes, both comment kinds,
# unterminated forms, and characters that "\w" and str.isalpha() split on.
_PIECES = [
    "a", "Z", "_", "x1", "é", "²", "٣", "一", "0",
    "if", "else", "class", "return", "public",
    " ", "\t", "\r", "\n", "\x0c", "\xa0", "#", "-", "/", "*",
    "{", "}", "(", ")", ";", ",", ".", "+",
    '"', '"ab"', '"a\\tb"', '"/* x */"', "\\", "\\n", '\\"', "\\\\", "\\q", "\\\r",
    "//", "// c\n", "/*", "*/", "/* c\n */",
]


def _reference_kind(kind: str) -> str:
    if kind in _KEYWORDS:
        return "keyword"
    if kind in ("ident", "string", "eof"):
        return kind
    return "punct"


def _lex(text: str) -> list[tuple] | str:
    try:
        return [(_reference_kind(tok.kind), tok.value, tok.line) for tok in _tokenize(text)]
    except SourceSyntaxError as error:
        return str(error)


def _reference_lex(text: str) -> list[tuple] | str:
    try:
        return [(tok.kind, tok.value, tok.line) for tok in reference_tokenize(text)]
    except SourceSyntaxError as error:
        return str(error)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)
       .filter(lambda text: "\\\n" not in text))
def test_regex_lexer_agrees_with_reference(text):
    # a backslash before a newline is the one intended difference
    assert _lex(text) == _reference_lex(text)


@pytest.mark.parametrize("text", [
    'a\n"x\\\ny"\nb',
    'a\n"x\\\n',
])
def test_backslash_newline_in_string_is_rejected_at_its_line(text):
    assert _lex(text) == "line 2: newline in string literal"
    assert _reference_lex(text) != _lex(text)
