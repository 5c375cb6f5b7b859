"""The master-regex lexer against the per-character reference lexer."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith.analyzer import SourceSyntaxError, parse_source
from logsmith.analyzer.parser import _KEYWORDS, _tokenize

from reference_lexer import _tokenize as reference_tokenize

# Joined, these pieces form every lexeme class, escapes, both comment kinds,
# unterminated forms, and characters that "\w" and str.isalpha() split on.
_PIECES = [
    "a", "Z", "_", "x1", "é", "²", "٣", "一", "0",
    "if", "else", "class", "return", "public",
    " ", "\t", "\r", "\n", "\r\n", "\x0c", "\xa0", "#", "-", "/", "*",
    "{", "}", "(", ")", ";", ",", ".", "+",
    '"', '""', '"ab"', '"a\\tb"', '"/* x */"', "\\", "\\n", '\\"', "\\\\", "\\q", "\\\r",
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
        return [(_reference_kind(kind), value, line) for kind, value, line in _tokenize(text)]
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


@pytest.mark.parametrize("text, expected", [
    ("a \t ", [("ident", "a", 1), ("eof", "", 1)]),
    ("\r", [("eof", "", 1)]),
    ("a\rb", [("ident", "a", 1), ("ident", "b", 1), ("eof", "", 1)]),
    ("a // c", [("ident", "a", 1), ("eof", "", 1)]),
    ("/* a\n b\n */ x", [("ident", "x", 3), ("eof", "", 3)]),
    ("/*\n\n*/ #", "line 3: unexpected character '#'"),
    ("a /*/", "line 1: unterminated block comment"),
    ("a /**", "line 1: unterminated block comment"),
])
def test_edge_cases_agree_with_reference(text, expected):
    assert _lex(text) == expected
    assert _reference_lex(text) == expected


def _cpu_seconds(call) -> float:
    """The least CPU time of three calls, so a busy machine inflates it less."""
    times = []
    for _ in range(3):
        started = time.process_time()
        call()
        times.append(time.process_time() - started)
    return min(times)


@pytest.mark.parametrize("text, message", [
    ("/* " * 100_000, "line 1: unterminated block comment"),
    ('"' + "a" * 10**6, "line 1: unterminated string literal"),
    ("#" + "/* " * 100_000, "line 1: unexpected character '#'"),
    ('"' + '\\"' * 300_000, "line 1: unterminated string literal"),
    ('a"bc\n' * 100_000, "line 1: newline in string literal"),
    ('"\\' * 300_000, "line 1: dangling escape in string literal"),
], ids=["block-comment-openers", "unterminated-string", "bad-character-then-openers",
        "escaped-quotes", "newline-in-every-string", "escape-quote-pairs"])
def test_lexer_stops_at_first_bad_lexeme(text, message):
    # Every text is rejected in time linear in its length, although the lexer
    # splits the whole text with findall before it rejects the first bad
    # lexeme. That holds only while each regex alternative that scans ahead
    # consumes what it scanned: if an unterminated "/*" or string literal fell
    # back to a one-character lexeme, findall would scan on from every opener
    # or quote to the end of the text, which takes minutes on the openers and
    # on both escaped-quote texts. The newline text is 300,000 lexemes, all
    # split before its first one is rejected.
    def reject():
        with pytest.raises(SourceSyntaxError) as caught:
            parse_source(text)
        assert str(caught.value) == message

    assert _cpu_seconds(reject) < 0.25
