from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsmith.analyzer import SourceSyntaxError, find_log_calls, parse_source, parse_sources
from logsmith.analyzer.parser import MAX_NESTING, _tokenize
from logsmith.analyzer.syntax import (
    Call,
    Concat,
    Ident,
    If,
    Return,
    StrLit,
    expr_to_source,
    method_to_source,
)

import reference_parser
from conftest import EXAMPLE_PROJECT
from generator import generate_project


def test_an_identifier_is_one_object_across_files():
    first = parse_source('package p;\nclass A {\n  void run(String userName) '
                         '{ log.info("user " + userName); }\n}\n', "A.java")
    second = parse_source("package p;\nclass B {\n  String run(String userName) "
                          "{ return userName; }\n}\n", "B.java")
    (a_run,), (b_run,) = first.methods, second.methods
    assert a_run.name is b_run.name
    assert a_run.params[0][0] is b_run.params[0][0] is b_run.body[0].value.name
    assert a_run.params[0][1] is b_run.return_type  # "String"
    (site,) = find_log_calls(first)
    assert site.args[0].right.name is b_run.params[0][0]

def test_parse_foo_listing():
    unit = parse_source((EXAMPLE_PROJECT / "Foo.java").read_text(), "Foo.java")
    assert unit.package == "com.example"
    assert unit.class_name == "Foo"
    assert unit.fqn == "com.example.Foo"
    assert unit.imports == ("com.example.Bar",)
    assert len(unit.methods) == 1
    method = unit.methods[0]
    assert method.name == "logSomething"
    assert "static" not in method.modifiers
    assert method.params == (("type", "String"),)
    # one if/else holding the two logger calls
    assert len(method.body) == 1
    branch = method.body[0]
    assert isinstance(branch, If)
    assert len(branch.then_body) == 1 and len(branch.else_body) == 1


def test_empty_class_body():
    unit = parse_source("package p;\nclass X {}\n", "X.java")
    assert unit.class_name == "X"
    assert unit.methods == ()


def test_concat_is_left_associative():
    unit = parse_source(
        'package p;\nclass X {\n  String g(String x) {\n'
        '    return "a" + f(x) + "b";\n  }\n}\n', "X.java")
    ret = unit.methods[0].body[0]
    assert isinstance(ret, Return)
    expected = Concat(
        left=Concat(left=StrLit(text="a"),
                    right=Call(receiver=None, method="f",
                               args=(Ident(name="x"),), line=4)),
        right=StrLit(text="b"))
    assert ret.value == expected


def test_string_escapes_unescaped():
    unit = parse_source(
        'package p;\nclass X {\n  String g() {\n'
        '    return "a\\n\\t\\"b\\\\";\n  }\n}\n', "X.java")
    assert unit.methods[0].body[0].value.text == 'a\n\t"b\\'


# Raw characters and escapes of a literal's body, among them every character
# that str.splitlines() breaks at
_LITERAL_PIECES = [
    "a", " ", "é", "'", "\\'", '\\"', "\\\\", "\\b", "\\f", "\\n", "\\r", "\\t", "\\q",
    "\b", "\f", "\t", "\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LITERAL_PIECES), max_size=12).map("".join))
def test_rendered_literal_lexes_back_to_its_text(body):
    (_, text, _), _ = _tokenize(f'"{body}"')
    rendered = expr_to_source(StrLit(text))
    (_, again, _), _ = _tokenize(rendered)
    assert again == text
    # every character the lexer reads from an escape is written as one
    assert not set(rendered) & set("\b\f\n\r\t")


def test_comments_are_ignored():
    unit = parse_source(
        "package p;\n// line comment\nclass X {\n"
        "  /* block\n     comment */\n"
        '  String g() { return "ok"; }\n}\n', "X.java")
    assert unit.methods[0].body[0].value.text == "ok"


def test_line_numbers_recorded():
    unit = parse_source((EXAMPLE_PROJECT / "Foo.java").read_text(), "Foo.java")
    branch = unit.methods[0].body[0]
    assert branch.then_body[0].expr.line == 8
    assert branch.else_body[0].expr.line == 10


def test_else_if_chain():
    unit = parse_source(
        "package p;\nclass X {\n  String g(String a) {\n"
        '    if (a.isEmpty()) {\n      return "e";\n'
        '    } else if (a.isBlank()) {\n      return "b";\n'
        '    } else {\n      return "o";\n    }\n  }\n}\n', "X.java")
    outer = unit.methods[0].body[0]
    assert isinstance(outer, If)
    nested = outer.else_body[0]
    assert isinstance(nested, If)
    assert nested.then_body[0].value.text == "b"
    assert nested.else_body[0].value.text == "o"


def test_syntax_error_reports_line():
    with pytest.raises(SourceSyntaxError) as error:
        parse_source('package p;\nclass X {\n  String g() { return "x" }\n}\n',
                     "X.java")
    assert "line 3" in str(error.value)


def test_unterminated_string_rejected():
    with pytest.raises(SourceSyntaxError):
        parse_source('package p;\nclass X {\n  String g() { return "oops; }\n}\n',
                     "X.java")


# Each shape at n levels nests n + 1 deep, counting the expression or the
# condition it sits in; a "+" chain of n operands nests n deep.
_NESTING_SHAPES = {
    "parentheses": lambda n: "return " + "(" * n + "a" + ")" * n + ";",
    "call arguments": lambda n: "return " + "f(" * n + "a" + ")" * n + ";",
    "plus operands": lambda n: "return " + " + ".join(["a"] * n) + ";",
    "call links": lambda n: "return a" + ".trim()" * n + ";",
    "if": lambda n: "if (a) " * n + "return a;",
    "else if": lambda n: "if (a) return a; else " * n + "return a;",
}


@pytest.mark.parametrize("shape", sorted(_NESTING_SHAPES))
def test_nesting_is_bounded(shape):
    def source(n):
        return ("package p;\nclass X {\n  String g(String a) {\n    "
                f"{_NESTING_SHAPES[shape](n)}\n  }}\n}}\n")

    parse_source(source(MAX_NESTING - 1), "X.java")
    with pytest.raises(SourceSyntaxError) as error:
        parse_source(source(MAX_NESTING + 1), "X.java")
    assert str(error.value) == "line 4: source nested too deep"


def _outcome(parse, text: str):
    try:
        return parse(text, "X.java")
    except SourceSyntaxError as error:
        return str(error)


# Token-level pieces to splice into a generated project: statements, single
# tokens, else-if chains, and text that starts no token or never ends
_SPLICE_PIECES = [
    'log.info("x" + a);', "return a;", "return;", "f(a, g(b));", "a.trim().f(b);", "f(a b",
    "if (a) log.warn(a); else if (b) return; else f();",
    "if (a) { return a; } else if (b) { f(); }", "else", "else if (a)",
    "(", ")", "{", "}", ";", ",", ".", "+", "a", "f(", "if", "return", "class",
    "package p;", "import q.R;", "static", '"s"', '"\\q"', '"', "\\", "#", "é", "1",
    "/*", "*/", "// c", "\n", " ",
]
_DEEP_PIECES = st.builds(lambda shape, n: _NESTING_SHAPES[shape](n),
                         st.sampled_from(sorted(_NESTING_SHAPES)),
                         st.integers(MAX_NESTING - 2, MAX_NESTING + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 60),
       st.lists(st.one_of(st.sampled_from(_SPLICE_PIECES), _DEEP_PIECES), max_size=6))
def test_parser_agrees_with_reference(seed, where, pieces):
    text = "".join(source for _, source in generate_project(seed))
    lines = text.split("\n")
    lines.insert(where % (len(lines) + 1), " ".join(pieces))
    text = "\n".join(lines)
    assert _outcome(parse_sources, text) == _outcome(reference_parser.parse_sources, text)
    assert _outcome(parse_source, text) == _outcome(reference_parser.parse_source, text)


def test_duplicate_param_names_rejected():
    with pytest.raises(SourceSyntaxError):
        parse_source("package p;\nclass X {\n  String g(String a, String a) "
                     '{ return "x"; }\n}\n', "X.java")


def test_logger_calls_preserved_as_calls():
    unit = parse_source(
        'package p;\nclass X {\n  void g(String m) {\n    log.error(m);\n  }\n}\n',
        "X.java")
    stmt = unit.methods[0].body[0]
    call = stmt.expr
    assert isinstance(call, Call)
    assert call.method == "error"
    assert isinstance(call.receiver, Ident) and call.receiver.name == "log"


def test_expr_to_source_round_trips_shape():
    source = ('package p;\nclass X {\n  String g(String a) {\n'
              '    return "x_" + a.toUpperCase() + h(a, "y");\n  }\n}\n')
    unit = parse_source(source, "X.java")
    rendered = expr_to_source(unit.methods[0].body[0].value)
    assert rendered == '"x_" + a.toUpperCase() + h(a, "y")'


def test_method_to_source_layout():
    unit = parse_source(
        "package p;\nclass X {\n"
        "  public static String g(String a) {\n"
        '    if (a.startsWith("u")) {\n      return "A_" + a;\n'
        '    } else {\n      return "B";\n    }\n  }\n}\n', "X.java")
    assert method_to_source(unit.methods[0]) == (
        "public static String g(String a) {\n"
        '  if (a.startsWith("u")) {\n'
        '    return "A_" + a;\n'
        "  } else {\n"
        '    return "B";\n'
        "  }\n"
        "}"
    )


def test_parse_is_deterministic():
    text = (EXAMPLE_PROJECT / "Bar.java").read_text()
    assert parse_source(text, "Bar.java") == parse_source(text, "Bar.java")


_LEADING_COMMENTS = (
    "",
    "/*\n * Licensed under the Apache License, Version 2.0.\n */\n",
    "// package org.old;\n",
    "/* package org.old;\n- static_analysis_report:\n*/",
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(_LEADING_COMMENTS)),
                min_size=1, max_size=4))
def test_parse_sources_reads_files_joined_end_to_end(picks):
    files = [comment + text for seed, comment in picks
             for _, text in generate_project(seed)]
    joined = parse_sources("".join(files), "joined")
    assert len(joined) == len(files)
    offset = 0
    for unit, text in zip(joined, files):
        alone = parse_source(text, "joined")
        assert (unit.fqn, unit.imports) == (alone.fqn, alone.imports)
        assert [method_to_source(m) for m in unit.methods] == [
            method_to_source(m) for m in alone.methods]
        # lines count on through the joined text
        assert [s.line - offset for s in find_log_calls(unit)] == [
            s.line for s in find_log_calls(alone)]
        offset += text.count("\n")


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "expected 'package', found ''"),
    ("// only a comment\n", 2, "expected 'package', found ''"),
    ("package p;\nclass A {}\nfoo\npackage q;\nclass B {}\n", 3,
     "expected 'package', found 'foo'"),
    ("package p;\nclass A {}\npackage q;\nclass B {\n  void f( }\n", 5,
     "expected type name, found '}'"),
    # one case per token test that the parser makes inline
    ("package p;\nclass A {\n  void f() return;\n}\n", 3, "expected '{', found 'return'"),
    ("package p;\nclass A {\n  void f() {\n    g(a b);\n  }\n}\n", 4,
     "expected ')', found 'b'"),
    ("package p;\nclass A {\n  void f() {\n    return (a;\n  }\n}\n", 4,
     "expected ')', found ';'"),
    ("package p;\nclass A {\n  void f() {\n    g(a)\n  }\n}\n", 5,
     "expected ';', found '}'"),
    ("package p;\nclass A {\n  void f() {\n    return a b;\n  }\n}\n", 4,
     "expected ';', found 'b'"),
    ("package p;\nclass A {\n  void f() {\n    a.\n  }\n}\n", 5,
     "expected method name, found '}'"),
])
def test_parse_sources_errors(text, line, message):
    with pytest.raises(SourceSyntaxError) as info:
        parse_sources(text)
    assert (info.value.line, info.value.message) == (line, message)


def test_parse_source_takes_one_unit_only():
    text = "package p;\nclass A {}\npackage q;\nclass B {}\n"
    assert [unit.fqn for unit in parse_sources(text)] == ["p.A", "q.B"]
    with pytest.raises(SourceSyntaxError) as info:
        parse_source(text)
    assert (info.value.line, info.value.message) == (3, "trailing content after class body")
