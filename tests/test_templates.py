from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsmith.templates import (
    LEVELS,
    Template,
    TemplateBody,
    WILD,
    WILDCARD_TOKEN,
    Wildcard,
    append_repository,
    level_rank,
    load_repository,
    merge_templates,
    save_repository,
)
from oracle import load_repository_reference, parse_body


def test_from_segments_merges_adjacent_constants():
    body = TemplateBody.from_segments(["a", "b", WILD, "c"])
    assert body.segments == ("ab", WILD, "c")


def test_from_segments_collapses_wildcard_runs():
    body = TemplateBody.from_segments([WILD, WILD, "x", WILD, WILD, WILD])
    assert body.segments == (WILD, "x", WILD)


def test_from_segments_drops_empty_constants():
    body = TemplateBody.from_segments(["", WILD, "", "", WILD, ""])
    assert body.segments == (WILD,)


def test_parse_and_render_round_trip():
    text = "User_<.*>_NotFound"
    body = TemplateBody.parse(text)
    assert body.segments == ("User_", WILD, "_NotFound")
    assert body.render() == text


def test_parse_collapses_adjacent_wildcards():
    assert TemplateBody.parse("a<.*><.*>b").render() == "a<.*>b"


# The characters of both tokens, blanks and letters, with whole tokens
# drawn as pieces too so that they occur often and run together.
_PARSE_TEXT = st.lists(st.sampled_from(
    ["<", ".", "*", ">", "{", "}", " ", "\t", "a", "b", "<.*>", "{}"])).map("".join)


@given(_PARSE_TEXT, st.sampled_from([WILDCARD_TOKEN, "{}"]))
@example("", WILDCARD_TOKEN)
@example("", "{}")
def test_parse_agrees_with_the_split_then_normalise_reference(text, token):
    body = TemplateBody.parse(text, token)
    assert body == parse_body(text, token)
    assert all(s is WILD or s for s in body.segments)


def test_wildcard_is_one_instance():
    assert Wildcard() is WILD
    assert isinstance(WILD, Wildcard)
    assert copy.copy(WILD) is WILD
    assert copy.deepcopy(WILD) is WILD
    assert pickle.loads(pickle.dumps(WILD)) is WILD
    assert dataclasses.asdict(TemplateBody.parse("a<.*>"))["segments"][1] is WILD
    body = TemplateBody.parse("x <.*> y")
    assert pickle.loads(pickle.dumps(body)) == body
    assert copy.deepcopy(body).segments[1] is WILD


def test_normalization_invariant_random():
    rng = random.Random(20240817)
    for _ in range(500):
        raw = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.5:
                raw.append(WILD)
            else:
                raw.append(rng.choice(["", "a", "bc", " ", "x_y"]))
        body = TemplateBody.from_segments(raw)
        for first, second in zip(body.segments, body.segments[1:]):
            assert not (isinstance(first, Wildcard) and isinstance(second, Wildcard))
            assert not (isinstance(first, str) and isinstance(second, str))
        for segment in body.segments:
            if isinstance(segment, str):
                assert segment != ""
        # re-normalizing is the identity
        assert TemplateBody.from_segments(body.segments) == body


def test_counting_properties():
    body = TemplateBody.parse("a<.*>b<.*>")
    assert body.constants == ("a", "b")
    assert body.constant_chars == 2
    assert body.wildcard_count == 2
    assert body.has_constant
    assert not TemplateBody.parse("<.*>").has_constant


def test_level_rank_ordering():
    ranks = [level_rank(level) for level in LEVELS]
    assert ranks == sorted(ranks)
    assert level_rank("trace") < level_rank("fatal")
    with pytest.raises(ValueError):
        level_rank("verbose")


def test_repository_round_trip(tmp_path):
    templates = [
        Template(body=TemplateBody.parse("Guest_<.*>"), level="fatal",
                 methods=("com.example.Foo.logSomething",)),
        Template(body=TemplateBody.parse("connect to <.*> failed"),
                 source="blackbox", match_count=7),
    ]
    path = tmp_path / "repo.jsonl"
    save_repository(templates, path)
    loaded = load_repository(path)
    assert [t.body for t in loaded] == [t.body for t in templates]
    assert loaded[0].level == "fatal"
    assert loaded[0].methods == ("com.example.Foo.logSomething",)
    assert loaded[1].source == "blackbox"
    assert loaded[1].match_count == 7


def test_append_repository_skips_existing(tmp_path):
    path = tmp_path / "repo.jsonl"
    first = Template(body=TemplateBody.parse("a_<.*>"))
    save_repository([first], path)
    duplicate = Template(body=TemplateBody.parse("a_<.*>"), source="blackbox")
    fresh = Template(body=TemplateBody.parse("b_<.*>"))
    assert append_repository([duplicate, fresh], path, [first.body]) == 1
    assert [t.body.render() for t in load_repository(path)] == ["a_<.*>", "b_<.*>"]


@pytest.mark.parametrize("content, expected", [
    (b'{"template": "a"}', b'{"template": "a"}\n{"template": "b"'),
    (b"", b'{"template": "b"'),
    (b'{"template": "a"}\r\n', b'{"template": "a"}\r\n{"template": "b"'),
], ids=["no-final-newline", "empty", "crlf"])
def test_append_repository_starts_the_next_record_on_a_new_line(tmp_path, content,
                                                                  expected):
    path = tmp_path / "repo.jsonl"
    path.write_bytes(content)
    present = [t.body for t in load_repository(path)]
    assert append_repository([Template(body=TemplateBody.parse("b"))], path, present) == 1
    assert path.read_bytes().startswith(expected)
    assert path.read_bytes().endswith(b"}\n")
    assert [t.body.render() for t in load_repository(path)] == (
        ["a", "b"] if content else ["b"])


def _outcome(load, path):
    """The templates ``load`` reads from ``path``, or the text of its ValueError."""
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


_RECORDS = st.fixed_dictionaries(
    {"template": st.text(st.sampled_from("ab <.*>{}\u2028"))},
    optional={"level": st.sampled_from([None, *LEVELS]),
              "methods": st.lists(st.sampled_from(["p.A.f", "q.B.g"]), max_size=2),
              "source": st.sampled_from(["whitebox", "blackbox"]),
              "match_count": st.integers(0, 9)})
_BAD_LINES = [
    '\ufeff{"template": "a"}',
    '{"template": "a"} {"template": "b"}',
    '{"template": "a"}, {"template": "b"}',
    '{"template": "a", "level": "info"',
    '{"template": "a", "methods": [1]}',
    '{"template": "a", "methods": "p.A.f"}',
    '["template", "a"]',
    '{"template": 1}',
    '"a"',
    "[" * 100_000,
]
_BLANK_LINES = ["", " \t", "\x0c", "\u2028", "\x0c \u2028"]
_LINES = st.one_of(_RECORDS.map(lambda record: json.dumps(record, ensure_ascii=False)),
                   _RECORDS.map(json.dumps), st.sampled_from(_BAD_LINES + _BLANK_LINES),
                   st.text(st.characters(exclude_categories=["Cs"]), max_size=12))


@settings(deadline=None)
@given(st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]))
@example(['{"template": "a <.*>"}', "\x0c", "\u2028", '{"template": "b"}'], "\r\n")
@example(['{"template":"a"}, {"template":"b"}', '{"template":"c"', '"level":"info"}'], "\n")
def test_load_agrees_with_the_per_line_json_loads_reference(tmp_path_factory, lines, end):
    path = tmp_path_factory.getbasetemp() / "load_differential.jsonl"
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
    assert _outcome(load_repository, path) == _outcome(load_repository_reference, path)


@pytest.mark.parametrize("bad, message", [
    ('\ufeff{"template": "a"}',
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ('{"template": "a"} {"template": "b"}', "Extra data: line 1 column 19 (char 18)"),
    ('{"template": "a"}, {"template": "b"}', "Extra data: line 1 column 18 (char 17)"),
    ('{"template": "a", "level": "info"',
     "Expecting ',' delimiter: line 1 column 34 (char 33)"),
    ('{"template": "a", "methods": [1]}', "methods must be a list of strings"),
    ('["template", "a"]', "a record must be an object with a string template"),
    ("[" * 100_000,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
], ids=["bom", "two-objects", "two-objects-comma", "truncated", "methods-number",
        "not-an-object", "too-deep"])
def test_load_names_the_bad_line_with_the_json_loads_error(tmp_path, bad, message):
    path = tmp_path / "repo.jsonl"
    path.write_bytes(f'{{"template": "ok <.*>"}}\r\n\x0c\r\n{bad}\r\n'.encode("utf-8"))
    with pytest.raises(ValueError) as error:
        load_repository(path)
    assert str(error.value) == f"{path}: line 3: {message}"
    assert str(error.value) == _outcome(load_repository_reference, path)


def test_load_skips_blank_lines_and_reads_crlf_ends(tmp_path):
    path = tmp_path / "repo.jsonl"
    path.write_bytes('{"template": "a <.*>", "methods": ["p.A.f"]}\r\n\x0c\r\n'
                     '\u2028\r\n \t\r\n{"template": "b", "level": "warn"}\r\n'
                     .encode("utf-8"))
    assert load_repository(path) == [
        Template(body=TemplateBody.parse("a <.*>"), methods=("p.A.f",)),
        Template(body=TemplateBody.parse("b"), level="warn")]
    assert load_repository(path) == load_repository_reference(path)


def test_wildcard_token_text():
    assert WILDCARD_TOKEN == "<.*>"
    assert repr(WILD) == WILDCARD_TOKEN


def test_merge_templates_rule():
    a, b = TemplateBody.parse("a <.*>"), TemplateBody.parse("b <.*>")
    merged = merge_templates([
        Template(body=a, level=None, methods=("z.M.x",)),
        Template(body=b, level="warn", methods=("y.N.y",)),
        Template(body=a, level="error", methods=("a.M.w",)),
        Template(body=a, level="debug", methods=("z.M.x",)),
        Template(body=b, level="fatal", methods=()),
        Template(body=b, level=None, methods=("b.N.v",)),
    ])
    # first-seen order, lowest-rank level, sorted union of methods
    assert merged == [
        Template(body=a, level="debug", methods=("a.M.w", "z.M.x")),
        Template(body=b, level="warn", methods=("b.N.v", "y.N.y")),
    ]


def test_merge_templates_keeps_a_lone_template_as_it_is():
    lone = Template(body=TemplateBody.parse("x"), level="info", methods=("q", "p"))
    assert merge_templates([lone]) == [lone]
    assert merge_templates([lone])[0] is lone


def _merge_reference(templates):
    """The one-template-at-a-time merge loop that ``merge_templates`` replaced."""
    merged = {}
    for template in templates:
        existing = merged.get(template.body)
        if existing is None:
            merged[template.body] = template
            continue
        level = existing.level
        if template.level and (level is None
                               or level_rank(template.level) < level_rank(level)):
            level = template.level
        methods = tuple(sorted({*existing.methods, *template.methods}))
        merged[template.body] = dataclasses.replace(existing, level=level, methods=methods)
    return list(merged.values())


# few bodies, so that they repeat; levels as post_process leaves them; a few
# method names, shared between templates and listed unsorted
_TEMPLATES = st.lists(st.builds(
    Template,
    body=st.sampled_from(["a <.*>", "b", "<.*> c <.*>"]).map(TemplateBody.parse),
    level=st.sampled_from([None, *LEVELS]),
    methods=st.lists(st.sampled_from(["z.M.x", "a.M.w", "q.N.y", "b.N.v"]),
                     max_size=3).map(tuple),
    source=st.sampled_from(["whitebox", "blackbox"]),
    match_count=st.none() | st.integers(0, 9)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_TEMPLATES)
def test_merge_templates_agrees_with_the_pairwise_reference(templates):
    merged, expected = merge_templates(templates), _merge_reference(templates)
    assert merged == expected
    # a lone template is the very object passed in; a merged one is new
    assert [any(m is t for t in templates) for m in merged] == [
        any(e is t for t in templates) for e in expected]


def _from_segments_reference(raw):
    """The one-segment-at-a-time loop that ``from_segments`` replaced."""
    merged = []
    for seg in raw:
        if seg is WILD:
            if merged and merged[-1] is WILD:
                continue
            merged.append(WILD)
        else:
            if seg == "":
                continue
            if merged and merged[-1] is not WILD:
                merged[-1] = merged[-1] + seg
            else:
                merged.append(seg)
    return tuple(merged)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "bc", " ", "", WILD, WILD])))
def test_from_segments_agrees_with_the_per_segment_reference(raw):
    assert TemplateBody.from_segments(raw).segments == _from_segments_reference(raw)
