from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given
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
from oracle import parse_body


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
    assert append_repository([duplicate, fresh], path) == 1
    assert [t.body.render() for t in load_repository(path)] == ["a_<.*>", "b_<.*>"]


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
