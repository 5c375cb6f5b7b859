from __future__ import annotations

import time

import pytest

from logsmith.whitebox.responses import (
    ExtractedTemplate,
    MalformedResponse,
    parse_response,
    render_records,
)

RECORD = ExtractedTemplate(method="com.example.Foo.logSomething",
                           template="User_<.*>_NotFound", level="error")
ARRAY = ('[{"method": "com.example.Foo.logSomething", '
         '"template": "User_<.*>_NotFound", "level": "error"}]')


def test_pure_json_array():
    assert parse_response(ARRAY) == [RECORD]


def test_code_fenced_response():
    assert parse_response(f"```json\n{ARRAY}\n```") == [RECORD]


def test_prose_around_array():
    text = f"Sure, here are the extracted templates:\n\n{ARRAY}\n\nLet me know!"
    assert parse_response(text) == [RECORD]


def test_level_is_lowercased():
    text = ('[{"method": "A.m", "template": "x_<.*>", "level": "ERROR"}]')
    assert parse_response(text)[0].level == "error"


def test_first_well_formed_array_wins():
    bad = '[{"method": "A.m"}]'
    text = f"candidates: {bad} but the real output is {ARRAY}"
    assert parse_response(text) == [RECORD]


def test_bracket_noise_is_skipped():
    text = f"score[3] = [1, 2 then the array:\n{ARRAY}"
    assert parse_response(text) == [RECORD]


def test_empty_array_is_a_valid_empty_result():
    assert parse_response("[]") == []


def test_multiple_records_preserve_order():
    text = ('[{"method": "A.m", "template": "a_<.*>", "level": "warn"},'
            ' {"method": "B.n", "template": "b_<.*>", "level": "info"}]')
    records = parse_response(text)
    assert [r.template for r in records] == ["a_<.*>", "b_<.*>"]
    assert [r.level for r in records] == ["warn", "info"]


@pytest.mark.parametrize("text", [
    "no array here",
    "{}",
    '{"method": "A.m", "template": "t", "level": "info"}',  # object, not array
    '[{"method": "A.m", "template": "t"}]',  # missing level
    '[{"method": "A.m", "template": "t", "level": "loud"}]',  # unknown level
    '[{"method": "A.m", "template": 7, "level": "info"}]',  # non-string field
    '[{"method": "A.m", "template": "t", "level": "info"}',  # unterminated
    "[1, 2, 3]",
    "",
])
def test_malformed_responses_rejected(text):
    with pytest.raises(MalformedResponse):
        parse_response(text)


def test_bracket_flood_is_rejected_in_bounded_time():
    # no "[" here can open a record array, so none is decoded
    started = time.perf_counter()
    with pytest.raises(MalformedResponse):
        parse_response("[1," * 100_000)
    assert time.perf_counter() - started < 1.0


def test_render_parse_round_trip():
    records = [
        RECORD,
        ExtractedTemplate(method="com.example.Bar.g", template="a {} b",
                          level="info"),
    ]
    assert parse_response(render_records(records)) == records


def test_render_is_pure_json():
    import json

    payload = json.loads(render_records([RECORD]))
    assert payload == [{"method": RECORD.method, "template": RECORD.template,
                        "level": "error"}]
