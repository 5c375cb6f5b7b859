from __future__ import annotations

import pytest

from logsmith.whitebox.prompt import PROMPT_TEMPLATE, build_prompt, java_code_slot

CODE = 'package p;\nclass X {\n  void f() { log.error("x"); }\n}\n'
REPORT = "Extracted 1 log calls\n\nA total of 1 log calls, with 1 complete paths found.\n"


def test_slots_filled_in_order():
    rendered = build_prompt(CODE, REPORT)
    assert rendered.startswith("You are an expert Java log template extractor.")
    assert f"- java_code: {CODE}" in rendered
    assert f"- static_analysis_report:\n{REPORT}" in rendered
    assert rendered.index(CODE) < rendered.index(REPORT)
    assert "{java_code}" not in rendered
    assert "{static_analysis_report}" not in rendered


def test_instruction_braces_survive():
    # the instructions themselves talk about {} placeholders and show a JSON
    # shape in braces; slot substitution must not touch either
    rendered = build_prompt(CODE, REPORT)
    assert "All {} placeholders in the original log statement" in rendered
    assert '{"method": class_path.method_name, "template": constructed_template, "level": log_level}' in rendered


def test_prompt_keeps_inputs_verbatim():
    # neither input holds a slot name, so filling the slots by name is a reference
    assert build_prompt(CODE, REPORT) == (PROMPT_TEMPLATE.replace("{java_code}", CODE)
                                          .replace("{static_analysis_report}", REPORT))


def test_code_containing_wildcard_tokens_is_preserved():
    tricky = 'package p;\nclass X {\n  void f() { log.warn("a <.*> {} b"); }\n}\n'
    rendered = build_prompt(tricky, REPORT)
    assert 'log.warn("a <.*> {} b")' in rendered


@pytest.mark.parametrize("code", [
    CODE,
    "",
    "/*\n- static_analysis_report:\n*/\n" + CODE,
    "/* - java_code: {java_code} */\n" + CODE,
    'package p;\nclass X {\n  void f() { log.error("{static_analysis_report}"); }\n}\n',
])
def test_code_slot_reads_back_what_was_written(code):
    rendered = build_prompt(code, REPORT)
    assert rendered.endswith(f"- static_analysis_report:\n{REPORT}\n")
    assert java_code_slot(rendered) == code


@pytest.mark.parametrize("prompt", [
    "",
    "- java_code: " + CODE + "\n- static_analysis_report:\n" + REPORT,
    build_prompt(CODE, REPORT).replace("- static_analysis_report:", "- report:"),
])
def test_code_slot_of_another_text_is_an_error(prompt):
    with pytest.raises(ValueError, match="not an extraction prompt"):
        java_code_slot(prompt)
