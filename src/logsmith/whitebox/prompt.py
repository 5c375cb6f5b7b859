"""Extraction prompt construction.

The instruction text is fixed; a prompt is the instructions with the two
input slots filled in: the source code under analysis and the rendered
static-analysis report. The text around the slots is joined with their
contents, so the literal braces in the instructions survive untouched and
the reader of a prompt finds the code slot by the same pieces.
"""

from __future__ import annotations

PROMPT_TEMPLATE = """\
You are an expert Java log template extractor. Please extract all log templates by given the source code and static analysis report.

Input format:
- Java source code
- Static analysis report containing:
  - Location, method name, and initial template for each log call
  - Call paths (cross-method/cross-file), showing for each level:
    - Class: fully qualified class name (e.g., com.example.A)
    - Call code: method invocation statement
    - Called function info: The source code of the called function

Your task:
- For each log call and each of its paths, construct the final log template by concatenating string literals extracted from return statements across the call chain.
- Replace the following with <.*>:
  - Unknown functions,
  - Built-in methods,
  - Variable names,
  - Any non-literal string components,
  - All {} placeholders in the original log statement (SLF4J style), regardless of their runtime value.
- Preserve all deterministic string constants exactly as they appear.
- Output must be a JSON array. Each element has the format: {"method": class_path.method_name, "template": constructed_template, "level": log_level}

Now process the following input:
- java_code: {java_code}
- static_analysis_report:
{static_analysis_report}
"""


# the text before, between and after the code and report slots
_HEAD, _REST = PROMPT_TEMPLATE.split("{java_code}")
_REPORT_MARKER, _TAIL = _REST.split("{static_analysis_report}")


def build_prompt(java_code: str, static_analysis_report: str) -> str:
    """The prompt text: the fixed instructions with the source text and the
    rendered report in their slots."""
    return _HEAD + java_code + _REPORT_MARKER + static_analysis_report + _TAIL


def java_code_slot(prompt: str) -> str:
    """The source code of a rendered extraction prompt, which ends at the last
    report marker (the code may hold one in a comment); ValueError for any
    other text."""
    end = prompt.rfind(_REPORT_MARKER)
    if not prompt.startswith(_HEAD) or end < len(_HEAD):
        raise ValueError("not an extraction prompt")
    return prompt[len(_HEAD):end]
