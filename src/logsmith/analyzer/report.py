"""Static-analysis report: structured form plus the textual rendering.

The textual layout is fixed and rendered byte-identically for identical
inputs: a header with the call count, one analysis section per log call
with its numbered paths and steps, and a trailing total line. User-method
steps reproduce the callee source inline; other steps render a one-line
kind description.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logcalls import LogCallSite
from .paths import KIND_BUILTIN, KIND_LOG, KIND_UNKNOWN, KIND_USER, PathEnumeration
from .syntax import escape_string

UNDEFINED_TEMPLATE = "undefined template"

_KIND_TEXT = {
    KIND_LOG: "log method invocation",
    KIND_BUILTIN: "built-in method",
    KIND_UNKNOWN: "unknown method",
}


@dataclass(frozen=True, slots=True)
class StaticReport:
    enumerations: tuple[PathEnumeration, ...]

    @property
    def call_count(self) -> int:
        return len(self.enumerations)

    @property
    def total_paths(self) -> int:
        return sum(len(enum.paths) for enum in self.enumerations)

    def to_dict(self) -> dict:
        return {
            "call_count": self.call_count,
            "total_paths": self.total_paths,
            "calls": [_call_dict(enum) for enum in self.enumerations],
        }


def _initial_template(site: LogCallSite) -> str:
    """The log call's literal format, or UNDEFINED_TEMPLATE when it has none."""
    return site.literal_format if site.literal_format is not None else UNDEFINED_TEMPLATE


def _call_dict(enum: PathEnumeration) -> dict:
    return {
        "line": enum.site.line,
        "level": enum.site.level,
        "initial_template": _initial_template(enum.site),
        "flags": {
            "involves_conditional": enum.involves_conditional,
            "involves_external_call": enum.involves_external_call,
            "placeholder_mismatch": enum.placeholder_mismatch,
            "truncated": enum.truncated,
            "cycles": [list(cycle) for cycle in enum.cycles],
        },
        "paths": [
            {
                "yielded": path.yielded.render(),
                "steps": [
                    {
                        "class": step.class_fqn,
                        "call_code": step.call_code,
                        "kind": step.callee_kind,
                        **({"source": step.callee_source}
                           if step.callee_source is not None else {}),
                    }
                    for step in path.steps
                ],
            }
            for path in enum.paths
        ],
    }


def build_report(enumerations: list[PathEnumeration]) -> StaticReport:
    return StaticReport(enumerations=tuple(enumerations))


def render_report(report: StaticReport) -> str:
    lines = [f"Extracted {report.call_count} log calls", ""]
    for index, enum in enumerate(report.enumerations, 1):
        paths = enum.paths
        lines.append(f"=== Analysis of log call {index} ===")
        lines.append(f"Location: line {enum.site.line}, method: {enum.site.level}")
        lines.append(f"Template: {escape_string(_initial_template(enum.site))}")
        lines.append("")
        lines.append(f"=== Call path analysis results ({len(paths)} paths in total) ===")
        lines.append("")
        for number, path in enumerate(paths, 1):
            lines.append(f"--- Path {number} ---")
            for position, step in enumerate(path.steps, 1):
                lines.append(f"  {position}. Class: {step.class_fqn}")
                lines.append(f"     Call code: {step.call_code}")
                if step.callee_kind == KIND_USER:
                    lines.append("     Callee information:")
                    # method_to_source joins lines with "\n" alone; a literal
                    # may hold other characters that str.splitlines() breaks at
                    for source_line in step.callee_source.split("\n"):
                        lines.append(f"       {source_line}" if source_line else "")
                else:
                    lines.append(f"     Callee information: {_KIND_TEXT[step.callee_kind]}")
            lines.append("")
    lines.append(f"A total of {report.call_count} log calls, "
                 f"with {report.total_paths} complete paths found.")
    return "\n".join(lines) + "\n"
