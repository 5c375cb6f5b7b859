"""Static analysis of the supported source subset.

Parses source files, finds logging call sites, resolves helper calls
across files, enumerates string-construction paths and renders the
static-analysis report.

This package re-exports only the names that modules outside it (the rest of
``logsmith`` and the benchmark under ``perfbench/``) import through it;
everything else is imported from the module defining it.
"""

from .callgraph import build_call_graph
from .logcalls import find_log_calls
from .parser import SourceSyntaxError, parse_source, parse_sources
from .paths import (
    DEFAULT_BUILTIN_METHODS,
    KIND_USER,
    PathBudget,
    PathEnumeration,
    analyze_project,
    enumerate_paths,
)
from .report import StaticReport, build_report, render_report
from .syntax import SourceUnit

__all__ = [
    "DEFAULT_BUILTIN_METHODS",
    "KIND_USER",
    "PathBudget",
    "PathEnumeration",
    "SourceSyntaxError",
    "SourceUnit",
    "StaticReport",
    "analyze_project",
    "build_call_graph",
    "build_report",
    "enumerate_paths",
    "find_log_calls",
    "parse_source",
    "parse_sources",
    "render_report",
]
