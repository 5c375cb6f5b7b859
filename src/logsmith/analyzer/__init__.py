"""Static analysis of the supported source subset.

Parses source files, finds logging call sites, resolves helper calls
across files, enumerates string-construction paths and renders the
static-analysis report.
"""

from .callgraph import CallGraph, ResolvedTarget, build_call_graph
from .logcalls import LOGGER_NAMES, LogCallSite, find_log_calls, is_logger_call
from .parser import SourceSyntaxError, parse_source, parse_sources
from .paths import (
    DEFAULT_BUILTIN_METHODS,
    KIND_BUILTIN,
    KIND_LOG,
    KIND_UNKNOWN,
    KIND_USER,
    CallPath,
    PathBudget,
    PathEnumeration,
    PathStep,
    analyze_project,
    enumerate_paths,
)
from .report import (
    UNDEFINED_TEMPLATE,
    StaticReport,
    build_report,
    render_report,
)
from .syntax import (
    Call,
    Concat,
    Expr,
    ExprStmt,
    Ident,
    If,
    MethodDecl,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    expr_to_source,
    method_to_source,
)

__all__ = [
    "CallGraph",
    "CallPath",
    "Call",
    "Concat",
    "DEFAULT_BUILTIN_METHODS",
    "Expr",
    "ExprStmt",
    "Ident",
    "If",
    "KIND_BUILTIN",
    "KIND_LOG",
    "KIND_UNKNOWN",
    "KIND_USER",
    "LOGGER_NAMES",
    "LogCallSite",
    "MethodDecl",
    "PathBudget",
    "PathEnumeration",
    "PathStep",
    "ResolvedTarget",
    "Return",
    "SourceSyntaxError",
    "SourceUnit",
    "StaticReport",
    "Stmt",
    "StrLit",
    "UNDEFINED_TEMPLATE",
    "analyze_project",
    "build_call_graph",
    "build_report",
    "enumerate_paths",
    "expr_to_source",
    "find_log_calls",
    "is_logger_call",
    "method_to_source",
    "parse_source",
    "parse_sources",
    "render_report",
]
