"""Template extraction through a pluggable gateway.

Builds the extraction prompt from source code plus the static-analysis
report, sends it through a gateway (deterministic mock or HTTP), parses
the structured response and post-processes the records into
repository-ready templates.
"""

from .extract import (
    ProjectFile,
    UnitExtraction,
    extract_project,
    extract_unit,
)
from .gateway import (
    GatewayConfig,
    GatewayError,
    GatewayTimeout,
    GatewayUnavailable,
    HttpGateway,
    MockGateway,
    RetriesExhausted,
    build_verifier_prompt,
    invoke_gateway,
    make_gateway,
)
from .postprocess import PostProcessPolicy, Rejection, post_process
from .prompt import PROMPT_TEMPLATE, build_prompt
from .responses import ExtractedTemplate, MalformedResponse, parse_response, render_records

__all__ = [
    "ExtractedTemplate",
    "GatewayConfig",
    "GatewayError",
    "GatewayTimeout",
    "GatewayUnavailable",
    "HttpGateway",
    "MalformedResponse",
    "MockGateway",
    "PROMPT_TEMPLATE",
    "PostProcessPolicy",
    "ProjectFile",
    "Rejection",
    "RetriesExhausted",
    "UnitExtraction",
    "build_prompt",
    "build_verifier_prompt",
    "extract_project",
    "extract_unit",
    "invoke_gateway",
    "make_gateway",
    "parse_response",
    "post_process",
    "render_records",
]
