"""Template extraction through a pluggable gateway.

Builds the extraction prompt from source code plus the static-analysis
report, sends it through a gateway (deterministic mock or HTTP), parses
the structured response and post-processes the records into
repository-ready templates.

This package re-exports only the names that modules outside it (the rest of
``logsmith`` and the benchmark under ``perfbench/``) import through it;
everything else is imported from the module defining it.
"""

from .gateway import GatewayConfig, GatewayError, invoke_gateway, make_gateway
from .postprocess import PostProcessPolicy, post_process
from .prompt import build_prompt
from .responses import parse_response

__all__ = [
    "GatewayConfig",
    "GatewayError",
    "PostProcessPolicy",
    "build_prompt",
    "invoke_gateway",
    "make_gateway",
    "parse_response",
    "post_process",
]
