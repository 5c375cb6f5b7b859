"""Post-processing of extraction records into repository-ready templates.

Pipeline: normalize each record's template string, filter degenerate
bodies, merge exact duplicates, and optionally confirm each survivor
through a verifier round-trip. Rejections are returned alongside the
accepted templates with a machine-readable reason; they are data, not
errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..templates import Template, TemplateBody, WILDCARD_TOKEN, merge_templates
from .gateway import GatewayConfig, build_verifier_prompt, invoke_gateway
from .responses import ExtractedTemplate

REASON_ALL_WILDCARD = "all-wildcard"
REASON_TOO_FEW_CONSTANT_CHARS = "too-few-constant-chars"
REASON_LOW_CONSTANT_TOKEN_RATIO = "low-constant-token-ratio"
REASON_VERIFIER_REJECTED = "verifier-rejected"


@dataclass(frozen=True, slots=True)
class PostProcessPolicy:
    min_const_chars: int = 3
    min_const_token_ratio: float = 0.25
    enable_verifier: bool = False

    def __post_init__(self):
        if self.min_const_chars < 1:
            raise ValueError("min_const_chars must be >= 1")
        if not 0.0 <= self.min_const_token_ratio <= 1.0:
            raise ValueError("min_const_token_ratio must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class Rejection:
    template: str
    reason: str
    method: str = ""


def normalize_template(text: str) -> TemplateBody:
    """Normalize a raw template string into a TemplateBody.

    Leftover ``{}`` placeholders become wildcards, adjacent wildcards
    collapse, and whitespace is trimmed from the template's outer edges
    only (the matcher strips incoming lines, so edge whitespace never
    takes part in matching). Interior constants are preserved verbatim.
    """
    unified = text.replace("{}", WILDCARD_TOKEN)
    segments = list(TemplateBody.parse(unified).segments)
    if segments and isinstance(segments[0], str):
        segments[0] = segments[0].lstrip()
    if segments and isinstance(segments[-1], str):
        segments[-1] = segments[-1].rstrip()
    return TemplateBody.from_segments(segments)


def constant_token_ratio(body: TemplateBody) -> float:
    """Fraction of whitespace tokens that keep any constant text.

    A token counts as constant when removing every wildcard marker from
    it leaves something non-empty; a template with no tokens has ratio 0.
    """
    tokens = body.render().split()
    if not tokens:
        return 0.0
    constant = sum(1 for token in tokens if token.replace(WILDCARD_TOKEN, "") != "")
    return constant / len(tokens)


def _filter_reason(body: TemplateBody, policy: PostProcessPolicy) -> str | None:
    if not body.has_constant:
        return REASON_ALL_WILDCARD
    if body.constant_chars < policy.min_const_chars:
        return REASON_TOO_FEW_CONSTANT_CHARS
    if constant_token_ratio(body) < policy.min_const_token_ratio:
        return REASON_LOW_CONSTANT_TOKEN_RATIO
    return None


def post_process(records: list[ExtractedTemplate], policy: PostProcessPolicy,
                 gateway=None, *, gateway_config: GatewayConfig = GatewayConfig()
                 ) -> tuple[list[Template], list[Rejection]]:
    """Normalize, filter, dedup and (optionally) verify extraction records.

    Duplicate bodies merge by ``merge_templates``. When the verifier is
    enabled a gateway must be supplied; each surviving template is
    confirmed by one verifier call, retried by ``invoke_gateway`` under
    ``gateway_config`` as the extraction call is, and rejected unless the
    reply starts with "yes"; any reply is a verdict, never malformed.
    Returns (accepted, rejected).
    """
    if policy.enable_verifier and gateway is None:
        raise ValueError("verifier enabled but no gateway supplied")

    rejected: list[Rejection] = []
    kept: list[Template] = []
    for record in records:
        body = normalize_template(record.template)
        reason = _filter_reason(body, policy)
        if reason is not None:
            rejected.append(Rejection(template=record.template, reason=reason,
                                      method=record.method))
            continue
        kept.append(Template(body=body, level=record.level,
                             methods=(record.method,) if record.method else ()))

    accepted: list[Template] = []
    for template in merge_templates(kept):
        if policy.enable_verifier:
            rendered = template.body.render()
            verdict = invoke_gateway(build_verifier_prompt(rendered), gateway_config,
                                     gateway, check=lambda reply: None)
            if not verdict.strip().lower().startswith("yes"):
                rejected.append(Rejection(template=rendered,
                                          reason=REASON_VERIFIER_REJECTED,
                                          method=";".join(template.methods)))
                continue
        accepted.append(template)
    return accepted, rejected
