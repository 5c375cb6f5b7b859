"""Per-unit extraction orchestration: analyze, prompt, invoke, post-process.

A unit with no logging calls short-circuits before any gateway traffic.
For the rest, the prompt carries the unit's source plus the source of
every project class its call paths actually enter, alongside the rendered
static-analysis report. The extraction call and each verifier call are
retried by ``invoke_gateway``'s one rule; one that runs out of attempts is
recorded as the unit's error and leaves that unit's logs to the black-box
path, and never aborts the project run.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

from ..analyzer import (
    DEFAULT_BUILTIN_METHODS,
    KIND_USER,
    PathBudget,
    PathEnumeration,
    SourceUnit,
    StaticReport,
    analyze_project,
    build_report,
    render_report,
)
from ..templates import Template
from .gateway import GatewayConfig, GatewayError, invoke_gateway, make_gateway
from .postprocess import PostProcessPolicy, Rejection, post_process
from .prompt import build_prompt
from .responses import parse_response


@dataclass(frozen=True, slots=True)
class ProjectFile:
    unit: SourceUnit
    text: str


@dataclass(slots=True)
class UnitExtraction:
    unit: SourceUnit
    report: StaticReport
    report_text: str
    accepted: list[Template] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list)
    error: str | None = None


def extract_unit(entry: ProjectFile, project: dict[str, ProjectFile],
                 enumerations: list[PathEnumeration], gateway, *,
                 gateway_config: GatewayConfig = GatewayConfig(),
                 policy: PostProcessPolicy = PostProcessPolicy()) -> UnitExtraction:
    """Extract one unit's templates from the enumerations of its log calls."""
    report = build_report(enumerations)
    report_text = render_report(report)
    result = UnitExtraction(unit=entry.unit, report=report, report_text=report_text)
    if not enumerations:
        return result

    prompt = build_prompt(_java_code(entry, project, enumerations), report_text)
    try:
        reply = invoke_gateway(prompt, gateway_config, gateway)
        result.accepted, result.rejected = post_process(
            parse_response(reply), policy, gateway, gateway_config=gateway_config)
    except GatewayError as exc:  # an extraction or verifier call ran out of attempts
        result.error = str(exc)
    return result


def _java_code(entry: ProjectFile, project: dict[str, ProjectFile],
               enumerations: list[PathEnumeration]) -> str:
    """The unit's source plus every project class its paths step into."""
    involved = {step.class_fqn for enumeration in enumerations
                for path in enumeration.paths for step in path.steps
                if step.callee_kind == KIND_USER}
    involved.discard(entry.unit.fqn)
    parts = [entry.text] + [project[fqn].text for fqn in sorted(involved) if fqn in project]
    # each file ends with a newline, so a closing line comment ends in its own file
    return "".join(text if text.endswith("\n") else text + "\n" for text in parts)


def extract_project(files: list[ProjectFile], gateway=None, *,
                    gateway_config: GatewayConfig = GatewayConfig(),
                    policy: PostProcessPolicy = PostProcessPolicy(),
                    budget: PathBudget = PathBudget(),
                    builtin_methods=DEFAULT_BUILTIN_METHODS,
                    workers: int = 1) -> Iterator[UnitExtraction]:
    """Yield each parsed file's extraction, in input order.

    One call graph over all files resolves helper calls, and a unit's paths
    are enumerated only when that unit is reached, so what is held beyond
    the parsed project is the units in flight. With ``workers > 1``, units
    are extracted concurrently (no stage changes the parsed project, and
    gateways are called at most ``workers`` at a time), and at most
    ``2 * workers`` units are started ahead of the one yielded.
    """
    analyses = analyze_project([f.unit for f in files], budget, builtin_methods)
    project = {f.unit.fqn: f for f in files}
    if gateway is None:
        gateway = make_gateway(gateway_config, budget, builtin_methods)

    def run_one(entry: ProjectFile, enumerations: list[PathEnumeration]) -> UnitExtraction:
        return extract_unit(entry, project, enumerations, gateway,
                            gateway_config=gateway_config, policy=policy)

    if workers == 1 or len(files) < 2:
        yield from map(run_one, files, analyses)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()
    try:
        for entry, enumerations in zip(files, analyses):
            pending.append(pool.submit(run_one, entry, enumerations))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:  # a caller that stops early starts no further unit
        pool.shutdown(cancel_futures=True)
