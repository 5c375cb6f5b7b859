"""The traced pipeline: ``extract``, ``eval`` and ``parse`` rebuilt from public calls.

Each command is restated from its public layer functions, in the order
``cmd_extract``/``extract_unit``, ``cmd_eval`` and ``cmd_parse``/
``match_line``/``ClusterTree.ingest`` make them, with a span around every
layer call. Spans record name, parent and the file or line they serve,
stay in memory and are written out once the run ends. The traced outputs
are compared byte for byte with the CLI's, so a restatement that drifts
from the program shows up as a failed check rather than as wrong numbers.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict
from pathlib import Path

from logsmith.analyzer import (
    KIND_USER,
    build_call_graph,
    build_report,
    enumerate_paths,
    find_log_calls,
    parse_source,
    render_report,
)
from logsmith.config import Config
from logsmith.evaluation import load_ground_truth, score
from logsmith.matcher import MatchResult, compile_repository, match_line
from logsmith.templates import Template, level_rank, load_repository, save_repository
from logsmith.whitebox import (
    GatewayError,
    build_prompt,
    invoke_gateway,
    make_gateway,
    parse_response,
    post_process,
)


class Tracer:
    """In-memory spans: [name, parent index, item, start ns, end ns], in process CPU time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def span(self, name: str, item=None) -> "_Span":
        return _Span(self, name, item)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), nanoseconds in zip(self.spans, own):
            totals[name] += nanoseconds / 1e9
        return totals

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for span_name, _, _, start, end in self.spans
                if span_name == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, item, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "parent": parent,
                                         "item": item, "start_ns": start,
                                         "end_ns": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "item", "index")

    def __init__(self, tracer: Tracer, name: str, item):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, parent, self.item, time.process_time_ns(), None])
        tracer._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][4] = time.process_time_ns()
        tracer._open.pop()
        return False


class CountingGateway:
    """Wraps a gateway's ``send`` to count the attempts ``invoke_gateway`` hides."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.attempts = 0
        self.prompt_chars = 0

    def send(self, prompt: str) -> str:
        self.attempts += 1
        self.prompt_chars += len(prompt)
        return self.gateway.send(prompt)


def traced_extract(tracer: Tracer, corpus_dir: Path, out: Path, report_dir: Path,
                   config: Config) -> None:
    count = tracer.counts
    with tracer.span("cli.extract"):
        paths = sorted(corpus_dir.rglob("*.java"))
        files = []
        for path in paths:
            text = path.read_text(encoding="utf-8")
            with tracer.span("analyzer.parser", str(path)):
                files.append((parse_source(text, str(path)), text))
            count["analyzer.parser.bytes"] += len(text.encode("utf-8"))
        count["analyzer.parser.files"] += len(files)
        with tracer.span("analyzer.callgraph"):
            graph = build_call_graph([unit for unit, _ in files])
        project = {unit.fqn: text for unit, text in files}
        gateway = CountingGateway(make_gateway(config.gateway))
        units = []
        for unit, text in files:
            item = unit.path
            with tracer.span("analyzer.logcalls", item):
                sites = find_log_calls(unit)
            with tracer.span("analyzer.paths", item):
                enumerations = [enumerate_paths(site, graph, config.budget,
                                                config.builtin_methods)
                                for site in sites]
            with tracer.span("analyzer.report", item):
                report = build_report(enumerations)
                report_text = render_report(report)
            count["analyzer.logcalls.sites"] += len(sites)
            for enumeration in enumerations:
                count["analyzer.paths.paths"] += len(enumeration.paths)
                count["analyzer.paths.distinct"] += len(
                    {path.yielded for path in enumeration.paths})
                count["analyzer.paths.truncated_sites"] += enumeration.truncated
            accepted = []
            if sites:
                with tracer.span("whitebox.prompt", item):
                    prompt = build_prompt(_java_code(unit, text, project, enumerations),
                                          report_text)
                before = gateway.prompt_chars
                try:
                    with tracer.span("whitebox.gateway", item):
                        raw = invoke_gateway(prompt, config.gateway, gateway)
                except GatewayError:
                    raw = None
                count["whitebox.gateway.calls"] += 1
                count["whitebox.prompt.chars"] += gateway.prompt_chars - before
                if raw is not None:
                    with tracer.span("whitebox.responses", item):
                        records = parse_response(raw)
                    with tracer.span("whitebox.postprocess", item):
                        accepted, rejected = post_process(records, config.postprocess,
                                                          gateway)
                    count["whitebox.responses.records"] += len(records)
                    count["whitebox.postprocess.accepted"] += len(accepted)
                    count["whitebox.postprocess.rejected"] += len(rejected)
            units.append((unit, report, report_text, accepted))
        count["whitebox.gateway.attempts"] += gateway.attempts

        merged: dict = {}
        for _, _, _, accepted in units:
            for template in accepted:
                existing = merged.get(template.body)
                if existing is None:
                    merged[template.body] = template
                    continue
                level = existing.level
                if template.level and (level is None or
                                       level_rank(template.level) < level_rank(level)):
                    level = template.level
                methods = tuple(sorted(set(existing.methods) | set(template.methods)))
                merged[template.body] = Template(body=template.body, level=level,
                                                 methods=methods)
        with tracer.span("templates.save"):
            save_repository(list(merged.values()), out)
        report_dir.mkdir(parents=True, exist_ok=True)
        for unit, report, report_text, _ in units:
            stem = report_dir / unit.class_name
            stem.with_suffix(".report.txt").write_text(report_text, encoding="utf-8")
            stem.with_suffix(".report.json").write_text(
                json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")


def _java_code(unit, text: str, project: dict[str, str], enumerations) -> str:
    """The unit's source plus every project class its paths step into."""
    involved = {step.class_fqn for enumeration in enumerations
                for path in enumeration.paths for step in path.steps
                if step.callee_kind == KIND_USER}
    involved.discard(unit.fqn)
    parts = [text] + [project[fqn] for fqn in sorted(involved) if fqn in project]
    return "".join(part if part.endswith("\n") else part + "\n" for part in parts)


def traced_eval(tracer: Tracer, repo: Path, truth_path: Path, out: Path) -> None:
    with tracer.span("cli.eval"):
        with tracer.span("templates.load"):
            parsed = [template.body for template in load_repository(repo)]
        with tracer.span("evaluation.load"):
            truth = load_ground_truth(truth_path)
        with tracer.span("evaluation.score"):
            report = score(parsed, truth)
        tracer.counts["evaluation.pairs"] += len(report.matched_pairs)
        payload = {"precision": report.precision, "recall": report.recall,
                   "f1": report.f1, "matched_pairs": report.matched_pairs,
                   "timing": None}
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def traced_parse(tracer: Tracer, repo: Path, stream: Path, out: Path,
                 config: Config) -> None:
    count = tracer.counts
    with tracer.span("cli.parse"):
        with tracer.span("templates.load"):
            templates = load_repository(repo)
        with tracer.span("matcher.compile"):
            compiled = compile_repository(templates, config.allow_empty_inner)
        lines = stream.read_text(encoding="utf-8").splitlines()
        tree = config.make_tree()
        header = re.compile(config.header_pattern) if config.header_pattern else None
        results = []
        for index, line in enumerate(lines):
            message = line.rstrip("\n")
            prefix = header.match(message) if header is not None else None
            if prefix is not None:
                message = message[prefix.end():]
            if not message.strip():
                continue
            with tracer.span("matcher", index):
                result = match_line(compiled, message)
            if result.matched:
                count["matcher.hits"] += 1
                count["matcher.candidates"] += result.template_id + 1
            else:
                count["matcher.candidates"] += len(compiled)
                with tracer.span("blackbox", index):
                    cluster_id, cluster_template = tree.ingest(message.strip())
                result = MatchResult(log_line=message, matched=False,
                                     cluster_id=cluster_id,
                                     cluster_template=cluster_template)
            results.append(result)
        with open(out, "w", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(_record(result), ensure_ascii=False) + "\n")
        count["matcher.lines"] += len(results)
        count["blackbox.ingested"] += len(results) - count["matcher.hits"]
        count["blackbox.clusters"] += len(tree.clusters)


def _record(result: MatchResult) -> dict:
    record = {"line": result.log_line, "matched": result.matched}
    if result.matched:
        record["template_id"] = result.template_id
        record["template"] = result.template
        record["captures"] = list(result.captures)
    else:
        record["cluster_id"] = result.cluster_id
        record["cluster_template"] = result.cluster_template
    return record
