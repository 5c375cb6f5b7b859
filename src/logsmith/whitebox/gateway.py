"""Gateway transport for template extraction.

Two implementations sit behind one ``send`` interface: an HTTP gateway
speaking the chat-completion wire format, and a deterministic mock that
re-derives templates mechanically from the source code embedded in the
prompt. The mock keeps the whole test suite network-free and reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..analyzer import (
    DEFAULT_BUILTIN_METHODS,
    PathBudget,
    SourceSyntaxError,
    build_call_graph,
    enumerate_paths,
    find_log_calls,
    parse_sources,
)
from ..templates import TemplateBody
from .prompt import java_code_slot
from .responses import MalformedResponse, parse_response, render_records, ExtractedTemplate

API_KEY_VARIABLE = "LOGSMITH_API_KEY"

VERIFIER_PREFIX = (
    'You are a log template reviewer. Answer strictly "yes" or "no": '
    "does the following log template meaningfully discriminate failure modes?"
)


_VERIFIER_HEAD = f"{VERIFIER_PREFIX}\n\nTemplate: "


def build_verifier_prompt(template_text: str) -> str:
    return f"{_VERIFIER_HEAD}{template_text}\n"


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    endpoint: str = "mock:"
    model: str = "mock-extractor"
    temperature: float = 0.1
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")


class GatewayError(Exception):
    """Base class for gateway transport failures."""


class GatewayUnavailable(GatewayError):
    pass


class GatewayTimeout(GatewayError):
    pass


class RetriesExhausted(GatewayError):
    def __init__(self, attempts: int, last_error: Exception):
        super().__init__(f"gave up after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class HttpGateway:
    """Chat-completion style HTTP transport.

    Credentials come from the LOGSMITH_API_KEY environment variable; the
    request carries model, temperature and the prompt as a single user
    message.
    """

    def __init__(self, config: GatewayConfig):
        self.config = config

    def send(self, prompt: str) -> str:
        import requests  # only a run that sends over HTTP pays for this import

        headers = {}
        api_key = os.environ.get(API_KEY_VARIABLE)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        try:
            response = requests.post(self.config.endpoint, json=payload,
                                     headers=headers, timeout=self.config.timeout)
        except requests.Timeout as exc:
            raise GatewayTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise GatewayUnavailable(str(exc)) from exc
        if response.status_code >= 400:
            raise GatewayUnavailable(f"endpoint returned HTTP {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayUnavailable(f"unexpected response shape: {exc}") from exc
        if not isinstance(content, str):
            raise GatewayUnavailable(
                f"unexpected response shape: content is {type(content).__name__}, not str")
        return content


class MockGateway:
    """Deterministic stand-in for a hosted model.

    Extraction prompts are answered by re-parsing the source files in the
    prompt's java_code slot with the parser ``extract`` uses, and applying
    the replacement rules the instructions mandate: string literals stay,
    and every identifier, built-in call, unknown call and ``{}``
    placeholder becomes a wildcard — exactly one record per enumerated
    path of a log call in the first file, the unit's own; the files after
    it are there only for its paths to step into. Verifier prompts are
    answered "yes" when the template keeps at least one alphanumeric
    constant character, "no" otherwise. Paths are enumerated under the same
    budget and built-in method names as the analysis that wrote the prompt.
    """

    def __init__(self, budget: PathBudget = PathBudget(),
                 builtin_methods=DEFAULT_BUILTIN_METHODS):
        self.budget = budget
        self.builtin_methods = builtin_methods

    def send(self, prompt: str) -> str:
        if not prompt.startswith(_VERIFIER_HEAD):
            return self._extract(prompt)
        body = TemplateBody.parse(prompt[len(_VERIFIER_HEAD):].strip())
        keeps_content = any(ch.isalnum() for const in body.constants for ch in const)
        return "yes" if keeps_content else "no"

    def _extract(self, prompt: str) -> str:
        try:
            units = parse_sources(java_code_slot(prompt), path="<prompt>")
        except (ValueError, SourceSyntaxError) as exc:
            raise GatewayUnavailable(f"mock could not parse the prompt's code: {exc}") from exc
        graph = build_call_graph(units)
        return render_records([
            ExtractedTemplate(method=site.method_fqn, template=path.yielded.render(),
                              level=site.level)
            for site in find_log_calls(units[0])
            for path in enumerate_paths(site, graph, self.budget, self.builtin_methods,
                                        with_steps=False).paths])


def make_gateway(config: GatewayConfig, budget: PathBudget = PathBudget(),
                 builtin_methods=DEFAULT_BUILTIN_METHODS):
    """The gateway for ``config``; the mock analyzes under ``budget``."""
    if config.endpoint.startswith("mock"):
        return MockGateway(budget, builtin_methods)
    return HttpGateway(config)


def invoke_gateway(prompt: str, config: GatewayConfig, gateway,
                   check=parse_response) -> str:
    """Send the prompt, retrying on transport errors and on replies that
    ``check`` rejects with MalformedResponse: the one retry loop, for the
    extraction call and each verifier call alike.

    Performs up to ``max_retries + 1`` attempts and returns the first raw
    reply ``check`` accepts (by default, one whose text parses as a record
    array). Raises RetriesExhausted once attempts run out.
    """
    attempts = config.max_retries + 1
    last_error: Exception | None = None
    for _ in range(attempts):
        try:
            text = gateway.send(prompt)
            check(text)
            return text
        except (GatewayUnavailable, GatewayTimeout, MalformedResponse) as exc:
            last_error = exc
    raise RetriesExhausted(attempts, last_error)
