"""Declarative configuration for the pipeline.

One YAML file configures every stage; command-line flags override file
values, and credentials come only from the environment. Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .analyzer import DEFAULT_BUILTIN_METHODS, PathBudget
from .blackbox import ClusterTree
from .whitebox import GatewayConfig, PostProcessPolicy


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    postprocess: PostProcessPolicy = field(default_factory=PostProcessPolicy)
    tree_depth: int = 4
    tree_sim_threshold: float = 0.4
    tree_max_children: int = 100
    budget: PathBudget = field(default_factory=PathBudget)
    header_pattern: str | None = None
    allow_empty_inner: bool = False
    builtin_methods: tuple[str, ...] = DEFAULT_BUILTIN_METHODS
    workers: int = 1

    def __post_init__(self):
        # delegate range checks to the tree constructor
        self.make_tree()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.header_pattern is not None:
            try:
                re.compile(self.header_pattern)
            except re.error as exc:
                raise ValueError(f"invalid header_pattern: {exc}") from exc

    def make_tree(self) -> ClusterTree:
        return ClusterTree(depth=self.tree_depth,
                           sim_threshold=self.tree_sim_threshold,
                           max_children=self.tree_max_children)


# The keys each section of the file accepts; ``workers`` is the only
# top-level key that is not a section.
SECTIONS = {
    "gateway": {"endpoint", "model", "temperature", "timeout", "max_retries"},
    "postprocess": {"min_const_chars", "min_const_token_ratio", "enable_verifier"},
    "tree": {"depth", "sim_threshold", "max_children"},
    "paths": {"max_call_depth", "max_paths_per_site"},
    "matching": {"header_pattern", "allow_empty_inner"},
    "analyzer": {"builtin_methods"},
}


# A float in these would pass the range checks and fail in the stage using it.
_INTEGER_KEYS = {"max_retries", "min_const_chars", "depth", "max_children",
                 "max_call_depth", "max_paths_per_site", "workers"}


def _integers_checked(mapping: dict, prefix: str) -> dict:
    for key in _INTEGER_KEYS & mapping.keys():
        if type(mapping[key]) is not int:  # bool is an int subclass
            raise ConfigError(f"{prefix}{key} must be an integer, not {mapping[key]!r}")
    return mapping


def _section(data: dict, name: str, allowed: set[str]) -> dict:
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {', '.join(sorted(unknown))}")
    return _integers_checked(section, f"{name}.")


def read_config(path: str | Path) -> dict:
    """The mapping a YAML config file holds (empty for an empty file)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        return yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc


def build_config(data) -> Config:
    """Validate a mapping shaped like the YAML file and build its Config.

    Keys left out keep the dataclass defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(SECTIONS) - {"workers"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    sections = {name: _section(data, name, keys) for name, keys in SECTIONS.items()}
    _integers_checked(data, "")

    fields = {f"tree_{key}": value for key, value in sections["tree"].items()}
    fields.update(sections["matching"])
    if "allow_empty_inner" in fields:
        fields["allow_empty_inner"] = bool(fields["allow_empty_inner"])
    if "builtin_methods" in sections["analyzer"]:
        builtins = sections["analyzer"]["builtin_methods"]
        if (not isinstance(builtins, list)
                or not all(isinstance(name, str) for name in builtins)):
            raise ConfigError("analyzer.builtin_methods must be a list of strings")
        fields["builtin_methods"] = tuple(builtins)
    if "workers" in data:
        fields["workers"] = data["workers"]
    try:
        return Config(gateway=GatewayConfig(**sections["gateway"]),
                      postprocess=PostProcessPolicy(**sections["postprocess"]),
                      budget=PathBudget(**sections["paths"]), **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> Config:
    """Load and validate a YAML config file; missing keys use defaults."""
    return build_config(read_config(path))
