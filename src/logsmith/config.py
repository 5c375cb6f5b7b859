"""Declarative configuration for the pipeline.

One YAML file configures every stage; command-line flags override file
values, and credentials come only from the environment. Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

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

    def __post_init__(self):
        # delegate range checks to the tree constructor
        self.make_tree()
        if self.header_pattern is not None:
            try:
                re.compile(self.header_pattern)
            except re.error as exc:
                raise ValueError(f"invalid header_pattern: {exc}") from exc

    def make_tree(self) -> ClusterTree:
        return ClusterTree(depth=self.tree_depth,
                           sim_threshold=self.tree_sim_threshold,
                           max_children=self.tree_max_children)


# The keys each section of the file accepts; every key belongs to a section.
SECTIONS = {
    "gateway": {item.name for item in fields(GatewayConfig)},
    "postprocess": {item.name for item in fields(PostProcessPolicy)},
    "tree": {"depth", "sim_threshold", "max_children"},
    "paths": {item.name for item in fields(PathBudget)},
    "matching": {"header_pattern", "allow_empty_inner"},
    "analyzer": {"builtin_methods"},
}

# What the file must give a field of each annotation, and the exact types it
# may be; a bool is no number, though Python counts it as an int. Every module
# that defines a configured dataclass defers its annotations, so each field's
# ``type`` is its annotation text.
_TYPES = {"int": ("an integer", (int,)), "float": ("a number", (int, float)),
          "bool": ("true or false", (bool,)), "str": ("a string", (str,)),
          "str | None": ("a string or null", (str, type(None))),
          "tuple[str, ...]": ("a list of strings", (list,))}


def _typed(name: str, value, annotation: str):
    """``value`` as a field annotated ``annotation`` holds it; ``name`` is its key in the file."""
    expected, types = _TYPES[annotation]
    if type(value) not in types or (
            annotation == "tuple[str, ...]" and not all(type(item) is str for item in value)):
        raise ConfigError(f"{name} must be {expected}, not {value!r}")
    return (tuple(value) if type(value) is list
            else float(value) if annotation == "float" else value)


def _section(data: dict, name: str, owner: type, prefix: str = "") -> dict:
    """Section ``name`` as values of ``owner``'s fields, each named ``prefix`` + key."""
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - SECTIONS[name]
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {', '.join(sorted(unknown))}")
    annotations = {item.name: item.type for item in fields(owner)}
    return {prefix + key: _typed(f"{name}.{key}", value, annotations[prefix + key])
            for key, value in section.items()}


def read_config(path: str | Path) -> dict:
    """The mapping a YAML config file holds (empty for an empty file)."""
    import yaml  # only a run given a config file pays for this import

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        return yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    except RecursionError as exc:  # the loader recurses once per nesting level
        raise ConfigError("invalid YAML: nested too deeply") from exc


def build_config(data) -> Config:
    """Validate a mapping shaped like the YAML file and build its Config.

    Keys left out keep the dataclass defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    try:  # out-of-range values, an integer past the float range among them
        values = {**_section(data, "tree", Config, "tree_"),
                  **_section(data, "matching", Config),
                  **_section(data, "analyzer", Config)}
        return Config(gateway=GatewayConfig(**_section(data, "gateway", GatewayConfig)),
                      postprocess=PostProcessPolicy(
                          **_section(data, "postprocess", PostProcessPolicy)),
                      budget=PathBudget(**_section(data, "paths", PathBudget)),
                      **values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
