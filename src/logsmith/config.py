"""Declarative configuration for the pipeline.

One YAML file configures every stage; command-line flags override file
values, and credentials come only from the environment. Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

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
    "gateway": {item.name for item in fields(GatewayConfig)},
    "postprocess": {item.name for item in fields(PostProcessPolicy)},
    "tree": {"depth", "sim_threshold", "max_children"},
    "paths": {item.name for item in fields(PathBudget)},
    "matching": {"header_pattern", "allow_empty_inner"},
    "analyzer": {"builtin_methods"},
}

# What the file must give a field of each type, and the exact types it may
# be; a bool is no number, though Python counts it as an int.
_TYPES = {int: ("an integer", (int,)), float: ("a number", (int, float)),
          bool: ("true or false", (bool,)), str: ("a string", (str,)),
          str | None: ("a string or null", (str, type(None))),
          tuple[str, ...]: ("a list of strings", (list,))}


def _typed(name: str, value, hint):
    """``value`` as a field annotated ``hint`` holds it; ``name`` is its key in the file."""
    expected, types = _TYPES[hint]
    if type(value) not in types or (
            hint == tuple[str, ...] and not all(type(item) is str for item in value)):
        raise ConfigError(f"{name} must be {expected}, not {value!r}")
    return tuple(value) if type(value) is list else float(value) if hint is float else value


def _hint(hints: dict[type, dict], owner: type, name: str):
    """The annotation of ``owner``'s field ``name``. ``hints`` keeps each
    class's resolved annotations, so one build resolves a class at most once
    and only when the file gives one of its fields."""
    if owner not in hints:
        hints[owner] = get_type_hints(owner)
    return hints[owner][name]


def _section(data: dict, name: str, owner: type, hints: dict[type, dict],
             prefix: str = "") -> dict:
    """Section ``name`` as values of ``owner``'s fields, each named ``prefix`` + key."""
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - SECTIONS[name]
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {', '.join(sorted(unknown))}")
    return {prefix + key: _typed(f"{name}.{key}", value, _hint(hints, owner, prefix + key))
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


def build_config(data) -> Config:
    """Validate a mapping shaped like the YAML file and build its Config.

    Keys left out keep the dataclass defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(SECTIONS) - {"workers"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    hints: dict[type, dict] = {}
    try:  # out-of-range values, an integer past the float range among them
        values = {**_section(data, "tree", Config, hints, "tree_"),
                  **_section(data, "matching", Config, hints),
                  **_section(data, "analyzer", Config, hints)}
        if "workers" in data:
            values["workers"] = _typed("workers", data["workers"],
                                       _hint(hints, Config, "workers"))
        return Config(gateway=GatewayConfig(**_section(data, "gateway", GatewayConfig, hints)),
                      postprocess=PostProcessPolicy(
                          **_section(data, "postprocess", PostProcessPolicy, hints)),
                      budget=PathBudget(**_section(data, "paths", PathBudget, hints)),
                      **values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
