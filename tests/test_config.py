from __future__ import annotations

import re
from dataclasses import dataclass, fields
from dataclasses import field as dc_field
from pathlib import Path

import pytest
import yaml

from logsmith import config as config_module
from logsmith.analyzer import PathBudget
from logsmith.blackbox import ClusterTree
from logsmith.config import SECTIONS, Config, ConfigError, build_config
from logsmith.whitebox import GatewayConfig, PostProcessPolicy

from conftest import load_config


def test_defaults():
    config = Config()
    assert config.gateway.endpoint == "mock:"
    assert config.gateway.max_retries == 2
    assert config.postprocess.min_const_chars == 3
    assert config.postprocess.min_const_token_ratio == 0.25
    assert config.postprocess.enable_verifier is False
    assert config.tree_depth == 4
    assert config.tree_sim_threshold == 0.4
    assert config.tree_max_children == 100
    assert config.budget.max_call_depth == 8
    assert config.budget.max_paths_per_site == 64
    assert config.header_pattern is None
    assert config.allow_empty_inner is False
    assert "toUpperCase" in config.builtin_methods


def test_make_tree_uses_configured_parameters():
    config = Config(tree_depth=5, tree_sim_threshold=0.7, tree_max_children=10)
    tree = config.make_tree()
    assert isinstance(tree, ClusterTree)
    assert (tree.depth, tree.sim_threshold, tree.max_children) == (5, 0.7, 10)
    # each call yields an independent tree
    assert config.make_tree() is not tree


def test_full_yaml_round_trip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "gateway:\n"
        "  endpoint: https://api.test/v1\n"
        "  model: extractor-2\n"
        "  temperature: 0.0\n"
        "  timeout: 5.5\n"
        "  max_retries: 4\n"
        "postprocess:\n"
        "  min_const_chars: 2\n"
        "  min_const_token_ratio: 0.5\n"
        "  enable_verifier: true\n"
        "tree:\n"
        "  depth: 6\n"
        "  sim_threshold: 0.55\n"
        "  max_children: 24\n"
        "paths:\n"
        "  max_call_depth: 3\n"
        "  max_paths_per_site: 16\n"
        "matching:\n"
        "  header_pattern: '^\\S+ '\n"
        "  allow_empty_inner: true\n"
        "analyzer:\n"
        "  builtin_methods: [trim, concat]\n",
        encoding="utf-8")
    config = load_config(path)
    assert config.gateway.endpoint == "https://api.test/v1"
    assert config.gateway.model == "extractor-2"
    assert config.gateway.temperature == 0.0
    assert config.gateway.timeout == 5.5
    assert config.gateway.max_retries == 4
    assert config.postprocess.min_const_chars == 2
    assert config.postprocess.enable_verifier is True
    assert config.tree_depth == 6
    assert config.tree_sim_threshold == 0.55
    assert config.tree_max_children == 24
    assert config.budget.max_call_depth == 3
    assert config.budget.max_paths_per_site == 16
    assert config.header_pattern == "^\\S+ "
    assert config.allow_empty_inner is True
    assert config.builtin_methods == ("trim", "concat")


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(path) == Config()


def test_integer_for_a_number_and_null_pattern_are_accepted(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("gateway:\n  timeout: 5\nmatching:\n  header_pattern: null\n",
                    encoding="utf-8")
    config = load_config(path)
    assert config == Config(gateway=GatewayConfig(timeout=5.0))
    assert type(config.gateway.timeout) is float
    assert config.header_pattern is None


def test_unknown_top_level_key(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("gatway:\n  endpoint: 'mock:'\n", encoding="utf-8")
    with pytest.raises(ConfigError) as error:
        load_config(path)
    assert "gatway" in str(error.value)


def test_unknown_section_key(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("tree:\n  dept: 4\n", encoding="utf-8")
    with pytest.raises(ConfigError) as error:
        load_config(path)
    assert "dept" in str(error.value)


def test_section_must_be_mapping(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("tree: [1, 2]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_root_must_be_mapping(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_invalid_yaml(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("tree: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


@pytest.mark.parametrize("body", [
    "tree:\n  depth: 1\n",
    "tree:\n  sim_threshold: 0.0\n",
    "tree:\n  max_children: 0\n",
    "gateway:\n  temperature: 9.0\n",
    "gateway:\n  max_retries: -1\n",
    "postprocess:\n  min_const_chars: 0\n",
    "paths:\n  max_call_depth: 0\n",
    "workers: 0\n",
    "analyzer:\n  builtin_methods: [1, 2]\n",
    "gateway:\n  timeout: .nan\n",
    "gateway:\n  max_retries: 1.5\n",
    "postprocess:\n  min_const_chars: 3.0\n",
    "tree:\n  depth: 2.5\n",
    "tree:\n  max_children: 10.5\n",
    "paths:\n  max_call_depth: 2.5\n",
    "paths:\n  max_paths_per_site: '8'\n",
    "workers: 2.0\n",
    "workers: true\n",
    "gateway:\n  endpoint: 5\n",
    "gateway:\n  model: [a]\n",
    "gateway:\n  timeout: true\n",
    "postprocess:\n  enable_verifier: 'false'\n",
    "matching:\n  allow_empty_inner: 'false'\n",
    "matching:\n  header_pattern: 5\n",
    "analyzer:\n  builtin_methods: [a, 1]\n",
    pytest.param("gateway:\n  timeout: 1" + "0" * 400 + "\n", id="timeout past the float range"),
])
def test_out_of_range_values_rejected(tmp_path, body):
    path = tmp_path / "config.yaml"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_header_pattern_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("matching:\n  header_pattern: '['\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ValueError):
        Config(header_pattern="[")


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        Config(tree_depth=1)


# The class whose fields each section sets, and the prefix of their names.
SECTION_FIELDS = {"gateway": (GatewayConfig, ""), "postprocess": (PostProcessPolicy, ""),
                  "tree": (Config, "tree_"), "paths": (PathBudget, ""),
                  "matching": (Config, ""), "analyzer": (Config, "")}


def untyped_fields(owner: type, names) -> list[str]:
    """The fields of ``owner`` named in ``names`` whose annotation ``_TYPES``
    does not know."""
    annotations = {item.name: item.type for item in fields(owner)}
    return [name for name in names if annotations[name] not in config_module._TYPES]


def test_every_field_a_section_names_has_an_annotation_the_file_types_know():
    assert SECTION_FIELDS.keys() == SECTIONS.keys()
    for name, keys in SECTIONS.items():
        owner, prefix = SECTION_FIELDS[name]
        assert untyped_fields(owner, sorted(prefix + key for key in keys)) == [], name


def test_an_annotation_the_file_types_do_not_know_fails_the_check():
    @dataclass(frozen=True)
    class Planted:
        depth: int = 1
        sizes: list[int] = dc_field(default_factory=list)

    assert untyped_fields(Planted, ["depth", "sizes"]) == ["sizes"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_block(text: str) -> str:
    """The fenced ``yaml`` block under the README's ``## Configuration``."""
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def check_config_block(block: str) -> None:
    """Fail unless ``block`` builds and sets every key of every section."""
    data = yaml.safe_load(block)
    build_config(data)
    assert {name: set(section) for name, section in data.items()} == SECTIONS


def test_readme_config_block_sets_exactly_the_schema():
    check_config_block(readme_config_block(README.read_text(encoding="utf-8")))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda block: block + "workers: 1\n", id="stale workers line"),
    pytest.param(lambda block: re.sub(r"^  model: .*\n", "", block, flags=re.M),
                 id="missing key"),
])
def test_a_planted_edit_of_the_config_block_fails_the_check(edit):
    block = readme_config_block(README.read_text(encoding="utf-8"))
    planted = edit(block)
    assert planted != block
    with pytest.raises((ConfigError, AssertionError)):
        check_config_block(planted)
