from __future__ import annotations

import pytest

from logsmith import config as config_module
from logsmith.blackbox import ClusterTree
from logsmith.config import Config, ConfigError, build_config
from logsmith.whitebox import GatewayConfig

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
    assert config.workers == 1


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
        "  builtin_methods: [trim, concat]\n"
        "workers: 3\n",
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
    assert config.workers == 3


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
        Config(workers=0)
    with pytest.raises(ValueError):
        Config(tree_depth=1)


@pytest.mark.parametrize("data, resolved", [
    ({}, []),
    ({"tree": {}, "gateway": None, "paths": {}}, []),
    ({"workers": 2}, [Config]),
    ({"tree": {"depth": 5}, "matching": {"allow_empty_inner": True},
      "analyzer": {"builtin_methods": []}, "workers": 2}, [Config]),
    ({"gateway": {"max_retries": 2}, "workers": 3}, [Config, GatewayConfig]),
])
def test_type_hints_resolved_only_for_given_keys_and_once(monkeypatch, data, resolved):
    calls = []

    def get_type_hints(owner):
        calls.append(owner)
        return real(owner)
    real = config_module.get_type_hints
    monkeypatch.setattr(config_module, "get_type_hints", get_type_hints)
    build_config(data)
    assert sorted(calls, key=lambda owner: owner.__name__) == resolved
