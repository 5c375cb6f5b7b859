from __future__ import annotations

from pathlib import Path

import pytest

from logsmith.analyzer import build_call_graph, find_log_calls, parse_source
from logsmith.config import Config, build_config, read_config

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE_PROJECT = FIXTURES / "example_project"
GOLDEN_REPORT = FIXTURES / "example_report.txt"


def parse_project(directory: Path):
    """Parse every .java file in a directory, sorted by path."""
    units = []
    texts = {}
    for path in sorted(directory.rglob("*.java")):
        text = path.read_text(encoding="utf-8")
        unit = parse_source(text, str(path))
        units.append(unit)
        texts[unit.fqn] = text
    return units, texts


def load_config(path: str | Path) -> Config:
    """Load and validate a YAML config file; missing keys use defaults."""
    return build_config(read_config(path))


@pytest.fixture(scope="session")
def example_units():
    units, _ = parse_project(EXAMPLE_PROJECT)
    return units


@pytest.fixture(scope="session")
def example_graph(example_units):
    return build_call_graph(example_units)


@pytest.fixture(scope="session")
def example_sites(example_units):
    sites = [site for unit in example_units for site in find_log_calls(unit)]
    sites.sort(key=lambda site: (site.unit.path, site.line))
    return sites
