"""Locates the program under test inside the checkout.

The benchmark drives logsmith from its source tree (``src/``) and borrows
two helpers from the test suite: the project generator and the
brute-force path interpreter (``tests/generator.py``, ``tests/oracle.py``).
Nothing is installed; a checkout without these files is refused.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
TESTS = ROOT / "tests"


class MissingProgram(Exception):
    """The checkout does not hold the program's sources."""


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def load():
    """Put ``src/`` first on the import path; return (generator, oracle) modules."""
    required = (SOURCE / "logsmith" / "__init__.py", TESTS / "generator.py",
                TESTS / "oracle.py")
    missing = [str(path.relative_to(ROOT)) for path in required if not path.is_file()]
    if missing:
        raise MissingProgram(f"not found in {ROOT}: {', '.join(missing)}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import logsmith
    if Path(logsmith.__file__).resolve().parent != SOURCE / "logsmith":
        raise MissingProgram(f"logsmith imported from {logsmith.__file__}, "
                             f"not from {SOURCE}")
    generator = _load_module("perfbench_generator", TESTS / "generator.py")
    oracle = _load_module("perfbench_oracle", TESTS / "oracle.py")
    return generator, oracle
