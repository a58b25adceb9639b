"""Every callable the benchmark wraps by name must still exist.

perfbench/child.py replaces the callables listed in its TRACED and COUNTED
tables; a missing one breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import child  # noqa: E402

sys.path.pop(0)


@pytest.mark.parametrize(
    "module, attr", [(mod, attr) for _, mod, attr in child.TRACED + child.COUNTED]
)
def test_benchmarked_callable_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
