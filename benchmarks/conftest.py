"""Shared helpers for the benchmark harness.

Every bench regenerates one paper figure/table: it runs the corresponding
``repro.experiments`` module once under pytest-benchmark (so regeneration
cost is tracked) and prints the regenerated rows next to the paper's
published values.  Durations/repetitions are scaled down from the paper's
25-minute/5-repetition settings for wall-clock economy; pass
``--paper-scale`` to run the full-size experiments.
"""

import os
import sys

import pytest

# The seed oracles live in the test tree (``tests/oracles/``); make the
# repository root importable however pytest was launched.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run experiments at the paper's full trace durations",
    )


@pytest.fixture(scope="session")
def scale(request):
    """(duration_seconds, repetitions) for matrix experiments."""
    if request.config.getoption("--paper-scale"):
        return 1500.0, 5
    return 300.0, 2

