"""Layering: the production tree never imports the test tree or an oracle.

The frozen seed oracles (``tests/oracles/``) exist so the golden suites
and benchmarks can hold the one production code path to bit identity and
speed.  If ``src/`` imported them, the oracle would stop being an
independent reference.  This scans every module under ``src/repro``.

It also holds ``src/`` off ``MetricsCollector.records``: the per-batch
row view of the columnar completion ledger is kept for API compatibility
only, and production summaries read the columns.

And it keeps the telemetry sinks off the components: the simulator,
control-plane and baseline layers report each run fact to the tracer
they were handed, so none of them touches a sink attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

#: Module names of the seed oracles, wherever they might be imported from.
ORACLE_MODULES = {
    "oracles", "reference_simulator", "reference_model", "reference_policy",
    "reference_metrics", "reference_telemetry", "_reference",
    "_reference_model",
}


def forbidden_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every import in ``source`` that reaches the
    test tree or an oracle module."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "tests" or ORACLE_MODULES.intersection(parts):
                bad.append((node.lineno, name))
    return bad


def test_scan_covers_the_package():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_imports_no_tests_or_oracles(path):
    assert forbidden_imports(path.read_text()) == []


def test_scanner_flags_oracle_imports():
    source = (
        "import numpy\n"
        "import tests.oracles\n"
        "from repro.core._reference_model import reference_optimal_split\n"
        "from tests.oracles import reference_policy\n"
        "from repro.simulator import _reference\n"
        "from repro.core.model import optimal_split\n"
    )
    assert [line for line, _ in forbidden_imports(source)] == [2, 3, 4, 5]


def metrics_record_reads(source: str) -> list[int]:
    """Lines reading ``<...>metrics.records``: the per-batch row view of
    the completion ledger exists for callers outside ``src/`` only."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "records"
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "metrics")
            or (isinstance(node.value, ast.Attribute)
                and node.value.attr == "metrics")
        )
    ]


def test_src_never_reads_the_ledger_row_view():
    assert {
        str(p.relative_to(SRC)): lines
        for p in MODULES
        if (lines := metrics_record_reads(p.read_text()))
    } == {}


def test_scanner_flags_ledger_row_view_reads():
    source = (
        "rows = result.metrics.records\n"
        "rows = metrics.records\n"
        "rows = data.records\n"
        "n = result.metrics.completed_requests()\n"
    )
    assert metrics_record_reads(source) == [1, 2]


#: Layers that report run facts to the tracer and hold no sink.
SINK_FREE_LAYERS = ("simulator", "core", "baselines")
#: Attribute names of the telemetry sinks that live on the tracer.
SINK_ATTRIBUTES = {"costmeter", "reqtrace", "slo_monitor", "cost_monitor"}


def sink_attribute_uses(source: str) -> list[tuple[int, str]]:
    """``(line, attribute)`` of every read or write of a sink attribute."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SINK_ATTRIBUTES
    )


def test_components_hold_no_telemetry_sinks():
    layers = [p for p in MODULES if p.relative_to(SRC).parts[0] in
              SINK_FREE_LAYERS]
    assert len(layers) > 20
    assert {
        str(p.relative_to(SRC)): uses
        for p in layers
        if (uses := sink_attribute_uses(p.read_text()))
    } == {}


def test_scanner_flags_sink_attributes():
    source = (
        "meter = self.costmeter\n"
        "node.device.reqtrace = rt\n"
        "self.tracer.slo_monitor.sample(now)\n"
        "from repro.telemetry.reqtrace import PHASES\n"
        "costmeter = None\n"
        "run.tracer.cost_monitor\n"
    )
    assert [line for line, _ in sink_attribute_uses(source)] == [1, 2, 3, 6]
