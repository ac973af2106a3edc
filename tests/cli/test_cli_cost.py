"""Tests for ``repro cost-report`` and ``repro run --budget``."""

import json

import pytest

from repro.cli import build_parser, main

SMALL = ["--trace", "poisson", "--duration", "8", "--seed", "0"]


class TestParser:
    def test_cost_report_defaults(self):
        args = build_parser().parse_args(["cost-report", "resnet50"])
        assert args.schemes == "paldia"
        assert args.trace == "azure"
        assert args.duration == pytest.approx(120.0)
        assert args.budget is None
        assert args.svg_out is None and args.json_out is None

    def test_run_budget_flag(self):
        args = build_parser().parse_args(
            ["run", "resnet50", "--budget", "0.25"]
        )
        assert args.budget == pytest.approx(0.25)
        assert build_parser().parse_args(["run", "resnet50"]).budget is None

    def test_unknown_scheme_exits_nonzero(self, capsys):
        rc = main(["cost-report", "resnet50", "--schemes", "bogus"] + SMALL)
        assert rc == 1
        assert "unknown scheme" in capsys.readouterr().out


class TestCostReport:
    def test_report_renders_and_writes_artifacts(self, capsys, tmp_path):
        svg = str(tmp_path / "frontier.svg")
        out = str(tmp_path / "cost.json")
        rc = main(
            ["cost-report", "resnet50", "--schemes", "paldia",
             "--svg", svg, "--json", out] + SMALL
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "cost waterfall" in text
        assert "conservation residual" in text
        assert "cost of compliance" in text

        svg_text = open(svg).read()
        assert svg_text.startswith("<svg ")
        assert "Paldia" in svg_text  # scheme_label() rendering

        payload = json.load(open(out))
        assert payload["schema"] == "repro.cost/1"
        assert payload["model"] == "resnet50"
        (run,) = payload["runs"]
        assert run["scheme"] == "paldia"
        assert run["total_dollars"] > 0
        assert run["cost_of_compliance"] is not None

    def test_budget_threads_through_to_alerts(self, capsys):
        # A micro-budget must trip at least one burn-rate alert.
        rc = main(
            ["cost-report", "resnet50", "--schemes", "paldia",
             "--budget", "0.000001"] + SMALL
        )
        assert rc == 0
        assert "budget" in capsys.readouterr().out


class TestRunBudget:
    def test_run_budget_enables_meter_and_prom_gauges(
        self, capsys, tmp_path
    ):
        prom = str(tmp_path / "snap" / "metrics.prom")
        rc = main(
            ["run", "resnet50", "--budget", "0.000001",
             "--out", str(tmp_path / "snap")] + SMALL
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget" in out
        text = open(prom).read()
        assert "repro_cost_total_dollars" in text
        assert 'repro_cost_bucket_dollars{bucket="busy"}' in text
