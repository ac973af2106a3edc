"""CLI tests for --live / --out's time-series / --ledger and the
``timeseries-report`` and ``runs`` commands."""

import pytest

from repro.cli import build_parser, main

RUN_ARGS = ["run", "resnet50", "--trace", "poisson", "--duration", "10"]


class TestParser:
    def test_run_flag_defaults(self):
        args = build_parser().parse_args(["run", "resnet50"])
        assert args.live is False
        assert args.out is None
        assert args.ledger is None

    def test_ledger_flag_without_value_uses_default(self):
        args = build_parser().parse_args(["run", "resnet50", "--ledger"])
        assert args.ledger == ".repro-ledger.sqlite"

    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_runs_ledger_flag_after_subcommand(self):
        args = build_parser().parse_args(
            ["runs", "list", "--ledger", "x.sqlite"]
        )
        assert args.ledger == "x.sqlite"


class TestRunFlags:
    def test_timeseries_out_writes_bundle(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        assert main(RUN_ARGS + ["--out", out]) == 0
        text = capsys.readouterr().out
        assert "time-series columns" in text
        from repro.telemetry.bundle import read_bundle

        data = read_bundle(out).load("timeseries")
        assert data.n_samples > 0
        assert "rate.offered" in data.names()

    def test_live_non_tty_fallback_lines(self, capsys):
        assert main(RUN_ARGS + ["--live"]) == 0
        text = capsys.readouterr().out
        assert "[live]" in text
        assert "\x1b" not in text  # no ANSI escapes when not a TTY

    def test_ledger_records_run(self, capsys, tmp_path):
        db = str(tmp_path / "ledger.sqlite")
        assert main(RUN_ARGS + ["--ledger", db]) == 0
        assert "recorded run #1" in capsys.readouterr().out


class TestTimeseriesReportCommand:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("ts") / "run")
        assert main(RUN_ARGS + ["--out", out]) == 0
        return out

    def test_renders_panels(self, bundle, capsys):
        assert main(["timeseries-report", bundle]) == 0
        text = capsys.readouterr().out
        assert "offered vs predicted rate" in text
        assert "pools & control" in text

    def test_svg_export(self, bundle, capsys, tmp_path):
        svg = str(tmp_path / "panels.svg")
        assert main(["timeseries-report", bundle, "--svg", svg]) == 0
        assert "SVG panels" in capsys.readouterr().out
        assert open(svg).read().startswith("<svg")

    def test_missing_bundle_errors(self, capsys):
        assert main(["timeseries-report", "/nonexistent"]) == 1


class TestRunsCommands:
    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ledger") / "runs.sqlite")
        assert main(RUN_ARGS + ["--seed", "0", "--ledger", path]) == 0
        assert main(RUN_ARGS + ["--seed", "0", "--ledger", path]) == 0
        return path

    def test_list(self, db, capsys):
        assert main(["runs", "list", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "run ledger" in text
        assert "paldia" in text

    def test_show(self, db, capsys):
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "SLO compliance" in text and "run #1" in text

    def test_show_missing_run(self, db, capsys):
        assert main(["runs", "show", "99", "--ledger", db]) == 1

    def test_compare_identical_seeds_no_regression(self, db, capsys):
        assert main(["runs", "compare", "1", "2", "--ledger", db]) == 0
        text = capsys.readouterr().out
        assert "verdict: no regressions" in text

    def test_compare_flags_regression_exit_code(self, db, capsys):
        # An impossibly tight tolerance can't flag identical runs ...
        assert main(["runs", "compare", "1", "2", "--ledger", db,
                     "--rel-tolerance", "0"]) == 0
        capsys.readouterr()
        # ... but recording a worse run and comparing does exit 2.
        from repro.framework.system import RunResult
        from repro.telemetry import RunLedger

        with RunLedger(db) as ledger:
            base = ledger.get(1)
            worse = RunResult(
                scheme=base.scheme, model=base.model,
                slo_seconds=base.slo_seconds, duration=base.duration,
                offered_requests=base.offered,
                completed_requests=base.completed,
                unserved_requests=0,
                slo_compliance=base.slo_compliance,
                p50_seconds=base.p50_seconds,
                p99_seconds=base.p99_seconds * 10,
                total_cost=base.total_cost,
                cost_by_spec={}, time_by_spec={}, energy_joules=0.0,
                avg_watts=0.0, utilization_by_spec={},
                tail_breakdown={}, mode_split={}, hardware_usage={},
                n_switches=base.n_switches, cold_starts=base.cold_starts,
            )
            worse_id = ledger.record(worse, trace=base.trace,
                                     seed=base.seed)
        assert main(["runs", "compare", "1", str(worse_id),
                     "--ledger", db]) == 2
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_ledger_errors(self, capsys):
        assert main(["runs", "list", "--ledger", "/nonexistent.db"]) == 1
