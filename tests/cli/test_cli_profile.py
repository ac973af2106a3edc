"""Tests for ``repro profile`` and ``repro run --self-profile``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry.bundle import write_bundle
from repro.telemetry.selfprof import SELFPROF_SCHEMA, RunProfiler


SMALL = ["--trace", "poisson", "--duration", "8", "--seed", "0"]


class TestParser:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.model == "resnet50"
        assert args.scheme == "paldia"
        assert args.duration == 60.0
        assert args.diff is None

    def test_diff_takes_two_files(self):
        args = build_parser().parse_args(
            ["profile", "--diff", "a.json", "b.json"]
        )
        assert args.diff == ["a.json", "b.json"]

    def test_run_profile_flags(self):
        args = build_parser().parse_args(["profile", "--out", "p"])
        assert args.out == "p"
        assert build_parser().parse_args(
            ["run", "resnet50"]
        ).self_profile is False


class TestProfileCommand:
    def test_prints_phase_tree_and_attribution(self, capsys):
        assert main(["profile", "resnet50"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "self-profile:" in out
        assert "select.choose_best_HW" in out
        assert "batch.plan" in out
        assert "wall clock" in out
        assert "top subsystems" in out

    def test_exports_all_three_formats(self, capsys, tmp_path):
        json_out = str(tmp_path / "prof" / "profile.json")
        scope_out = str(tmp_path / "prof" / "profile.speedscope.json")
        collapsed_out = str(tmp_path / "prof" / "profile.collapsed.txt")
        assert main(
            ["profile", "resnet50", *SMALL, "--out", str(tmp_path / "prof")]
        ) == 0

        with open(json_out) as fh:
            prof = json.load(fh)
        assert prof["schema"] == SELFPROF_SCHEMA
        assert prof["meta"]["scheme"] == "paldia"
        assert prof["total_seconds"] > 0

        with open(scope_out) as fh:
            scope = json.load(fh)
        assert scope["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert scope["profiles"][0]["samples"]

        with open(collapsed_out) as fh:
            lines = fh.read().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_diff_mode(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["profile", "resnet50", *SMALL, "--out", a]) == 0
        assert main(
            ["profile", "resnet50", "--trace", "poisson",
             "--duration", "8", "--seed", "1", "--out", b]
        ) == 0
        capsys.readouterr()
        assert main(["profile", "--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "delta_ms" in out

    def test_diff_missing_file(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        write_bundle(a, selfprof=RunProfiler())
        assert main(
            ["profile", "--diff", a, str(tmp_path / "missing")]
        ) == 1

    def test_diff_rejects_non_profile(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        write_bundle(a, selfprof=RunProfiler())
        with open(tmp_path / "a" / "profile.json", "w") as fh:
            json.dump({"schema": "nope"}, fh)
        assert main(["profile", "--diff", a, a]) == 1


class TestRunSelfProfile:
    def test_profile_out_standalone(self, capsys, tmp_path):
        # The untraced self-profile of a run: profile --out builds no
        # tracer at all, so its bundle holds only the profile files.
        out_path = str(tmp_path / "run-prof" / "profile.json")
        assert main(
            ["profile", "resnet50", *SMALL, "--out",
             str(tmp_path / "run-prof")]
        ) == 0
        out = capsys.readouterr().out
        # No tracer summary block (the phase tree may still name the
        # telemetry.* frames), and no tracer file in the bundle.
        assert "\ntelemetry\n" not in out
        assert not (tmp_path / "run-prof" / "trace.jsonl").exists()
        with open(out_path) as fh:
            prof = json.load(fh)
        assert prof["schema"] == SELFPROF_SCHEMA
        assert prof["total_seconds"] > 0

    def test_self_profile_prints_tree(self, capsys):
        assert main(["run", "resnet50", *SMALL, "--self-profile"]) == 0
        out = capsys.readouterr().out
        assert "run result" in out
        assert "self-profile:" in out
        # Engine callback sites are frames of the tree.
        assert "cb:framework.system" in out

    def test_ledger_records_top_phase(self, capsys, tmp_path):
        db = str(tmp_path / "ledger.sqlite")
        assert main(
            ["run", "resnet50", *SMALL, "--self-profile", "--ledger", db]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out
        assert "top phase" in out

    def test_ledger_without_profile_leaves_top_phase_empty(
        self, capsys, tmp_path
    ):
        db = str(tmp_path / "ledger.sqlite")
        assert main(["run", "resnet50", *SMALL, "--ledger", db]) == 0
        capsys.readouterr()
        assert main(["runs", "show", "1", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out  # wall_seconds is always measured
        assert "top phase" not in out
