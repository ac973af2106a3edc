"""Run bundles end to end: ``run --out`` writes one, every report reads it."""

import json
import shutil

import pytest

from repro.cli import main
from repro.core.resilience import ResilienceConfig
from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.telemetry import Tracer, to_jsonl_lines
from repro.telemetry.bundle import (
    BUNDLE_FILES,
    BUNDLE_SCHEMA,
    read_bundle,
    write_bundle,
)
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

DURATION, SEED = 10.0, 3
RUN = ["run", "resnet50", "--trace", "poisson", "--duration", str(DURATION),
       "--seed", str(SEED), "--recovery", "retry", "--reqtrace"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bundle") / "run")
    assert main(RUN + ["--out", path]) == 0
    return path


def _errors(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("[error]")]


class TestWrite:
    def test_manifest_lists_every_written_file(self, bundle):
        with open(f"{bundle}/manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["meta"]["scheme"] == "paldia"
        assert manifest["files"] == {
            sink: BUNDLE_FILES[sink]
            for sink in ("trace", "chrome", "metrics", "timeseries",
                         "reqtrace")
        }
        assert read_bundle(bundle).sinks == set(manifest["files"])

    def test_trace_file_is_the_tracer_export(self, tmp_path):
        model = get_model("resnet50")
        profiles, slo = ProfileService(), SLO()
        trace = poisson_trace(
            rate_rps=model.peak_rps, duration=DURATION, seed=SEED
        )
        tracer = Tracer()
        config = RunConfig(
            resilience=ResilienceConfig(recovery="retry"), seed=SEED,
            reqtrace=True,
        )
        policy = make_policy("paldia", model, profiles, slo.target_seconds,
                             trace)
        ServerlessRun(model, trace, policy, profiles, slo, config,
                      tracer=tracer).execute()
        path = str(tmp_path / "run")
        write_bundle(path, tracer=tracer)
        with open(f"{path}/trace.jsonl", encoding="utf-8") as fh:
            assert fh.read() == "".join(
                line + "\n" for line in to_jsonl_lines(tracer)
            )


class TestRoundTrip:
    @pytest.mark.parametrize("argv", [
        ["trace-report"],
        ["trace-attribution"],
        ["request-trace", "--worst", "2"],
        ["timeseries-report"],
    ])
    def test_every_reader_accepts_the_bundle(self, bundle, argv, capsys):
        assert main(argv[:1] + [bundle] + argv[1:]) == 0
        assert not _errors(capsys.readouterr().out)

    def test_trace_diff_of_the_bundle_against_itself(self, bundle, capsys):
        assert main(["trace-diff", bundle, bundle]) == 0
        assert "zero deltas" in capsys.readouterr().out

    def test_top_k_reads_the_bundles_own_request_trace(self, bundle, capsys):
        assert main(["trace-report", bundle, "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "requests (causal)" in out
        assert "latency-only" not in out


class TestErrors:
    def test_missing_directory(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "nope")]) == 1
        assert len(_errors(capsys.readouterr().out)) == 1

    def test_directory_without_manifest(self, tmp_path, capsys):
        assert main(["trace-attribution", str(tmp_path)]) == 1
        (line,) = _errors(capsys.readouterr().out)
        assert "manifest.json" in line

    def test_request_trace_on_a_bundle_without_one(self, tmp_path, capsys):
        path = str(tmp_path / "run")
        assert main(["run", "resnet50", "--trace", "poisson",
                     "--duration", "5", "--out", path]) == 0
        capsys.readouterr()
        assert main(["request-trace", path]) == 1
        (line,) = _errors(capsys.readouterr().out)
        assert "request trace" in line and "reqtrace.jsonl" in line

    def test_timeseries_report_on_a_profile_bundle(self, tmp_path, capsys):
        path = str(tmp_path / "prof")
        assert main(["profile", "resnet50", "--trace", "poisson",
                     "--duration", "5", "--out", path]) == 0
        capsys.readouterr()
        assert main(["timeseries-report", path]) == 1
        (line,) = _errors(capsys.readouterr().out)
        assert "time-series" in line and "timeseries.npz" in line

    def test_unwritable_out_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "resnet50", "--trace", "poisson",
                     "--duration", "5", "--out", str(blocker)]) == 1
        (line,) = _errors(capsys.readouterr().out)
        assert "cannot write the run bundle" in line

    def test_truncated_request_trace_falls_back_to_latency_only(
        self, bundle, tmp_path, capsys
    ):
        copy = str(tmp_path / "copy")
        shutil.copytree(bundle, copy)
        with open(f"{copy}/reqtrace.jsonl", "r+", encoding="utf-8") as fh:
            fh.truncate(40)
        assert main(["trace-report", copy, "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency-only" in out
        assert sum(line.startswith("[warning]")
                   for line in out.splitlines()) == 1
