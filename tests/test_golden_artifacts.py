"""The committed ``results/*.json`` artifacts are what the code produces.

Each test regenerates one artifact from scratch (no sweep cache) into a
temporary directory and compares bytes with the committed file.  A
failure means either a behaviour change (the reports are a pure function
of the seed) or a stale artifact that was not regenerated with the
change that moved it.
"""

import json
from pathlib import Path

import pytest

from repro.faults.__main__ import main as faults_main
from repro.reporting.experiments import fabric_sweep
from repro.reporting.sweeps import SweepExecutor

RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.faults
def test_faults_campaign_artifact_is_current(tmp_path):
    out = tmp_path / "faults_campaign.json"
    assert faults_main(["--no-cache", "--out", str(out)]) == 0
    assert out.read_bytes() == (RESULTS / "faults_campaign.json").read_bytes()


@pytest.mark.soak
def test_faults_soak_artifact_is_current(tmp_path):
    out = tmp_path / "faults_soak.json"
    assert faults_main(["--soak", "--out", str(out)]) == 0
    assert out.read_bytes() == (RESULTS / "faults_soak.json").read_bytes()


def test_quick_fabric_sweep_artifact_is_current(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # fabric_sweep writes results/ under cwd
    fabric_sweep(quick=True, executor=SweepExecutor(cache=False))
    written = tmp_path / "results" / "fabric_sweep.json"
    assert written.read_bytes() == (RESULTS / "fabric_sweep.json").read_bytes()


@pytest.mark.soak
def test_soak_trace_writes_one_perfetto_file_per_run(tmp_path):
    traces = tmp_path / "traces"
    out = tmp_path / "soak.json"
    assert faults_main(["--soak", "--iters", "1", "--trace", str(traces),
                        "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = sorted(p.name for p in traces.iterdir())
    assert names == sorted(f'{run["soak"]}.json' for run in report["runs"])
    for run in report["runs"]:
        assert "trace_events" not in run
    doc = json.loads((traces / "ioat-flap.json").read_text())
    assert doc["traceEvents"]
