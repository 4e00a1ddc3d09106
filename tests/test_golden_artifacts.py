"""The committed ``results/*.json`` artifacts are what the code produces.

Each test regenerates one artifact from scratch (no sweep cache) with
``omx-repro`` in a temporary working directory and compares bytes with
the committed file.  A failure means either a behaviour change (the
reports are a pure function of the seed) or a stale artifact that was not
regenerated with the change that moved it.
"""

import json
from pathlib import Path

import pytest

from repro.reporting.experiments import main

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _regenerate(tmp_path, monkeypatch, *argv: str) -> Path:
    """Run ``omx-repro argv`` with cwd ``tmp_path``; the results/ dir it wrote."""
    monkeypatch.chdir(tmp_path)  # omx-repro writes results/ under cwd
    assert main(list(argv)) == 0
    return tmp_path / "results"


@pytest.mark.faults
def test_faults_campaign_artifact_is_current(tmp_path, monkeypatch):
    out = _regenerate(tmp_path, monkeypatch, "faults_campaign", "--no-cache")
    name = "faults_campaign.json"
    assert (out / name).read_bytes() == (RESULTS / name).read_bytes()


@pytest.mark.soak
def test_faults_soak_artifact_is_current(tmp_path, monkeypatch):
    out = _regenerate(tmp_path, monkeypatch, "faults_soak")
    name = "faults_soak.json"
    assert (out / name).read_bytes() == (RESULTS / name).read_bytes()


def test_quick_fabric_sweep_artifact_is_current(tmp_path, monkeypatch):
    out = _regenerate(tmp_path, monkeypatch, "fabric_sweep", "--quick", "--no-cache")
    name = "fabric_sweep.json"
    assert (out / name).read_bytes() == (RESULTS / name).read_bytes()


@pytest.mark.soak
def test_soak_trace_writes_one_perfetto_file_per_run(tmp_path, monkeypatch):
    traces = tmp_path / "traces"
    out = _regenerate(tmp_path, monkeypatch, "faults_soak", "--trace", str(traces))
    report = json.loads((out / "faults_soak.json").read_text())
    names = sorted(p.name for p in traces.iterdir())
    assert names == sorted(f'{run["soak"]}.json' for run in report["runs"])
    for run in report["runs"]:
        assert "trace_events" not in run
    doc = json.loads((traces / "ioat-flap.json").read_text())
    assert doc["traceEvents"]
    # tracing moves the timelines out; the report bytes stay the artifact's
    name = "faults_soak.json"
    assert (out / name).read_bytes() == (RESULTS / name).read_bytes()
