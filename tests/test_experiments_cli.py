"""Smoke tests for the experiment registry and the omx-repro CLI."""

import json

import pytest

from repro.obs.trace import validate_trace_events
from repro.reporting.experiments import EXPERIMENTS, GALLERY, main, micro


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig3", "fig7", "micro", "fig8", "fig9", "fig10", "fig11",
            "fig12", "nas", "engine_shootout", "fabric_sweep",
            "faults_campaign", "faults_soak", "topologies", "fig9_phases",
            "fig56",
        }

    def test_micro_runs_standalone(self):
        table = micro()
        assert any("submission" in row[0] for row in table.rows)


class TestCli:
    def test_cli_runs_micro(self, capsys):
        assert main(["micro"]) == 0
        out = capsys.readouterr().out
        assert "350" in out

    def test_cli_quick_fig7_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "fig7.csv"
        assert main(["fig7", "--quick", "--csv", str(csv)]) == 0
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("copy size,")

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cli_rejects_option_the_experiment_does_not_take(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--seed", "s2"])


class TestScenarios:
    """The scenarios folded in from the fault, fabric and obs CLIs."""

    def test_topologies_prints_every_gallery_row(self, capsys):
        assert main(["topologies"]) == 0
        rows = [line.split("|") for line in capsys.readouterr().out.splitlines()
                if line.count("|") == 6 and not line.startswith("kind")]
        assert [(r[0].strip(), int(r[1])) for r in rows] == [
            (kind, hosts) for kind, hosts, _oversub in GALLERY]

    def test_fig56_trace_is_one_valid_file_with_both_runs(self, tmp_path, capsys):
        assert main(["fig56", "--trace", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["fig56.json"]
        doc = json.loads((tmp_path / "fig56.json").read_text())
        assert validate_trace_events(doc) == []
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {p.split(":")[0] for p in procs} == {"fig5-memcpy", "fig6-ioat"}
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Fig. 6" in out

    def test_fig9_phases_exit_status_follows_calibration(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fig9_phases", "--quick", "--no-cache"])
        doc = json.loads((tmp_path / "results" / "fig9_phases.json").read_text())
        assert doc["calibration_ok"] and code == 0

        import repro.obs.profiler as profiler

        monkeypatch.setattr(profiler, "fig9_report", lambda quick, executor: {
            "rows": [], "calibration": [], "calibration_ok": False})
        assert main(["fig9_phases", "--quick"]) == 1

    def test_diff_prints_the_differing_key(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"totals": {"completed": 5, "hung": 0}, "seed": "x"}))
        b.write_text(json.dumps({"totals": {"completed": 7, "hung": 0}, "seed": "y"}))
        assert main(["--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "totals.completed: 5 -> 7  (+2)" in out
        assert "hung" not in out
        assert "1 differing value(s)" in out

    @pytest.mark.faults
    def test_campaign_outcomes_survive_a_tie_shuffle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "results" / "faults_campaign.json"
        assert main(["faults_campaign", "--no-cache"]) == 0
        fifo = json.loads(report.read_text())["totals"]
        assert main(["faults_campaign", "--tiebreak-seed", "7"]) == 0
        assert json.loads(report.read_text())["totals"] == fifo
