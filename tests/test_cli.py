"""Tests for the `repro` command-line interface."""

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_workloads(self, capsys):
        code, out, _ = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("sord", "cfd", "srad", "chargei", "stassuij"):
            assert name in out

    def test_machines(self, capsys):
        code, out, _ = run_cli(capsys, "machines")
        assert code == 0
        assert "bgq" in out and "xeon" in out
        assert "future-hbm" in out

    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "pedagogical",
                               "--machine", "bgq", "--top", "5")
        assert code == 0
        assert "%time" in out

    def test_project(self, capsys):
        code, out, _ = run_cli(capsys, "project", "cfd", "--top", "5")
        assert code == 0
        assert "compute_flux" in out

    def test_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "breakdown", "cfd", "--top", "5")
        assert code == 0
        assert "overlap" in out

    def test_hotpath_ascii(self, capsys):
        code, out, _ = run_cli(capsys, "hotpath", "pedagogical")
        assert code == 0
        assert "HOT SPOT #1" in out

    def test_hotpath_dot(self, capsys):
        code, out, _ = run_cli(capsys, "hotpath", "pedagogical", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_input_override(self, capsys):
        code, out, _ = run_cli(capsys, "project", "pedagogical",
                               "--set", "n=10")
        assert code == 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "profile", "linpack")
        assert code == 1
        assert "error:" in err

    def test_bad_binding_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "project", "cfd", "--set", "oops")
        assert code == 1
        assert "name=value" in err

    def test_cluster_rejected_without_multinode_executor(self, capsys):
        # --cluster must be refused for *any* non-multinode executor,
        # not only when --executor is absent
        for extra in ((), ("--executor", "serial")):
            code, _, err = run_cli(capsys, "sweep", "pedagogical",
                                   "--param", "cores=2,4",
                                   "--cluster", "dual-node", *extra)
            assert code == 1
            assert "--cluster needs --executor multinode" in err

    def test_sweep_refuses_a_derived_machine_property(self, capsys):
        # cycle_time follows from frequency_hz: a sweep cannot set it,
        # and says so instead of reporting every point failed
        code, _, err = run_cli(capsys, "sweep", "pedagogical",
                               "--param", "cycle_time=1e-9,2e-9")
        assert code == 1
        assert "machine has no parameter 'cycle_time'" in err

    def test_sweep_refuses_an_undeclared_input(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "pedagogical",
                               "--param", "input:frobnicate=1,2")
        assert code == 1
        assert "'input:frobnicate' names no input" in err


BROKEN_SKELETON = """\
def main(n)
  comp 1 $ flops
  for i = 0 : n
    comp 2 ** flops
  end
  frobnicate 12
end
"""


class TestCheckCommand:
    def test_clean_workload_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "pedagogical")
        assert code == 0
        assert "ok" in out

    def test_broken_file_reports_every_error(self, capsys, tmp_path):
        path = tmp_path / "broken.skop"
        path.write_text(BROKEN_SKELETON, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        for marker in ("SKOP101", "SKOP107", "SKOP106"):
            assert marker in out
        # spans rendered file:line:column
        assert f"{path}:2:10" in out

    def test_json_payload(self, capsys, tmp_path):
        import json
        path = tmp_path / "broken.skop"
        path.write_text(BROKEN_SKELETON, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        (entry,) = payload["files"]
        assert entry["functions_recovered"] == 1
        assert len(entry["diagnostics"]) >= 3

    def test_multiple_targets_mix(self, capsys, tmp_path):
        path = tmp_path / "broken.skop"
        path.write_text(BROKEN_SKELETON, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", "pedagogical", str(path))
        assert code == 1        # one bad file fails the run
        assert "<pedagogical.skop>: ok" in out

    def test_unknown_target_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-thing.skop")
        assert code == 1
        assert "neither" in err


class TestKeepGoing:
    def test_project_keep_going_reports_completeness(self, capsys):
        code, out, _ = run_cli(capsys, "project", "pedagogical",
                               "--keep-going")
        assert code == 0
        assert "model completeness: 100.0%" in out

    def test_project_keep_going_json(self, capsys):
        import json
        code, out, _ = run_cli(capsys, "project", "pedagogical",
                               "--keep-going", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["completeness"] == 1.0
        assert payload["diagnostics"] == []

    def test_bet_keep_going(self, capsys):
        code, out, _ = run_cli(capsys, "bet", "pedagogical",
                               "--keep-going")
        assert code == 0
        assert "100.0% modeled" in out


class TestTranslateCommand:
    def test_translate_file(self, capsys, tmp_path):
        path = tmp_path / "kernel.py"
        path.write_text(
            "def main(n):\n"
            "    s = 0.0\n"
            "    for i in range(n):\n"
            "        s = s + 1.0 * i\n")
        code, out, _ = run_cli(capsys, "translate", str(path),
                               "--size", "n=100")
        assert code == 0
        assert "def main(n)" in out
        assert "param n = 100" in out

    def test_translate_reports_unprofiled_sites(self, capsys, tmp_path):
        path = tmp_path / "kernel.py"
        path.write_text(
            "def main(a, n):\n"
            "    for i in range(n):\n"
            "        if a[i] > 0:\n"
            "            x = 1.0\n")
        code, out, _ = run_cli(capsys, "translate", str(path))
        assert code == 0
        assert "branch profiling" in out


class TestExperimentCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "list")
        assert code == 0
        for key in _EXPERIMENTS:
            assert key in out

    def test_unknown_experiment(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "fig99")
        assert code == 1
        assert "unknown experiment" in err

    def test_run_betsize(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "betsize")
        assert code == 0
        assert "ratio" in out

    def test_run_fig13(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig13")
        assert code == 0
        assert "Modl(m)" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_experiments_have_descriptions(self):
        for key, (description, runner) in _EXPERIMENTS.items():
            assert description
            assert callable(runner)


class TestLintAndTraceCommands:
    def test_lint_clean_workload(self, capsys):
        code, out, _ = run_cli(capsys, "lint", "cfd")
        assert code == 0
        assert "no findings" in out

    def test_lint_unknown_workload(self, capsys):
        code, _, err = run_cli(capsys, "lint", "nothere")
        assert code == 1

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "trace", "pedagogical",
                               "--out", str(out_path))
        assert code == 0
        assert "simulated time" in out
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]

    def test_bet_renders_tree(self, capsys):
        code, out, _ = run_cli(capsys, "bet", "pedagogical", "--metrics")
        assert code == 0
        assert "BET for pedagogical" in out
        assert "loop:" in out and "enr=" in out

    def test_dataflow_command(self, capsys):
        code, out, _ = run_cli(capsys, "dataflow", "cfd", "--top", "6")
        assert code == 0
        assert "interactions:" in out
        assert "--[fluxes]-->" in out


class TestExperimentAll:
    def test_all_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        # keep the run short: trim the registry to two cheap experiments
        from repro import cli
        trimmed = {k: cli._EXPERIMENTS[k]
                   for k in ("betsize", "ablation-selection")}
        monkeypatch.setattr(cli, "_EXPERIMENTS", trimmed)
        code, out, _ = run_cli(capsys, "experiment", "all",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "betsize.txt").exists()
        assert (tmp_path / "ablation_selection.txt").exists()
        assert "betsize" in out
