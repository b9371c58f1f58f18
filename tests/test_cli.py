import json
from pathlib import Path as FsPath

import numpy as np
import pytest

from datransport.cli import main

TINY = {
    "name": "tiny-line",
    "grid": {"t_f": 1.0, "n_t": 16},
    "nodes": ["s", "m", "t"],
    "edges": [["s", "m", 1.0], ["m", "t", 1.0]],
    "sources": [{"node": "s", "marginal": {"mixture": [[1.0, 0.25, 0.08]]}}],
    "sinks": [{"node": "t", "marginal": {"mixture": [[1.0, 0.75, 0.08]]}}],
    "capacities": {"m": 2.5},
    "paths": [["s", "m", "t"]],
    "solver": {"epsilon": 0.15, "tol": 1e-8, "max_iter": 4000, "log_domain": True},
}


@pytest.fixture
def tiny_scenario(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY), encoding="utf-8")
    return p


class TestScenarioCommand:
    def test_emit_file(self, tmp_path, capsys):
        out = tmp_path / "s61.json"
        assert main(["scenario", "61", "--emit", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["name"] == "scenario_61"
        assert data["capacities"] == {"v1": 2.0}

    def test_stdout(self, capsys):
        assert main(["scenario", "scenario_63_network"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["paths"]) == 3

    def test_unknown_name(self, capsys):
        assert main(["scenario", "bogus"]) == 2


class TestFeasibilityCommand:
    def test_feasible_scenario(self, tiny_scenario, capsys):
        assert main(["feasibility", str(tiny_scenario)]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "margin" in out

    def test_infeasible_delta(self, tiny_scenario, capsys):
        assert main(["feasibility", str(tiny_scenario), "--delta", "0.9"]) == 2
        assert "infeasible" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["feasibility", str(tmp_path / "none.json")]) == 2


class TestSolveCommand:
    def test_end_to_end(self, tiny_scenario, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["solve", str(tiny_scenario), "--output", str(outdir)]) == 0
        files = {p.name for p in outdir.iterdir()}
        assert files == {"s.csv", "m.csv", "t.csv", "trace.csv", "summary.json"}
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final"]["E0"] + summary["final"]["ET"] + summary["final"]["V"] <= 1e-8
        assert summary["nodes"]["m"]["role"] == "interior"
        trace_lines = (outdir / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "iter,E0,ET,V,objective"
        assert len(trace_lines) == summary["iterations"] + 1
        m_lines = (outdir / "m.csv").read_text().strip().splitlines()
        assert m_lines[0] == "bin_center,mass,cap"
        cap_col = {float(ln.split(",")[2]) for ln in m_lines[1:]}
        assert cap_col == {2.5 / 16}
        s_lines = (outdir / "s.csv").read_text().strip().splitlines()
        assert all(ln.split(",")[2] == "inf" for ln in s_lines[1:])

    def test_not_converged_exit(self, tiny_scenario, tmp_path, capsys):
        outdir = tmp_path / "run1"
        code = main(["solve", str(tiny_scenario), "--output", str(outdir),
                     "--max-iter", "1"])
        assert code == 3
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["iterations"] == 1

    def test_missing_scenario_exit(self, tmp_path):
        assert main(["solve", str(tmp_path / "none.json")]) == 2

    def test_unreachable_mass_exit(self, tmp_path):
        bad = dict(TINY)
        bad["sources"] = [{"node": "s", "marginal": {"mass":
            [0.0] * 15 + [1.0]}}]
        bad["sinks"] = [{"node": "t", "marginal": {"mass":
            [0.0] * 15 + [1.0]}}]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["solve", str(p), "--output", str(tmp_path / "out")]) == 4

    def test_deterministic_reruns(self, tiny_scenario, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["solve", str(tiny_scenario), "--output", str(out1)]) == 0
        assert main(["solve", str(tiny_scenario), "--output", str(out2)]) == 0
        for name in ("s.csv", "m.csv", "t.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s")
        s2.pop("wall_time_s")
        assert s1 == s2

    @pytest.mark.parametrize("command", ["solve", "extract-plan"])
    def test_non_finite_exit(self, command, tmp_path, capsys):
        # linear-domain scalings of scenario_61 overflow at the first anneal
        p = tmp_path / "s61.json"
        assert main(["scenario", "61", "--emit", str(p)]) == 0
        data = json.loads(p.read_text())
        data["solver"].update(log_domain=False, anneal_every=300, tol=0.0, max_iter=400)
        p.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main([command, str(p), "--output", str(tmp_path / "out")]) == 3
        assert "overflow" in capsys.readouterr().err

    def test_check_properties_flag(self, tmp_path, capsys):
        data = dict(TINY)
        data["expected_properties"] = [
            {"kind": "capacity_satisfied", "tol": 1e-8},
            {"kind": "boundary_match", "tol": 1e-6},
        ]
        p = tmp_path / "props.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(p), "--output", str(tmp_path / "o"),
                     "--check-properties"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2


class TestExtractPlanCommand:
    def test_plan_csv(self, tiny_scenario, tmp_path, capsys):
        outdir = tmp_path / "plan"
        assert main(["extract-plan", str(tiny_scenario), "--output", str(outdir),
                     "--top-k", "50"]) == 0
        lines = (outdir / "plan_p0.csv").read_text().strip().splitlines()
        assert lines[0] == "t0,t1,t2,mass"
        assert len(lines) == 51
        masses = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert masses == sorted(masses, reverse=True)


class TestPlotdataCommand:
    def test_long_format(self, tiny_scenario, tmp_path, capsys):
        outdir = tmp_path / "run"
        main(["solve", str(tiny_scenario), "--output", str(outdir)])
        capsys.readouterr()  # drop the solve status line
        assert main(["plotdata", str(outdir)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "node,bin_center,mass,cap,role"
        assert len(out) == 1 + 3 * 16
        roles = {ln.split(",")[0]: ln.split(",")[4] for ln in out[1:]}
        assert roles == {"s": "source", "m": "interior", "t": "sink"}
        interior_caps = {ln.split(",")[3] for ln in out[1:] if ln.split(",")[0] == "m"}
        assert interior_caps == {repr(2.5 / 16)}

    def test_malformed_dir(self, tmp_path):
        assert main(["plotdata", str(tmp_path / "nothing")]) == 2


class TestHiddenCommands:
    def test_oracle_runs(self, tiny_scenario, capsys):
        assert main(["oracle", str(tiny_scenario), "--iters", "20"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "node,bin_center,mass"
        assert len(out) == 1 + 3 * 16

    def test_oracle_size_cap(self, tmp_path, capsys):
        big = dict(TINY)
        big["grid"] = {"t_f": 1.0, "n_t": 40}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(big), encoding="utf-8")
        assert main(["oracle", str(p)]) == 2

    def test_inspect_kernel(self, capsys):
        assert main(["inspect-kernel", "--n-t", "4", "--weight", "1.0",
                     "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "s_center,t_center,k,log_k"
        assert len(out) == 1 + 16
