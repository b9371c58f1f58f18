import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path as FsPath

import numpy as np
import pytest

from conftest import coupled_tiny_scenario

from datransport import cli
from datransport.cli import _add_solver_overrides, main
from datransport.sinkhorn_engine import PathSystem, SolverConfig

TINY = {
    "name": "tiny-line",
    "grid": {"t_f": 1.0, "n_t": 16},
    "nodes": ["s", "m", "t"],
    "edges": [["s", "m", 1.0], ["m", "t", 1.0]],
    "sources": [{"node": "s", "marginal": {"mixture": [[1.0, 0.25, 0.08]]}}],
    "sinks": [{"node": "t", "marginal": {"mixture": [[1.0, 0.75, 0.08]]}}],
    "capacities": {"m": 2.5},
    "paths": [["s", "m", "t"]],
    "solver": {"epsilon": 0.15, "tol": 1e-8, "max_iter": 4000},
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

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("delta", ["-1", "nan", "inf"])
    def test_bad_delta_exits_2(self, tmp_path, capsys, where, delta):
        path = tmp_path / "tiny.json"
        data = dict(TINY, delta=float(delta)) if where == "file" else TINY
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["feasibility", str(path)] + (["--delta", delta] if where == "flag" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("name, delta, code, lines", [
        ("tiny", None, 0, ["s->m->t: feasible delta=0.125 margin=-8.881784197001252e-16"]),
        ("tiny", "0.9", 2, ["s->m->t: infeasible delta=0.9 margin=-0.992579619734341 "
                            "violation near t=0.03125"]),
        ("63_network", None, 0, [
            f"{path}: feasible delta=0.05 margin=-3.1264162510892594e-14"
            for path in ("v0->v2->v3->v4->v6->vT", "v0->v1->v3->v4->v5->vT",
                         "v0->v2->v3->v4->v5->vT")]),
        ("63_network", "0.9", 2, [
            f"{path}: infeasible delta=0.9 margin=-0.9099123819843746 violation near t=0.045"
            for path in ("v0->v2->v3->v4->v6->vT", "v0->v1->v3->v4->v5->vT",
                         "v0->v2->v3->v4->v5->vT")]),
    ])
    def test_printed_lines(self, tiny_scenario, tmp_path, capsys, name, delta, code, lines):
        # the lines the per-path check printed before it went through
        # scenarios.precheck_feasibility, byte for byte
        path = tiny_scenario
        if name != "tiny":
            path = tmp_path / f"{name}.json"
            assert main(["scenario", name, "--emit", str(path)]) == 0
            capsys.readouterr()
        argv = ["feasibility", str(path)] + (["--delta", delta] if delta else [])
        assert main(argv) == code
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


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

    def test_zero_cap_exits_4_without_warnings(self, tmp_path, capsys):
        # a zero cap meets a zero aggregate on the bins no path reaches (the
        # grid's first bin); the projection must not subtract -inf from -inf
        zero = dict(TINY, capacities={"m": 0.0})
        p = tmp_path / "zero_cap.json"
        p.write_text(json.dumps(zero), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(p), "--output", str(tmp_path / "out")]) == 4
        assert "zero aggregate flux" in capsys.readouterr().err

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
    def test_non_finite_exit(self, command, tiny_scenario, tmp_path, capsys, monkeypatch):
        sweep = PathSystem.sweep

        def poisoned(self, state, messages=None):
            e0, et, v = sweep(self, state, messages)
            return (np.nan if state.iteration == 2 else e0), et, v

        monkeypatch.setattr(PathSystem, "sweep", poisoned)
        assert main([command, str(tiny_scenario), "--output", str(tmp_path / "out")]) == 3
        assert "error: E0+ET+V is not finite at sweep 3" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [["--max-iter", "0"], ["--tol", "-1"],
                                          ["--tol", "nan"], ["--epsilon", "inf"]])
    @pytest.mark.parametrize("command", ["solve", "extract-plan"])
    def test_invalid_override_exit(self, command, override, tmp_path, capsys):
        # overrides go through SolverConfig validation before anything is solved
        p = tmp_path / "s61.json"
        assert main(["scenario", "61", "--emit", str(p)]) == 0
        capsys.readouterr()
        outdir = tmp_path / "out"
        assert main([command, str(p), "--output", str(outdir), *override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and override[0][2:].replace("-", "_") in err
        assert not outdir.exists()

    @pytest.mark.parametrize("solver", [
        {"max_iters": 3},  # misspelt: used to run the default budget
        {"anneal_every": 300},
        {"epsilon_min": 0.001},
        {"sweep": "jacobi"},
        {"log_domain": "off"},  # used to run the log domain: bool("off") is true
        {"max_iter": 3.0},  # used to die with a TypeError traceback
        {"log_domain": False},  # the engine picks the domain
        {"epsilon": True},  # used to run at epsilon 1
        {"tol": "1e-8"},
    ])
    def test_invalid_solver_block_exit(self, solver, tmp_path, capsys):
        data = json.loads(json.dumps(TINY))
        data["solver"].update(solver)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        outdir = tmp_path / "out"
        assert main(["solve", str(p), "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario") and next(iter(solver)) in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag, value", [("--sweep", "jacobi"), ("--log-domain", "on")])
    def test_retired_flag_is_gone(self, flag, value, tiny_scenario, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tiny_scenario), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["62_line", "63_network", "64_convergence"])
    def test_default_domain_is_not_infeasible(self, name, tmp_path, capsys):
        # with the domain left to a rule that picked linear, these stopped at
        # once on a false "target mass ... zero aggregate flux" (exit 4)
        p = tmp_path / "s.json"
        assert main(["scenario", name, "--emit", str(p)]) == 0
        data = json.loads(p.read_text())
        data["solver"].pop("log_domain", None)
        p.write_text(json.dumps(data), encoding="utf-8")
        outdir = tmp_path / "out"
        assert main(["solve", str(p), "--output", str(outdir), "--max-iter", "5"]) == 3
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["log_domain"] is True and summary["iterations"] == 5

    def test_summary_config_is_the_solver_config(self, tiny_scenario, tmp_path):
        outdir = tmp_path / "run"
        assert main(["solve", str(tiny_scenario), "--output", str(outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary["config"]) == {f.name for f in fields(SolverConfig)}
        assert not {"annealed", "epsilon_final"} & set(summary)
        assert summary["log_domain"] is True  # the domain the solve ran in

    def test_coupled_run_writes_marginals_from_one_message_pass(self, tmp_path, monkeypatch):
        data = coupled_tiny_scenario({"epsilon": 0.3, "tol": 0.0, "max_iter": 3})
        p = tmp_path / "coupled.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        calls = []
        compute_messages = PathSystem.compute_messages

        def counted(self, state, **kwargs):
            calls.append(kwargs)
            return compute_messages(self, state, **kwargs)

        monkeypatch.setattr(PathSystem, "compute_messages", counted)
        assert main(["solve", str(p), "--output", str(tmp_path / "out")]) == 3
        assert len(calls) == 3 + 1  # one per sweep, one for the node marginals
        masses = (tmp_path / "out" / "a.csv").read_text().splitlines()[1:]
        assert sum(float(row.split(",")[1]) for row in masses) == pytest.approx(1.0)

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

    def test_coupled_check_properties(self, tmp_path, capsys):
        # a coupled source or sink has no block of its own; the properties
        # read its marginal from the joint's row or column sums
        data = coupled_tiny_scenario({"epsilon": 0.3, "tol": 1e-10, "max_iter": 500})
        data["expected_properties"] = [
            {"kind": "mass_delivered", "tol": 1e-8},
            {"kind": "boundary_match", "tol": 1e-6},
            {"kind": "capacity_satisfied", "tol": 1e-8},
        ]
        p = tmp_path / "coupled.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(p), "--output", str(tmp_path / "o"),
                     "--check-properties"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        # no sink has a block, so the whole joint error is E0 and names itself
        assert "  [PASS] boundary_match: joint L1 error " in out and "ET=" not in out

    def test_route_without_mass_has_an_empty_ridge(self, tmp_path, capsys):
        # a zero cap on a closes the first route, so its plan carries no mass
        data = dict(TINY, nodes=["s", "a", "m", "t"],
                    edges=[["s", "a", 1.0], ["a", "t", 1.0], ["s", "m", 1.0], ["m", "t", 1.0]],
                    capacities={"a": 0.0}, paths=[["s", "a", "t"], ["s", "m", "t"]],
                    expected_properties=[{"kind": "monotone_strand"}])
        p = tmp_path / "closed.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(p), "--output", str(tmp_path / "o"),
                     "--check-properties"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "  [PASS] monotone_strand: plan ridge (" in captured.out

    def test_short_trace_fails_linear_convergence(self, tmp_path, capsys):
        path = tmp_path / "s64.json"
        assert main(["scenario", "64_convergence", "--emit", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--output", str(tmp_path / "o"), "--max-iter", "100",
                     "--check-properties"]) == 3
        out = capsys.readouterr().out
        assert ("  [FAIL] linear_convergence: trace length 100 leaves fewer than two "
                "points past sweep 200\n") in out

    @pytest.mark.parametrize("props", [
        "abc",
        [{"kind": "nope"}],
        ["capacity_satisfied"],
        [{"tol": 1e-8}],
        [{"kind": "capacity_satisfied", "tol": "abc"}],
        [{"kind": "capacity_satisfied", "tol": True}],
        [{"kind": "boundary_match", "tol": float("nan")}],
        [{"kind": "boundary_match", "tol": -1e-6}],
        [{"kind": "mass_delivered", "tolerance": 1e-8}],
        [{"kind": "trace_length"}],
        [{"kind": "trace_length", "length": -1}],
        [{"kind": "linear_convergence", "start": 2.5}],
        [{"kind": "monotone_strand", "ridge_floor": None}],
        [{"kind": "monotone_strand", "ridge_floor": -0.1}],
        [{"kind": "monotone_strand", "ridge_floor": 2.0}],
    ], ids=["not-a-list", "unknown-kind", "not-an-object", "no-kind", "string-tol", "bool-tol",
            "nan-tol", "negative-tol", "unknown-parameter", "missing-length", "negative-length",
            "fractional-start", "null-floor", "negative-floor", "floor-above-one"])
    def test_bad_expected_properties_exit_2_before_solving(self, tmp_path, capsys, props):
        p = tmp_path / "props.json"
        p.write_text(json.dumps(dict(TINY, expected_properties=props)), encoding="utf-8")
        outdir = tmp_path / "o"
        assert main(["solve", str(p), "--output", str(outdir), "--check-properties"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not outdir.exists()
        assert captured.err.startswith("error: invalid scenario")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("change, message", [
        ({"capacities": []}, "capacities must be a JSON object"),  # was an AttributeError
        ({"grid": {"t_f": 1.0, "n_t": 12.5}}, "n_t must be an integer"),  # ran on 12 bins
        ({"grid": {"t_f": 1.0, "n_t": "12"}}, "n_t must be an integer"),
        ({"grid": {"t_f": 1.0, "n_t": True}}, "n_t must be an integer"),
        ({"delta": "0.5"}, "delta must be a real number"),  # was read as 0.5
        ({"delta": True}, "delta must be a real number"),  # was read as 1.0
        ({"solver": []}, "solver must be a JSON object"),  # was an empty block
        # each of these was read through float() or iterated as a string, and loaded
        ({"grid": {"t_f": "1.0", "n_t": 16}}, "grid t_f must be a real number, got '1.0'"),
        ({"grid": {"t_f": True, "n_t": 16}}, "grid t_f must be a real number, got True"),
        ({"edges": [["s", "m", "1.0"], ["m", "t", 1.0]]},
         "weight of edge s->m must be a real number, got '1.0'"),
        ({"edges": [["s", "m", 1.0], ["m", "t", True]]},
         "weight of edge m->t must be a real number, got True"),
        ({"capacities": {"m": "2.5"}}, "capacity density of m must be a real number, got '2.5'"),
        ({"capacities": {"m": [2.5] * 15 + [True]}},
         "capacity density of m must be a real number, got True"),
        ({"nodes": "smt"}, "nodes must be a JSON array, got 'smt'"),
        ({"paths": "smt"}, "paths must be a JSON array, got 'smt'"),
        ({"paths": ["smt"]}, "each path must be a JSON array, got 'smt'"),
    ], ids=["capacities-list", "fractional-n_t", "string-n_t", "bool-n_t", "string-delta",
            "bool-delta", "solver-list", "string-t_f", "bool-t_f", "string-weight", "bool-weight",
            "string-density", "bool-density-bin", "string-nodes", "string-paths",
            "string-path"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, change, message):
        # each value is rejected where it enters: a message, no traceback, no output
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(TINY, **change)), encoding="utf-8")
        outdir = tmp_path / "o"
        assert main(["solve", str(p), "--output", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not outdir.exists()
        assert captured.err.startswith(f"error: invalid scenario {p}: ") and message in captured.err

    @pytest.mark.parametrize("node", ["a", "b"])
    @pytest.mark.parametrize("command", ["feasibility", "solve"])
    def test_coupled_boundary_marginal_exits_2(self, tmp_path, capsys, command, node):
        # a coupled solve matches the joint law only; a uniform marginal on a
        # boundary node used to be judged by feasibility and ignored by solve
        data = coupled_tiny_scenario({"epsilon": 0.3})
        for entry in data["sources"] + data["sinks"]:
            if entry["node"] == node:
                entry["marginal"] = {"mass": [0.125] * 8}
        p = tmp_path / "coupled.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        outdir = tmp_path / "o"
        extra = ["--output", str(outdir), "--check-properties"] if command == "solve" else []
        assert main([command, str(p), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not outdir.exists()
        assert f"coupled boundary node {node} " in captured.err

    @pytest.mark.parametrize("command, message", [
        ("oracle", "target mass on axis 2 sits on unreachable bins"),
        ("solve", "target mass at t sits on bins with zero aggregate flux")])
    def test_unreachable_sink_law_exits_4(self, tmp_path, capsys, command, message):
        # the sink law sits on the first bin, which no two-edge route reaches;
        # the oracle exits 4 like solve (it used to exit 2)
        bad = dict(TINY, sinks=[{"node": "t", "marginal": {"mass": [1.0] + [0.0] * 15}}])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        extra = ["--output", str(tmp_path / "o")] if command == "solve" else []
        assert main([command, str(p), *extra]) == 4
        captured = capsys.readouterr()
        assert captured == ("", f"error: {message}\n")


class TestSolverKnobs:
    def test_knob_count(self):
        # every solver knob doubles the configurations to test: adding one
        # must change this test on purpose
        knobs = {f.name for f in fields(SolverConfig)}
        assert knobs == {"epsilon", "tol", "max_iter"}
        parser = argparse.ArgumentParser()
        _add_solver_overrides(parser)
        flags = {action.dest for action in parser._actions} - {"help"}
        assert flags == knobs


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

    def test_negative_top_k_exit(self, tiny_scenario, tmp_path, capsys):
        outdir = tmp_path / "plan"
        assert main(["extract-plan", str(tiny_scenario), "--output", str(outdir),
                     "--top-k", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "top_k" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("option, value, name", [
        ("--path-index", "5", "path_index"), ("--path-index", "-1", "path_index"),
        ("--min-mass", "nan", "min_mass"), ("--min-mass", "-1", "min_mass"),
        ("--min-mass", "inf", "min_mass"), ("--max-cells", "0", "max_cells")])
    def test_bad_option_exits_before_solving(self, tiny_scenario, tmp_path, capsys,
                                             monkeypatch, option, value, name):
        def no_solve(built):
            raise AssertionError("solved before checking the options")

        monkeypatch.setattr(cli, "_run_solver", no_solve)
        outdir = tmp_path / "plan"
        assert main(["extract-plan", str(tiny_scenario), "--output", str(outdir),
                     option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not outdir.exists()


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

    @pytest.mark.parametrize("summary", ["[]", '{"nodes": []}', '{"nodes": {"s": "s.csv"}}',
                                         "{", '{"nodes": {"s": {"file": "s.csv"}}}'])
    def test_malformed_summary_exits_2(self, tmp_path, capsys, summary):
        (tmp_path / "summary.json").write_text(summary, encoding="utf-8")
        assert main(["plotdata", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: malformed run dir {tmp_path}")


class TestHiddenCommands:
    def test_oracle_runs(self, tiny_scenario, capsys):
        assert main(["oracle", str(tiny_scenario), "--iters", "20"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "node,bin_center,mass"
        assert len(out) == 1 + 3 * 16

    @pytest.mark.parametrize("index", ["1", "-1"])
    def test_oracle_bad_path_index(self, tiny_scenario, capsys, index):
        assert main(["oracle", str(tiny_scenario), "--path-index", index]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "path_index" in captured.err
        assert captured.out == ""

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

    def test_inspect_kernel_output_file(self, tmp_path, capsys):
        # --output writes the bytes the command prints without it, and says so
        argv = ["inspect-kernel", "--n-t", "4", "--epsilon", "0.5"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "kernel.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("argv", [
        ["inspect-kernel", "--n-t", "1"], ["inspect-kernel", "--t-f", "-1"],
        ["inspect-kernel", "--t-f", "nan"], ["inspect-kernel", "--t-f", "inf"],
        ["inspect-kernel", "--weight", "nan"], ["inspect-kernel", "--epsilon", "inf"],
        ["oracle", "{scenario}", "--iters", "-1"], ["oracle", "{scenario}", "--epsilon", "inf"]])
    def test_bad_input_exits_2(self, tiny_scenario, capsys, argv):
        # each bad value is rejected where it enters, with a message and no output
        assert main([arg.format(scenario=tiny_scenario) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class TestColdStart:
    def test_no_scipy_on_the_import_path(self):
        # every `datransport` command is a fresh process that pays its
        # imports, and scipy alone took longer to import than numpy and the
        # package together.  Any future runtime use of scipy, such as a
        # HiGHS LP, imports it inside the function that needs it.
        src = FsPath(__file__).resolve().parents[1] / "src"
        code = ("import sys, datransport, datransport.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
        assert done.stdout.strip() == "[]"
