import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import coupled_tiny_scenario, make_line_net
from helpers import enumerated_ridge, lp_edge_plan_optimum, lp_min_cost_coupling

from datransport import TimeGrid, check_da_feasibility, extract_plan, gaussian_mixture
from datransport.errors import BadParamError, ScenarioFormatError
from datransport.scenarios import (
    GENERATORS,
    ScenarioSpec,
    check_property,
    min_travel_delta,
    plan_ridge,
    precheck_feasibility,
    scenario_61,
    scenario_62_line,
    scenario_63_network,
    scenario_64_convergence,
)
from datransport.driver import solve
from datransport.sinkhorn_engine import PathSystem, SolverConfig


def _scenario_61_at_24() -> ScenarioSpec:
    """scenario_61 shrunk to 24 bins, so the property machinery runs fast."""
    d = scenario_61().data
    d["grid"]["n_t"] = 24
    d["capacities"]["v1"] = 1.6
    d["solver"].update({"epsilon": 0.15, "tol": 1e-9, "max_iter": 4000})
    return ScenarioSpec.from_dict(d)


def _coupled_two_routes(epsilon: float) -> ScenarioSpec:
    """Coupled pair on 24 bins over a two-edge and a three-edge route.

    Its joint law is a random band around a travel time of 8 bins, zero
    below 3 bins.
    """
    rng = np.random.default_rng(7)
    gap = np.arange(24)[None, :] - np.arange(24)[:, None]  # [departure, arrival]
    joint = np.where(gap >= 3, rng.uniform(0.5, 1.0, (24, 24)) * np.exp(-((gap - 8) / 3) ** 2), 0)
    return ScenarioSpec.from_dict({
        "name": "coupled-two-routes",
        "grid": {"t_f": 1.0, "n_t": 24},
        "nodes": ["a", "m", "n", "o", "b"],
        "edges": [["a", "m", 1.0], ["m", "b", 1.0], ["a", "n", 1.0], ["n", "o", 1.0],
                  ["o", "b", 1.3]],
        "sources": [{"node": "a"}],
        "sinks": [{"node": "b"}],
        "capacities": {"m": 1.2, "n": 1.5, "o": 1.5},
        "paths": [["a", "m", "b"], ["a", "n", "o", "b"]],
        "mode": "coupled",
        "joints": [{"source": "a", "sink": "b", "mass": (joint / joint.sum()).tolist()}],
        "solver": {"epsilon": epsilon, "tol": 1e-9, "max_iter": 300},
    })


def _small_scenario(mode: str) -> ScenarioSpec:
    """scenario_61 in independent mode, the tiny coupled line in coupled mode."""
    if mode == "independent":
        return scenario_61()
    return ScenarioSpec.from_dict(coupled_tiny_scenario({}))


class TestScenario61:
    def test_generated_caps(self):
        built = scenario_61().build()
        assert built.net.grid.n_t == 100
        cap = built.net.capacity_for("v1")
        assert np.allclose(cap, 0.02)  # density 2 on a 0.01 grid

    def test_cap_only_on_interior(self):
        built = scenario_61().build()
        assert set(built.net.capacities) == {"v1"}
        assert np.all(np.isinf(built.net.capacity_for("v0")))
        assert np.all(np.isinf(built.net.capacity_for("vT")))

    def test_boundary_marginals_normalized(self):
        built = scenario_61().build()
        assert built.net.sources["v0"].total == pytest.approx(1.0, abs=1e-12)
        assert built.net.sinks["vT"].total == pytest.approx(1.0, abs=1e-12)


class TestScenario62:
    def test_five_interior_nodes(self):
        built = scenario_62_line().build()
        assert len(built.paths) == 1
        assert len(built.paths[0].interior) == 5

    def test_time_varying_caps(self):
        built = scenario_62_line().build()
        for node in built.paths[0].interior:
            cap = built.net.capacity_for(node)
            assert np.isfinite(cap).all()
            assert cap.std() > 0  # genuinely time-varying

    def test_grid_ordering_forces_min_travel(self):
        built = scenario_62_line().build()
        path = built.paths[0]
        assert path.n_edges == 6
        assert min_travel_delta(built, path) == pytest.approx(6 * built.net.grid.dt)


class TestScenario63:
    def test_routes_and_shared_nodes(self):
        built = scenario_63_network().build()
        assert [p.nodes for p in built.paths] == [
            ("v0", "v2", "v3", "v4", "v6", "vT"),
            ("v0", "v1", "v3", "v4", "v5", "vT"),
            ("v0", "v2", "v3", "v4", "v5", "vT")]
        from datransport import validate_paths

        inc = validate_paths(built.net, built.paths)
        assert inc["v3"] == [(0, 2), (1, 2), (2, 2)]
        assert inc["v4"] == [(0, 3), (1, 3), (2, 3)]

    def test_uniform_cap_density(self):
        built = scenario_63_network().build()
        for k in range(1, 7):
            cap = built.net.capacity_for(f"v{k}")
            assert np.allclose(cap, 1.4 * built.net.grid.dt)

    def test_supply_normalized(self):
        built = scenario_63_network().build()
        assert built.net.sources["v0"].total == pytest.approx(1.0, abs=1e-12)


class TestScenario64:
    def test_forced_iterations(self):
        spec = scenario_64_convergence()
        assert spec.data["solver"]["max_iter"] == 1500
        assert spec.data["solver"]["tol"] == 0.0
        kinds = {p["kind"] for p in spec.data["expected_properties"]}
        assert "trace_length" in kinds
        assert "linear_convergence" in kinds


class TestScenarioPlumbing:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_roundtrip_and_validation(self, name):
        spec = GENERATORS[name]()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.data == spec.data
        built = again.build()  # validates network, paths, config
        assert built.name == name
        assert "log_domain" not in spec.data["solver"]  # the engine picks the domain

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_feasibility_precheck_passes(self, name):
        built = GENERATORS[name]().build()
        for path, verdict in precheck_feasibility(built):
            assert verdict.feasible, f"{name} {path} infeasible: {verdict}"

    def test_bad_scenario_rejected(self):
        with pytest.raises(ScenarioFormatError):
            ScenarioSpec.from_json("{not json")
        with pytest.raises(ScenarioFormatError):
            ScenarioSpec.from_dict({"grid": {"t_f": 1, "n_t": 4}})

    @pytest.mark.parametrize("key, value", [
        ("max_iters", 3), ("anneal_every", 300), ("epsilon_min", 1e-3), ("jacobi", True)])
    def test_unknown_solver_key_rejected(self, key, value):
        spec = scenario_61()
        spec.data["solver"][key] = value
        with pytest.raises(ScenarioFormatError, match=f"unknown solver keys \\['{key}'\\]"):
            spec.build()

    def test_sweep_key(self):
        # only the one sweep there is may be named
        spec = scenario_61()
        spec.data["solver"]["sweep"] = "gauss-seidel"
        assert spec.build().config == scenario_61().build().config
        spec.data["solver"]["sweep"] = "jacobi"
        with pytest.raises(ScenarioFormatError, match="Jacobi sweeps were retired"):
            spec.build()

    @pytest.mark.parametrize("key, value, message", [
        ("max_iter", 3.0, "max_iter must be an integer"),
        ("max_iter", "3", "max_iter must be an integer"),
        ("max_iter", True, "max_iter must be an integer"),  # used to run 1 sweep
        ("epsilon", "0.1", "epsilon must be a real number"),  # used to be a bare TypeError
        ("epsilon", True, "epsilon must be a real number"),  # used to run at epsilon 1
        ("epsilon", np.inf, "epsilon must be finite and positive"),
        ("epsilon", np.nan, "epsilon must be finite and positive"),
        ("tol", "1e-8", "tol must be a real number"),  # used to be a bare TypeError
        ("tol", np.nan, "tol must be finite and nonnegative"),  # used to run the whole budget
        ("tol", np.inf, "tol must be finite and nonnegative"),
    ])
    def test_solver_values_type_checked(self, key, value, message):
        spec = scenario_61()
        spec.data["solver"][key] = value
        with pytest.raises(BadParamError, match=message):
            spec.build()

    @pytest.mark.parametrize("mode, value", [
        ("independent", None), ("independent", True), ("coupled", None)])
    def test_log_domain_key_accepted(self, mode, value):
        # files written while the domain was a choice may still name it where
        # the engine picks the same: the log domain in independent mode
        spec = _small_scenario(mode)
        plain = spec.build()
        spec.data["solver"]["log_domain"] = value
        assert spec.build().config == plain.config

    @pytest.mark.parametrize("mode, value", [
        ("independent", False), ("independent", "off"), ("independent", 1),
        ("coupled", True), ("coupled", False)])
    def test_log_domain_key_rejected(self, mode, value):
        spec = _small_scenario(mode)
        spec.data["solver"]["log_domain"] = value
        with pytest.raises(ScenarioFormatError, match="the engine picks the numeric domain"):
            spec.build()

    @pytest.mark.parametrize("repeat, message", [
        (lambda d: d["edges"].append(["v0", "v1", 5.0]), "edge v0->v1 is given twice"),
        (lambda d: d["sources"].append({"node": "v0", "marginal": [0.01] * 100}),
         "boundary node v0 is given twice in sources"),
        (lambda d: d["sinks"].insert(0, dict(d["sinks"][0])),
         "boundary node vT is given twice in sinks"),
    ], ids=["edge", "source", "sink"])
    def test_repeated_entry_rejected(self, repeat, message):
        # a later entry used to replace the earlier one silently, and solve ran on it
        spec = scenario_61()
        repeat(spec.data)
        with pytest.raises(ScenarioFormatError, match=message):
            spec.build()

    def test_repeated_joint_rejected(self):
        # the second joint for a pair used to replace the first, keeping 0.5 of 1.0 mass
        data = coupled_tiny_scenario({})
        half = np.zeros((8, 8))
        half[0, 4] = 0.5
        data["joints"].append({"source": "a", "sink": "b", "mass": half.tolist()})
        with pytest.raises(ScenarioFormatError,
                           match=r"joint target for pair \('a', 'b'\) is given twice"):
            ScenarioSpec.from_dict(data).build()

    def test_numpy_integer_budget_accepted(self):
        config = SolverConfig(max_iter=np.int64(7))
        assert config.max_iter == 7 and type(config.max_iter) is int

    def test_mass_vector_marginals(self, grid8):
        data = {
            "name": "tiny",
            "grid": {"t_f": 1.0, "n_t": 8},
            "nodes": ["a", "b"],
            "edges": [["a", "b", 1.0]],
            "sources": [{"node": "a", "marginal": {"mass": [0.5, 0.5, 0, 0, 0, 0, 0, 0]}}],
            "sinks": [{"node": "b", "marginal": [0, 0, 0, 0, 0, 0, 0.5, 0.5]}],
            "paths": [["a", "b"]],
        }
        built = ScenarioSpec.from_dict(data).build()
        assert built.net.sources["a"].mass[0] == 0.5
        assert built.net.sinks["b"].mass[7] == 0.5

    def test_coupled_scenario_derives_boundaries(self):
        built = _small_scenario("coupled").build()
        assert built.mode == "coupled"
        assert built.net.sources["a"].mass[0] == 0.5
        assert built.net.sinks["b"].mass[4] == 0.5
        state, report = solve(built.net, built.paths, mode="coupled",
                              config=SolverConfig(epsilon=0.3, tol=1e-10, max_iter=500),
                              joints=built.joints)
        assert report.converged


class TestPropertyChecks:
    def test_small_scenario_properties(self):
        built = _scenario_61_at_24().build()
        state, report = solve(built.net, built.paths, mode=built.mode,
                              config=built.config)
        assert report.converged
        results = {p["kind"]: check_property(p, built, state, report)
                   for p in built.expected_properties}
        assert results["capacity_satisfied"].passed
        assert results["boundary_match"].passed
        assert results["monotone_strand"].passed

    def test_mass_delivered_compares_with_the_sink_targets(self):
        # scenario_61 carrying twice the mass delivers 2, which is its target
        d = scenario_61().data
        d["grid"]["n_t"] = 24
        grid = TimeGrid(t_f=1.0, n_t=24)
        for side in ("sources", "sinks"):
            law = gaussian_mixture(grid, d[side][0]["marginal"]["mixture"])
            d[side][0]["marginal"] = {"mass": (2 * law.mass).tolist()}
        d["capacities"]["v1"] = 2 * 1.6
        d["solver"].update({"epsilon": 0.15, "tol": 1e-9, "max_iter": 4000})
        d["expected_properties"] = [{"kind": "mass_delivered", "tol": 1e-8}]
        built = ScenarioSpec.from_dict(d).build()
        state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
        assert report.converged
        result = check_property(built.expected_properties[0], built, state, report)
        assert result.passed and result.value == pytest.approx(2.0, abs=1e-8)

    def test_unknown_property_rejected(self):
        built = scenario_61().build()
        with pytest.raises(ScenarioFormatError):
            check_property({"kind": "nope"}, built, None, None)


class TestPlanRidge:
    @pytest.mark.parametrize("spec, log_domain", [
        (_scenario_61_at_24, True),
        (lambda: _coupled_two_routes(0.5), False),
        (lambda: _coupled_two_routes(0.05), True),
    ], ids=["scenario_61", "coupled-linear", "coupled-log"])
    def test_matches_the_enumerated_ridge(self, spec, log_domain):
        built = spec().build()
        state, _ = solve(built.net, built.paths, mode=built.mode, config=built.config,
                         joints=built.joints)
        assert state.system.log_domain is log_domain
        for p_idx in range(len(built.paths)):
            cells = extract_plan(state, p_idx)
            for floor in (0.01, 0.3):
                ridge = plan_ridge(state, p_idx, floor)
                assert len(ridge) >= 3
                assert np.array_equal(ridge, enumerated_ridge(cells, floor_frac=floor))

    def test_exact_ties_keep_the_lowest_cell(self):
        # on a 1.0 grid step at epsilon 1 a unit edge's log kernel is -1/gap, so
        # gaps 1 and 2 give -1 and -0.5 and every cell sum below is exact.  With
        # the source log-scaling -0.5 at bin 0 and 0 at bin 1, column 1's cells
        # (0, 1, 2, 4) and (0, 1, 3, 4) tie at -3, and so do column 2's
        # (0, 2, 3, 4) and (1, 2, 3, 4)
        grid = TimeGrid(t_f=5.0, n_t=5)
        net, path = make_line_net(grid, [1.0] * 3, np.full(5, 0.2), np.full(5, 0.2))
        state = PathSystem(net, [path], config=SolverConfig(epsilon=1.0)).initial_state()
        state.views["n0"][:] = [-0.5, 0.0, -np.inf, -np.inf, -np.inf]
        ridge = plan_ridge(state, 0, 0.0)
        assert ridge.tolist() == [[0, 1, 2, 4], [0, 2, 3, 4]]
        assert np.array_equal(ridge, enumerated_ridge(extract_plan(state, 0), floor_frac=0.0))

    def test_check_never_enumerates_the_plan(self, monkeypatch):
        def enumerate_plan(*args, **kwargs):
            raise AssertionError("monotone_strand enumerated a plan")

        monkeypatch.setattr("datransport.scenarios.extract_plan", enumerate_plan)
        built = _scenario_61_at_24().build()
        state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
        assert check_property({"kind": "monotone_strand"}, built, state, report).passed

    def test_six_node_routes_pass_monotone_strand(self):
        # each route's plan has 100**6 cells, beyond any enumeration
        built = scenario_63_network().build()
        state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
        start = time.perf_counter()
        result = check_property({"kind": "monotone_strand"}, built, state, report)
        elapsed = time.perf_counter() - start
        assert result.passed and result.value >= 30
        assert elapsed <= 2.0


# scenario_61's unregularized optimum, with its cap
SCENARIO_61_LP = 7.492296


class TestEdgePlanLP:
    def test_stock_optima(self):
        # the exact optima the entropic solves approach as epsilon shrinks
        built = scenario_61().build()
        assert lp_edge_plan_optimum(built.net, built.paths) == pytest.approx(SCENARIO_61_LP,
                                                                             abs=1e-6)
        uncapped = dataclasses.replace(built.net, capacities={})
        assert lp_edge_plan_optimum(uncapped, built.paths) == pytest.approx(6.666816, abs=1e-6)
        line = scenario_62_line().build()
        assert lp_edge_plan_optimum(line.net, line.paths) == pytest.approx(83.128150, abs=1e-6)

    def test_solved_cost_is_not_below_the_optimum(self):
        # a converged plan meets every constraint, so it costs at least the
        # optimum (about 7.508 at scenario_61's epsilon)
        built = scenario_61().build()
        state, report = solve(built.net, built.paths, config=built.config)
        assert report.converged
        assert state.system.transport_cost(state) >= SCENARIO_61_LP

    @pytest.mark.parametrize("seed", range(4))
    def test_single_edge_matches_the_dense_lp(self, seed):
        # laws drawn as the marginals of a random plan on the cells s < t,
        # so some departures and arrivals share bins; the dense LP prices
        # the cells t <= s out
        rng = np.random.default_rng(seed)
        grid = TimeGrid(t_f=1.0, n_t=int(rng.integers(6, 11)))
        plan = np.triu(rng.uniform(0.0, 1.0, (grid.n_t,) * 2), 1)
        plan[rng.uniform(size=plan.shape) < 0.5] = 0.0
        plan /= plan.sum()
        w = rng.uniform(0.5, 2.0)
        net, path = make_line_net(grid, [w], plan.sum(axis=1), plan.sum(axis=0))
        gap = grid.centers[None, :] - grid.centers[:, None]
        cost = np.where(gap > 0, w / np.where(gap > 0, gap, 1.0), 1e9)
        dense = lp_min_cost_coupling(plan.sum(axis=1), plan.sum(axis=0), cost)
        assert np.all(dense[gap <= 0] == 0)
        assert lp_edge_plan_optimum(net, [path]) == pytest.approx(float((dense * cost).sum()),
                                                                  abs=1e-9)
