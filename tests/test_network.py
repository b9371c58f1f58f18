import re

import numpy as np
import pytest

from helpers import unbounded

from datransport import (
    CapacityProfile,
    JointMeasure,
    Measure,
    Path,
    PathSystem,
    TimeGrid,
    TransportNetwork,
    path_cost_terms,
    validate_paths,
)
from datransport.errors import (
    BadEndpointError,
    BadParamError,
    BrokenPathError,
    GridMismatchError,
    MassMismatchError,
)


def three_route_grid(grid):
    nodes = ("v0", "v1", "v2", "v3", "v4", "v5", "v6", "vT")
    weights = {("v0", "v1"): 1.0, ("v0", "v2"): 2.0,
               ("v1", "v3"): 3.0, ("v2", "v3"): 4.0,
               ("v3", "v4"): 5.0,
               ("v4", "v5"): 6.0, ("v4", "v6"): 7.0,
               ("v5", "vT"): 8.0, ("v6", "vT"): 9.0}
    mu = np.zeros(grid.n_t)
    mu[0] = 1.0
    nu = np.zeros(grid.n_t)
    nu[-1] = 1.0
    return TransportNetwork(grid=grid, nodes=nodes, edges=weights,
                            sources={"v0": Measure(grid, mu)},
                            sinks={"vT": Measure(grid, nu)})


ROUTES = [Path(("v0", "v2", "v3", "v4", "v6", "vT")),
          Path(("v0", "v1", "v3", "v4", "v5", "vT")),
          Path(("v0", "v2", "v3", "v4", "v5", "vT"))]


class TestValidatePaths:
    def test_three_route_incidence(self, grid8):
        net = three_route_grid(grid8)
        inc = validate_paths(net, ROUTES)
        assert inc["v3"] == [(0, 2), (1, 2), (2, 2)]
        assert inc["v4"] == [(0, 3), (1, 3), (2, 3)]
        assert inc["v2"] == [(0, 1), (2, 1)]
        assert inc["v0"] == [(0, 0), (1, 0), (2, 0)]

    def test_line_graph_ok(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7]
        net = TransportNetwork(
            grid=grid8, nodes=("a", "b", "c"),
            edges={("a", "b"): 1.0, ("b", "c"): 1.0},
            sources={"a": Measure(grid8, mu)}, sinks={"c": Measure(grid8, nu)})
        inc = validate_paths(net, [Path(("a", "b", "c"))])
        assert inc == {"a": [(0, 0)], "b": [(0, 1)], "c": [(0, 2)]}

    def test_missing_edge(self, grid8):
        net = three_route_grid(grid8)
        with pytest.raises(BrokenPathError):
            validate_paths(net, [Path(("v0", "v3", "v4", "v5", "vT"))])

    def test_bad_endpoints(self, grid8):
        net = three_route_grid(grid8)
        with pytest.raises(BadEndpointError):
            validate_paths(net, [Path(("v1", "v3", "v4", "v5", "vT"))])
        with pytest.raises(BadEndpointError):
            validate_paths(net, [Path(("v0", "v1", "v3", "v4", "v5"))])

    def test_incidence_count_identity(self, grid8):
        net = three_route_grid(grid8)
        inc = validate_paths(net, ROUTES)
        assert sum(len(v) for v in inc.values()) == sum(p.n_p for p in ROUTES)


def fork_net(grid):
    """Sources a1, a2 and sinks b1, b2 meeting at one interior node m, half the mass each."""
    def half(k):
        return Measure(grid, 0.5 * np.eye(grid.n_t)[k])

    return TransportNetwork(grid=grid, nodes=("a1", "a2", "m", "b1", "b2"),
                            edges={("a1", "m"): 1.0, ("a2", "m"): 1.0,
                                   ("m", "b1"): 1.0, ("m", "b2"): 1.0},
                            sources={"a1": half(0), "a2": half(1)},
                            sinks={"b1": half(6), "b2": half(7)})


FORK = [Path(("a1", "m", "b1")), Path(("a2", "m", "b2"))]


def _joint(grid, i, j):
    mass = np.zeros((grid.n_t, grid.n_t))
    mass[i, j] = 0.5
    return JointMeasure(grid, mass)


def _fork_joints(grid, other=None):
    """The fork's joint targets, (a1, b1) on ``grid`` and (a2, b2) on ``other`` or ``grid``."""
    return {("a1", "b1"): _joint(grid, 0, 6), ("a2", "b2"): _joint(other or grid, 1, 7)}


# each rule on a path family: (network, paths, joints, mode) -> the BadParamError message
FAMILY_FAULTS = {
    "unknown-mode": (lambda g: (three_route_grid(g), ROUTES, None, "jacobi"),
                     "mode must be 'independent' or 'coupled'"),
    "no-path": (lambda g: (three_route_grid(g), [], None, "independent"),
                "need at least one path"),
    "boundary-without-path": (lambda g: (fork_net(g), FORK[:1], None, "independent"),
                              "boundary nodes without any path: ['a2', 'b2']"),
    "pair-without-joint": (lambda g: (fork_net(g), FORK, {("a1", "b1"): _joint(g, 0, 6)},
                                      "coupled"),
                           "coupled mode needs a joint target for pair ('a2', 'b2')"),
    "joint-on-another-grid": (lambda g: (fork_net(g), FORK,
                                         _fork_joints(g, TimeGrid(t_f=2.0, n_t=g.n_t)), "coupled"),
                              "joint target for ('a2', 'b2') lives on a different grid"),
    "joints-in-independent-mode": (lambda g: (fork_net(g), FORK, _fork_joints(g), "independent"),
                                   "joint targets are only meaningful in coupled mode"),
    "unjoined-pair": (lambda g: (fork_net(g), FORK, {("a1", "b2"): _joint(g, 0, 7)}, "coupled"),
                      "no path joins the joint target's pair ('a1', 'b2')"),
}


class TestFamilyRules:
    """``validate_paths`` holds every rule on a path family, and ``PathSystem`` applies it."""

    @pytest.mark.parametrize("fault", FAMILY_FAULTS)
    def test_validate_paths_raises(self, grid8, fault):
        build, message = FAMILY_FAULTS[fault]
        net, paths, joints, mode = build(grid8)
        with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
            validate_paths(net, paths, joints, mode)

    @pytest.mark.parametrize("fault", FAMILY_FAULTS)
    def test_path_system_raises_the_same(self, grid8, fault):
        build, message = FAMILY_FAULTS[fault]
        net, paths, joints, mode = build(grid8)
        with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
            PathSystem(net, paths, mode=mode, joints=joints)

    @pytest.mark.parametrize("mode", ["independent", "coupled"])
    def test_path_system_positions_are_the_validated_ones(self, grid8, mode):
        net = fork_net(grid8)
        joints = _fork_joints(grid8) if mode == "coupled" else None
        positions = validate_paths(net, FORK, joints, mode)
        assert positions == {"a1": [(0, 0)], "m": [(0, 1), (1, 1)], "b1": [(0, 2)],
                             "a2": [(1, 0)], "b2": [(1, 2)]}
        assert PathSystem(net, FORK, mode=mode, joints=joints).positions == positions


class TestPathCostTerms:
    def test_unit_line(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7]
        net = TransportNetwork(
            grid=grid8, nodes=("a", "b", "c"),
            edges={("a", "b"): 1.0, ("b", "c"): 1.0},
            sources={"a": Measure(grid8, mu)}, sinks={"c": Measure(grid8, nu)})
        assert np.allclose(path_cost_terms(net, Path(("a", "b", "c"))), [1.0, 1.0])

    def test_declared_weights(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7]
        net = TransportNetwork(
            grid=grid8, nodes=("a", "b", "c"),
            edges={("a", "b"): 2.0, ("b", "c"): 5.0},
            sources={"a": Measure(grid8, mu)}, sinks={"c": Measure(grid8, nu)})
        assert np.allclose(path_cost_terms(net, Path(("a", "b", "c"))), [2.0, 5.0])

    def test_three_route_weights_match_adjacency_table(self, grid8):
        net = three_route_grid(grid8)
        # independent adjacency table built by hand
        table = {("v0", "v1"): 1.0, ("v0", "v2"): 2.0, ("v1", "v3"): 3.0,
                 ("v2", "v3"): 4.0, ("v3", "v4"): 5.0, ("v4", "v5"): 6.0,
                 ("v4", "v6"): 7.0, ("v5", "vT"): 8.0, ("v6", "vT"): 9.0}
        for p in ROUTES:
            expect = [table[(a, b)] for a, b in zip(p.nodes[:-1], p.nodes[1:])]
            assert np.allclose(path_cost_terms(net, p), expect)


def _line_network(grid, **changes):
    """The network a -> m -> b with a Dirac at each end, with ``changes`` to its fields."""
    fields = dict(grid=grid, nodes=("a", "m", "b"), edges={("a", "m"): 1.0, ("m", "b"): 1.0},
                  sources={"a": Measure(grid, np.eye(grid.n_t)[0])},
                  sinks={"b": Measure(grid, np.eye(grid.n_t)[-1])})
    return TransportNetwork(**{**fields, **changes})


def _dirac(grid, k, mass=1.0):
    return Measure(grid, mass * np.eye(grid.n_t)[k])


_OTHER_GRID = TimeGrid(2.0, 8)


class TestNetworkValidation:
    @pytest.mark.parametrize("build, error, message", [
        (lambda g: CapacityProfile(g, np.ones(9)), BadParamError,
         r"cap must have shape \(8,\), got \(9,\)"),
        (lambda g: CapacityProfile(g, np.full(8, -1.0)), BadParamError,
         "finite cap entries must be nonnegative"),
        (lambda g: _line_network(g, nodes=("a", "m", "m", "b")), BadParamError,
         "duplicate node ids"),
        (lambda g: _line_network(g, edges={("a", "x"): 1.0}), BadParamError,
         r"edge \(a, x\) references unknown node"),
        (lambda g: _line_network(g, sources={}), BadParamError,
         "need at least one source and one sink"),
        (lambda g: _line_network(g, sinks={"a": _dirac(g, 7, 0.5), "b": _dirac(g, 7, 0.5)}),
         BadEndpointError, r"nodes cannot be both source and sink: \['a'\]"),
        (lambda g: _line_network(g, sources={"x": _dirac(g, 0)}), BadParamError,
         "boundary node x not in node list"),
        (lambda g: _line_network(g, sources={"a": _dirac(_OTHER_GRID, 0)}), GridMismatchError,
         "marginal at a lives on a different grid"),
        (lambda g: _line_network(g, capacities={"x": CapacityProfile(g, np.ones(8))}),
         BadParamError, "capacity references unknown node x"),
        (lambda g: _line_network(g, capacities={"m": CapacityProfile(_OTHER_GRID, np.ones(8))}),
         GridMismatchError, "capacity at m lives on a different grid"),
        (lambda g: _line_network(g).weight("m", "a"), BrokenPathError,
         r"edge \(m, a\) not in network"),
        (lambda g: validate_paths(_line_network(g, sinks={"m": _dirac(g, 7, 0.5),
                                                          "b": _dirac(g, 7, 0.5)}),
                                  [Path(("a", "m", "b"))]),
         BadEndpointError, "path a->m->b crosses boundary node m at an interior position"),
    ], ids=["cap shape", "cap sign", "duplicate node", "edge to unknown node", "no source",
            "source and sink", "unknown boundary node", "boundary grid", "unknown capped node",
            "capacity grid", "missing edge", "interior boundary node"])
    def test_rule_raises(self, grid8, build, error, message):
        with pytest.raises(error, match=message):
            build(grid8)

    def test_positive_weights_required(self, grid8):
        mu = np.eye(8)[0]
        with pytest.raises(BadParamError):
            TransportNetwork(grid=grid8, nodes=("a", "b"),
                             edges={("a", "b"): 0.0},
                             sources={"a": Measure(grid8, mu)},
                             sinks={"b": Measure(grid8, mu)})

    def test_balance_enforced(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7] * 0.5
        with pytest.raises(MassMismatchError):
            TransportNetwork(grid=grid8, nodes=("a", "b"),
                             edges={("a", "b"): 1.0},
                             sources={"a": Measure(grid8, mu)},
                             sinks={"b": Measure(grid8, nu)})

    def test_boundary_capacity_rejected(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7]
        with pytest.raises(BadParamError):
            TransportNetwork(grid=grid8, nodes=("a", "b"),
                             edges={("a", "b"): 1.0},
                             sources={"a": Measure(grid8, mu)},
                             sinks={"b": Measure(grid8, nu)},
                             capacities={"a": unbounded(grid8)})

    def test_capacity_from_density(self, grid8):
        prof = CapacityProfile.from_density(grid8, 2.0)
        assert np.allclose(prof.cap, 2.0 * grid8.dt)
        varying = CapacityProfile.from_density(grid8, np.arange(8.0))
        assert np.allclose(varying.cap, np.arange(8.0) * grid8.dt)

    def test_path_validation(self):
        with pytest.raises(BadParamError):
            Path(("a",))
        with pytest.raises(BadParamError):
            Path(("a", "b", "a"))
