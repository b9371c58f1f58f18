import numpy as np
import pytest

from helpers import unbounded

from datransport import (
    CapacityProfile,
    Measure,
    Path,
    TimeGrid,
    TransportNetwork,
    path_cost_terms,
    validate_paths,
)
from datransport.errors import (
    BadEndpointError,
    BadParamError,
    BrokenPathError,
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
        assert inc["v3"] == (0, 1, 2)
        assert inc["v4"] == (0, 1, 2)
        assert inc["v2"] == (0, 2)
        assert inc["v0"] == (0, 1, 2)

    def test_line_graph_ok(self, grid8):
        mu = np.eye(8)[0]
        nu = np.eye(8)[7]
        net = TransportNetwork(
            grid=grid8, nodes=("a", "b", "c"),
            edges={("a", "b"): 1.0, ("b", "c"): 1.0},
            sources={"a": Measure(grid8, mu)}, sinks={"c": Measure(grid8, nu)})
        inc = validate_paths(net, [Path(("a", "b", "c"))])
        assert inc == {"a": (0,), "b": (0,), "c": (0,)}

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


class TestNetworkValidation:
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
