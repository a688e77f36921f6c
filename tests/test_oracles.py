"""The oracles themselves, checked against closed forms and numpy."""

import numpy as np
import pytest

from netdismantle import CostMode, CostVector, Graph, full_mask
from oracles import (
    OracleBudget,
    OracleBudgetError,
    bfs_components,
    bfs_gcc_size,
    brute_force_min_dismantling,
    brute_force_min_vertex_cover,
    dense_fiedler,
    jacobi_eigh,
)


def unit_costs(g):
    return CostVector.unit(g)


class TestBfs:
    def test_disjoint_edges(self):
        g = Graph.from_edges([(0, 1), (2, 3)], n=5)
        comps = bfs_components(g, full_mask(5))
        assert {frozenset(c) for c in comps} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
        }
        assert bfs_gcc_size(g, full_mask(5)) == 2

    def test_respects_mask(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        mask = full_mask(3)
        mask[1] = False
        assert bfs_gcc_size(g, mask) == 1


class TestJacobi:
    def test_single_edge_laplacian(self):
        lam, vec = jacobi_eigh(np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert abs(lam[0]) < 1e-10
        assert abs(lam[1] - 4.0) < 1e-10

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        for k in (3, 8, 15, 25):
            a = rng.normal(size=(k, k))
            a = (a + a.T) / 2
            lam, vec = jacobi_eigh(a)
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(lam, ref, atol=1e-8)
            # columns are eigenvectors to matching eigenvalues
            for i in range(k):
                assert np.linalg.norm(a @ vec[:, i] - lam[i] * vec[:, i]) < 1e-7

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDenseFiedler:
    def test_single_edge_unit(self):
        g = Graph.from_edges([(0, 1)])
        lam2, v2 = dense_fiedler(g, full_mask(2), unit_costs(g), np.array([0, 1]))
        assert abs(lam2 - 4.0) < 1e-10
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(
            np.linalg.norm(v2 - expected), np.linalg.norm(v2 + expected)
        ) < 1e-8

    def test_smallest_eigenvalue_zero_for_connected(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            n = int(rng.integers(4, 20))
            perm = np.random.default_rng(seed).permutation(n)
            edges = list(zip(perm[:-1], perm[1:]))
            g = Graph.from_edges(edges, n=n)
            costs = CostVector.degree(g)
            lam2, _ = dense_fiedler(g, full_mask(n), costs, np.arange(n))
            assert lam2 > 1e-10

    def test_disconnected_component_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            dense_fiedler(g, full_mask(4), unit_costs(g), np.arange(4))

    def test_budget(self):
        g = Graph.from_edges([(i, i + 1) for i in range(10)])
        small = OracleBudget(max_nodes_for_dense_eigen=5)
        with pytest.raises(OracleBudgetError, match="budget exceeded"):
            dense_fiedler(g, full_mask(11), unit_costs(g), np.arange(11), budget=small)


class TestBruteForceDismantling:
    def test_path3(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        cost, s = brute_force_min_dismantling(g, unit_costs(g), 1)
        assert cost == 1.0
        assert s == frozenset({1})

    def test_k4(self):
        g = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        cost, _ = brute_force_min_dismantling(g, unit_costs(g), 1)
        assert cost == 3.0

    def test_weighted_prefers_cheap_separator(self):
        # path 0-1-2 where the middle is expensive: removing both ends
        # is cheaper than the middle
        g = Graph.from_edges([(0, 1), (1, 2)])
        costs = CostVector(w=np.array([1.0, 9.0, 1.0]), mode=CostMode.UNIT)
        cost, s = brute_force_min_dismantling(g, costs, 1)
        assert cost == 2.0
        assert s == frozenset({0, 2})

    def test_budget(self):
        g = Graph.from_edges([(i, i + 1) for i in range(15)])
        with pytest.raises(OracleBudgetError, match="budget exceeded"):
            brute_force_min_dismantling(g, unit_costs(g), 2)


class TestBruteForceCover:
    def test_single_edge(self):
        cut = np.array([[0, 1]])
        costs = CostVector(w=np.array([1.0, 5.0]), mode=CostMode.UNIT)
        assert brute_force_min_vertex_cover(cut, costs) == 1.0

    def test_four_cycle(self):
        cut = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
        costs = CostVector(w=np.ones(4), mode=CostMode.UNIT)
        assert brute_force_min_vertex_cover(cut, costs) == 2.0

    def test_empty_cut(self):
        costs = CostVector(w=np.ones(2), mode=CostMode.UNIT)
        assert brute_force_min_vertex_cover(np.empty((0, 2)), costs) == 0.0

    def test_budget(self):
        cut = np.array([[i, i + 30] for i in range(25)])
        costs = CostVector(w=np.ones(60), mode=CostMode.UNIT)
        with pytest.raises(OracleBudgetError, match="budget exceeded"):
            brute_force_min_vertex_cover(cut, costs)
