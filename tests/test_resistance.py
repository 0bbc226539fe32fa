import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from covertime import (
    BaseGraphSpec,
    ComponentView,
    MultiGraph,
    ResistanceOracle,
    VertexRangeError,
    complete_graph,
    connected_components,
    cycle_graph,
    hitting_time,
    path_graph,
    percolate,
    random_regular_graph,
    resistance_diameter,
    uniform_labeled_tree,
)
from covertime import resistance


def oracle_for(g: MultiGraph, **kw) -> ResistanceOracle:
    return ResistanceOracle(ComponentView.whole(g), **kw)


class TestResistanceValues:
    def test_series_path(self):
        o = oracle_for(path_graph(4))
        assert o.resistance(0, 3) == pytest.approx(3.0, abs=1e-9)

    def test_parallel_edges(self):
        o = oracle_for(MultiGraph(2, [(0, 1, 2)]))
        assert o.resistance(0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_k4(self):
        o = oracle_for(complete_graph(4))
        for u in range(4):
            for v in range(u + 1, 4):
                assert o.resistance(u, v) == pytest.approx(0.5, abs=1e-9)

    def test_triangle(self):
        o = oracle_for(cycle_graph(3))
        assert o.resistance(0, 1) == pytest.approx(2 / 3, abs=1e-9)

    def test_loops_carry_no_current(self):
        plain = oracle_for(path_graph(3))
        loopy = oracle_for(MultiGraph(3, [(0, 1), (1, 2), (1, 1, 5)]))
        assert loopy.resistance(0, 2) == pytest.approx(plain.resistance(0, 2), abs=1e-12)

    def test_outside_component_is_domain_error(self):
        comp = connected_components(MultiGraph(4, [(0, 1), (2, 3)]))[0]
        o = ResistanceOracle(comp)
        with pytest.raises(VertexRangeError):
            o.resistance(0, 3)

    def test_cycle_closed_form(self):
        n = 9
        o = oracle_for(cycle_graph(n))
        for k in range(1, n):
            assert o.resistance(0, k) == pytest.approx(oc.cycle_resistance(n, k), abs=1e-9)

    def test_path_resistance_equals_distance(self):
        o = oracle_for(path_graph(12))
        for u in range(12):
            row = o.resistances_from(u)
            for v in range(12):
                assert row[v] == pytest.approx(abs(u - v), abs=1e-9)


class TestDenseStructure:
    """The dense path factors only the 2-core and fills the hanging trees."""

    @pytest.mark.parametrize("k", [2, 50, 300])
    def test_tree_rows_are_hop_distances_exactly(self, k):
        for s in range(5):
            g = uniform_labeled_tree(k, s)
            o = oracle_for(g)
            assert o.dense
            for u in range(k):
                assert np.array_equal(o.resistances_from(u), oc.bfs_distances(g, u)), (s, u)

    def test_triple_edge_is_one_third_exactly(self):
        assert oracle_for(MultiGraph(2, [(0, 1, 3)])).resistance(0, 1) == 1 / 3

    @pytest.mark.parametrize("edges,n", [
        # the ground vertex 0 two edges down a tree hanging from a triangle
        ([(0, 4), (4, 1), (1, 2), (2, 3), (3, 1)], 5),
        # a loop on a leaf
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3, 2)], 4),
        # a leaf joined by a 3-fold edge, and a 2-fold edge inside the tree
        ([(0, 1), (1, 2), (2, 0), (2, 3, 2), (3, 4, 3)], 5),
        # two trees hanging from core vertex 2
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5), (2, 6), (6, 7, 2)], 8),
        # a 4-cycle with a 12-vertex pendant path
        ([(0, 1), (1, 2), (2, 3), (3, 0)] + [(v, v + 1) for v in range(3, 15)], 16),
        # two cycles joined by a path, with a loop on the path
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (3, 4), (4, 5), (5, 6), (6, 4)], 7),
        ([], 1),
        ([(0, 1, 2), (1, 1)], 2),
    ])
    def test_matches_pinv(self, edges, n):
        g = MultiGraph(n, edges)
        o = oracle_for(g)
        assert o.dense
        R = o.rows_from_locals(range(n))
        assert np.allclose(R, oc.resistance_matrix_pinv(g), atol=1e-9)
        assert np.array_equal(R, R.T)

    def test_rows_are_read_only(self):
        row = oracle_for(cycle_graph(5)).resistances_from(0)
        with pytest.raises(ValueError):
            row[1] = 0.0


class TestDiameter:
    def test_single_vertex(self):
        comp = connected_components(MultiGraph(1))[0]
        d = resistance_diameter(ResistanceOracle(comp))
        assert d.value == 0.0 and d.exact

    def test_cycle8_antipodal(self):
        o = oracle_for(cycle_graph(8))
        d = resistance_diameter(o)
        assert d.value == pytest.approx(2.0, abs=1e-9)
        a, b = d.pair
        assert (b - a) % 8 == 4

    def test_path_endpoints(self):
        o = oracle_for(path_graph(8))
        d = resistance_diameter(o)
        assert d.value == pytest.approx(7.0, abs=1e-9)
        assert d.pair == (0, 7)

    def test_sweep_lower_bound_flagged(self):
        g = path_graph(40)
        o = oracle_for(g, dense_limit=8)
        d = resistance_diameter(o)
        assert not d.exact
        assert d.value <= 39.0 + 1e-9
        # on a path the first sweep already finds the endpoints
        assert d.value == pytest.approx(39.0, abs=1e-9)
        assert d.graph_diameter_upper >= 39

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(5)
        g = oc.random_connected_multigraph(rng, 40, extra_edges=20, loops=3, max_multiplicity=2)
        dense = oracle_for(g)
        sparse = oracle_for(g, dense_limit=8)
        assert dense.dense and not sparse.dense
        n = g.vertex_count
        for u in range(n):
            assert np.allclose(sparse.resistances_from(u), dense.resistances_from(u),
                               rtol=1e-9, atol=1e-12)
        assert np.allclose(sparse.rows_from_locals(range(n)),
                           dense.rows_from_locals(range(n)), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_tree_tie_break_is_smallest_bfs_pair(self, k):
        # on a tree R is the hop distance, so the diameter pair must be the
        # lexicographically smallest pair at maximal BFS distance
        for s in range(10):
            g = uniform_labeled_tree(k, s)
            hops = np.array([oc.bfs_distances(g, u) for u in range(k)])
            top = hops.max()
            want = min((u, v) for u in range(k) for v in range(u + 1, k)
                       if hops[u, v] == top)
            d = resistance_diameter(oracle_for(g))
            assert d.value == pytest.approx(top, abs=1e-9)
            assert d.pair == want, (k, s)

    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_tree_sweep_tie_break_matches_bfs_sweeps(self, k):
        # the same farthest-point sweeps on exact hop distances: each sweep
        # goes to the smallest id at maximal distance, and the pair is the
        # smallest sweep pair at the largest distance found
        for s in range(10):
            g = uniform_labeled_tree(k, s)
            sweeps, current = [], 0
            for _ in range(resistance._SWEEP_ROUNDS):
                if current in [a for a, _, _ in sweeps]:
                    break
                hops = np.array(oc.bfs_distances(g, current))
                far = int(np.argmax(hops))
                sweeps.append((current, far, int(hops[far])))
                current = far
            top = max(h for _, _, h in sweeps)
            want = min((min(a, b), max(a, b)) for a, b, h in sweeps if h == top)
            d = resistance_diameter(oracle_for(g, dense_limit=8))
            assert not d.exact
            assert d.value == pytest.approx(top, abs=1e-9)
            assert d.pair == want, (k, s)


class TestHitting:
    def test_k2(self):
        o = oracle_for(MultiGraph(2, [(0, 1)]))
        assert hitting_time(o, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_path3(self):
        o = oracle_for(path_graph(3))
        assert hitting_time(o, 0, 2) == pytest.approx(4.0, abs=1e-9)

    def test_same_vertex_zero(self):
        o = oracle_for(path_graph(3))
        assert hitting_time(o, 1, 1) == 0.0

    def test_matches_onestep_oracle_with_loops(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = oc.random_connected_multigraph(rng, 9, extra_edges=6, loops=2, max_multiplicity=3)
            o = oracle_for(g)
            for _ in range(6):
                u = int(rng.integers(0, 9))
                v = int(rng.integers(0, 9))
                got = hitting_time(o, u, v)
                want = oc.hitting_time_onestep(g, u, v)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_matches_onestep_oracle_medium(self):
        rng = np.random.default_rng(21)
        g = oc.random_connected_multigraph(rng, 150, extra_edges=200, loops=5,
                                           max_multiplicity=2)
        o = oracle_for(g)
        for _ in range(5):
            u = int(rng.integers(0, 150))
            v = int(rng.integers(0, 150))
            got = hitting_time(o, u, v)
            want = oc.hitting_time_onestep(g, u, v)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_commute_identity(self):
        rng = np.random.default_rng(4)
        g = oc.random_connected_multigraph(rng, 30, extra_edges=25, loops=4, max_multiplicity=2)
        o = oracle_for(g)
        E = g.edge_total
        for _ in range(40):
            u = int(rng.integers(0, 30))
            v = int(rng.integers(0, 30))
            if u == v:
                continue
            lhs = hitting_time(o, u, v) + hitting_time(o, v, u)
            assert lhs == pytest.approx(2 * E * o.resistance(u, v), rel=1e-8)

    def test_hitting_matrix_agrees(self):
        rng = np.random.default_rng(8)
        g = oc.random_connected_multigraph(rng, 12, extra_edges=8, loops=2)
        o = oracle_for(g)
        hm = oc.HittingMatrix.from_component(ComponentView.whole(g))
        for u in range(12):
            for v in range(12):
                assert hm.hitting(u, v) == pytest.approx(
                    hitting_time(o, u, v), rel=1e-9, abs=1e-9
                )


@st.composite
def connected_graphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 14))
    return oc.random_connected_multigraph(
        rng, n, extra_edges=draw(st.integers(0, 10)), loops=draw(st.integers(0, 3)),
        max_multiplicity=draw(st.integers(1, 3)),
    )


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_metric_axioms(g):
    o = oracle_for(g)
    n = g.vertex_count
    R = np.array([o.resistances_from(u) for u in range(n)])
    assert np.allclose(R, R.T, atol=1e-9)
    assert np.all(np.abs(np.diag(R)) < 1e-9)
    offdiag = R[~np.eye(n, dtype=bool)]
    assert np.all(offdiag > 0)
    for u in range(n):
        for w in range(n):
            assert np.all(R[u, w] <= R[u, :] + R[:, w] + 1e-9)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_resistance_below_graph_distance(g):
    o = oracle_for(g)
    n = g.vertex_count
    for src in range(n):
        dist = oc.bfs_distances(g, src)
        row = o.resistances_from(src)
        for v in range(n):
            assert row[v] <= dist[v] + 1e-9


@given(connected_graphs())
@settings(max_examples=25, deadline=None)
def test_matches_pinv_oracle(g):
    o = oracle_for(g)
    R = oc.resistance_matrix_pinv(g)
    for u in range(g.vertex_count):
        assert np.allclose(o.resistances_from(u), R[u], atol=1e-8)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_foster_identity(g):
    # Foster (1949): sum over non-loop edges of m_e R(e) is k - 1
    o = oracle_for(g)
    k = g.vertex_count
    total = sum(m * o.resistance(u, v) for u, v, m in g.edges if u != v)
    assert abs(total - (k - 1)) <= 1e-9 * k


def test_dense_oracle_memory():
    # the dense oracle peaks at two k^2 arrays and keeps one; on a tree the
    # core is one vertex, so R is the only k^2 array
    k = 1500
    comp = ComponentView.whole(uniform_labeled_tree(k, 0))
    tracemalloc.start()
    try:
        o = ResistanceOracle(comp)
        o.resistances_from(0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = k * k * 8
    assert o.dense
    assert peak <= 2.5 * square, peak / square
    assert retained <= 1.25 * square, retained / square


def test_dense_oracle_memory_without_hanging_trees():
    # a 3-regular graph is its own 2-core: the core inverse and R are the two
    # k^2 arrays at the peak, and only R is kept
    k = 1500
    comp = ComponentView.whole(random_regular_graph(k, 3, 0))
    tracemalloc.start()
    try:
        o = ResistanceOracle(comp)
        o.resistances_from(0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = k * k * 8
    assert o.dense
    assert peak <= 2.5 * square, peak / square
    assert retained <= 1.25 * square, retained / square


def _sparse_torus_oracle() -> ResistanceOracle:
    # a percolated 40x40 torus component, k = 1510, on the sparse path
    o = ResistanceOracle(percolate(BaseGraphSpec.torus(40, 2, 0.6), 3)[1], dense_limit=16)
    assert not o.dense and o.size == 1510
    return o


def test_sparse_oracle_keeps_no_rows():
    # reading every row must not leave the k^2 matrix the sparse path
    # exists to avoid behind: rows are solved in blocks and handed out
    o = _sparse_torus_oracle()
    k = o.size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        o.rows_from_locals(range(k))
        for a in range(0, k, 7):
            o.resistances_from_local(a)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 0.05 * k * k * 8, retained / (k * k * 8)


def test_sparse_row_reads_agree_bitwise():
    # a row solved alone, inside a block of shuffled rows, or read through a
    # single resistance carries the same bits whatever the query order
    o = _sparse_torus_oracle()
    k = o.size
    ids = o.component.vertices
    rng = np.random.default_rng(0)
    order = rng.permutation(k)
    block = np.empty((k, k))
    block[order] = o.rows_from_locals(order)
    for a in rng.permutation(k):
        assert np.array_equal(o.resistances_from(ids[a]), block[a])
    # every row again, at a few random columns each: one solve per query
    for a in rng.permutation(np.repeat(np.arange(k), 3)):
        b = int(rng.integers(k))
        want = 0.0 if a == b else block[a, b]
        assert o.resistance(ids[a], ids[b]) == want
