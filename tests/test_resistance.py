import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from covertime import blas, resistance
from covertime import (
    BaseGraphSpec,
    ComponentView,
    ContractViolation,
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


def _kernel_size(g: MultiGraph) -> tuple[int, int]:
    """(2-core size, kernel size) by a plain peel: drop vertices with fewer
    than two distinct neighbours until none is left; the kernel is the core
    vertices with at least three distinct core neighbours."""
    nbrs = {v: {w for w, _ in g.adjacency[v] if w != v} for v in range(g.vertex_count)}
    while True:
        weak = [v for v, ws in nbrs.items() if len(ws) < 2]
        if not weak:
            break
        for v in weak:
            for w in nbrs.pop(v):
                if w in nbrs:
                    nbrs[w].discard(v)
    return len(nbrs), sum(1 for ws in nbrs.values() if len(ws) >= 3)


class TestKernelReduction:
    """The dense path inverts the kernel of the 2-core only; every series
    path becomes one kernel edge and its vertices' rows are interpolated."""

    @pytest.mark.parametrize("edges,n", [
        pytest.param([(v, (v + 1) % 9) for v in range(9)], 9, id="cycle"),
        # two triangles joined by the bridge path 2-3-4-5
        pytest.param([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
                     8, id="dumbbell"),
        # K4 with the cycle 0-4-5-6-0 hanging at kernel vertex 0
        pytest.param([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                      (0, 4), (4, 5), (5, 6), (6, 0)], 7, id="loop-path"),
        # kernel pair 0, 1: a 2-fold edge and the parallel paths 0-2-3-1, 0-4-1
        pytest.param([(0, 1, 2), (0, 2), (2, 3), (3, 1), (0, 4), (4, 1)], 5,
                     id="parallel-paths"),
        # K4 with the path 0-4-5-1: a 3-fold edge 4-5 and a loop at 4
        pytest.param([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                      (0, 4), (4, 5, 3), (5, 1), (4, 4, 2)], 6, id="multi-edge-path"),
        # the ground vertex 0 two edges down a tree hanging from kernel vertex
        # 1 of a K4 on 1-4 with the path 1-6-7-2
        pytest.param([(0, 5), (5, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                      (1, 6), (6, 7), (7, 2)], 8, id="ground-in-tree"),
        pytest.param([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4, id="K4"),
    ])
    def test_matches_pinv(self, edges, n):
        g = MultiGraph(n, edges)
        o = oracle_for(g)
        assert o.dense
        R = o.rows_from_locals(range(n))
        assert np.allclose(R, oc.resistance_matrix_pinv(g), rtol=1e-9, atol=1e-12)
        assert np.array_equal(R, R.T)

    def test_lapack_sees_the_kernel_only(self, monkeypatch):
        # a percolated torus has long series paths: 1476 vertices, a 2-core
        # of 1040 and a kernel of 431
        g = percolate(BaseGraphSpec.torus(40, 2, 0.55), 0)[1].graph
        core, kernel = _kernel_size(g)
        assert kernel < core < g.vertex_count
        shapes = []
        invert = blas.cholesky_inverse
        monkeypatch.setattr(blas, "cholesky_inverse", lambda a: shapes.append(a.shape) or invert(a))
        assert oracle_for(g).dense
        assert shapes == [(kernel - 1, kernel - 1)]


@st.composite
def subdivided_multigraphs(draw):
    """A connected multigraph with loops, parallel edges and bridges whose
    edges are each, at random, replaced by a series path of new vertices
    (multiplicities 1 to 3, now and then a loop on a new vertex): 1 to 4 of
    them on a non-loop edge, 2 to 4 on a loop, which makes a path back to
    its start."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = oc.random_connected_multigraph(
        rng, draw(st.integers(1, 10)), extra_edges=draw(st.integers(0, 8)),
        loops=draw(st.integers(0, 3)), max_multiplicity=draw(st.integers(1, 3)),
    )
    n, edges = base.vertex_count, []
    for u, v, m in base.edges:
        if rng.random() < 0.4:
            edges.append((u, v, m))
            continue
        chain = [u] + list(range(n, n + int(rng.integers(1 + (u == v), 5)))) + [v]
        n = chain[-2] + 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, int(rng.integers(1, 4))))
        if rng.random() < 0.3:
            edges.append((chain[1], chain[1], 1))
    return MultiGraph(n, edges)


@given(subdivided_multigraphs())
@settings(max_examples=60, deadline=None)
def test_kernel_reduction_matches_pinv(g):
    o = oracle_for(g)
    R = o.rows_from_locals(range(g.vertex_count))
    assert np.allclose(R, oc.resistance_matrix_pinv(g), rtol=1e-9, atol=1e-12)
    assert np.array_equal(R, R.T)


@given(subdivided_multigraphs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_rows_symmetric_and_mode_independent(g, seed):
    # R is exactly symmetric in both modes, rows read on demand in any block
    # order carry the materialized bits, each oracle's eccentricities and
    # separation are the extremes of the rows it gives afterwards, and R
    # agrees with the pseudoinverse
    n = g.vertex_count
    dense = oracle_for(g)
    on_demand = oracle_for(g, dense_limit=1)
    assert dense.dense and (n == 1 or not on_demand.dense)
    rng = np.random.default_rng(seed)
    read = []
    for o in (dense, on_demand):
        rows = np.empty((n, n))
        for block in np.array_split(rng.permutation(n), int(rng.integers(1, n + 1))):
            rows[block] = o.rows_from_locals(block)
        off_diagonal = rows.copy()
        np.fill_diagonal(off_diagonal, np.inf)
        assert np.array_equal(o.eccentricity, rows.max(axis=1))
        assert o.separation == off_diagonal.min()
        read.append(rows)
    R, rows = read
    assert np.array_equal(R, R.T)
    assert np.array_equal(rows, R)
    for a in rng.permutation(n)[:8]:
        assert np.array_equal(on_demand.resistances_from_local(int(a)), R[a])
    assert np.allclose(R, oc.resistance_matrix_pinv(g), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("dense_limit", [resistance.DENSE_LIMIT, 1])
def test_constructor_builds_each_core_row_once(monkeypatch, dense_limit):
    # one in-order sweep forms every row in both modes: the constructor
    # reads no row through _rows or _ancestry and builds each block of
    # core rows once
    g = oc.random_connected_multigraph(np.random.default_rng(2), 300, extra_edges=30,
                                       loops=5, max_multiplicity=3)
    calls = dict.fromkeys(["_rows", "_ancestry", "_core_rows"], 0)
    for name in calls:
        def spy(self, *args, _real=getattr(ResistanceOracle, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(ResistanceOracle, name, spy)
    o = oracle_for(g, dense_limit=dense_limit)
    assert o.dense == (dense_limit > 1)
    # hanging trees, series paths and more than one block of core rows
    assert o._h.max() > 0 and o._nk < o._nc and o._nc > resistance._BLOCK
    blocks = -(-o._nc // resistance._BLOCK)
    assert calls == {"_rows": 0, "_ancestry": 0, "_core_rows": blocks}


_FALLBACK_R = (
    "import sys, numpy as np; from covertime import blas; "
    "blas._LAPACKE = ('no_such_dpotrf', 'no_such_dpotri'); "
    "from covertime import ComponentView, ResistanceOracle, random_regular_graph; "
    "o = ResistanceOracle(ComponentView.whole(random_regular_graph(120, 3, 4))); "
    "np.save(sys.argv[1], o.rows_from_locals(range(o.size))); "
    "print(blas.describe()); print('scipy' in sys.modules)"
)


def test_lapack_falls_back_to_scipy(tmp_path):
    # where numpy's OpenBLAS exports no LAPACKE potrf/potri, scipy's LAPACK
    # inverts the kernel, and only then is scipy imported
    path = tmp_path / "R.npy"
    proc = subprocess.run([sys.executable, "-c", _FALLBACK_R, str(path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    described, loaded = proc.stdout.splitlines()[-2:]
    assert described.startswith("LAPACK potrf/potri: scipy.linalg.lapack;")
    assert loaded == "True"
    o = oracle_for(random_regular_graph(120, 3, 4))
    want = o.rows_from_locals(range(o.size))
    assert np.allclose(np.load(path), want, rtol=1e-12, atol=0.0)


def test_cholesky_inverse_rejects_bad_layout():
    # LAPACK would read past a slice, or the transpose of a C-ordered array
    for bad in (np.eye(3)[:, :2], np.zeros((3, 4))[:, :3],
                np.eye(3, dtype=np.float32, order="F")):
        with pytest.raises(ValueError):
            blas.cholesky_inverse(bad)


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

    def test_sparse_diameter_is_exact(self):
        d = resistance_diameter(oracle_for(path_graph(40), dense_limit=8))
        assert d.exact
        assert d.value == pytest.approx(39.0, abs=1e-9)
        assert d.pair == (0, 39)

    def test_sparse_matches_dense(self):
        # rows read on demand carry the bits of the materialized R
        rng = np.random.default_rng(5)
        g = oc.random_connected_multigraph(rng, 40, extra_edges=20, loops=3, max_multiplicity=2)
        dense = oracle_for(g)
        sparse = oracle_for(g, dense_limit=8)
        assert dense.dense and not sparse.dense
        n = g.vertex_count
        for u in range(n):
            assert np.array_equal(sparse.resistances_from(u), dense.resistances_from(u))
        assert np.array_equal(sparse.rows_from_locals(range(n)), dense.rows_from_locals(range(n)))

    @pytest.mark.parametrize("k,dense_limit", [
        pytest.param(k, limit, id=str(k) if limit is None else f"{k}-sparse")
        for limit in (None, 8) for k in (64, 128, 256)
    ])
    def test_tree_tie_break_is_smallest_bfs_pair(self, k, dense_limit):
        # on a tree R is the hop distance, so in either mode the diameter pair
        # must be the lexicographically smallest pair at maximal BFS distance
        kw = {} if dense_limit is None else {"dense_limit": dense_limit}
        for s in range(10):
            g = uniform_labeled_tree(k, s)
            hops = np.array([oc.bfs_distances(g, u) for u in range(k)])
            top = hops.max()
            want = min((u, v) for u in range(k) for v in range(u + 1, k)
                       if hops[u, v] == top)
            o = oracle_for(g, **kw)
            assert o.dense == (dense_limit is None)
            d = resistance_diameter(o)
            assert d.exact
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

    def test_on_demand_reads_both_rows_in_one_call(self, monkeypatch):
        rng = np.random.default_rng(12)
        g = oc.random_connected_multigraph(rng, 20, extra_edges=12, loops=2,
                                           max_multiplicity=2)
        o = oracle_for(g, dense_limit=8)
        assert not o.dense
        calls = []
        rows = o._rows
        monkeypatch.setattr(o, "_rows", lambda idx: calls.append(idx) or rows(idx))
        for u, v in [(0, 19), (7, 3), (12, 0)]:
            calls.clear()
            got = hitting_time(o, u, v)
            assert len(calls) == 1
            assert got == pytest.approx(oc.hitting_time_onestep(g, u, v), rel=1e-9)

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
def test_sparse_diameter_matches_pinv(g):
    sparse = resistance_diameter(oracle_for(g, dense_limit=1))
    dense = resistance_diameter(oracle_for(g))
    assert sparse.value == pytest.approx(oc.resistance_matrix_pinv(g).max(), rel=1e-9)
    assert sparse.pair == dense.pair


@given(connected_graphs(), st.sampled_from([None, 1]))
@settings(max_examples=40, deadline=None)
def test_separation_matches_pinv(g, dense_limit):
    o = oracle_for(g) if dense_limit is None else oracle_for(g, dense_limit=dense_limit)
    R = oc.resistance_matrix_pinv(g)
    np.fill_diagonal(R, np.inf)
    assert o.separation == pytest.approx(R.min(), rel=1e-9)


def test_separation_single_vertex():
    assert oracle_for(MultiGraph(1)).separation == np.inf


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
    oracle_for(cycle_graph(3))   # the first oracle loads the LAPACK library
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
    oracle_for(cycle_graph(3))   # the first oracle loads the LAPACK library
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


def test_dense_oracle_memory_with_series_paths():
    # a percolated torus (k = 1476, a 2-core of 1040): the kernel inverse,
    # 430^2, is far below k^2 and the path rows are filled in blocks, so R is
    # the one k^2 array even at the peak (a 1039^2 core inverse would not
    # fit under 1.5 k^2)
    oracle_for(cycle_graph(3))   # the first oracle loads the LAPACK library
    comp = percolate(BaseGraphSpec.torus(40, 2, 0.55), 0)[1]
    k = comp.size
    tracemalloc.start()
    try:
        o = ResistanceOracle(comp)
        o.resistances_from(0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    square = k * k * 8
    assert o.dense and k == 1476
    assert peak <= 1.5 * square, peak / square
    assert retained <= 1.25 * square, retained / square


def _sparse_torus_oracle(comp: ComponentView | None = None) -> ResistanceOracle:
    # a percolated 40x40 torus component, k = 1510, read on demand
    if comp is None:
        comp = percolate(BaseGraphSpec.torus(40, 2, 0.6), 3)[1]
    o = ResistanceOracle(comp, dense_limit=16)
    assert not o.dense and o.size == 1510
    return o


def test_sparse_oracle_keeps_no_rows():
    # built and with every row read, an on-demand oracle keeps the kernel's
    # inverse and O(k) tables, never the k^2 matrix: at most nk^2 + one
    # block of rows
    comp = percolate(BaseGraphSpec.torus(40, 2, 0.6), 3)[1]
    comp.graph.adjacency, comp.graph.degrees   # built on first use
    oracle_for(cycle_graph(3))   # the first oracle loads the LAPACK library
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        o = _sparse_torus_oracle(comp)
        k = o.size
        o.rows_from_locals(range(k))
        for a in range(0, k, 7):
            o.resistances_from_local(a)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    budget = (o._nk ** 2 + resistance._BLOCK * k) * 8
    assert budget < 0.25 * k * k * 8   # no room for a k^2 array
    assert retained <= budget, retained / budget


def test_sparse_row_reads_agree_bitwise():
    # a row read alone, inside a block of shuffled rows, or through a single
    # resistance carries the bits of the materialized R whatever the order
    o = _sparse_torus_oracle()
    k = o.size
    R = ResistanceOracle(o.component).rows_from_locals(range(k))
    ids = o.component.vertices
    rng = np.random.default_rng(0)
    order = rng.permutation(k)
    block = np.empty((k, k))
    block[order] = o.rows_from_locals(order)
    assert np.array_equal(block, R)
    for a in rng.permutation(k):
        assert np.array_equal(o.resistances_from(ids[a]), R[a])
    # every row again, at a few random columns each: one row read per query
    for a in rng.permutation(np.repeat(np.arange(k), 3)):
        b = int(rng.integers(k))
        assert o.resistance(ids[a], ids[b]) == R[a, b]


def test_kernel_over_budget_rejected_before_allocating(monkeypatch):
    # a 3-regular graph is its own kernel; with the budget below it, the
    # constructor raises before the (nk - 1)^2 inverse or any row exists
    comp = ComponentView.whole(random_regular_graph(600, 3, 0))
    oracle_for(cycle_graph(3))   # the first oracle loads the LAPACK library
    monkeypatch.setattr(resistance, "DENSE_LIMIT", 64)
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match="kernel of 600 vertices"):
            ResistanceOracle(comp, dense_limit=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 599 * 599 * 8, peak
