import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as oc
from covertime import errors, graphs
from covertime import (
    ComponentView,
    ContractViolation,
    EdgeListParseError,
    MultiGraph,
    VertexRangeError,
    connected_components,
    from_edge_list,
    gnp,
    largest_component,
    to_edge_list_text,
)


def test_graph_over_budget_refused_before_allocating(tmp_path):
    # a header of 10**10 vertices: a degree table of 80 GB
    path = tmp_path / "huge.txt"
    path.write_text("n 10000000000\n0 1\n")
    # compiled before tracing, so that the peak is the refusal's alone
    need = re.compile("^a graph of 10000000000 vertices and 1 edges needs 640000000140 bytes,"
                      f" over the budget of {errors.MEMORY_BYTES}$")
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=need):
            graphs.load_edge_list(path)
        with pytest.raises(ContractViolation, match=need):
            MultiGraph(10 ** 10, [(0, 1), (1, 0, 2)])  # one distinct edge
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4, peak


def test_budget_admits_at_most_2_26_vertices():
    # the exact pair keys of MultiGraph and the pair decode of gnp need it
    assert graphs.graph_bytes(2 ** 26, 0) <= errors.MEMORY_BYTES
    assert graphs.graph_bytes(2 ** 26 + 1, 0) > errors.MEMORY_BYTES
    with pytest.raises(ContractViolation, match="^a graph of 67108865 vertices and 0 edges"):
        MultiGraph(2 ** 26 + 1)


def test_graph_charges_its_vertices_and_distinct_edges(monkeypatch):
    # 1000 vertices, 3 distinct edges among 5 lines: 64 * 1000 + 140 * 3 bytes
    edges = [(0, 1), (1, 0), (1, 2, 4), (2, 2), (2, 2)]
    monkeypatch.setattr(errors, "MEMORY_BYTES", 64 * 1000 + 140 * 3)
    assert MultiGraph(1000, edges).edge_total == 8
    monkeypatch.setattr(errors, "MEMORY_BYTES", 64 * 1000 + 140 * 3 - 1)
    need = "^a graph of 1000 vertices and 3 edges needs 64420 bytes"
    with pytest.raises(ContractViolation, match=need):
        MultiGraph(1000, edges)


class TestFromEdgeList:
    def test_path(self):
        g = from_edge_list("0 1\n1 2")
        assert g.vertex_count == 3
        assert g.degrees.tolist() == [1, 2, 1]

    def test_parallel_edges(self):
        g = from_edge_list("0 1 2")
        assert g.degrees.tolist() == [2, 2]
        assert g.edge_total == 2

    def test_loop(self):
        g = from_edge_list("0 0")
        assert g.degree(0) == 2
        assert g.edge_total == 1

    def test_duplicate_lines_accumulate(self):
        g = from_edge_list("0 1\n0 1\n1 0")
        assert g.multiplicity(0, 1) == 3

    def test_header_and_comments(self):
        g = from_edge_list("# comment\nn 5\n0 1  # trailing\n\n1 2\n")
        assert g.vertex_count == 5
        assert g.degrees.tolist() == [1, 2, 1, 0, 0]

    def test_bytes_input(self):
        assert from_edge_list(b"0 1\n").edge_total == 1

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            from_edge_list("0 1\nx y\n")
        assert exc.value.line_number == 2

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list("0 1 2 3")

    def test_id_beyond_header(self):
        with pytest.raises(VertexRangeError):
            from_edge_list("n 2\n0 5")

    def test_header_after_edges_rejected(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list("0 1\nn 4")

    def test_roundtrip(self):
        g = from_edge_list("n 6\n0 1\n2 2 3\n1 4 2")
        assert from_edge_list(to_edge_list_text(g)) == g


class TestComponents:
    def test_single_component(self):
        comps = connected_components(from_edge_list("0 1\n1 2"))
        assert len(comps) == 1 and comps[0].size == 3

    def test_tie_break_smallest_id_first(self):
        comps = connected_components(from_edge_list("2 3\n0 1"))
        assert [c.vertices for c in comps] == [(0, 1), (2, 3)]

    def test_empty_graph_singletons(self):
        comps = connected_components(MultiGraph(4))
        assert [c.size for c in comps] == [1, 1, 1, 1]
        assert comps[0].vertices == (0,)

    def test_largest_first(self):
        comps = connected_components(from_edge_list("0 1\n2 3\n3 4"))
        assert [c.size for c in comps] == [3, 2]

    def test_partition(self):
        g = from_edge_list("n 7\n0 1\n3 4\n5 5")
        comps = connected_components(g)
        seen = sorted(v for c in comps for v in c.vertices)
        assert seen == list(range(7))

    def test_relabeling_roundtrip(self):
        comp = connected_components(from_edge_list("4 7\n7 9"))[0]
        for i, v in enumerate(comp.vertices):
            assert comp.to_local(v) == i
            assert comp.to_original(i) == v
        with pytest.raises(VertexRangeError):
            comp.to_local(0)

    def test_induced_graph_keeps_loops_and_multiplicity(self):
        g = from_edge_list("5 6 3\n6 6\n0 1")
        comp = [c for c in connected_components(g) if 5 in c][0]
        ind = comp.graph
        assert ind.vertex_count == 2
        assert ind.multiplicity(0, 1) == 3
        assert ind.multiplicity(1, 1) == 1

    def test_whole_requires_connected(self):
        with pytest.raises(ContractViolation):
            ComponentView.whole(from_edge_list("0 1\n2 3"))


class TestAddEdge:
    def test_path_to_cycle(self):
        g = from_edge_list("0 1\n1 2").add_edge(0, 2)
        assert g.degrees.tolist() == [2, 2, 2]
        assert g.edge_total == 3

    def test_double_edge(self):
        g = from_edge_list("0 1").add_edge(0, 1)
        assert g.degrees.tolist() == [2, 2]
        assert g.multiplicity(0, 1) == 2

    def test_loop_adds_two(self):
        g = from_edge_list("0 1\n1 2").add_edge(1, 1)
        assert g.degree(1) == 4
        assert g.edge_total == 3

    def test_original_untouched(self):
        g = from_edge_list("0 1")
        g.add_edge(0, 1)
        assert g.multiplicity(0, 1) == 1

    def test_range_error(self):
        with pytest.raises(VertexRangeError):
            from_edge_list("0 1").add_edge(0, 7)


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(1, 8))
    edge_count = draw(st.integers(0, 12))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(1, 3)),
        )
        for _ in range(edge_count)
    ]
    return MultiGraph(n, edges)


@given(small_multigraphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_edge_total(g):
    assert int(g.degrees.sum()) == 2 * g.edge_total


def test_degrees_exact_above_float_precision():
    # 3 * 2^60 + 6 has no float64 representation: the degrees are exact
    # integers, loops counted twice and parallel edges merged
    big = 2 ** 60
    g = MultiGraph(3, [(0, 1, big), (1, 1, big + 1), (1, 2, 3), (2, 2, 1), (1, 0, 1)])
    assert g.degrees.dtype == np.int64
    assert g.degrees.tolist() == [big + 1, 3 * big + 6, 5]
    assert int(g.degrees.sum()) == 2 * g.edge_total
    assert MultiGraph(2).degrees.tolist() == [0, 0]
    # a degree past int64 is refused, not wrapped
    for edges in ([(0, 0, 2 ** 62)], [(0, 1, 2 ** 62), (1, 1, 2 ** 61)]):
        with pytest.raises(ContractViolation):
            MultiGraph(2, edges)


@given(small_multigraphs())
@settings(max_examples=60, deadline=None)
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = sorted(v for c in comps for v in c.vertices)
    assert seen == list(range(g.vertex_count))
    sizes = [c.size for c in comps]
    assert sizes == sorted(sizes, reverse=True)


@st.composite
def sparse_multigraphs(draw):
    """Graphs with many components: isolated vertices, loops, parallel edges."""
    n = draw(st.integers(0, 14))
    if n == 0:
        return MultiGraph(0)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3))
    return MultiGraph(n, draw(st.lists(pairs, max_size=n)))


@given(sparse_multigraphs())
@example(MultiGraph(100_000))  # 100,000 singletons, of which one is read
@settings(max_examples=80, deadline=None)
def test_components_match_eager_views(g):
    built = []  # every ComponentView constructed
    init = ComponentView.__init__

    def counted(view, *args):
        built.append(view)
        init(view, *args)

    with mock.patch.object(ComponentView, "__init__", counted):
        comps = connected_components(g)
        k = len(comps)
        assert not built  # a view is built when it is read, and kept
        if k > 14:
            assert comps[0].vertices == (0,) and comps[0] is comps[0] and len(built) == 1
            return
        ref = oc.eager_components(g)
        assert k == len(ref)
        with pytest.raises(IndexError):
            comps[k]
        with pytest.raises(IndexError):
            comps[-k - 1]
        # negative indices and slices read as the list did, and build only the views read
        back = comps[-1:-k - 1:-2]  # every other view from the last
        assert [c.vertices for c in back] == [ids for ids, _, _ in ref[::-2]]
        assert back == [comps[i] for i in range(k - 1, -1, -2)] == comps[k - 1::-2]
        assert len(built) == len(back) == len(ref[::-2])
        assert comps[1:1] == [] and len(built) == len(back)
        assert [c.size for c in comps] == [len(ids) for ids, _, _ in ref]
        assert len(built) == k
    # read the lazy parts in a different order on every other view
    for j, (c, (ids, index, graph)) in enumerate(zip(comps, ref)):
        if j % 2:
            assert c.graph == graph
        assert c.vertices == ids
        assert [c.to_local(v) for v in ids] == [index[v] for v in ids]
        assert [c.to_original(i) for i in range(len(ids))] == list(ids)
        assert [v in c for v in range(g.vertex_count)] == [v in index for v in range(g.vertex_count)]
        assert c.graph == graph


@given(sparse_multigraphs())
@settings(max_examples=80, deadline=None)
def test_largest_component_is_the_first_view(g):
    if g.vertex_count == 0:
        with pytest.raises(ContractViolation):
            largest_component(g)
        return
    first, largest = connected_components(g)[0], largest_component(g)
    assert largest.vertices == first.vertices and largest.graph == first.graph


def test_near_critical_views_keep_their_ids_and_order():
    # G(6000, 1/n) has about 3000 components, ties in size among them; each
    # view holds a slice of one id array and reads as the eager view did
    g = gnp(6000, 1 / 6000, 3)
    comps = connected_components(g)
    ref = oc.eager_components(g)
    assert len(comps) == len(ref) > 2000
    assert [c.vertices for c in comps] == [ids for ids, _, _ in ref]
    assert all(isinstance(c._members, np.ndarray) for c in comps)
    assert comps[0].graph == ref[0][2] and comps[-1].graph == ref[-1][2]
    assert largest_component(g).vertices == ref[0][0]


def test_components_of_a_long_shuffled_path(monkeypatch):
    # component labels must cross a diameter of 2999 edges; isolated
    # vertices 3000..3099 follow as singletons in id order
    perm = np.random.default_rng(5).permutation(3000)
    g = MultiGraph(3100, [(int(a), int(b)) for a, b in zip(perm, perm[1:])])
    rounds = _count_label_rounds(monkeypatch)
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [ids for ids, _, _ in oc.eager_components(g)]
    assert comps[0].size == 3000 and comps[1].vertices == (3000,)
    assert len(rounds) <= 2 * math.ceil(math.log2(3100)) + 1


def _count_label_rounds(monkeypatch):
    rounds = []
    label_round = graphs._label_round

    def counted(*args):
        rounds.append(None)
        return label_round(*args)

    monkeypatch.setattr(graphs, "_label_round", counted)
    return rounds


@pytest.mark.parametrize("hub", ["first", "last"])
def test_components_of_a_large_star(monkeypatch, hub):
    # edges are kept sorted, so a hub with the largest id sees its leaves
    # in ascending order; it must hook under leaf 0 in one round, not walk
    # down the leaves one round at a time
    n = 20_001
    h = 0 if hub == "first" else n - 1
    g = MultiGraph(n + 5, [(h, v) for v in range(n) if v != h])
    rounds = _count_label_rounds(monkeypatch)
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [ids for ids, _, _ in oc.eager_components(g)]
    assert comps[0].size == n and len(comps) == 6
    assert len(rounds) <= (2 if hub == "first" else 3)


@given(small_multigraphs(), st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_add_edge_localizes_degree_change(g, u, v):
    u %= g.vertex_count
    v %= g.vertex_count
    g2 = g.add_edge(u, v)
    diff = g2.degrees - g.degrees
    assert int(diff.sum()) == 2
    changed = set(np.flatnonzero(diff).tolist())
    assert changed <= {u, v}
    assert int(g2.degrees.sum()) == 2 * g2.edge_total


def test_walk_tables_match_degrees():
    g = from_edge_list("0 1 2\n1 1\n1 2")
    offsets, flat, degrees = g.walk_tables()
    assert offsets.tolist() == [0, 2, 7, 8]
    # loop at 1 contributes two ends pointing back at 1
    assert flat[offsets[1]:offsets[2]].tolist().count(1) == 2


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_step_table_picks_the_edge_end_of_every_value(seed, n):
    # table[v, r] is the edge end r mod deg(v) of v, for every r mod lcm;
    # built at a size of n * lcm entries, refused one entry below it
    rng = np.random.default_rng(seed)
    g = oc.random_connected_multigraph(rng, n, extra_edges=int(rng.integers(0, 8)),
                                       loops=int(rng.integers(0, 3)), max_multiplicity=3)
    nbrs, degs, lcm = g.walk_tables_py()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "STEP_TABLE_ENTRIES", n * lcm - 1)
        assert g.step_tables() is None
        mp.setattr(graphs, "STEP_TABLE_ENTRIES", n * lcm)
        steps = g.step_tables()
        assert steps is not None
    table, rows = steps
    assert table.shape == (n, lcm) and table.tolist() == rows
    for v in range(n):
        if degs[v]:
            assert rows[v] == [nbrs[v][r % degs[v]] for r in range(lcm)]


def test_step_table_of_a_loopless_single_vertex(monkeypatch):
    monkeypatch.setattr(graphs, "STEP_TABLE_ENTRIES", 1)
    table, rows = MultiGraph(1).step_tables()
    assert table.tolist() == rows == [[0]]


def test_step_table_past_its_size_allocates_nothing(monkeypatch):
    # a 2-vertex graph with lcm 10**10: 2 * 10**10 entries; returned None
    # from the degrees alone, with no charge and no array
    g = MultiGraph(2, [(0, 1, 10 ** 10)])
    g.step_tables()  # the lcm, read from the degrees once and kept
    monkeypatch.setattr(errors, "MEMORY_BYTES", 0)
    tracemalloc.start()
    try:
        assert g.step_tables() is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200, peak


# ---------------------------------------------------------------------------
# the edge array against one Python loop over the edges (tests/oracles.py)


@st.composite
def edge_lists(draw):
    """(n, edges): pairs and triples in either orientation, loops and
    repeated edges, isolated vertices, no edges at all."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return 0, []
    end = st.integers(0, n - 1)
    edge = st.one_of(st.tuples(end, end), st.tuples(end, end, st.integers(1, 4)))
    return n, draw(st.lists(edge, max_size=24))


@given(edge_lists(), st.sampled_from(["list", "iterator", "rows", "pairs"]))
@settings(max_examples=150, deadline=None)
def test_edge_array_matches_the_merge_loop(case, form):
    n, edges = case
    if form == "pairs":
        edges = [e[:2] for e in edges]
    ref_edges, ref_degrees, ref_total = oc.merged_edges(n, edges)
    if form == "iterator":
        g = MultiGraph(n, iter(edges))
    elif form == "rows":
        g = MultiGraph(n, np.array([(*e, 1)[:3] for e in edges], dtype=np.int32).reshape(-1, 3))
    elif form == "pairs":
        g = MultiGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    else:
        g = MultiGraph(n, edges)
    assert g.edges == ref_edges
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    assert g.edge_array.tolist() == [list(e) for e in ref_edges]
    assert g.degrees.tolist() == ref_degrees
    assert g.edge_total == ref_total and type(g.edge_total) is int
    assert g == MultiGraph(n, ref_edges) and hash(g) == hash(MultiGraph(n, ref_edges))
    for u in range(n):
        for v in range(n):
            assert g.multiplicity(u, v) == dict(((a, b), m) for a, b, m in ref_edges).get(
                (min(u, v), max(u, v)), 0)


@st.composite
def bad_edge_lists(draw):
    """(n, edges) where edges may have the wrong field count, a multiplicity
    below 1, ends outside 0..n-1, or fields past the int64 range."""
    n = draw(st.integers(1, 6))
    end = st.one_of(st.integers(-2, n + 1), st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 70]))
    mult = st.one_of(st.integers(-1, 3), st.sampled_from([2 ** 62, 2 ** 64]))
    edge = st.one_of(st.tuples(end, end), st.tuples(end, end, mult), st.tuples(),
                     st.tuples(end), st.tuples(end, end, mult, end))
    return n, draw(st.lists(edge, max_size=8))


@given(bad_edge_lists())
@settings(max_examples=300, deadline=None)
def test_first_bad_edge_raises_as_the_loop_does(case):
    n, edges = case
    try:
        ref_edges, ref_degrees, ref_total = oc.merged_edges(n, edges)
    except (ContractViolation, VertexRangeError) as exc:
        expected = exc
    else:
        g = MultiGraph(n, edges)
        assert (g.edges, g.degrees.tolist(), g.edge_total) == (ref_edges, ref_degrees, ref_total)
        return
    with pytest.raises((ContractViolation, VertexRangeError)) as got:
        MultiGraph(n, edges)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


@given(sparse_multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_walk_tables_and_induced_graphs_match_the_loops(g, data):
    offsets, flat, degrees = g.walk_tables()
    ref_offsets, ref_flat = oc.walk_tables(g)
    assert offsets.tolist() == ref_offsets and flat.tolist() == ref_flat
    assert degrees is g.degrees and not flat.flags.writeable and not offsets.flags.writeable
    assert [list(a) for a in g.adjacency] == oc.adjacency(g)
    nbrs, degs, lcm = g.walk_tables_py()
    assert nbrs == [ref_flat[a:b] for a, b in zip(ref_offsets, ref_offsets[1:])]
    assert degs == g.degrees.tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "STEP_TABLE_ENTRIES", 10 ** 5)
        steps = g.step_tables()
    if steps is not None and g.vertex_count:
        assert steps[1] == oc.step_rows(g) and steps[0].tolist() == steps[1]
    if g.vertex_count:
        subset = data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1))
        order = data.draw(st.permutations(sorted(subset)))
        induced = ComponentView(g, order).graph
        assert induced == oc.induced_graph(g, subset)
        assert induced.degrees.tolist() == oc.merged_edges(len(subset), induced.edges)[1]


def test_walk_tables_over_budget_refused_before_allocating():
    # two edge ends of multiplicity 10**10: a flat table of 160 GB
    g = MultiGraph(2, [(0, 1, 10 ** 10)])
    over = re.compile("over the budget")  # compiled before tracing
    tracemalloc.start()
    try:
        for build in (g.walk_tables, g.walk_tables_py):
            with pytest.raises(ContractViolation, match=over):
                build()
        # past the table's size: None from the degrees alone, uncharged
        assert g.step_tables() is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4, peak


def test_walk_tables_charge_the_stated_bytes(monkeypatch):
    # a 3-vertex path: 3 vertices, 4 edge ends, degrees 1, 2, 1 (lcm 2)
    g = from_edge_list("0 1\n1 2")
    for build, need, what in [
        (g.walk_tables, 16 * 3 + 64 * 4, "a walk table of 3 vertices and 4 edge ends"),
        (g.walk_tables_py, 80 * 3 + 64 * 4, "a walk list of 3 vertices and 4 edge ends"),
    ]:
        monkeypatch.setattr(errors, "MEMORY_BYTES", need - 1)
        with pytest.raises(ContractViolation, match=f"^{what} needs {need} bytes"):
            build()
        monkeypatch.setattr(errors, "MEMORY_BYTES", need)
        assert build() is not None
