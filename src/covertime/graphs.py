"""Undirected multigraphs with integer multiplicities, loops, and dense ids.

A graph is one int64 ``(E, 3)`` array of its distinct edges (u, v, m),
u <= v, sorted by (u, v). Numpy validates and merges the edges it is given
and derives every other table from that array: degrees, adjacency, the
walk tables, component labels and induced graphs. A graph is charged
``graph_bytes`` against the memory budget before it is built; its walk
tables are charged ``walk_bytes`` and ``walk_list_bytes`` before they are
built on first use. The step table is built only when it holds at most
``STEP_TABLE_ENTRIES`` entries and is not charged: under tracemalloc a
32768-cycle's 2^16 entries peak at 5.5 MB with their lists.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import IO, Iterable, Sequence

import numpy as np

from . import errors
from .errors import ContractViolation, EdgeListParseError, VertexRangeError, require

_INT64_MAX = int(np.iinfo(np.int64).max)
STEP_TABLE_ENTRIES = 1 << 16


def graph_bytes(vertices: float, edges: float) -> float:
    """Bytes to sample and build a graph: 64 a vertex and 140 an edge.
    Under tracemalloc, past 64 bytes a vertex, a 2*10^5-vertex uniform tree
    peaks at 139.2 bytes an edge, G(3000, 0.3) at 113, a 60^3 torus at 45
    and the union of 500 uniform trees of 2-400 vertices, built from their
    shifted edge arrays, below 0."""
    return 64 * vertices + 140 * edges


def walk_bytes(vertices: float, ends: float) -> float:
    """Bytes to build ``walk_tables``: 16 a vertex and 64 an edge end (under
    tracemalloc 8 and 61 on a 2*10^5-vertex tree, 8 and 58 on a 60^3 torus)."""
    return 16 * vertices + 64 * ends


def walk_list_bytes(vertices: float, ends: float) -> float:
    """Bytes to build ``walk_tables_py`` from ``walk_tables``: 80 a vertex and
    64 an edge end (under tracemalloc 80 and 64 on a 2*10^5-vertex tree, 80
    and 53 on a 60^3 torus)."""
    return 80 * vertices + 64 * ends


def _edge_rows(n: int, edges) -> np.ndarray:
    """The edges as (u, v) or (u, v, m) rows in input order, (u, v, m)
    where any edge has three fields: an int64 array, or an object array
    when a field is past the int64 range. Raises for the first bad edge
    in input order, as a loop over the edges checking each in turn would:
    its field count, then its multiplicity, then its ends."""
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] in (2, 3) \
            and edges.dtype.kind == "i":
        rows = edges.astype(np.int64, copy=False)
    else:
        widths = set(map(len, edges)) or {2}
        width = widths.pop() if len(widths) == 1 else None  # None: the counts differ
        counts = None if width is not None else np.fromiter(map(len, edges), np.int64, len(edges))
        size = width * len(edges) if width is not None else int(counts.sum())
        try:
            fields = np.fromiter(itertools.chain.from_iterable(edges), np.int64, size)
        except OverflowError:
            fields = np.fromiter(itertools.chain.from_iterable(edges), object, size)
        if width in (2, 3):
            rows = fields.reshape(len(edges), width)
        elif width is not None:
            rows = fields[:0].reshape(0, 3)
        else:  # gather the fields of the edges before the first bad count
            good = (counts == 2) | (counts == 3)
            counts = counts[:len(edges) if good.all() else int(np.argmin(good))]
            first = np.cumsum(counts) - counts
            rows = np.ones((len(counts), 3), dtype=fields.dtype)
            rows[:, 0] = fields[first]
            rows[:, 1] = fields[first + 1]
            rows[counts == 3, 2] = fields[first[counts == 3] + 2]
    # an int64 end below 0 is at least 2^63 as a uint64
    if rows.dtype == object or np.count_nonzero(rows[:, :2].view(np.uint64) >= n) \
            or rows.shape[1] == 3 and np.count_nonzero(rows[:, 2] < 1):
        u, v = rows[:, 0], rows[:, 1]
        m = rows[:, 2] if rows.shape[1] == 3 else np.ones_like(u)
        bad = (m < 1) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            if m[i] < 1:
                raise ContractViolation(f"edge multiplicity must be >= 1, got {m[i]}")
            raise VertexRangeError(f"edge ({u[i]}, {v[i]}) outside 0..{n - 1}")
    if len(rows) < len(edges):
        raise ContractViolation(f"edge must be (u, v) or (u, v, m), got {edges[len(rows)]!r}")
    return rows


def _total(m: np.ndarray) -> int:
    """The exact sum of the multiplicities m, past int64 too."""
    if m.dtype == object or (len(m) and int(m.max()) > _INT64_MAX // len(m)):
        return sum(m.tolist())
    return int(m.sum())


def _merged(n: int, u: np.ndarray, v: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """Distinct (min, max, summed m) rows of the edges (u, v, m), m None
    for all 1, sorted by the key min * n + max, which is exact: n <= 2^26
    (see errors.MEMORY_BYTES). Edges already so are taken as they are."""
    merged = np.empty((len(u), 3), dtype=np.int64)
    lo, hi = np.minimum(u, v, out=merged[:, 0]), np.maximum(u, v, out=merged[:, 1])
    merged[:, 2] = 1 if m is None else m
    key = lo * n + hi
    if np.count_nonzero(key[1:] <= key[:-1]):  # unsorted, or an edge given twice
        order = np.argsort(key)
        key = key[order]
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        if np.count_nonzero(new) == len(key):
            merged = merged[order]
        else:  # sum the multiplicities of each key
            m = np.add.reduceat(merged[:, 2][order], new.nonzero()[0])
            merged = merged[order[new]]
            merged[:, 2] = m
    return merged


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..vertex_count-1.

    Parallel edges are stored once with an integer multiplicity and loops
    are allowed. A loop contributes 2 to its endpoint's degree, so
    sum(degrees) == 2 * edge_total holds on every graph, and a simple
    random walk step picks one of degree(v) incident edge ends uniformly
    (a loop at v owns two ends, both of which keep the walk at v). Degrees
    are exact int64, so a graph whose degree sum exceeds 2^63 - 1 is
    rejected.

    ``edges`` may be any iterable of (u, v) and (u, v, m) integer
    sequences, or an integer array of such rows. The first bad edge in
    input order raises, as a loop checking each edge in turn would, except
    that a graph whose vertices alone are over the memory budget is refused
    before its edges are read into arrays. ``edge_array`` holds the
    distinct edges as read-only int64 rows (u, v, m), u <= v, sorted by
    (u, v); ``edges`` is the same as a tuple of tuples.
    """

    __slots__ = ("vertex_count", "edge_array", "edge_total", "degrees", "_edges",
                 "_adjacency", "_walk_np", "_walk_py", "_lcm", "_steps")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if not isinstance(vertex_count, (int, np.integer)) or vertex_count < 0:
            raise ContractViolation("vertex_count must be a nonnegative integer")
        n = int(vertex_count)
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        if graph_bytes(n, 0) > errors.MEMORY_BYTES and min(map(len, edges), default=2) >= 2:
            # refused whatever the edges are: charged before they are read
            # into arrays, at the count of distinct {u, v}; raised here, not
            # in a helper, as each frame in its traceback is held with it
            e = len(set(map(frozenset, map(operator.itemgetter(0, 1), edges))))
            require(graph_bytes(n, e), f"a graph of {n} vertices and {e} edges")
        rows = _edge_rows(n, edges)
        unit = rows.shape[1] == 2  # every multiplicity 1
        total = len(rows) if unit else _total(rows[:, 2])
        if 2 * total > _INT64_MAX:
            raise ContractViolation("degree sum exceeds the int64 range")
        rows = rows.astype(np.int64, copy=False)
        uvm = _merged(n, rows[:, 0], rows[:, 1], None if unit else rows[:, 2])
        require(graph_bytes(n, len(uvm)), f"a graph of {n} vertices and {len(uvm)} edges")
        self.vertex_count = n
        self.edge_array = uvm
        self.edge_array.flags.writeable = False
        self.edge_total = total
        # each edge adds m at both ends, so a loop adds 2m at its vertex:
        # one exact int64 count
        if unit:
            degrees = np.bincount(rows.ravel(), minlength=n)
        else:
            degrees = np.zeros(n, dtype=np.int64)
            np.add.at(degrees, uvm[:, :2], uvm[:, 2:])
        self.degrees = degrees
        self.degrees.flags.writeable = False
        self._edges: tuple[tuple[int, int, int], ...] | None = None
        self._adjacency: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._walk_np = None
        self._walk_py = None
        self._lcm = None
        self._steps = None

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The distinct edges (u, v, m), u <= v, sorted by (u, v)."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self.edge_array.tolist()))
        return self._edges

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def _ends(self):
        """(src, dst, m, reps) of every edge end sorted by (src, dst): a
        non-loop edge gives an end at each endpoint, a loop one end that
        stands for its 2m edge ends (reps)."""
        u, v, m = self.edge_array.T
        other = u != v
        src = np.concatenate([u, v[other]])
        dst = np.concatenate([v, u[other]])
        m = np.concatenate([m, m[other]])
        order = np.argsort(src * self.vertex_count + dst)  # exact: see _merged
        src, dst, m = src[order], dst[order], m[order]
        return src, dst, m, np.where(src == dst, 2 * m, m)

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, multiplicity), neighbors sorted."""
        if self._adjacency is None:
            src, dst, m, _ = self._ends()
            pairs = list(zip(dst.tolist(), m.tolist()))
            cuts = np.searchsorted(src, np.arange(self.vertex_count + 1)).tolist()
            self._adjacency = tuple(tuple(pairs[a:b]) for a, b in zip(cuts, cuts[1:]))
        return self._adjacency

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        a, b, m = self.edge_array.T
        hit = m[(a == min(u, v)) & (b == max(u, v))]
        return int(hit[0]) if len(hit) else 0

    def add_edge(self, u: int, v: int, multiplicity: int = 1) -> "MultiGraph":
        """New graph with multiplicity(u, v) incremented; u == v adds a loop."""
        self._check_vertex(u)
        self._check_vertex(v)
        if multiplicity < 1:
            raise ContractViolation("multiplicity must be >= 1")
        return MultiGraph(self.vertex_count, [*self.edge_array.tolist(), (u, v, multiplicity)])

    def walk_tables(self):
        """(offsets, flat, degrees) arrays for uniform edge-end stepping.

        flat[offsets[v]:offsets[v+1]] lists the other endpoint of every edge
        end at v in ascending order, with non-loop edges repeated by
        multiplicity and loops contributing 2*multiplicity copies of v
        itself.
        """
        if self._walk_np is None:
            n, ends = self.vertex_count, 2 * self.edge_total
            require(walk_bytes(n, ends), f"a walk table of {n} vertices and {ends} edge ends")
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=offsets[1:])
            _, dst, _, reps = self._ends()
            flat = np.repeat(dst, reps)
            flat.flags.writeable = False
            offsets.flags.writeable = False
            self._walk_np = (offsets, flat, self.degrees)
        return self._walk_np

    def walk_tables_py(self):
        """(nbrs, degrees, lcm) as Python lists and an int, for tight scalar loops.

        nbrs[v] is flat[offsets[v]:offsets[v+1]] of walk_tables, and lcm is
        the least common multiple of the positive degrees (1 if there are
        none): every degree divides it.
        """
        if self._walk_py is None:
            n, ends = self.vertex_count, 2 * self.edge_total
            require(walk_list_bytes(n, ends), f"a walk list of {n} vertices and {ends} edge ends")
            offsets, flat, degrees = self.walk_tables()
            ends, cuts = flat.tolist(), offsets.tolist()
            nbrs = [ends[a:b] for a, b in zip(cuts, cuts[1:])]
            self._walk_py = (nbrs, degrees.tolist(), self._degree_lcm())
        return self._walk_py

    def _degree_lcm(self) -> int:
        """The least common multiple of the positive degrees, 1 if there
        are none."""
        if self._lcm is None:
            degrees = np.sort(self.degrees[self.degrees > 0])
            self._lcm = math.lcm(*degrees[np.diff(degrees, prepend=0) > 0].tolist())
        return self._lcm

    def step_tables(self):
        """(table, rows): the walk step by stream value, or None when the
        table would hold more than ``STEP_TABLE_ENTRIES`` entries.

        With L the lcm of the positive degrees and (offsets, flat, _) the
        walk tables, table is the (vertex_count, L) int64 array with
        table[v, r] == flat[offsets[v] + r % degree(v)], and rows is the
        same table as Python lists. Vertex v's row is its edge ends
        repeated L / degree(v) times, so row[r mod L] is the step that
        stream value r takes from v. A vertex with no edge ends, which no
        walk steps from, has a row of itself.
        """
        n, lcm = self.vertex_count, self._degree_lcm()
        if n * lcm > STEP_TABLE_ENTRIES:
            return None
        if self._steps is None:
            offsets, flat, degrees = self.walk_tables()
            table = np.repeat(np.arange(n)[:, None], lcm, axis=1)
            moves = np.flatnonzero(degrees)
            table[moves] = flat[offsets[moves, None] + np.arange(lcm) % degrees[moves, None]]
            table.flags.writeable = False
            self._steps = (table, table.tolist())
        return self._steps

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise VertexRangeError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.vertex_count}, |E|={self.edge_total})"


class ComponentView:
    """A connected component of a parent graph with a dense relabeling.

    ``vertices`` holds the original ids in sorted order; local id i maps to
    original id vertices[i]. Public APIs downstream (resistance, walks)
    speak original ids and translate through this view. The members may be
    a slice of a numpy id array, held without a copy; the sorted ids, the
    index of each id and the induced graph are built on first use.
    """

    __slots__ = ("parent", "_members", "_vertices", "_index", "_graph")

    def __init__(self, parent: MultiGraph, vertices: Iterable[int]) -> None:
        self.parent = parent
        self._members = vertices if isinstance(vertices, np.ndarray) else list(vertices)
        if not len(self._members):
            raise ContractViolation("a component must contain at least one vertex")
        self._vertices = self._index = self._graph = None

    @classmethod
    def whole(cls, g: MultiGraph) -> "ComponentView":
        """View of a graph that is already connected."""
        comps = connected_components(g)
        if len(comps) != 1:
            raise ContractViolation(
                f"graph is not connected ({len(comps)} components)"
            )
        return comps[0]

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._vertices is None:
            members = self._members
            ids = members.tolist() if isinstance(members, np.ndarray) else map(int, members)
            self._vertices = tuple(sorted(ids))
        return self._vertices

    @property
    def _local(self) -> dict[int, int]:
        """Local id of each original id."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    @property
    def size(self) -> int:
        return len(self._members)

    def __contains__(self, v: int) -> bool:
        return v in self._local

    def to_local(self, v: int) -> int:
        try:
            return self._local[v]
        except KeyError:
            raise VertexRangeError(f"vertex {v} is not in this component") from None

    def to_original(self, i: int) -> int:
        if not (0 <= i < self.size):
            raise VertexRangeError(f"local index {i} outside component of size {self.size}")
        return self.vertices[i]

    @property
    def graph(self) -> MultiGraph:
        """Induced multigraph on local ids 0..size-1."""
        if self._graph is None:
            if self.size == self.parent.vertex_count:
                self._graph = self.parent
            else:
                # ids relabel in ascending order, so the parent's sorted rows stay sorted
                local = np.full(self.parent.vertex_count, -1, dtype=np.int64)
                local[np.sort(np.asarray(self._members, dtype=np.int64))] = np.arange(self.size)
                u, v, m = self.parent.edge_array.T
                u, v = local[u], local[v]
                inside = (u >= 0) & (v >= 0)
                self._graph = MultiGraph(self.size, np.stack([u[inside], v[inside], m[inside]], 1))
        return self._graph

    def __repr__(self) -> str:
        return f"ComponentView(size={self.size})"


def _component_labels(g: MultiGraph) -> np.ndarray:
    """The smallest vertex id of each vertex's component."""
    labels = np.arange(g.vertex_count)
    if len(g.edge_array):
        while _label_round(labels, g.edge_array[:, 0], g.edge_array[:, 1]):
            pass
    return labels


def _label_round(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """One round of labelling, in place; False once no edge joins two labels.

    Every label is its own label at the start of a round. The round hooks
    each label under the smallest label across an edge from it, if that is
    smaller, then follows the labels until each is its own label again.
    A label with an edge to another that is neither hooked nor hooked under
    has a neighbour hooked under a smaller label, so it is hooked in the
    next round: every two rounds at least halve the labels of a component,
    and there are at most 2 log2(n) + 1 rounds, the last hooking nothing.
    """
    lu, lv = labels[u], labels[v]
    apart = lu != lv
    if not apart.any():
        return False
    lu, lv = lu[apart], lv[apart]
    np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
    while not np.array_equal(nxt := labels[labels], labels):
        labels[:] = nxt
    return True


def connected_components(g: MultiGraph) -> list[ComponentView]:
    """Components largest first; ties broken by smallest contained vertex id."""
    n = g.vertex_count
    labels = _component_labels(g)
    sizes = np.bincount(labels, minlength=n)
    roots = np.flatnonzero(sizes)  # each component's smallest id, ascending
    order = roots[np.argsort(-sizes[roots], kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    ids = np.argsort(rank[labels], kind="stable")  # ascending within each component
    cuts = np.cumsum(sizes[order]).tolist()
    # each view holds a slice of ids, not a copy
    return [ComponentView(g, ids[a:b]) for a, b in zip([0] + cuts, cuts)]


def largest_component(g: MultiGraph) -> ComponentView:
    """``connected_components(g)[0]`` without the views of the other
    components: a near-critical G(n, 1/n) has thousands of them."""
    if g.vertex_count == 0:
        raise ContractViolation("graph has no vertices")
    labels = _component_labels(g)
    root = int(np.bincount(labels).argmax())  # the first largest: the smallest root of a tie
    return ComponentView(g, np.flatnonzero(labels == root))


def from_edge_list(data: str | bytes | IO) -> MultiGraph:
    """Parse the edge-list interchange format.

    Format: optional first line "n <count>", then one edge per line as
    "u v" or "u v m" with 0-based ids and multiplicity m >= 1. Blank lines
    and "#" comments are ignored; duplicate (u, v) lines accumulate
    multiplicity. Without a header the vertex count is 1 + max id seen.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    elif isinstance(data, str):
        text = data
    else:
        raw = data.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    declared: int | None = None
    edges: list[tuple[int, int, int]] = []
    max_id = -1
    seen_edge = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if seen_edge or declared is not None:
                raise EdgeListParseError(lineno, "header 'n <count>' must come first")
            if len(tokens) != 2:
                raise EdgeListParseError(lineno, "header must be 'n <count>'")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad vertex count {tokens[1]!r}") from None
            if declared < 0:
                raise EdgeListParseError(lineno, "vertex count must be >= 0")
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(lineno, f"expected 'u v' or 'u v m', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            m = int(tokens[2]) if len(tokens) == 3 else 1
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer field in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, "vertex ids must be >= 0")
        if m < 1:
            raise EdgeListParseError(lineno, "multiplicity must be >= 1")
        if declared is not None and (u >= declared or v >= declared):
            raise VertexRangeError(
                f"line {lineno}: vertex id {max(u, v)} >= declared count {declared}"
            )
        seen_edge = True
        max_id = max(max_id, u, v)
        edges.append((u, v, m))
    count = declared if declared is not None else max_id + 1
    return MultiGraph(count, edges)


def load_edge_list(path) -> MultiGraph:
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file, no buffer
        data = fh.read()
    return from_edge_list(data)


def to_edge_list_text(g: MultiGraph) -> str:
    """Serialize in the same format from_edge_list reads (always with header)."""
    lines = [f"n {g.vertex_count}"]
    columns = g.edge_array.T.tolist()
    lines += [f"{u} {v}" if m == 1 else f"{u} {v} {m}" for u, v, m in zip(*columns)]
    return "\n".join(lines) + "\n"
