"""Undirected multigraphs with integer multiplicities, loops, and dense ids."""
from __future__ import annotations

import itertools
import math
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ContractViolation, EdgeListParseError, VertexRangeError

_INT64_MAX = int(np.iinfo(np.int64).max)


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..vertex_count-1.

    Parallel edges are stored once with an integer multiplicity and loops
    are allowed. A loop contributes 2 to its endpoint's degree, so
    sum(degrees) == 2 * edge_total holds on every graph, and a simple
    random walk step picks one of degree(v) incident edge ends uniformly
    (a loop at v owns two ends, both of which keep the walk at v). Degrees
    are exact int64, so a graph whose degree sum exceeds 2^63 - 1 is
    rejected.
    """

    __slots__ = ("vertex_count", "edges", "degrees", "_adjacency", "_walk_np", "_walk_py",
                 "_steps")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if not isinstance(vertex_count, (int, np.integer)) or vertex_count < 0:
            raise ContractViolation("vertex_count must be a nonnegative integer")
        n = int(vertex_count)
        merged: dict[tuple[int, int], int] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                m = 1
            elif len(edge) == 3:
                u, v, m = edge
            else:
                raise ContractViolation(f"edge must be (u, v) or (u, v, m), got {edge!r}")
            u, v, m = int(u), int(v), int(m)
            if m < 1:
                raise ContractViolation(f"edge multiplicity must be >= 1, got {m}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            key = (u, v) if u <= v else (v, u)
            merged[key] = merged.get(key, 0) + m
        if 2 * sum(merged.values()) > _INT64_MAX:
            raise ContractViolation("degree sum exceeds the int64 range")
        self.vertex_count = n
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, m) for (u, v), m in sorted(merged.items())
        )
        # one exact int64 scatter: each edge adds m at both ends, so a loop
        # adds 2m at its vertex
        uvm = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64,
                          count=3 * len(self.edges)).reshape(-1, 3)
        degrees = np.zeros(n, dtype=np.int64)
        np.add.at(degrees, uvm[:, :2].ravel(), np.repeat(uvm[:, 2], 2))
        self.degrees = degrees
        self.degrees.flags.writeable = False
        self._adjacency: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._walk_np = None
        self._walk_py = None
        self._steps = None

    @property
    def edge_total(self) -> int:
        """Number of edges counted with multiplicity (a loop counts once)."""
        return sum(m for _, _, m in self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, multiplicity), neighbors sorted."""
        if self._adjacency is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
            for u, v, m in self.edges:
                adj[u].append((v, m))
                if u != v:
                    adj[v].append((u, m))
            self._adjacency = tuple(tuple(sorted(a)) for a in adj)
        return self._adjacency

    def multiplicity(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        key = (u, v) if u <= v else (v, u)
        for a, b, m in self.edges:
            if (a, b) == key:
                return m
        return 0

    def add_edge(self, u: int, v: int, multiplicity: int = 1) -> "MultiGraph":
        """New graph with multiplicity(u, v) incremented; u == v adds a loop."""
        self._check_vertex(u)
        self._check_vertex(v)
        if multiplicity < 1:
            raise ContractViolation("multiplicity must be >= 1")
        return MultiGraph(self.vertex_count, list(self.edges) + [(u, v, multiplicity)])

    def walk_tables(self):
        """(offsets, flat, degrees) arrays for uniform edge-end stepping.

        flat[offsets[v]:offsets[v+1]] lists the other endpoint of every edge
        end at v, with non-loop edges repeated by multiplicity and loops
        contributing 2*multiplicity copies of v itself.
        """
        if self._walk_np is None:
            offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
            offsets[1:] = np.cumsum(self.degrees)
            flat = np.empty(int(offsets[-1]), dtype=np.int64)
            cursor = offsets[:-1].copy()
            for v, nbrs in enumerate(self.adjacency):
                for w, m in nbrs:
                    reps = 2 * m if w == v else m
                    flat[cursor[v]:cursor[v] + reps] = w
                    cursor[v] += reps
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
            offsets, flat, degrees = self.walk_tables()
            ends, cuts = flat.tolist(), offsets.tolist()
            nbrs = [ends[a:b] for a, b in zip(cuts, cuts[1:])]
            degs = degrees.tolist()
            self._walk_py = (nbrs, degs, math.lcm(*{d for d in degs if d}))
        return self._walk_py

    def step_tables(self, limit: int):
        """(table, rows): the walk step by stream value, or None when the
        table would hold more than limit entries.

        With L the lcm of walk_tables_py, table is the (vertex_count, L)
        int64 array with table[v, r] == nbrs[v][r % degree(v)], and rows is
        the same table as Python lists. Vertex v's row is its edge ends
        repeated L / degree(v) times, so row[r mod L] is the step that
        stream value r takes from v. A vertex with no edge ends, which no
        walk steps from, has a row of itself.
        """
        nbrs, _, lcm = self.walk_tables_py()
        if self.vertex_count * lcm > limit:
            return None
        if self._steps is None:
            rows = [nb * (lcm // len(nb)) if nb else [v] * lcm for v, nb in enumerate(nbrs)]
            table = np.array(rows, dtype=np.int64).reshape(self.vertex_count, lcm)
            table.flags.writeable = False
            self._steps = (table, rows)
        return self._steps

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise VertexRangeError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
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
                idx = self._local
                edges = [
                    (idx[u], idx[v], m)
                    for u, v, m in self.parent.edges
                    if u in idx and v in idx
                ]
                self._graph = MultiGraph(self.size, edges)
        return self._graph

    def __repr__(self) -> str:
        return f"ComponentView(size={self.size})"


def _component_labels(g: MultiGraph) -> np.ndarray:
    """The smallest vertex id of each vertex's component."""
    labels = np.arange(g.vertex_count)
    if g.edges:
        ends = np.array(g.edges, dtype=np.int64)
        while _label_round(labels, ends[:, 0], ends[:, 1]):
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
    with open(path, "rb") as fh:
        return from_edge_list(fh)


def to_edge_list_text(g: MultiGraph) -> str:
    """Serialize in the same format from_edge_list reads (always with header)."""
    lines = [f"n {g.vertex_count}"]
    for u, v, m in g.edges:
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"
