"""Effective-resistance metric, resistance diameter, and exact hitting times.

Each parallel edge is a unit conductor (conductance = multiplicity) and
loops carry no current, so they affect only walk dynamics, never the
metric. Up to ``DENSE_LIMIT`` vertices (a caller may lower the limit,
never raise it) the oracle builds the full resistance matrix R once and
keeps only R: it gives every row and an exact resistance diameter.
Resistance adds along the edges of a tree hanging from a cut vertex, so
only the 2-core needs a linear solve: the constructor peels the hanging
trees, inverts the core's grounded Laplacian in place (LAPACK ``potrf``
then ``potri``), and fills the rows of the tree vertices from their
parents' rows by tree distance. On a tree the core is the ground vertex
alone, and R is the hop distance (times 1/m along an m-fold edge) with no
solve at all. Above the limit, where a k^2 matrix no longer fits in
memory, the constructor factors the Laplacian grounded at the smallest
vertex id (sparse LU) and computes the grounded diagonal once, in blocks
of ``_SOLVE_BLOCK`` columns. Each row query then solves its rows in blocks
of the same size and caches nothing, so the oracle keeps the factor and
one length-k vector however many rows are read. There the diameter is a
farthest-point sweep lower bound.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .errors import ContractViolation
from .graphs import ComponentView, MultiGraph

DENSE_LIMIT = 4096
_SOLVE_BLOCK = 256
_SWEEP_ROUNDS = 8
# rows per block when the dense path assembles R; the block temporaries
# stay a small fraction of one k^2 array
_FILL_BLOCK = 64

# Closed-ball membership tolerance: solver residuals are ~1e-10, so exact
# boundary cases (integer radii on paths, rational radii on cycles) must
# not flip on rounding noise. Applied identically everywhere, including to
# ties at the resistance diameter.
BALL_RTOL = 1e-9
BALL_ATOL = 1e-12


def _tie_floor(best: float) -> float:
    """Smallest value that counts as tied with the maximum ``best``."""
    return best - (best * BALL_RTOL + BALL_ATOL)


class DiameterResult(NamedTuple):
    value: float
    pair: tuple[int, int]
    exact: bool
    graph_diameter_upper: int | None

    def provenance(self) -> dict:
        if self.exact:
            return {"mode": "exact"}
        return {
            "mode": "approximate_lower_bound",
            "graph_diameter_upper": self.graph_diameter_upper,
        }


class ResistanceOracle:
    """Pairwise effective-resistance queries on one connected component.

    Public methods take original (parent-graph) vertex ids; local ids are
    positions in ``component.vertices``. The oracle is immutable once built
    and has one row primitive per solver path. A dense oracle builds the
    full resistance matrix R in the constructor and holds nothing else (R is
    read-only and exactly symmetric, and every row query reads it). A sparse
    oracle holds the LU factor of the Laplacian grounded at local 0 and the
    grounded diagonal, which its constructor computes; it solves the rows
    it is asked for in blocks and caches none of them.

    ``dense_limit`` can only lower ``DENSE_LIMIT``: a larger value is
    rejected before anything is allocated.
    """

    def __init__(self, component: ComponentView, dense_limit: int = DENSE_LIMIT) -> None:
        if dense_limit > DENSE_LIMIT:
            raise ContractViolation(
                f"dense_limit {dense_limit} exceeds DENSE_LIMIT {DENSE_LIMIT}"
            )
        self.component = component
        g = component.graph
        self.size = g.vertex_count
        self.edge_total = g.edge_total
        self._degrees = g.degrees.astype(np.float64)
        k = self.size
        self.dense = k <= dense_limit
        self._R: np.ndarray | None = None
        if self.dense:
            self._R = _dense_resistances(g)
            return
        rows, cols, vals = [], [], []
        for u, v, m in g.edges:
            if u == v:
                continue
            rows += [u, v, u, v]
            cols += [v, u, u, v]
            vals += [-float(m), -float(m), float(m), float(m)]
        lap = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsc()
        self._lu = scipy.sparse.linalg.splu(lap[1:, 1:].tocsc())
        # R to the ground vertex: the diagonal of the grounded inverse
        self._diag = np.zeros(k, dtype=np.float64)
        for start in range(1, k, _SOLVE_BLOCK):
            block = np.arange(start, min(start + _SOLVE_BLOCK, k))
            self._diag[block] = self._solve_block(block)[block, np.arange(block.size)]

    # -- local-id internals -------------------------------------------------

    def _solve_block(self, locals_: np.ndarray) -> np.ndarray:
        """Columns of the grounded inverse, embedded to full size (k, b).
        The ground vertex's unit column falls outside the grounded system,
        so its right-hand side is zero and so is its column. Sparse oracles
        only."""
        rhs = np.zeros((self.size, locals_.size), dtype=np.float64)
        rhs[locals_, np.arange(locals_.size)] = 1.0
        rhs[1:] = self._lu.solve(rhs[1:])
        rhs[0] = 0.0
        return rhs

    def resistance_local(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        return float(self.resistances_from_local(a)[b])

    def resistances_from_local(self, a: int) -> np.ndarray:
        """R(a, w) for every w in the component, as a length-k vector
        (a read-only view of R on the dense path)."""
        if self._R is not None:
            return self._R[a]
        return self.rows_from_locals([a])[0]

    def rows_from_locals(self, locals_: Sequence[int]) -> np.ndarray:
        """Stacked resistance rows, shape (len(locals_), k); on the sparse
        path solved ``_SOLVE_BLOCK`` rows at a time."""
        idx = np.asarray(locals_, dtype=np.intp)
        if self._R is not None:
            return self._R[idx]
        out = np.empty((idx.size, self.size), dtype=np.float64)
        for start in range(0, idx.size, _SOLVE_BLOCK):
            chunk = idx[start:start + _SOLVE_BLOCK]
            cols = self._solve_block(chunk)
            own = cols[chunk, np.arange(chunk.size)]
            out[start:start + chunk.size] = (own + self._diag[:, None] - 2.0 * cols).T
        return out

    def _all_pairs_max(self) -> tuple[float, tuple[int, int]]:
        """Max pairwise resistance and, among the pairs within the ball
        tolerance of it, the lexicographically smallest sorted pair, so the
        pair does not depend on round-off. Dense oracles only."""
        R = self._R
        row_top = R.max(axis=1)
        best = float(row_top.max())
        floor = _tie_floor(best)
        # R is exactly symmetric: the first row holding a tied value is the
        # smallest endpoint of any tied pair, its first tied entry the partner
        a = int(np.flatnonzero(row_top >= floor)[0])
        ties = R[a] >= floor
        ties[a] = False
        return max(best, 0.0), (a, int(np.flatnonzero(ties)[0]))

    # -- public API (original ids) -----------------------------------------

    def resistance(self, u: int, v: int) -> float:
        a = self.component.to_local(u)
        b = self.component.to_local(v)
        return self.resistance_local(a, b)

    def resistances_from(self, u: int) -> np.ndarray:
        """R(u, w) for all w, ordered like component.vertices."""
        return self.resistances_from_local(self.component.to_local(u))

    def degrees_local(self) -> np.ndarray:
        return self._degrees


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of the square array a onto its strict
    upper triangle, in place, one cache-sized tile at a time."""
    n = a.shape[0]
    for start in range(0, n, _FILL_BLOCK):
        stop = min(start + _FILL_BLOCK, n)
        square = a[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        square[upper] = square.T[upper]
        for col in range(stop, n, _FILL_BLOCK):
            a[start:stop, col:col + _FILL_BLOCK] = a[col:col + _FILL_BLOCK, start:stop].T


def _hanging_forest(g: MultiGraph):
    """Split g into its 2-core and the trees hanging from it.

    Vertices with at most one distinct non-loop neighbour are peeled until
    none is left; what remains is the 2-core. When nothing remains (g is a
    tree), local 0 stands in as a one-vertex core. Returns ``core`` (sorted
    local ids), ``slot`` (index in ``core`` of the core vertex each vertex's
    tree hangs from), ``height`` (resistance from each vertex to that core
    vertex), and the tree vertices as ``order`` (depth-first preorder from
    the core, so parents precede children and every subtree is a
    contiguous run), ``parent``, ``mult`` (multiplicity of the edge to the
    parent) and ``subtree`` (subtree sizes), the last three indexed by
    local id.
    """
    k = g.vertex_count
    adjacency = g.adjacency
    links = [sum(1 for w, _ in adjacency[v] if w != v) for v in range(k)]
    peeled = [False] * k
    stack = [v for v in range(k) if links[v] <= 1]
    while stack:
        v = stack.pop()
        if peeled[v]:
            continue
        peeled[v] = True
        for w, _ in adjacency[v]:
            if w != v and not peeled[w]:
                links[w] -= 1
                if links[w] == 1:
                    stack.append(w)
    core = np.flatnonzero(~np.array(peeled, dtype=bool))
    if core.size == 0:
        core = np.zeros(1, dtype=np.intp)
    seen = [False] * k
    slot = [0] * k
    height = [0.0] * k
    parent = [0] * k
    mult = [1] * k
    for i, c in enumerate(core.tolist()):
        seen[c] = True
        slot[c] = i
    order: list[int] = []
    for c in core.tolist():
        stack = [c]
        while stack:
            u = stack.pop()
            if u != c:
                order.append(u)
            for w, m in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w], mult[w], slot[w] = u, m, slot[u]
                    height[w] = height[u] + 1.0 / m
                    stack.append(w)
    subtree = [1] * k
    for x in reversed(order):
        subtree[parent[x]] += subtree[x]
    return (core, np.array(slot, dtype=np.intp), np.array(height), order,
            parent, mult, subtree)


def _dense_resistances(g: MultiGraph) -> np.ndarray:
    """Full k x k resistance matrix of the connected graph g, read-only and
    exactly symmetric. At most two k^2 arrays are live: R and the core's
    grounded inverse."""
    k = g.vertex_count
    core, slot, height, order, parent, mult, subtree = _hanging_forest(g)
    kc = core.size
    R = np.empty((k, k), dtype=np.float64)
    if kc == 1:
        R[core[0]] = height
    else:
        # the core's Laplacian grounded at core[0], inverted in place; only
        # its lower triangle is meaningful until mirrored
        inv = np.zeros((kc - 1, kc - 1), dtype=np.float64, order="F")
        row_of = {c: i - 1 for i, c in enumerate(core.tolist())}  # ground: -1
        for u, v, m in g.edges:
            if u == v or u not in row_of or v not in row_of:
                continue
            a, b = row_of[u], row_of[v]
            if a >= 0:
                inv[a, a] += m
            if b >= 0:
                inv[b, b] += m
            if a >= 0 and b >= 0:
                inv[a, b] -= m
                inv[b, a] -= m
        inv, info = scipy.linalg.lapack.dpotrf(inv, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            inv, info = scipy.linalg.lapack.dpotri(inv, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"core Laplacian inversion failed (info {info})")
        _mirror_lower(inv)
        diag = np.zeros(kc, dtype=np.float64)
        diag[1:] = inv.diagonal()
        # core rows: R(c, y) = R_core(c, a(y)) + h(y)
        for start in range(0, kc, _FILL_BLOCK):
            stop = min(start + _FILL_BLOCK, kc)
            block = np.zeros((stop - start, kc), dtype=np.float64)
            lo = max(start, 1)
            block[lo - start:, 1:] = inv[:, lo - 1:stop - 1].T
            block *= -2.0
            block += diag[start:stop, None]
            block += diag
            rows = block[:, slot]
            rows += height
            R[core[start:stop]] = rows
        del inv
    # tree rows, parents first: x is 1/m farther than its parent p from
    # every vertex outside x's subtree and 1/m nearer to every one inside
    order_ids = np.array(order, dtype=np.intp)
    for i, x in enumerate(order):
        step = 1.0 / mult[x]
        row = R[x]
        np.add(R[parent[x]], step, out=row)
        row[order_ids[i:i + subtree[x]]] -= 2.0 * step
    _mirror_lower(R)
    np.fill_diagonal(R, 0.0)
    R.flags.writeable = False
    return R


def _bfs_eccentricity(g: MultiGraph, source: int) -> int:
    dist = np.full(g.vertex_count, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    adjacency = g.adjacency
    while frontier:
        nxt = []
        for u in frontier:
            for w, _ in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return int(dist.max())


def resistance_diameter(oracle: ResistanceOracle) -> DiameterResult:
    """Max pairwise resistance: exact when the oracle holds the dense
    inverse, else a certified lower bound from iterated farthest-point
    sweeps (flagged approximate, together with 2 * BFS-eccentricity as an
    upper bracket on R through the graph-distance bound)."""
    comp = oracle.component
    k = oracle.size
    if k == 1:
        v = comp.to_original(0)
        return DiameterResult(0.0, (v, v), True, None)
    if oracle.dense:
        val, (a, b) = oracle._all_pairs_max()
        return DiameterResult(val, (comp.to_original(a), comp.to_original(b)), True, None)
    # each sweep goes to the smallest id tied with its row maximum; the
    # result is the largest row maximum and the smallest sweep pair tied
    # with it, so neither depends on round-off
    best = 0.0
    sweeps = []
    current = 0
    for _ in range(_SWEEP_ROUNDS):
        if any(start == current for start, _, _ in sweeps):
            break
        row = oracle.resistances_from_local(current)
        top = float(row.max())
        far = int(np.flatnonzero(row >= _tie_floor(top))[0])
        sweeps.append((current, far, float(row[far])))
        best = max(best, top)
        current = far
    best_pair = min(
        (min(a, b), max(a, b)) for a, b, val in sweeps if val >= _tie_floor(best)
    )
    diam_upper = 2 * _bfs_eccentricity(comp.graph, best_pair[0])
    return DiameterResult(
        best,
        (comp.to_original(best_pair[0]), comp.to_original(best_pair[1])),
        False,
        diam_upper,
    )


def hitting_time(oracle: ResistanceOracle, u: int, v: int) -> float:
    """Exact expected hitting time E_u[tau_v] in walk steps.

    Computed from resistances via
    E_u[tau_v] = 1/2 * sum_w d_w * (R(u,v) + R(v,w) - R(u,w)),
    which satisfies the commute identity
    E_u[tau_v] + E_v[tau_u] = 2 |E| R(u,v) by construction.
    """
    a = oracle.component.to_local(u)
    b = oracle.component.to_local(v)
    if a == b:
        return 0.0
    ru = oracle.resistances_from_local(a)
    rv = oracle.resistances_from_local(b)
    d = oracle.degrees_local()
    r_uv = float(ru[b])
    return float(0.5 * np.dot(d, r_uv + rv - ru))
