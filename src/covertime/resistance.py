"""Effective-resistance metric, resistance diameter, and exact hitting times.

Each parallel edge is a unit conductor (conductance = multiplicity) and
loops carry no current, so they affect only walk dynamics, never the
metric. Up to ``DENSE_LIMIT`` vertices (a caller may lower the limit,
never raise it) the oracle builds the full resistance matrix R once and
every row query reads it. Only the sparse path imports scipy, when the
first sparse oracle is built; the dense path runs on numpy alone.
Resistance adds along the edges of a tree hanging from a cut vertex and
interpolates along a series path, so only the kernel of the 2-core (its
vertices with at least three distinct core neighbours) needs a linear
solve: the constructor peels the hanging trees, replaces each series path
of the core by one kernel edge of conductance 1/r, inverts the kernel's
grounded Laplacian in place (LAPACK ``potrf`` then ``potri`` from numpy's
bundled OpenBLAS, see ``blas.cholesky_inverse``, with OpenBLAS pinned to
one thread so that the bits do not follow the thread count), interpolates
the rows of the path vertices from the rows of their path's ends, and
fills the rows of the tree vertices from their parents' rows by tree
distance. On a tree the core is the ground vertex alone, and
R is the hop distance (times 1/m along an m-fold edge) with no solve at
all. Above the limit, where a k^2 matrix no longer fits in
memory, the constructor factors the Laplacian grounded at the smallest
vertex id (sparse LU) and computes the grounded diagonal once, in blocks
of ``_SOLVE_BLOCK`` columns. Each row query then solves its rows in blocks
of the same size and caches nothing, so the oracle keeps the factor and
two length-k vectors however many rows are read.

On both paths the constructor also keeps each vertex's resistance
eccentricity (its largest resistance to any vertex) and the separation
(the smallest between two distinct vertices): the row maxima and the
off-diagonal minimum of R on the dense path, and on the sparse path
by-products of the diagonal pass, whose solve for a block of columns
already holds every resistance between the block and the vertices before
its end. The exact resistance diameter is read from the eccentricities.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import blas
from .errors import ContractViolation
from .graphs import ComponentView, MultiGraph

scipy = None  # bound by the first sparse oracle; the dense path and walks never load it

DENSE_LIMIT = 4096
_SOLVE_BLOCK = 256
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
    exact: bool = True   # on both solver paths


class ResistanceOracle:
    """Pairwise effective-resistance queries on one connected component.

    Public methods take original (parent-graph) vertex ids; local ids are
    positions in ``component.vertices``. The oracle is immutable once built
    and has one row primitive per solver path. A dense oracle builds the
    full resistance matrix R in the constructor (R is read-only and exactly
    symmetric, and every row query reads it). A sparse oracle holds the LU
    factor of the Laplacian grounded at local 0 and the grounded diagonal,
    which its constructor computes; it solves the rows it is asked for in
    blocks and caches none of them. Both keep ``eccentricity``, each
    vertex's largest resistance to any vertex, and ``separation``, the
    smallest between two distinct vertices (inf on one vertex).

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
            self._R, self.separation = _dense_resistances(g)
            self.eccentricity = self._R.max(axis=1)
            return
        _import_scipy()
        rows, cols, vals = [], [], []
        for u, v, m in g.edges:
            if u == v:
                continue
            rows += [u, v, u, v]
            cols += [v, u, u, v]
            vals += [-float(m), -float(m), float(m), float(m)]
        lap = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsc()
        self._lu = scipy.sparse.linalg.splu(lap[1:, 1:].tocsc())
        # R to the ground vertex: the diagonal of the grounded inverse. The
        # solve for block C holds G[:, C] and the diagonal is known up to C's
        # end, so R(w, c) = d_w + d_c - 2 G[w, c] for every w before that end
        # updates both endpoints' eccentricities; each pair is met once.
        self._diag = np.zeros(k, dtype=np.float64)
        self.eccentricity = np.zeros(k, dtype=np.float64)
        self.separation = np.inf
        for start in range(1, k, _SOLVE_BLOCK):
            stop = min(start + _SOLVE_BLOCK, k)
            block = np.arange(start, stop)
            tri = self._solve_block(block)[:stop]   # G[:stop, C], then R
            own = tri[block, np.arange(block.size)]
            self._diag[block] = own
            # summed in the order rows_from_locals uses, for the same bits
            tri *= -2.0
            tri += own + self._diag[:stop, None]
            np.maximum(self.eccentricity[:stop], tri.max(axis=1),
                       out=self.eccentricity[:stop])
            np.maximum(self.eccentricity[block], tri.max(axis=0),
                       out=self.eccentricity[block])
            tri[block, np.arange(block.size)] = np.inf   # R(c, c), exactly 0
            self.separation = min(self.separation, float(tri.min()))

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


def _import_scipy() -> None:
    """Bind scipy with its sparse modules. Called by the sparse path of the
    oracle constructor, so that the import cost falls on the first sparse
    construction."""
    global scipy
    import scipy.sparse
    import scipy.sparse.linalg


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
    vertex), the tree vertices as ``order`` (depth-first preorder from
    the core, so parents precede children and every subtree is a
    contiguous run), ``parent``, ``mult`` (multiplicity of the edge to the
    parent) and ``subtree`` (subtree sizes), the last three indexed by
    local id, and ``links``: each core vertex's number of distinct core
    neighbours (at least 2), and at most 1 for a peeled vertex.
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
            parent, mult, subtree, links)


def _series_paths(g: MultiGraph, core: np.ndarray, links: list[int]):
    """The kernel of the 2-core and the maximal series paths between its
    vertices.

    The kernel is the core vertices with at least 3 distinct core
    neighbours; a core with none (a cycle, or the one-vertex core of a
    tree) takes its smallest vertex as a stand-in. Every other core vertex
    has exactly two core neighbours and lies inside one path. Returns the
    kernel (sorted local ids) and the paths as tuples ``(a, b, r, interior,
    offsets)``: the kernel ends a and b (equal for a path that returns to
    its start), the total resistance r (the sum of 1/m along the path), the
    interior vertices from a to b, and each one's resistance from a along
    the path.
    """
    adjacency = g.adjacency
    kernel = [c for c in core.tolist() if links[c] >= 3] or [int(core[0])]
    is_kernel = [False] * g.vertex_count
    for c in kernel:
        is_kernel[c] = True
    on_path = [False] * g.vertex_count
    paths = []
    for a in kernel:
        for w, m in adjacency[a]:
            # skips a's loop, kernel neighbours, peeled trees and paths met
            # from their other end
            if is_kernel[w] or links[w] < 2 or on_path[w]:
                continue
            interior, offsets = [], []
            prev, cur, s = a, w, 1.0 / m
            while not is_kernel[cur]:
                on_path[cur] = True
                interior.append(cur)
                offsets.append(s)
                nxt, m = next((z, mz) for z, mz in adjacency[cur]
                              if z != cur and z != prev and links[z] >= 2)
                prev, cur, s = cur, nxt, s + 1.0 / m
            paths.append((a, cur, s, interior, offsets))
    return np.array(kernel, dtype=np.intp), paths


def _kernel_inverse(g: MultiGraph, nk: int, kid: np.ndarray, ka: np.ndarray,
                    kb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inverse of the kernel's Laplacian grounded at kernel index 0, shape
    (kernel - 1)^2 and exactly symmetric. Edges between kernel vertices
    conduct their multiplicity and a series path from ka to kb (kernel
    indices) conducts 1/r; a path back to its start conducts nothing."""
    inv = np.zeros((nk - 1, nk - 1), dtype=np.float64, order="F")
    uvm = np.array(g.edges, dtype=np.intp).reshape(-1, 3)
    iu, iv = kid[uvm[:, 0]], kid[uvm[:, 1]]
    direct = (iu >= 0) & (iv >= 0) & (iu != iv)
    series = ka != kb
    iu = np.concatenate([iu[direct], ka[series]])
    iv = np.concatenate([iv[direct], kb[series]])
    w = np.concatenate([uvm[direct, 2].astype(np.float64), 1.0 / r[series]])
    for i, j in ((iu, iv), (iv, iu)):
        own = i > 0
        np.add.at(inv, (i[own] - 1, i[own] - 1), w[own])
        both = own & (j > 0)
        np.subtract.at(inv, (i[both] - 1, j[both] - 1), w[both])
    if nk > 1:
        with blas.single_thread():  # the rounding follows the thread count
            info = blas.cholesky_inverse(inv)
        if info != 0:
            raise np.linalg.LinAlgError(f"kernel Laplacian inversion failed (info {info})")
        _mirror_lower(inv)
    return inv


def _blend(x: np.ndarray, near: np.ndarray, far: np.ndarray, weight: np.ndarray,
           axis: int) -> np.ndarray:
    """(1 - weight[i]) x[near[i]] + weight[i] x[far[i]] for each i, the
    slices taken along ``axis``, or x[near[i]] alone when near[i] == far[i]:
    the product with the sparse matrix that holds those one or two entries
    in row i, with its bits."""
    two = near != far
    keep = np.where(two, 1.0 - weight, 1.0)
    take = np.where(two, weight, 0.0)
    if axis == 0:
        keep, take = keep[:, None], take[:, None]
    out = np.take(x, near, axis=axis)
    out *= keep
    other = np.take(x, far, axis=axis)
    other *= take
    out += other
    return out


def _fill_core_rows(R: np.ndarray, g: MultiGraph, core: np.ndarray, slot: np.ndarray,
                    height: np.ndarray, links: list[int]) -> None:
    """Write the full rows of R of the core vertices (``_hanging_forest``'s
    outputs) from the inverse of the kernel's grounded Laplacian.

    Each series path of the core, of resistance r from kernel vertex a to
    kernel vertex b, is one kernel edge of conductance 1/r. A path vertex x
    at offset s from a, with theta = s/r and
    c_x = theta (1 - theta) (r - R(a, b)), has
    R(x, y) = R(a, y) + theta (R(b, y) - R(a, y)) + c_x for every y off its
    path, and R(x, y) = d - d^2 (r - R(a, b)) / r^2 for y at distance d along
    it (a bridge path has R(a, b) = r, a path back to its start R(a, a) = 0).
    The kernel rows come first, then the path rows from them, in blocks of
    ``_FILL_BLOCK`` rows. With no path the kernel is the core, and a core
    row is R_core(c, a(y)) + h(y), read straight from the inverse.
    """
    k = g.vertex_count
    kernel, paths = _series_paths(g, core, links)
    nk = kernel.size
    kid = np.full(k, -1, dtype=np.intp)   # kernel index, -1 off the kernel
    kid[kernel] = np.arange(nk)
    ends = np.array([p[:2] for p in paths], dtype=np.intp).reshape(-1, 2)
    r = np.array([p[2] for p in paths], dtype=np.float64)
    ka, kb = kid[ends[:, 0]], kid[ends[:, 1]]
    inv = _kernel_inverse(g, nk, kid, ka, kb, r)
    diag = np.zeros(nk, dtype=np.float64)
    diag[1:] = inv.diagonal()
    host = core[slot]
    if not paths:
        for start in range(0, nk, _FILL_BLOCK):
            rows = _kernel_block(inv, diag, start)[:, kid[host]]
            rows += height
            R[kernel[start:start + _FILL_BLOCK]] = rows
        return
    cross = np.zeros(len(paths), dtype=np.float64)
    inner = (ka > 0) & (kb > 0)
    cross[inner] = inv[ka[inner] - 1, kb[inner] - 1]
    q = r - (-2.0 * cross + diag[ka] + diag[kb])   # r - R(a, b)
    shrink = q / (r * r)
    # the path vertices in path order: path, offset from a, theta and c_x
    pv = np.fromiter((x for p in paths for x in p[3]), dtype=np.intp)
    ps = np.fromiter((s for p in paths for s in p[4]), dtype=np.float64)
    pid = np.repeat(np.arange(len(paths)), [len(p[3]) for p in paths])
    theta = ps / r[pid]
    offset = theta * (1.0 - theta) * q[pid]

    # every vertex y hangs from a kernel vertex or a path vertex, its host.
    # For kernel c, R(c, y) interpolates R_K(c, .) between the ends of the
    # host's path and adds c_x + h(y); a kernel host is both ends, theta 0
    pos = np.full(k, -1, dtype=np.intp)
    pos[pv] = np.arange(pv.size)
    hp = pos[host]
    on = np.flatnonzero(hp >= 0)
    near, far = kid[host], kid[host]
    weight, lift = np.zeros(k, dtype=np.float64), height.copy()
    near[on], far[on] = ka[pid[hp[on]]], kb[pid[hp[on]]]
    weight[on] = theta[hp[on]]
    lift[on] += offset[hp[on]]
    for start in range(0, nk, _FILL_BLOCK):
        rows = _blend(_kernel_block(inv, diag, start), near, far, weight, axis=1)
        rows += lift
        R[kernel[start:start + _FILL_BLOCK]] = rows
    del inv

    # path rows interpolate their ends' rows; then, along their own path,
    # the vertices hanging from it (grouped by path, in path order)
    members = on[np.argsort(hp[on], kind="stable")]
    m_pid, m_s = pid[hp[members]], ps[hp[members]]
    mstart = np.searchsorted(m_pid, np.arange(len(paths) + 1))
    for start in range(0, pv.size, _FILL_BLOCK):
        stop = min(start + _FILL_BLOCK, pv.size)
        ends_here = ends[pid[start:stop]]   # kernel vertices: reads kernel rows only
        rows = _blend(R, ends_here[:, 0], ends_here[:, 1], theta[start:stop], axis=0)
        rows += offset[start:stop, None]
        lo, hi = mstart[pid[start]], mstart[pid[stop - 1] + 1]
        cols = members[lo:hi]
        d = np.abs(ps[start:stop, None] - m_s[lo:hi])
        along = d * d
        along *= -shrink[pid[start:stop], None]
        along += d
        along += height[cols]
        rows[:, cols] = np.where(pid[start:stop, None] == m_pid[lo:hi], along, rows[:, cols])
        R[pv[start:stop]] = rows


def _kernel_block(inv: np.ndarray, diag: np.ndarray, start: int) -> np.ndarray:
    """Rows start to start + ``_FILL_BLOCK`` of the kernel's resistance
    matrix, from its grounded inverse and that inverse's diagonal."""
    nk = diag.size
    stop = min(start + _FILL_BLOCK, nk)
    block = np.zeros((stop - start, nk), dtype=np.float64)
    lo = max(start, 1)
    block[lo - start:, 1:] = inv[:, lo - 1:stop - 1].T
    block *= -2.0
    block += diag[start:stop, None]
    block += diag
    return block


def _dense_resistances(g: MultiGraph) -> tuple[np.ndarray, float]:
    """Full k x k resistance matrix of the connected graph g, read-only and
    exactly symmetric, and its smallest off-diagonal entry (inf when k = 1).
    The core rows come from the kernel (``_fill_core_rows``), the tree rows
    from their parents'. At most two large arrays are live: R and the
    kernel's grounded inverse, (kernel - 1)^2."""
    k = g.vertex_count
    core, slot, height, order, parent, mult, subtree, links = _hanging_forest(g)
    R = np.empty((k, k), dtype=np.float64)
    _fill_core_rows(R, g, core, slot, height, links)
    # tree rows, parents first: x is 1/m farther than its parent p from
    # every vertex outside x's subtree and 1/m nearer to every one inside
    order_ids = np.array(order, dtype=np.intp)
    for i, x in enumerate(order):
        step = 1.0 / mult[x]
        row = R[x]
        np.add(R[parent[x]], step, out=row)
        row[order_ids[i:i + subtree[x]]] -= 2.0 * step
    _mirror_lower(R)
    np.fill_diagonal(R, np.inf)
    separation = float(R.min())
    np.fill_diagonal(R, 0.0)
    R.flags.writeable = False
    return R, separation


def resistance_diameter(oracle: ResistanceOracle) -> DiameterResult:
    """Max pairwise resistance, exact on both solver paths, read from the
    oracle's eccentricities. Among the pairs within the ball tolerance of
    the maximum it returns the lexicographically smallest sorted pair, so
    the pair does not depend on round-off."""
    comp = oracle.component
    if oracle.size == 1:
        v = comp.to_original(0)
        return DiameterResult(0.0, (v, v))
    best = float(oracle.eccentricity.max())
    floor = _tie_floor(best)
    # the first vertex tied with the maximum is the smallest endpoint of any
    # tied pair, the first tied entry of its row the partner
    a = int(np.flatnonzero(oracle.eccentricity >= floor)[0])
    row = oracle.resistances_from_local(a)
    # on the sparse path a row is solved again, and a pair met in another
    # block's solve may differ from it in the last bits
    ties = row >= min(floor, float(row.max()))
    ties[a] = False
    b = int(np.flatnonzero(ties)[0])
    return DiameterResult(best, (comp.to_original(a), comp.to_original(b)))


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
    ru, rv = oracle.rows_from_locals([a, b])
    d = oracle.degrees_local()
    r_uv = float(ru[b])
    with blas.single_thread():
        return float(0.5 * np.dot(d, r_uv + rv - ru))
