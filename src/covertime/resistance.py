"""Effective-resistance metric, resistance diameter, and exact hitting times.

Each parallel edge is a unit conductor (conductance = multiplicity) and
loops carry no current, so they affect only walk dynamics, never the
metric. Resistance adds along the edges of a tree hanging from a cut vertex
and interpolates along a series path, so only the kernel of the 2-core (its
vertices with at least three distinct core neighbours) needs a linear solve.
The constructor peels the hanging trees, replaces each series path of the
core by one kernel edge of conductance 1/r and inverts the kernel's grounded
Laplacian in place (LAPACK ``potrf`` then ``potri`` from numpy's bundled
OpenBLAS, see ``blas.cholesky_inverse``, with OpenBLAS pinned to one thread
so that the bits do not follow the thread count). That inverse, the path
table and the hanging forest are all a row needs: R(x, .) costs O(k) with no
solve, each entry an expression symmetric in x and y, so R(x, y) == R(y, x)
bit for bit and a row has the same bits however and whenever it is read. On
a tree the kernel is one vertex and R is the hop distance (times 1/m along
an m-fold edge).

The constructor forms every row once, in one pass down the hanging trees in
preorder (``ResistanceOracle._sweep``), and takes each vertex's resistance
eccentricity (its largest resistance to any vertex) and the separation (the
smallest between two distinct vertices) as it goes; the exact resistance
diameter is read from the eccentricities. A component of at most
``dense_limit`` vertices keeps those rows as its matrix R. A larger one
keeps only the kernel's inverse, (nk - 1)^2 doubles, and a few length-k
tables, and ``ResistanceOracle._rows`` forms each row read later, in any
order. A kernel whose inverse would exceed ``DENSE_LIMIT``^2 doubles is
rejected before anything is allocated.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import blas
from .errors import ContractViolation
from .graphs import ComponentView, MultiGraph

DENSE_LIMIT = 4096
# core rows per block of the constructor's pass, and rows per block read
# on demand
_BLOCK = 64

# Closed-ball membership tolerance: exact boundary cases (integer radii on
# paths, rational radii on cycles) must not flip on rounding noise. Applied
# identically everywhere, including to ties at the resistance diameter.
BALL_RTOL = 1e-9
BALL_ATOL = 1e-12


def _tie_floor(best: float) -> float:
    """Smallest value that counts as tied with the maximum ``best``."""
    return best - (best * BALL_RTOL + BALL_ATOL)


class DiameterResult(NamedTuple):
    value: float
    pair: tuple[int, int]
    exact: bool = True   # always: the maximum is read from every row


class ResistanceOracle:
    """Pairwise effective-resistance queries on one connected component.

    Public methods take original (parent-graph) vertex ids; local ids are
    positions in ``component.vertices``. The oracle is immutable once built.
    The constructor forms every row in one pass, ``_sweep``, and keeps
    ``eccentricity``, each vertex's largest resistance to any vertex, and
    ``separation``, the smallest between two distinct vertices (inf on one
    vertex). With at most ``dense_limit`` vertices (``dense`` true) the
    pass fills R, read-only, and every row query reads R. Above, each row
    read calls ``_rows`` and nothing is cached, so the oracle keeps the
    kernel's inverse and O(k) tables however many rows are read. Both
    functions give every entry the same bits, so both modes do too.

    A ``dense_limit`` below 0 or above ``DENSE_LIMIT``, and a kernel of more
    than ``DENSE_LIMIT`` + 1 vertices, are rejected before anything is
    allocated.
    """

    def __init__(self, component: ComponentView, dense_limit: int = DENSE_LIMIT) -> None:
        if not 0 <= dense_limit <= DENSE_LIMIT:
            raise ContractViolation(
                f"dense_limit {dense_limit} is outside 0 to DENSE_LIMIT {DENSE_LIMIT}"
            )
        self.component = component
        g = component.graph
        self.size = k = g.vertex_count
        self.edge_total = g.edge_total
        self._degrees = g.degrees.astype(np.float64)
        self.dense = k <= dense_limit
        core, pre, subtree, parent, height, links = _hanging_forest(g)
        kernel, paths = _series_paths(g, core, links)
        nk = kernel.size
        if nk - 1 > DENSE_LIMIT:
            raise ContractViolation(
                f"kernel of {nk} vertices: its grounded inverse exceeds "
                f"DENSE_LIMIT^2 = {DENSE_LIMIT}^2 doubles"
            )
        kid = np.full(k, -1, dtype=np.intp)   # kernel index, -1 off the kernel
        kid[kernel] = np.arange(nk)
        ends = np.array([p[:2] for p in paths], dtype=np.intp).reshape(-1, 2)
        r = np.array([p[2] for p in paths], dtype=np.float64)
        ka, kb = kid[ends[:, 0]], kid[ends[:, 1]]
        inv = _kernel_inverse(g, nk, kid, ka, kb, r)
        self._inv = inv.T   # symmetric, so its rows are the contiguous columns
        self._diag = np.zeros(nk, dtype=np.float64)
        self._diag[1:] = inv.diagonal()
        self._nk = nk
        cross = np.zeros(r.size, dtype=np.float64)
        inner = (ka > 0) & (kb > 0)
        cross[inner] = inv[ka[inner] - 1, kb[inner] - 1]
        q = r - ((self._diag[ka] + self._diag[kb]) - 2.0 * cross)   # r - R_K(a, b)
        self._shrink = q / (r * r)

        # the path vertices in path order, each with its path, the kernel
        # indices of the path's ends, the offset s from the first end, the
        # weights 1 - theta and theta (theta = s/r) and c_x = theta (1 - theta) q
        pv = np.fromiter((x for p in paths for x in p[3]), dtype=np.intp)
        self._s = np.fromiter((s for p in paths for s in p[4]), dtype=np.float64)
        self._pid = np.repeat(np.arange(len(paths)), [len(p[3]) for p in paths])
        self._pstart = np.searchsorted(self._pid, np.arange(len(paths) + 1))
        self._pa, self._pb = ka[self._pid], kb[self._pid]
        theta = self._s / r[self._pid]
        self._wa, self._wb = 1.0 - theta, theta
        self._c = theta * (1.0 - theta) * q[self._pid]

        # core index: the kernel first, then the path vertices in path order.
        # cidx[y] is that of the core vertex y's tree hangs from, its host
        self._host_of = np.concatenate([kernel, pv])   # core index -> local id
        self._nc = self._host_of.size
        ci = np.full(k, -1, dtype=np.intp)
        ci[self._host_of] = np.arange(self._nc)
        pos = np.empty(k, dtype=np.intp)
        pos[pre] = np.arange(k)
        first = np.flatnonzero(ci[pre] >= 0)   # each host heads its tree in pre
        self._cidx = np.repeat(ci[pre[first]], np.diff(np.append(first, k)))[pos]
        # the hanging forest: pre is a preorder in which every subtree is the
        # run pos[v] to pos[v] + subtree[v]; heights are resistances to the host
        self._pre, self._pos = pre, pos
        self._subtree, self._parent = subtree, parent
        self._h = height
        self._h2 = 2.0 * height

        self._R, self.eccentricity, self.separation = self._sweep()
        if self._R is not None:
            self._R.flags.writeable = False
            self._inv = None   # every row is in R

    # -- the row function ----------------------------------------------------

    def _kernel_rows(self, e: np.ndarray) -> np.ndarray:
        """R_K(i, j) = (d_i + d_j) - 2 inv_ij for kernel indices i in e, all j,
        from the inverse grounded at kernel index 0 (d its diagonal, d_0 = 0,
        and inv 0 on the ground's row and column)."""
        out = np.add.outer(self._diag[e], self._diag)
        inner = np.flatnonzero(e > 0)
        if inner.size:
            twice = self._inv[e[inner] - 1]
            twice *= -2.0
            out[inner, 1:] += twice
        return out

    def _core_rows(self, hosts: np.ndarray) -> np.ndarray:
        """Resistances from the core vertices with ascending core indices
        ``hosts`` to every core vertex, in core-index order.

        A path vertex x on the path from kernel vertex a to kernel vertex b
        has R(x, y) = (1 - theta) R(a, y) + theta R(b, y) + c_x for y off its
        path; applied on both sides, x on path (a, b) and y on path (a', b')
        give the four terms T1 = (1 - theta)(1 - theta') R_K(a, a'),
        T2 = (1 - theta) theta' R_K(a, b'), T3 = theta (1 - theta') R_K(b, a')
        and T4 = theta theta' R_K(b, b'), summed as (T1 + T4) + (T2 + T3),
        plus (c_x + c_y). The swap x <-> y maps T1 and T4 to themselves and
        T2 to T3, so the entry does not depend on which side is the row. A
        kernel vertex is a path of its own with theta = 0, where the terms
        that drop out are exact zeros; two vertices at distance d along one
        path have R = d - d^2 (r - R_K(a, b)) / r^2.
        """
        nk = self._nk
        m = int(np.searchsorted(hosts, nk))
        out = np.empty((hosts.size, self._nc), dtype=np.float64)
        pa, pb, wa, wb, c = self._pa, self._pb, self._wa, self._wb, self._c
        if m:
            K = self._kernel_rows(hosts[:m])
            out[:m, :nk] = K
            out[:m, nk:] = (np.take(K, pa, axis=1) * wa + np.take(K, pb, axis=1) * wb) + c
        if m == hosts.size:
            return out
        # path hosts: the kernel rows of their paths' ends, and those rows at
        # the ends of every path column
        on = hosts[m:] - nk   # positions among the path vertices
        n = on.size
        ends, at = np.unique(np.concatenate([pa[on], pb[on]]), return_inverse=True)
        ia, ib = at[:n], at[n:]
        K = self._kernel_rows(ends)
        KA, KB = np.take(K, pa, axis=1), np.take(K, pb, axis=1)
        uwa, uwb, uc = wa[on], wb[on], c[on]
        out[m:, :nk] = (K[ia] * uwa[:, None] + K[ib] * uwb[:, None]) + uc[:, None]
        # (T1 + T4) + (T2 + T3), each weight product rounded before it meets
        # R_K; einsum forms it faster than a broadcast product
        cols = ((np.einsum("i,j->ij", uwa, wa) * KA[ia] + np.einsum("i,j->ij", uwb, wb) * KB[ib])
                + (np.einsum("i,j->ij", uwa, wb) * KB[ia] + np.einsum("i,j->ij", uwb, wa) * KA[ib]))
        cols += np.add.outer(uc, c)
        # along the host's own path
        p = self._pid[on]
        lo, span = self._pstart[p], self._pstart[p + 1] - self._pstart[p]
        row = np.repeat(np.arange(n), span)
        col = np.arange(row.size) - np.repeat(np.cumsum(span) - span - lo, span)
        d = np.abs(self._s[on][row] - self._s[col])
        along = d * d
        along *= -np.repeat(self._shrink[p], span)
        along += d
        cols[row, col] = along
        out[m:, nk:] = cols
        return out

    def _ancestry(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """The vertices y of x's hanging tree, in the order of ``_pre`` from
        the tree's host (height 0), and 2 h(lca(x, y)) for each. Along x's
        path to the host, the vertices whose lca with x is v form v's subtree
        minus that of v's child on the path: at most two runs of the
        preorder."""
        chain = [x]
        while self._parent[chain[-1]] != chain[-1]:
            chain.append(self._parent[chain[-1]])
        anc = np.array(chain, dtype=np.intp)
        start = self._pos[anc]
        stop = start + self._subtree[anc]
        edges = np.concatenate([start[::-1], stop])
        values = np.concatenate([self._h2[anc[::-1]], self._h2[anc[1:]]])
        return self._pre[start[-1]:stop[-1]], np.repeat(values, np.diff(edges))

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """R(x, .) for the local ids x in ``ids``, in any order, shape
        (len(ids), k): the rows read after construction on demand.

        With h the height of a vertex above its host and core(x, y) the core
        rows' entry between the hosts of x and y (0 for one host), each entry
        is (core(x, y) + (h(x) + h(y))) - 2 h(lca(x, y)), the last term only
        for x and y in one hanging tree: symmetric in x and y, and each core
        row is built once per host in the block."""
        hosts, back = np.unique(self._cidx[ids], return_inverse=True)
        core = self._core_rows(hosts)
        h = self._h
        out = np.empty((ids.size, self.size), dtype=np.float64)
        last = -1
        for row, x, j in zip(out, ids.tolist(), back.tolist()):
            if j != last:   # consecutive rows of one host share its gather
                g, last = np.take(core[j], self._cidx), j
            np.add(h, h[x], out=row)
            row += g
            if h[x]:
                tree, lca = self._ancestry(x)
                row[tree] -= lca
        return out

    def _sweep(self) -> tuple[np.ndarray | None, np.ndarray, float]:
        """Every row once, with the entries of ``_rows``: each block of core
        rows is expanded to the hosts' trees in preorder, updating one buffer
        of 2 h(lca) as the preorder moves, so that a tree row costs O(k) and
        the buffer holds exact copies of the values ``_ancestry`` builds. A
        row goes into R when it is materialized, else into one scratch row,
        and leaves its maximum and its smallest off-diagonal entry. Returns
        R (None on demand), the row maxima and the separation."""
        k, nc = self.size, self._nc
        pre = self._pre
        pos, subtree, parent = self._pos.tolist(), self._subtree.tolist(), self._parent
        h, hl, h2 = self._h, self._h.tolist(), self._h2.tolist()
        R = np.empty((k, k), dtype=np.float64) if self.dense else None
        row = np.empty(k, dtype=np.float64)   # the scratch row when R is not kept
        ecc = np.empty(k, dtype=np.float64)
        separation = np.inf
        lca = np.zeros(k, dtype=np.float64)   # zero outside the current tree
        for start in range(0, nc, _BLOCK):
            hosts = np.arange(start, min(start + _BLOCK, nc))
            G = np.take(self._core_rows(hosts), self._cidx, axis=1)
            for g_row, host in zip(G, self._host_of[hosts].tolist()):
                lo, hi = pos[host], pos[host] + subtree[host]
                chain = [host]
                for x in pre[lo:hi].tolist():
                    if R is not None:
                        row = R[x]
                    if x == host:
                        np.add(g_row, h, out=row)
                    else:
                        while chain[-1] != parent[x]:
                            done = chain.pop()
                            lca[pre[pos[done]:pos[done] + subtree[done]]] = h2[chain[-1]]
                        chain.append(x)
                        lca[pre[pos[x]:pos[x] + subtree[x]]] = h2[x]
                        np.add(h, hl[x], out=row)
                        if nc > 1:   # with one core vertex every core entry is 0
                            row += g_row
                        row -= lca
                    ecc[x] = row.max()
                    row[x] = np.inf
                    separation = min(separation, row.min())
                    row[x] = 0.0   # R(x, x), exactly 0
                lca[pre[lo + 1:hi]] = 0.0
        return R, ecc, float(separation)

    # -- local-id queries ---------------------------------------------------

    def resistance_local(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        return float(self.resistances_from_local(a)[b])

    def resistances_from_local(self, a: int) -> np.ndarray:
        """R(a, w) for every w in the component, as a length-k vector
        (a read-only view of R when it is materialized)."""
        if self._R is not None:
            return self._R[a]
        return self._rows(np.array([a], dtype=np.intp))[0]

    def rows_from_locals(self, locals_: Sequence[int]) -> np.ndarray:
        """Stacked resistance rows, shape (len(locals_), k); read on demand
        ``_BLOCK`` rows at a time above the dense limit."""
        idx = np.asarray(locals_, dtype=np.intp)
        if self._R is not None:
            return self._R[idx]
        out = np.empty((idx.size, self.size), dtype=np.float64)
        for start in range(0, idx.size, _BLOCK):
            chunk = idx[start:start + _BLOCK]
            out[start:start + chunk.size] = self._rows(chunk)
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


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of the square array a onto its strict
    upper triangle, in place, one cache-sized tile at a time."""
    n = a.shape[0]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        square = a[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        square[upper] = square.T[upper]
        for col in range(stop, n, _BLOCK):
            a[start:stop, col:col + _BLOCK] = a[col:col + _BLOCK, start:stop].T


def _hanging_forest(g: MultiGraph):
    """Split g into its 2-core and the trees hanging from it.

    Vertices with at most one distinct non-loop neighbour are peeled until
    none is left; what remains is the 2-core. When nothing remains (g is a
    tree), local 0 stands in as a one-vertex core. Returns ``core`` (sorted
    local ids); ``pre``, every vertex in a depth-first preorder from the core
    vertices in ascending order, so that each core vertex heads the run of
    its tree and every subtree is a contiguous run; then, indexed by local
    id, ``subtree`` (subtree sizes, a core vertex's counting its whole tree),
    ``parent`` (a list; a core vertex is its own parent), ``height``
    (resistance to the core vertex the tree hangs from) and ``links``: each
    core vertex's number of distinct core neighbours (at least 2), and at
    most 1 for a peeled vertex.
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
    height = [0.0] * k
    parent = list(range(k))
    for c in core.tolist():
        seen[c] = True
    pre: list[int] = []
    for c in core.tolist():
        stack = [c]
        while stack:
            u = stack.pop()
            pre.append(u)
            for w, m in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    height[w] = height[u] + 1.0 / m
                    stack.append(w)
    subtree = [1] * k
    for x in reversed(pre):
        if parent[x] != x:
            subtree[parent[x]] += subtree[x]
    return (core, np.array(pre, dtype=np.intp), np.array(subtree, dtype=np.intp),
            parent, np.array(height), links)


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
    uvm = g.edge_array.astype(np.intp)
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


def resistance_diameter(oracle: ResistanceOracle) -> DiameterResult:
    """Max pairwise resistance, read from the oracle's eccentricities. Among
    the pairs within the ball tolerance of the maximum it returns the
    lexicographically smallest sorted pair, so the pair does not depend on
    round-off."""
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
    ties = row >= floor
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
