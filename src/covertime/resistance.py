"""Effective-resistance metric, resistance diameter, and exact hitting times.

Each parallel edge is a unit conductor (conductance = multiplicity) and
loops carry no current, so they affect only walk dynamics, never the
metric. All queries go through one factorization of the Laplacian grounded
at the component's smallest vertex id. Up to ``DENSE_LIMIT`` vertices (a
caller may lower the limit, never raise it) that is a dense Cholesky
factorization whose full inverse gives every row and an exact resistance
diameter. Above it, where the k^2 inverse no longer fits in memory, it is
a sparse LU factorization that solves rows on demand, and the diameter is
a farthest-point sweep lower bound.
"""
from __future__ import annotations

import threading
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ContractViolation
from .graphs import ComponentView, MultiGraph

DENSE_LIMIT = 4096
_SOLVE_BLOCK = 256
_SWEEP_ROUNDS = 8

# Closed-ball membership tolerance: solver residuals are ~1e-10, so exact
# boundary cases (integer radii on paths, rational radii on cycles) must
# not flip on rounding noise. Applied identically everywhere, including to
# ties at the resistance diameter.
BALL_RTOL = 1e-9
BALL_ATOL = 1e-12


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

    Public methods take original (parent-graph) vertex ids. The grounded
    vertex is local index 0, i.e. the smallest original id in the
    component. ``resistances_from`` and the diameter search trigger a
    one-off computation of the grounded inverse's diagonal (full inverse
    in the dense regime), after which row queries are cheap.

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
        self._cols: dict[int, np.ndarray] = {}
        self._diag: np.ndarray | None = None
        self._M: np.ndarray | None = None
        # queries are read-only after construction except for these caches
        self._lock = threading.Lock()
        if k == 1:
            self._factor = None
            self._lu = None
            return
        rows, cols, vals = [], [], []
        for u, v, m in g.edges:
            if u == v:
                continue
            rows += [u, v, u, v]
            cols += [v, u, u, v]
            vals += [-float(m), -float(m), float(m), float(m)]
        lap = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsc()
        grounded = lap[1:, 1:]
        if self.dense:
            self._factor = scipy.linalg.cho_factor(grounded.toarray(), lower=True)
            self._lu = None
        else:
            self._factor = None
            self._lu = scipy.sparse.linalg.splu(grounded.tocsc())

    # -- local-id internals -------------------------------------------------

    def _solve_block(self, locals_: Sequence[int]) -> np.ndarray:
        """Columns of the grounded inverse, embedded to full size (k, b)."""
        k = self.size
        out = np.zeros((k, len(locals_)), dtype=np.float64)
        nonground = [(j, v) for j, v in enumerate(locals_) if v != 0]
        if not nonground:
            return out
        rhs = np.zeros((k - 1, len(nonground)), dtype=np.float64)
        for slot, (_, v) in enumerate(nonground):
            rhs[v - 1, slot] = 1.0
        if self.dense:
            sol = scipy.linalg.cho_solve(self._factor, rhs)
        else:
            sol = self._lu.solve(rhs)
            if sol.ndim == 1:
                sol = sol[:, None]
        for slot, (j, _) in enumerate(nonground):
            out[1:, j] = sol[:, slot]
        return out

    def _col(self, v: int, cache: bool = True) -> np.ndarray:
        hit = self._cols.get(v)
        if hit is not None:
            return hit
        col = self._solve_block([v])[:, 0]
        if cache:
            with self._lock:
                self._cols.setdefault(v, col)
        return col

    def _grounded_inverse(self) -> np.ndarray:
        if self._M is None:
            k = self.size
            M = np.zeros((k, k), dtype=np.float64)
            if k > 1:
                # solve in place in a Fortran-ordered identity: one k^2 buffer fewer
                eye = np.eye(k - 1, order="F")
                M[1:, 1:] = scipy.linalg.cho_solve(self._factor, eye, overwrite_b=True)
            with self._lock:
                if self._M is None:
                    self._diag = np.ascontiguousarray(np.diag(M))
                    self._M = M
        return self._M

    def diag_local(self) -> np.ndarray:
        """Diagonal of the grounded inverse (R to the ground vertex)."""
        if self._diag is None:
            if self.dense:
                self._grounded_inverse()
            else:
                k = self.size
                diag = np.zeros(k, dtype=np.float64)
                for start in range(1, k, _SOLVE_BLOCK):
                    block = list(range(start, min(start + _SOLVE_BLOCK, k)))
                    sol = self._solve_block(block)
                    diag[block] = sol[block, range(len(block))]
                with self._lock:
                    if self._diag is None:
                        self._diag = diag
        return self._diag

    def resistance_local(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        if self._M is not None:
            M = self._M
            return float(M[a, a] + M[b, b] - 2.0 * M[a, b])
        if self._diag is not None:
            col = self._col(a)
            return float(col[a] + self._diag[b] - 2.0 * col[b])
        ca = self._col(a)
        cb = self._col(b)
        return float(ca[a] + cb[b] - 2.0 * ca[b])

    def resistances_from_local(self, a: int, cache: bool = True) -> np.ndarray:
        """R(a, w) for every w in the component, as a length-k vector."""
        if self.size == 1:
            return np.zeros(1)
        if self.dense:
            M = self._grounded_inverse()
            return M[a, a] + self._diag - 2.0 * M[a]
        diag = self.diag_local()
        col = self._col(a, cache=cache)
        return col[a] + diag - 2.0 * col

    def rows_from_locals(self, locals_: Sequence[int]) -> np.ndarray:
        """Stacked resistance rows, shape (len(locals_), k)."""
        if self.dense:
            return np.stack([self.resistances_from_local(a) for a in locals_])
        diag = self.diag_local()
        out = np.empty((len(locals_), self.size), dtype=np.float64)
        pending = [(j, v) for j, v in enumerate(locals_) if v not in self._cols]
        for start in range(0, len(pending), _SOLVE_BLOCK):
            chunk = pending[start:start + _SOLVE_BLOCK]
            sols = self._solve_block([v for _, v in chunk])
            with self._lock:
                for slot, (_, v) in enumerate(chunk):
                    self._cols.setdefault(v, sols[:, slot])
        for j, v in enumerate(locals_):
            col = self._cols[v]
            out[j] = col[v] + diag - 2.0 * col
        return out

    def _all_pairs_max(self) -> tuple[float, tuple[int, int]]:
        """Max pairwise resistance and, among the pairs within the ball
        tolerance of it, the lexicographically smallest sorted pair, so the
        pair does not depend on round-off. Dense oracles only."""
        k = self.size
        M = self._grounded_inverse()
        diag = self._diag
        row_top = np.empty(k)
        col_top = np.full(k, -np.inf)
        for start in range(0, k, _SOLVE_BLOCK):
            stop = start + _SOLVE_BLOCK
            block = diag[start:stop, None] + diag[None, :] - 2.0 * M[start:stop]
            row_top[start:stop] = block.max(axis=1)
            np.maximum(col_top, block.max(axis=0), out=col_top)
        best = float(row_top.max())
        floor = best - (best * BALL_RTOL + BALL_ATOL)
        # the smallest endpoint of any tied pair, then its smallest partner;
        # rows and columns both count, as M is symmetric only to round-off
        a = int(np.flatnonzero((row_top >= floor) | (col_top >= floor))[0])
        ties = (diag[a] + diag - 2.0 * M[a] >= floor) | (diag + diag[a] - 2.0 * M[:, a] >= floor)
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
    best = -1.0
    best_pair = (0, 0)
    current = 0
    visited_starts = set()
    for _ in range(_SWEEP_ROUNDS):
        if current in visited_starts:
            break
        visited_starts.add(current)
        row = oracle.resistances_from_local(current)
        far = int(np.argmax(row))
        val = float(row[far])
        if val > best:
            best = val
            best_pair = (min(current, far), max(current, far))
        current = far
    diam_upper = 2 * _bfs_eccentricity(comp.graph, best_pair[0])
    return DiameterResult(
        max(best, 0.0),
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
