"""Effective-resistance metric, resistance diameter, and exact hitting times.

Each parallel edge is a unit conductor (conductance = multiplicity) and
loops carry no current, so they affect only walk dynamics, never the
metric. All queries go through the Laplacian grounded at the component's
smallest vertex id. Up to ``DENSE_LIMIT`` vertices (a caller may lower the
limit, never raise it) the oracle computes the full grounded inverse once,
by dense Cholesky, and keeps only that inverse: it gives every row and an
exact resistance diameter. Above it, where the k^2 inverse no longer fits
in memory, a sparse LU factorization solves rows on demand, and the
diameter is a farthest-point sweep lower bound.
"""
from __future__ import annotations

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

    Public methods take original (parent-graph) vertex ids. The grounded
    vertex is local index 0, i.e. the smallest original id in the
    component. A dense oracle computes the grounded inverse M and its
    diagonal in the constructor and holds nothing else. A sparse oracle
    holds the LU factor, caches the columns it solves, and computes the
    diagonal on the first ``resistances_from`` or diameter query.

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
        rows, cols, vals = [], [], []
        for u, v, m in g.edges:
            if u == v:
                continue
            rows += [u, v, u, v]
            cols += [v, u, u, v]
            vals += [-float(m), -float(m), float(m), float(m)]
        lap = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsc()
        grounded = lap[1:, 1:]
        if not self.dense:
            self._lu = scipy.sparse.linalg.splu(grounded.tocsc())
            return
        # factor and solve in place, and drop the factor before M is
        # allocated: at most two k^2 arrays are live at once
        chol = scipy.linalg.cholesky(grounded.toarray(order="F"), lower=True, overwrite_a=True)
        inv = scipy.linalg.cho_solve((chol, True), np.eye(k - 1, order="F"), overwrite_b=True)
        del chol
        self._M = np.zeros((k, k), dtype=np.float64)
        self._M[1:, 1:] = inv
        self._diag = np.ascontiguousarray(np.diag(self._M))

    # -- local-id internals -------------------------------------------------

    def _solve_block(self, locals_: Sequence[int]) -> np.ndarray:
        """Columns of the grounded inverse, embedded to full size (k, b).
        Sparse oracles only."""
        k = self.size
        out = np.zeros((k, len(locals_)), dtype=np.float64)
        nonground = [(j, v) for j, v in enumerate(locals_) if v != 0]
        if not nonground:
            return out
        rhs = np.zeros((k - 1, len(nonground)), dtype=np.float64)
        for slot, (_, v) in enumerate(nonground):
            rhs[v - 1, slot] = 1.0
        sol = self._lu.solve(rhs)
        if sol.ndim == 1:
            sol = sol[:, None]
        for slot, (j, _) in enumerate(nonground):
            out[1:, j] = sol[:, slot]
        return out

    def _col(self, v: int, cache: bool = True) -> np.ndarray:
        """Column v of the grounded inverse; row v of M on the dense path
        (equal by symmetry, and the same bytes the row queries read)."""
        if self._M is not None:
            return self._M[v]
        hit = self._cols.get(v)
        if hit is not None:
            return hit
        col = self._solve_block([v])[:, 0]
        if cache:
            self._cols[v] = col
        return col

    def diag_local(self) -> np.ndarray:
        """Diagonal of the grounded inverse (R to the ground vertex)."""
        if self._diag is None:
            k = self.size
            diag = np.zeros(k, dtype=np.float64)
            for start in range(1, k, _SOLVE_BLOCK):
                block = list(range(start, min(start + _SOLVE_BLOCK, k)))
                sol = self._solve_block(block)
                diag[block] = sol[block, range(len(block))]
            self._diag = diag
        return self._diag

    def resistance_local(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        if self._diag is not None:
            col = self._col(a)
            return float(col[a] + self._diag[b] - 2.0 * col[b])
        ca = self._col(a)
        cb = self._col(b)
        return float(ca[a] + cb[b] - 2.0 * ca[b])

    def resistances_from_local(self, a: int, cache: bool = True) -> np.ndarray:
        """R(a, w) for every w in the component, as a length-k vector."""
        diag = self.diag_local()
        col = self._col(a, cache=cache)
        return col[a] + diag - 2.0 * col

    def rows_from_locals(self, locals_: Sequence[int]) -> np.ndarray:
        """Stacked resistance rows, shape (len(locals_), k)."""
        diag = self.diag_local()
        if not self.dense:
            pending = [v for v in locals_ if v not in self._cols]
            for start in range(0, len(pending), _SOLVE_BLOCK):
                chunk = pending[start:start + _SOLVE_BLOCK]
                sols = self._solve_block(chunk)
                for slot, v in enumerate(chunk):
                    self._cols.setdefault(v, sols[:, slot])
        out = np.empty((len(locals_), self.size), dtype=np.float64)
        for j, v in enumerate(locals_):
            col = self._col(v)
            out[j] = col[v] + diag - 2.0 * col
        return out

    def _all_pairs_max(self) -> tuple[float, tuple[int, int]]:
        """Max pairwise resistance and, among the pairs within the ball
        tolerance of it, the lexicographically smallest sorted pair, so the
        pair does not depend on round-off. Dense oracles only."""
        k = self.size
        M = self._M
        diag = self._diag
        row_top = np.empty(k)
        col_top = np.full(k, -np.inf)
        for start in range(0, k, _SOLVE_BLOCK):
            stop = start + _SOLVE_BLOCK
            block = diag[start:stop, None] + diag[None, :] - 2.0 * M[start:stop]
            row_top[start:stop] = block.max(axis=1)
            np.maximum(col_top, block.max(axis=0), out=col_top)
        best = float(row_top.max())
        floor = _tie_floor(best)
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
