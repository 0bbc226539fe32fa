"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package under test: resistances via the Moore-Penrose pseudoinverse of
the full Laplacian, hitting times via the one-step equations or the
all-pairs hitting matrix (the cross-check of the package's row-based
Matthews bound), covering numbers via exhaustive set cover, cover times
via closed forms and a one-solve-per-visited-set dynamic program,
blanket times via one walk in plain Python with a heap push per step,
batches of walks via a vector loop that steps every walk to its end,
block stop rules by one rule per walk fed one position at a time, scalar
stop rules that scan each chunk of positions as an ndarray,
components with every view built eagerly, graphs and their tables
(merged edges, degrees, adjacency, walk tables, step tables, induced
graphs), the walk tables of a union of graphs by concatenating theirs, and the G(n, p), hypercube, torus and percolation samplers by one
Python loop over the edges, covering profiles via one
greedy pass per level with an adaptive depth, branching-process size laws
via convolution, the path interpolation as a scipy CSR product, the
Matthews bound from all candidate rows of a set at once, and forked
children left behind via ``os.waitpid``.
"""
from __future__ import annotations

import contextlib
import heapq
import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from covertime import (
    ComponentView, ContractViolation, MultiGraph, ResistanceOracle, StepLimitExceeded,
    VertexRangeError, blas, errors, walks,
)
from covertime.bounds import (
    LEVEL_HARD_CAP, CoveringLevel, CoveringProfile, _dedupe_sets, ball_radius, required_levels,
)
from covertime.rng import GOLDEN, mix64, mix64_int


def laplacian(g: MultiGraph) -> np.ndarray:
    n = g.vertex_count
    L = np.zeros((n, n))
    for u, v, m in g.edges:
        if u == v:
            continue
        L[u, v] -= m
        L[v, u] -= m
        L[u, u] += m
        L[v, v] += m
    return L


def resistance_matrix_pinv(g: MultiGraph) -> np.ndarray:
    """All-pairs effective resistance via the Laplacian pseudoinverse."""
    Lp = np.linalg.pinv(laplacian(g))
    d = np.diag(Lp)
    return d[:, None] + d[None, :] - 2 * Lp


@dataclass
class HittingMatrix:
    """Dense all-pairs expected hitting times for one component, from the
    pseudoinverse resistances: H[a, b] = |E| R(a,b) + (S_b - S_a)/2 with
    S_x = sum_w d_w R(x, w)."""

    component: ComponentView
    values: np.ndarray  # (k, k), local ids; values[a, b] = E_a[tau_b]

    @classmethod
    def from_component(cls, component: ComponentView) -> "HittingMatrix":
        g = component.graph
        R = resistance_matrix_pinv(g)
        S = R @ g.degrees.astype(np.float64)
        H = g.edge_total * R + 0.5 * (S[None, :] - S[:, None])
        np.fill_diagonal(H, 0.0)
        return cls(component, H)

    def hitting(self, u: int, v: int) -> float:
        return float(self.values[self.component.to_local(u), self.component.to_local(v)])


def matthews_lower(hit: HittingMatrix, candidate_sets) -> tuple[float, tuple[int, ...]]:
    """max over candidate sets A of ln|A| * min_{u != v in A} E_u[tau_v],
    read off the all-pairs hitting matrix; returns the first best set."""
    sets = []
    for cand in candidate_sets:
        key = tuple(sorted(set(int(x) for x in cand)))
        if len(key) >= 2 and key not in sets:
            sets.append(key)
    if not sets:
        raise ContractViolation("matthews_lower needs a candidate set with >= 2 vertices")
    best_val, best_set = -1.0, ()
    for cand in sets:
        locs = [hit.component.to_local(x) for x in cand]
        sub = hit.values[np.ix_(locs, locs)].copy()
        np.fill_diagonal(sub, np.inf)
        val = math.log(len(cand)) * float(sub.min())
        if val > best_val:
            best_val, best_set = val, cand
    return best_val, best_set


def matthews_from_oracle_unblocked(oracle, candidate_sets) -> tuple[float, tuple[int, ...]]:
    """``bounds.matthews_from_oracle`` with each set's rows read at once: the
    |A| x k rows, their row sums and the |A| x |A| hitting block in one go."""
    sets = _dedupe_sets(candidate_sets)
    if not sets:
        raise ContractViolation("matthews needs a candidate set with >= 2 vertices")
    comp = oracle.component
    degs = oracle.degrees_local()
    E = oracle.edge_total
    best_val = -1.0
    best_set: tuple[int, ...] = ()
    for cand in sets:
        locs = [comp.to_local(x) for x in cand]
        rows = oracle.rows_from_locals(locs)
        with blas.single_thread():
            S = rows @ degs
        Rp = rows[:, locs]
        H = E * Rp + 0.5 * (S[None, :] - S[:, None])
        np.fill_diagonal(H, np.inf)
        val = math.log(len(cand)) * float(H.min())
        if val > best_val:
            best_val = val
            best_set = cand
    return best_val, best_set


def bfs_distances(g: MultiGraph, src: int) -> list[int]:
    """Hop distances from src; multiplicities are ignored, matching
    unit-length edges."""
    dist = [-1] * g.vertex_count
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in g.adjacency[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def cycle_resistance(n: int, k: int) -> float:
    """Closed form for a unit cycle: two arcs of k and n-k in parallel."""
    return k * (n - k) / n


def transition_matrix(g: MultiGraph) -> np.ndarray:
    """Walk transition probabilities with the loop convention (a loop at v
    is taken with probability 2*mult/degree and stays)."""
    n = g.vertex_count
    P = np.zeros((n, n))
    for v, nbrs in enumerate(g.adjacency):
        d = g.degrees[v]
        for w, m in nbrs:
            P[v, w] += (2 * m if w == v else m) / d
    return P


def hitting_time_onestep(g: MultiGraph, u: int, v: int) -> float:
    """E_u[tau_v] by solving the one-step equations h = 1 + P h on V - {v}."""
    if u == v:
        return 0.0
    n = g.vertex_count
    P = transition_matrix(g)
    keep = [x for x in range(n) if x != v]
    A = np.eye(n - 1) - P[np.ix_(keep, keep)]
    h = np.linalg.solve(A, np.ones(n - 1))
    return float(h[keep.index(u)])


def return_time_exact(g: MultiGraph, v: int) -> float:
    """E_v[first return]: one step, then the hitting time back to v."""
    P = transition_matrix(g)
    total = 1.0
    for w in range(g.vertex_count):
        if w != v and P[v, w] > 0:
            total += P[v, w] * hitting_time_onestep(g, w, v)
    return total


def exact_cover_times_per_mask(component: ComponentView) -> np.ndarray:
    """Exact expected cover time from every start, by dynamic programming
    over (visited set, current vertex) states.

    Visited sets are processed in decreasing popcount; within each set the
    linear system of moves that stay inside the set is solved, with
    absorbing transitions into already-solved larger sets. Exponential in
    the vertex count; limited to 20 vertices.
    """
    g = component.graph
    k = g.vertex_count
    if k > 20:
        raise ContractViolation(f"exact cover time limited to 20 vertices, got {k}")
    if k == 1:
        return np.zeros(1)
    P = np.zeros((k, k))
    for vtx, nbrs in enumerate(g.adjacency):
        d = g.degrees[vtx]
        for w, m in nbrs:
            P[vtx, w] += (2 * m if w == vtx else m) / d
    full = (1 << k) - 1
    table: dict[int, np.ndarray] = {full: np.zeros(k)}
    eye = np.eye(k)
    masks = sorted(range(1, full), key=lambda m: m.bit_count(), reverse=True)
    all_v = list(range(k))
    for mask in masks:
        inside = [vtx for vtx in all_v if (mask >> vtx) & 1]
        outside = [vtx for vtx in all_v if not (mask >> vtx) & 1]
        A = eye[np.ix_(inside, inside)] - P[np.ix_(inside, inside)]
        ext = np.array([table[mask | (1 << w)][w] for w in outside])
        b = 1.0 + P[np.ix_(inside, outside)] @ ext
        x = np.linalg.solve(A, b)
        vec = np.zeros(k)
        vec[inside] = x
        table[mask] = vec
    return np.array([table[1 << s][s] for s in range(k)])


def blanket_time_per_step(g: MultiGraph, start: int, key: int) -> int:
    """Blanket time of the walk with stream key `key` from start: the first
    step at which all local times (visits / degree, the start counting as
    a visit at time 0) are positive and within a factor of 2. Needs k >= 2.

    Step t reads mix64(key + t * golden) in plain Python ints and picks
    that value mod degree among the vertex's edge ends in adjacency order.
    Every step pushes a (local time, vertex, visits) entry on a min-heap
    and pops the stale entries off its top before the check.
    """
    ends = [[w for w, m in nbrs for _ in range(2 * m if w == v else m)]
            for v, nbrs in enumerate(g.adjacency)]
    degs = g.degrees.tolist()
    counts = [0] * g.vertex_count
    counts[start] = 1
    heap = [(c / d, v, c) for v, (c, d) in enumerate(zip(counts, degs))]
    heapq.heapify(heap)
    max_l = max(entry[0] for entry in heap)
    pos, t = start, 0
    while True:
        r = mix64_int(key + t * GOLDEN)
        pos = ends[pos][r % degs[pos]]
        t += 1
        c = counts[pos] + 1
        counts[pos] = c
        loc = c / degs[pos]
        max_l = max(max_l, loc)
        heapq.heappush(heap, (loc, pos, c))
        while heap[0][2] != counts[heap[0][1]]:
            heapq.heappop(heap)
        if max_l <= 2.0 * heap[0][0] * (1.0 + 1e-12):
            return t


def vector_batch_reference(graph: MultiGraph, quantity: str, starts: np.ndarray,
                           keys: np.ndarray, waypoints, cap: int) -> np.ndarray:
    """Samples of one batch of cover, cover_return, hitting or commute walks
    (waypoints as the package's engine takes them), every walk stepped on
    one vector loop to its end and dropped from the arrays at the step it
    stops; StepLimitExceeded once a step beyond cap is taken. Step t of
    every walk reads mix64(key + t * golden) and picks that value mod
    degree among the vertex's edge ends, read off ``walk_tables``.
    """
    k = graph.vertex_count
    if waypoints is None and k == 1:
        return np.zeros(len(keys), dtype=np.int64)
    offsets, flat, degrees = graph.walk_tables()
    degs_u = degrees.astype(np.uint64)
    T = len(keys)
    out = np.zeros(T, dtype=np.int64)
    idx, pos, keys_a = np.arange(T), starts.copy(), keys.copy()
    visited = np.zeros((T, k), dtype=bool)
    visited[idx, pos] = True
    unvis = np.full(T, k - 1, dtype=np.int64)
    home, phase = starts.copy(), np.zeros(T, dtype=bool)
    t = 0
    while idx.size:
        r = mix64(keys_a + np.uint64((t * GOLDEN) % 2 ** 64))
        pos = flat[offsets[pos] + (r % degs_u[pos]).astype(np.int64)]
        t += 1
        if waypoints is None:
            fresh = ~visited[idx, pos]
            visited[idx[fresh], pos[fresh]] = True
            unvis -= fresh
            done = unvis == 0
            if quantity == "cover_return":
                done &= pos == home
        elif len(waypoints) == 1:
            done = pos == waypoints[0]
        else:
            phase |= pos == waypoints[0]
            done = phase & (pos == waypoints[1])
        out[idx[done]] = t
        keep = ~done
        idx, pos, keys_a = idx[keep], pos[keep], keys_a[keep]
        unvis, home, phase = unvis[keep], home[keep], phase[keep]
        if t > cap:
            raise StepLimitExceeded(f"walk exceeded {cap} steps")
    return out


class StepRule:
    """Reference for one walk's vector stop rule, fed one position at a time
    (union ids, as the block rules see them): cover and cover_return on
    the component base..base+k-1, hitting and commute by their waypoints
    (first == last for hitting), the local-time tail by (u, v, target).
    ``step(pos)`` returns True at the stopping step; ``value`` is the
    sample the walk reports there, with ``t`` its stopping time."""

    def __init__(self, kind, start, base=0, k=1, first=None, last=None, tail=None):
        self.kind, self.base, self.t = kind, base, 0
        self.unvisited = set(range(base, base + k)) - {start}
        self.home = start if kind == "cover_return" else None
        self.first, self.last = first, last
        self.reached = first == last
        if tail is not None:
            self.u, self.v, self.target = tail
            self.cu, self.cv = 1, 0

    def step(self, pos):
        self.t += 1
        if self.kind in ("cover", "cover_return"):
            self.unvisited.discard(pos)
            return not self.unvisited and (self.home is None or pos == self.home)
        if self.kind == "waypoints":
            self.reached |= pos == self.first
            return self.reached and pos == self.last
        self.cu += pos == self.u
        self.cv += pos == self.v
        return self.cu >= self.target

    @property
    def value(self):
        return self.cv if self.kind == "tail" else self.t

    def scalar_state(self):
        """What the walk's scalar rule must carry from here: its unvisited
        local vertices, or the waypoints still to reach, in local ids."""
        if self.kind in ("cover", "cover_return"):
            return {v - self.base for v in self.unvisited}
        return [w - self.base for w in ((self.last,) if self.reached else (self.first, self.last))]


def pooled_reference(requests) -> list[np.ndarray]:
    """Samples of each request of a pooled batch, each request's walks run on
    ``vector_batch_reference`` on its own component."""
    return [vector_batch_reference(r.graph, r.quantity, *r.walks(), r.waypoints, r.cap)
            for r in requests]


class UnvisitedArray:
    """Cover stop rule on one walk's chunk of positions as an int64 array:
    a bool visited row and its count of unvisited vertices; done at the
    step that visits the last of them or, with a home, at the first return
    home after it. Returns the index of the stopping step or None."""

    def __init__(self, visited: np.ndarray, home: int | None):
        self.visited = visited
        self.unvis = int(np.count_nonzero(~visited))
        self.home = home

    def __call__(self, path: np.ndarray):
        i = 0
        if self.unvis:
            fresh = np.flatnonzero(~self.visited[path])
            new, first = np.unique(path[fresh], return_index=True)
            if len(new) < self.unvis:
                self.visited[new] = True
                self.unvis -= len(new)
                return None
            self.unvis = 0
            i = int(fresh[first].max())
            if self.home is None:
                return i
        back = np.flatnonzero(path[i:] == self.home)
        return i + int(back[0]) if back.size else None


class WaypointScanArray:
    """Hitting or commute stop rule on a chunk as an int64 array: done at
    the first visit to the last waypoint after the earlier ones, each
    strictly later than the one before."""

    def __init__(self, waypoints):
        self.todo = list(waypoints)

    def __call__(self, path: np.ndarray):
        i = 0
        while (hits := np.flatnonzero(path[i:] == self.todo[0])).size:
            i += int(hits[0])
            del self.todo[0]
            if not self.todo:
                return i
            i += 1
        return None


def eager_components(g: MultiGraph) -> list[tuple[tuple[int, ...], dict[int, int], MultiGraph]]:
    """(sorted ids, local id of each id, induced graph) of every component,
    largest first and ties by smallest id, each built up front: a search
    from every unseen root, then a sort on (-size, smallest id)."""
    n = g.vertex_count
    seen = np.zeros(n, dtype=bool)
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        stack, members = [root], [root]
        seen[root] = True
        while stack:
            u = stack.pop()
            for w, _ in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
                    members.append(w)
        comps.append(members)
    comps.sort(key=lambda ms: (-len(ms), min(ms)))
    out = []
    for ms in comps:
        ids = tuple(sorted(ms))
        index = {v: i for i, v in enumerate(ids)}
        out.append((ids, index, induced_graph(g, ids)))
    return out


# ---------------------------------------------------------------------------
# graphs and samplers, one edge at a time


def merged_edges(n: int, edges) -> tuple[tuple[tuple[int, int, int], ...], list[int], int]:
    """(sorted distinct edges, degrees, edge total) of MultiGraph(n, edges),
    or the error of the first bad edge: each edge is checked in turn and
    merged into a dict."""
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
    if 2 * sum(merged.values()) > 2 ** 63 - 1:
        raise ContractViolation("degree sum exceeds the int64 range")
    degrees = [0] * n
    for (u, v), m in merged.items():
        degrees[u] += m
        degrees[v] += m
    return tuple((u, v, m) for (u, v), m in sorted(merged.items())), degrees, sum(merged.values())


def adjacency(g: MultiGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex sorted (neighbor, multiplicity) lists, a loop listed once."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for u, v, m in g.edges:
        adj[u].append((v, m))
        if u != v:
            adj[v].append((u, m))
    return [sorted(a) for a in adj]


def walk_tables(g: MultiGraph) -> tuple[list[int], list[int]]:
    """(offsets, flat): each vertex's neighbours in ascending order, each
    repeated by its multiplicity, twice for a loop."""
    offsets, flat = [0], []
    for v, nbrs in enumerate(adjacency(g)):
        for w, m in nbrs:
            flat += [w] * (2 * m if w == v else m)
        offsets.append(len(flat))
    return offsets, flat


def step_rows(g: MultiGraph) -> list[list[int]]:
    """Row v lists v's edge ends repeated lcm / degree(v) times, or lcm
    copies of v when it has none."""
    offsets, flat = walk_tables(g)
    lcm = math.lcm(*{b - a for a, b in zip(offsets, offsets[1:]) if b > a})
    rows = []
    for v, (a, b) in enumerate(zip(offsets, offsets[1:])):
        rows.append(flat[a:b] * (lcm // (b - a)) if b > a else [v] * lcm)
    return rows


def union_walk_tables(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, flat, degrees) of the disjoint union of the graphs, vertex v
    of graphs[i] at base[i] + v with base[i] the vertex count of the graphs
    before it: each graph's own tables concatenated, flat shifted by its
    base and offsets by the edge ends before it."""
    base = np.cumsum([0] + [g.vertex_count for g in graphs[:-1]])
    parts = [g.walk_tables() for g in graphs]
    ends = np.cumsum([0] + [len(flat) for _, flat, _ in parts])
    return (np.concatenate([o[:-1] + e for (o, _, _), e in zip(parts, ends)] + [ends[-1:]]),
            np.concatenate([flat + b for (_, flat, _), b in zip(parts, base)]),
            np.concatenate([degrees for _, _, degrees in parts]))


def induced_graph(g: MultiGraph, vertices) -> MultiGraph:
    """The graph on the sorted vertices, relabelled 0.., with every edge of
    g between two of them."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    edges = [(index[u], index[v], m) for u, v, m in g.edges if u in index and v in index]
    return MultiGraph(len(index), edges)


def gnp_edges(n: int, p: float, seed: int):
    """The edges (v, w), w < v, of G(n, p) in pair-index order, by geometric
    skipping with one scalar uniform and one Python int skip per edge."""
    if p >= 1.0:
        for v in range(n):
            for w in range(v):
                yield v, w
        return
    if p > 0.0:
        rng = np.random.default_rng(seed)
        lp = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / lp)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                yield v, w


def hypercube_edges(m: int) -> list[tuple[int, int]]:
    n = 1 << m
    return [(v, v | (1 << b)) for v in range(n) for b in range(m) if not (v >> b) & 1]


def torus_edges(m: int, d: int) -> list[tuple[int, int]]:
    n = m ** d
    strides = [m ** i for i in range(d)]
    pairs = set()
    for v in range(n):
        for axis in range(d):
            coord = (v // strides[axis]) % m
            up = v + ((coord + 1) % m - coord) * strides[axis]
            pairs.add((min(v, up), max(v, up)))
    return sorted(pairs)


def percolated_edges(base: MultiGraph, p: float, rng: np.random.Generator):
    """Each edge of base in order: a unit edge kept if one uniform is below
    p, a multi-edge kept with a binomial multiplicity."""
    if p >= 1.0:
        return list(base.edges)
    kept = []
    if p > 0.0:
        for u, v, m in base.edges:
            keep = int(rng.binomial(m, p)) if m > 1 else int(rng.random() < p)
            if keep:
                kept.append((u, v, keep))
    return kept


def minimal_cover_size(R: np.ndarray, radius: float, rtol: float = 1e-9) -> int:
    """Smallest number of closed resistance balls of the given radius that
    cover every vertex; exhaustive search over center subsets."""
    n = R.shape[0]
    rad = radius * (1 + rtol) + 1e-12
    balls = [frozenset(np.flatnonzero(R[v] <= rad).tolist()) for v in range(n)]
    everything = frozenset(range(n))
    for size in range(1, n + 1):
        for centers in combinations(range(n), size):
            union = frozenset().union(*(balls[c] for c in centers))
            if union == everything:
                return size
    return n


def greedy_packing_per_level(oracle, R: float, i_max: int | None = None):
    """Dyadic covering profile with one greedy pass over the vertices per
    level and an adaptive depth: levels are added until every vertex is a
    center (at or beyond required_levels(k)), i_max or the hard cap. Deeper
    levels after one that holds every vertex copy it without reading rows."""
    comp = oracle.component
    k = oracle.size
    need = i_max if i_max is not None else required_levels(k)
    levels = []
    i = 0
    while True:
        if levels and levels[-1].size == k:
            centers = list(range(k))
        else:
            rad = ball_radius(R / 2.0 ** (i + 1))
            claimed = np.zeros(k, dtype=bool)
            centers = []
            for v in range(k):
                if claimed[v]:
                    continue
                ball = oracle.resistances_from_local(v) <= rad
                if not bool(np.any(claimed & ball)):
                    centers.append(v)
                    claimed |= ball
        size = len(centers)
        levels.append(CoveringLevel(
            index=i,
            radius=R / 2.0 ** i,
            centers=tuple(comp.to_original(c) for c in centers),
            size=size,
            alpha=2.0 ** (-i) * math.log(size),
        ))
        if i >= need and (i_max is not None or size == k or i >= LEVEL_HARD_CAP):
            break
        i += 1
    return CoveringProfile(R=float(R), vertex_count=k, levels=levels, truncation_level=i)


def coupon_collector_cover(n: int) -> float:
    """Cover time of the complete graph: (n-1) * H_{n-1}."""
    return (n - 1) * sum(1.0 / j for j in range(1, n))


def cycle_cover(n: int) -> float:
    return n * (n - 1) / 2.0


def borel_pmf(mu: float, max_size: int) -> np.ndarray:
    """P(total branching-process progeny = j) for j = 1..max_size, by the
    convolution recursion q_j = sum_d Poisson(mu)(d) * (q^{*d})_{j-1};
    each q_j uses only q_1..q_{j-1}, so the sizes build up exhaustively.
    Cross-checked against the closed form e^(-mu j)(mu j)^(j-1)/j!."""
    q = np.zeros(max_size + 1)
    for j in range(1, max_size + 1):
        pois = math.exp(-mu)          # P(root has 0 children)
        conv = np.zeros(j)            # pmf of the sum of d subtree sizes, < j
        conv[0] = 1.0
        total = pois * conv[j - 1]
        for d in range(1, j):         # d parts, each >= 1, summing to j-1
            pois *= mu / d
            new = np.zeros(j)
            for a in range(1, j):
                if q[a]:
                    new[a:] += q[a] * conv[: j - a]
            conv = new
            total += pois * conv[j - 1]
        q[j] = total
    return q[1:]


def borel_closed_form(mu: float, j: int) -> float:
    return math.exp(-mu * j + (j - 1) * math.log(mu * j) - math.lgamma(j + 1))


def all_labeled_trees(k: int) -> list[frozenset]:
    """Every labeled tree on k vertices as a frozenset of sorted edges,
    by brute force over (k-1)-edge subsets."""
    assert 2 <= k <= 6
    pairs = list(combinations(range(k), 2))
    trees = []
    for subset in combinations(pairs, k - 1):
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(frozenset(subset))
    return trees


def canonical_edges(g: MultiGraph) -> frozenset:
    return frozenset((u, v) for u, v, _ in g.edges)


def random_connected_multigraph(
    rng: np.random.Generator,
    n: int,
    extra_edges: int = 0,
    loops: int = 0,
    max_multiplicity: int = 1,
) -> MultiGraph:
    """Test-side connected multigraph: a random attachment tree plus extra
    uniform edges, loops, and multiplicities. Independent of the package's
    tree samplers."""
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v, int(rng.integers(1, max_multiplicity + 1))))
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v, int(rng.integers(1, max_multiplicity + 1))))
    for _ in range(loops):
        v = int(rng.integers(0, n))
        edges.append((v, v, int(rng.integers(1, max_multiplicity + 1))))
    return MultiGraph(n, edges)


def pooled_sizes(monkeypatch) -> list[int]:
    """Record the walk count of every pooled batch that starts in this
    process."""
    sizes: list[int] = []
    pool = walks._pool
    monkeypatch.setattr(walks, "_pool",
                        lambda requests: sizes.append(sum(r.walk_count for r in requests))
                        or pool(requests))
    return sizes


def assert_no_child_left() -> None:
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def r_kept_up_to(limit: int | None):
    """A memory budget under which a resistance oracle keeps R on at most
    ``limit`` vertices, its 8 limit^2 bytes being a 32nd of the budget, and
    forms every row of a larger component on demand; the default budget
    when ``limit`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(errors, "MEMORY_BYTES", 32 * 8 * limit * limit)
        yield


def oracle_modes(monkeypatch) -> list[bool]:
    """Record whether each resistance oracle built from now on keeps R."""
    modes: list[bool] = []
    init = ResistanceOracle.__init__
    monkeypatch.setattr(ResistanceOracle, "__init__",
                        lambda self, component: init(self, component) or modes.append(self.dense))
    return modes


def swept_oracle(component: ComponentView, limit: int | None = None) -> ResistanceOracle:
    """An oracle on ``component`` with its sweep run, so that a kept R
    serves every row read from it; built under ``r_kept_up_to(limit)``,
    after the component's graph is built."""
    component.graph
    with r_kept_up_to(limit):
        oracle = ResistanceOracle(component)
    oracle.eccentricity
    return oracle
