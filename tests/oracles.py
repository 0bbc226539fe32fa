"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package under test: resistances via the Moore-Penrose pseudoinverse of
the full Laplacian, hitting times via the one-step equations or the
all-pairs hitting matrix (the cross-check of the package's row-based
Matthews bound), covering numbers via exhaustive set cover, cover times
via closed forms and a one-solve-per-visited-set dynamic program,
blanket times via one walk in plain Python with a heap push per step,
batches of walks via a vector loop that steps every walk to its end,
covering profiles via one greedy pass per level with an adaptive depth,
and branching-process size laws via convolution.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from covertime import ComponentView, ContractViolation, MultiGraph, StepLimitExceeded
from covertime.bounds import (
    LEVEL_HARD_CAP, CoveringLevel, CoveringProfile, ball_radius, required_levels,
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
