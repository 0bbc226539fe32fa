"""Random-graph and random-tree samplers.

Every sampler is a pure function of (parameters, seed): the same seed
always yields the same graph, byte for byte. Randomness comes from one
numpy Generator seeded once per call, consumed in a fixed documented
order.

Every sampler given a size charges its vertex count and expected edge
count (``graphs.graph_bytes``, 64 bytes a vertex and 400 an edge) before it
draws or allocates anything; a lattice too large for a float is charged
inf. Samplers build the edges as one int64 array that ``MultiGraph``
takes as it is: they loop over batches, axes, levels or runs, not over
edges.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, DegenerateModelError, require
from .graphs import ComponentView, MultiGraph, graph_bytes, largest_component, load_edge_list

_KERNEL_TRIES = 20_000
_MODEL_RESAMPLES = 100


# ---------------------------------------------------------------------------
# structured base graphs


def _pairs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (E, 2) integer array of edges (lo[i], hi[i])."""
    return np.stack([lo, hi], axis=1)


def path_graph(n: int) -> MultiGraph:
    require(graph_bytes(n, n), f"a path of {n} vertices")
    ids = np.arange(max(n, 1))
    return MultiGraph(n, _pairs(ids[:-1], ids[1:]))


def cycle_graph(n: int) -> MultiGraph:
    if n < 3:
        raise ContractViolation("cycle needs >= 3 vertices")
    require(graph_bytes(n, n), f"a cycle of {n} vertices")
    ids = np.arange(n)
    return MultiGraph(n, _pairs(ids, (ids + 1) % n))


def complete_graph(n: int) -> MultiGraph:
    require(graph_bytes(n, n * (n - 1) / 2), f"a complete graph on {n} vertices")
    return MultiGraph(n, _pairs(*np.triu_indices(max(n, 0), 1)))


def star_graph(leaves: int) -> MultiGraph:
    require(graph_bytes(leaves + 1, leaves), f"a star of {leaves} leaves")
    leaf = np.arange(1, max(leaves, 0) + 1)
    return MultiGraph(leaves + 1, _pairs(np.zeros_like(leaf), leaf))


def _power(base: int, exponent: int) -> float:
    """base ** exponent as a float, inf past the float range."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def hypercube_graph(m: int) -> MultiGraph:
    """Hamming hypercube on 2^m vertices; ids are bit patterns."""
    if m < 0:
        raise ContractViolation("hypercube needs m >= 0")
    size = _power(2, m)
    require(graph_bytes(size, size * m / 2), f"a hypercube of dimension {m}")
    n = 1 << m
    v = np.arange(n)[:, None]
    bit = 1 << np.arange(m)
    low = (v & bit) == 0  # each edge once, from its end with the bit clear
    return MultiGraph(n, _pairs(np.broadcast_to(v, low.shape)[low], (v | bit)[low]))


def torus_graph(m: int, d: int) -> MultiGraph:
    """d-dimensional discrete torus with m vertices per axis (m >= 2)."""
    if m < 2 or d < 1:
        raise ContractViolation("torus needs m >= 2 and d >= 1")
    size = _power(m, d)
    require(graph_bytes(size, size * d), f"a torus of {m}^{d} vertices")
    n = m ** d
    v = np.arange(n)
    keys = []
    for axis in range(d):
        stride = m ** axis
        coord = (v // stride) % m
        up = v + ((coord + 1) % m - coord) * stride
        keys.append(np.minimum(v, up) * n + np.maximum(v, up))
    # at m = 2 both steps along an axis reach the same neighbour: one edge
    keys = np.unique(np.concatenate(keys))
    return MultiGraph(n, _pairs(keys // n, keys % n))


def random_regular_graph(n: int, d: int, seed: int) -> MultiGraph:
    """d-regular graph by the configuration model, rejecting pairings with
    loops or parallel edges until a simple one appears."""
    require(graph_bytes(n, n * d / 2), f"{n} vertices of degree {d}")
    rng = np.random.default_rng(seed)
    return _configuration_simple([d] * n, rng)


def _configuration_simple(degrees: Sequence[int], rng: np.random.Generator) -> MultiGraph:
    n = len(degrees)
    total = int(sum(degrees))
    if total % 2 != 0:
        raise ContractViolation("degree sum must be even")
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    for _ in range(_KERNEL_TRIES):
        perm = rng.permutation(stubs)
        a = perm[0::2]
        b = perm[1::2]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        pairs = lo * n + hi
        if np.unique(pairs).size != pairs.size:
            continue
        return MultiGraph(n, _pairs(lo, hi))
    raise DegenerateModelError(
        f"configuration model failed to produce a simple graph in {_KERNEL_TRIES} tries"
    )


# ---------------------------------------------------------------------------
# Erdos-Renyi


def gnp(n: int, p: float, seed: int) -> MultiGraph:
    """G(n, p) by geometric skipping over the pair index (Batagelj and
    Brandes 2005), so the cost is O(n + edges) for sparse p.

    Pair (v, w), w < v, has index v(v-1)/2 + w. From index -1, uniform r
    moves the index on by 1 + floor(log(1 - r) / log(1 - p)), and each
    index below n(n-1)/2 is an edge. The uniforms are drawn in batches of
    about the expected edge count (``rng.random(k)`` gives the same
    doubles as k scalar draws) and the indices decoded in numpy.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractViolation("p must be in [0, 1]")
    if n < 0:
        raise ContractViolation("n must be >= 0")
    require(graph_bytes(n, p * n * (n - 1) / 2), f"G({n}, {p})")
    if p >= 1.0:
        return complete_graph(n)
    pairs = n * (n - 1) // 2
    found = [np.empty(0, dtype=np.int64)]
    if p > 0.0 and pairs:
        rng = np.random.default_rng(seed)
        lp = math.log1p(-p)
        last = -1
        while last < pairs:
            # the edges expected past the last and four standard deviations
            # more, and the draw that ends: a second batch is rare
            mean = p * (pairs - last)
            r = rng.random(int(mean + 4 * math.sqrt(mean)) + 1)
            index = last + np.cumsum(1 + _skips(r, lp, pairs))
            # the first index past the pairs ends the draws; the int64 sums
            # after it may wrap, and are never read
            past = np.flatnonzero(index >= pairs)
            found.append(index[:past[0]] if len(past) else index)
            last = pairs if len(past) else int(index[-1])
    w, v = _pair_ends(np.concatenate(found))
    return MultiGraph(n, _pairs(w, v))


def _pair_ends(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v), w < v, of each pair index v(v-1)/2 + w: v is the floor of
    (1 + sqrt(1 + 8 index)) / 2, which float64 gives exactly up to
    v = 2^27 (checked at every v(v-1)/2 and the index before it), past
    the n <= 2^26 that the memory budget admits (see errors.MEMORY_BYTES)."""
    v = ((1.0 + np.sqrt(1.0 + 8.0 * index)) / 2.0).astype(np.int64)
    return index - v * (v - 1) // 2, v


def _skips(r: np.ndarray, lp: float, cap: int) -> np.ndarray:
    """floor(math.log(1 - r) / lp) for each uniform r, at most cap.

    numpy's log can be an ulp off math.log, which moves the floor only of
    a quotient next to an integer: those few are taken with math.log.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny p: inf, capped below
        q = np.log(1.0 - r) / lp
        near = np.flatnonzero(np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0))
    q[near] = [math.log(1.0 - x) / lp for x in r[near].tolist()]
    return np.minimum(q, cap).astype(np.int64)


# ---------------------------------------------------------------------------
# trees


def uniform_labeled_tree(k: int, seed: int) -> MultiGraph:
    """Uniform labeled tree on k vertices via decoding a uniform sequence
    in [0, k)^(k-2); the decode is the inverse of the classical bijection,
    so trees are exactly equidistributed."""
    if k < 1:
        raise ContractViolation("k must be >= 1")
    require(graph_bytes(k, k - 1), f"a tree of {k} vertices")
    if k == 1:
        return MultiGraph(1, [])
    if k == 2:
        return MultiGraph(2, [(0, 1)])
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, k, size=k - 2)
    # 1 + the later entries of seq naming each vertex: 1 once it is a leaf
    degree = (1 + np.bincount(seq, minlength=k)).tolist()
    leaves = [v for v, d in enumerate(degree) if d == 1]  # ascending: a heap
    edges = []
    for x in seq.tolist():
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((leaves[0], leaves[1]))
    return MultiGraph(k, edges)


@dataclass
class PGWTree:
    """A sampled branching-process tree, rooted at vertex 0 (BFS labels)."""

    graph: MultiGraph
    size: int
    height: int
    truncated: bool


def _pgw_offspring(rng: np.random.Generator, mu: float, size_cap: int, root: int, next_id: int):
    """Level-batched BFS branching sample below root; returns (edges, size,
    height, truncated, next free id). The root id must already exist; the
    other vertex ids are allocated from next_id upward in BFS order."""
    frontier = [root]
    edges: list[tuple[int, int]] = []
    size = 1
    height = 0
    truncated = False
    while frontier:
        offspring = rng.poisson(mu, size=len(frontier)).tolist()
        total = sum(offspring)
        if total == 0:
            break
        if size + total > size_cap:
            truncated = True
            total = size_cap - size
        # the first total children, each parent's in turn
        parents = itertools.islice(
            itertools.chain.from_iterable(map(itertools.repeat, frontier, offspring)), total)
        nxt = list(range(next_id, next_id + total))
        edges += zip(parents, nxt)
        next_id += total
        size += total
        if nxt:
            height += 1
        if truncated:
            break
        frontier = nxt
    return edges, size, height, truncated, next_id


def pgw_tree(mu: float, seed: int, size_cap: int = 1_000_000) -> PGWTree:
    """Branching-process tree with Poisson(mu) offspring, sampled breadth
    first; stops with a truncation flag if the size exceeds size_cap."""
    if not 0.0 < mu <= 1.0:
        raise ContractViolation("mu must be in (0, 1]")
    if size_cap < 1:
        raise ContractViolation("size_cap must be >= 1")
    rng = np.random.default_rng(seed)
    edges, size, height, truncated, _ = _pgw_offspring(rng, mu, size_cap, 0, 1)
    return PGWTree(MultiGraph(size, edges), size, height, truncated)


# ---------------------------------------------------------------------------
# three-step giant-component model


def conjugate_mu(epsilon: float) -> float:
    """Unique root in (0, 1) of mu * e^-mu = (1 + eps) * e^-(1 + eps),
    by bisection to absolute tolerance 1e-14."""
    if epsilon <= 0:
        raise ContractViolation("epsilon must be > 0")
    target = (1.0 + epsilon) * math.exp(-(1.0 + epsilon))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class GiantModelParams:
    """Parameters of the three-step construction for the barely
    supercritical giant component."""

    n: int
    epsilon: float
    mu: float = field(init=False)
    lambda_mean: float = field(init=False)
    lambda_var: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ContractViolation("n must be >= 1")
        mu = conjugate_mu(self.epsilon)
        residual = abs(mu * math.exp(-mu) - (1 + self.epsilon) * math.exp(-(1 + self.epsilon)))
        if residual > 1e-12:
            raise ContractViolation(f"conjugate residual {residual} too large")
        self.mu = mu
        self.lambda_mean = 1.0 + self.epsilon - mu
        self.lambda_var = 1.0 / (self.epsilon * self.n)


@dataclass
class GiantSample:
    """Output of the three-step construction, with structural metadata."""

    graph: MultiGraph
    lambda_value: float
    kernel_degrees: np.ndarray     # degrees >= 3 handed to the kernel
    kernel_edges: np.ndarray       # (K, 2) kernel edges (u, v), u < v, sorted
    path_lengths: np.ndarray       # one geometric length per kernel edge
    core_size: int                 # kernel vertices + internal path vertices
    tree_sizes: np.ndarray         # one attached tree per core vertex
    truncated_trees: int

    @property
    def kernel_size(self) -> int:
        return len(self.kernel_degrees)



def giant_model(
    params: GiantModelParams,
    seed: int,
    tree_size_cap: int = 1_000_000,
) -> GiantSample:
    """Three-step sample: (a) a kernel drawn uniformly over simple graphs
    with the conditioned Poisson degree profile restricted to degrees >= 3,
    (b) each kernel edge replaced by a path of i.i.d. geometric length on
    {1, 2, ...} with mean 1/(1 - mu), (c) one independent Poisson(mu)
    branching tree attached to every vertex of the subdivided kernel."""
    require(graph_bytes(params.n, params.n), f"a giant model on {params.n} vertices")
    rng = np.random.default_rng(seed)
    mu = params.mu
    lam_sd = math.sqrt(params.lambda_var)
    for _ in range(_MODEL_RESAMPLES):
        lam = float(rng.normal(params.lambda_mean, lam_sd))
        while lam <= 0:
            lam = float(rng.normal(params.lambda_mean, lam_sd))
        D = rng.poisson(lam, size=params.n)
        big = D[D >= 3]
        while int(big.sum()) % 2 != 0:
            D = rng.poisson(lam, size=params.n)
            big = D[D >= 3]
        N = big.size
        if N < 4:
            continue
        try:
            kernel = _configuration_simple(big.tolist(), rng)
        except (DegenerateModelError, ContractViolation):
            continue
        lengths = rng.geometric(1.0 - mu, size=len(kernel.edge_array))
        # kernel edge i, (a, b), becomes the path a, x, x + 1, ..., b through
        # lengths[i] - 1 new vertices, numbered from N on, path after path:
        # entry j of the paths laid end to end is N + j - 2i - 1 inside path i
        ends = np.cumsum(lengths + 1)
        paths = N + np.arange(ends[-1]) - np.repeat(2 * np.arange(len(lengths)) + 1, lengths + 1)
        paths[ends - lengths - 1] = kernel.edge_array[:, 0]
        paths[ends - 1] = kernel.edge_array[:, 1]
        step = np.ones(len(paths) - 1, dtype=bool)
        step[ends[:-1] - 1] = False  # a path's end does not lead to the next path
        path_edges = np.stack([paths[:-1][step], paths[1:][step]], axis=1)
        tree_edges: list[tuple[int, int]] = []
        next_id = core_size = N + int(lengths.sum()) - len(lengths)
        tree_sizes = np.empty(core_size, dtype=np.int64)
        truncated = 0
        for core_v in range(core_size):
            t_edges, t_size, _, t_flag, next_id = _pgw_offspring(
                rng, mu, tree_size_cap, core_v, next_id
            )
            tree_edges += t_edges
            tree_sizes[core_v] = t_size
            truncated += int(t_flag)
        graph = MultiGraph(next_id, np.concatenate(
            [path_edges, np.array(tree_edges, dtype=np.int64).reshape(-1, 2)]))
        return GiantSample(
            graph=graph,
            lambda_value=lam,
            kernel_degrees=big.copy(),
            kernel_edges=kernel.edge_array[:, :2],
            path_lengths=lengths,
            core_size=core_size,
            tree_sizes=tree_sizes,
            truncated_trees=truncated,
        )
    raise DegenerateModelError(
        f"no usable kernel after {_MODEL_RESAMPLES} resamples (eps^3 n too small?)"
    )


# ---------------------------------------------------------------------------
# percolation


@dataclass
class BaseGraphSpec:
    """A structured base graph plus an edge-retention probability."""

    kind: str
    n: int | None = None
    m: int | None = None
    d: int | None = None
    path: str | None = None
    percolation_p: float = 1.0

    @classmethod
    def complete(cls, n: int, p: float = 1.0) -> "BaseGraphSpec":
        return cls("complete", n=n, percolation_p=p)

    @classmethod
    def hypercube(cls, m: int, p: float = 1.0) -> "BaseGraphSpec":
        return cls("hypercube", m=m, percolation_p=p)

    @classmethod
    def torus(cls, m: int, d: int, p: float = 1.0) -> "BaseGraphSpec":
        return cls("torus", m=m, d=d, percolation_p=p)

    @classmethod
    def random_regular(cls, n: int, d: int, p: float = 1.0) -> "BaseGraphSpec":
        return cls("random_regular", n=n, d=d, percolation_p=p)

    @classmethod
    def from_file(cls, path: str, p: float = 1.0) -> "BaseGraphSpec":
        return cls("from_file", path=path, percolation_p=p)


def _build_base(spec: BaseGraphSpec, rng: np.random.Generator) -> MultiGraph:
    if spec.kind == "complete":
        return complete_graph(spec.n)
    if spec.kind == "hypercube":
        return hypercube_graph(spec.m)
    if spec.kind == "torus":
        return torus_graph(spec.m, spec.d)
    if spec.kind == "random_regular":
        require(graph_bytes(spec.n, spec.n * spec.d / 2), f"{spec.n} vertices of degree {spec.d}")
        return _configuration_simple([spec.d] * spec.n, rng)
    if spec.kind == "from_file":
        return load_edge_list(spec.path)
    raise ContractViolation(f"unknown base graph kind {spec.kind!r}")


def percolate(spec: BaseGraphSpec, seed: int) -> tuple[MultiGraph, ComponentView]:
    """Retain every unit edge of the base graph independently with
    probability percolation_p; returns the percolated graph and its
    largest component."""
    p = spec.percolation_p
    if not 0.0 <= p <= 1.0:
        raise ContractViolation("percolation_p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    base = _build_base(spec, rng)
    if base.vertex_count == 0:
        raise ContractViolation("percolation base graph has no vertices")
    edges = base.edge_array
    if p < 1.0:
        # in edge order: one uniform per unit edge, drawn a run of unit
        # edges at a time, and one binomial per multi-edge
        kept = np.zeros(len(edges), dtype=np.int64)
        if p > 0.0:
            m = edges[:, 2]
            multi = np.flatnonzero(m > 1).tolist()
            for a, b in zip([0] + [i + 1 for i in multi], multi + [len(edges)]):
                if b > a:
                    kept[a:b] = rng.random(b - a) < p
                if b < len(edges):
                    kept[b] = rng.binomial(int(m[b]), p)
        edges = np.stack([edges[:, 0], edges[:, 1], kept], axis=1)[kept > 0]
    full = MultiGraph(base.vertex_count, edges)
    return full, largest_component(full)
