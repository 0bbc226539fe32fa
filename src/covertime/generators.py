"""Random-graph and random-tree samplers.

Every sampler is a pure function of (parameters, seed): the same seed
always yields the same graph, byte for byte. Randomness comes from one
numpy Generator seeded once per call, consumed in a fixed documented
order.

Every sampler given a size charges its vertex count and expected edge
count (``graphs.graph_bytes``) before it draws or allocates anything.
"""
from __future__ import annotations

import heapq
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


def path_graph(n: int) -> MultiGraph:
    require(graph_bytes(n, n), f"a path of {n} vertices")
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> MultiGraph:
    if n < 3:
        raise ContractViolation("cycle needs >= 3 vertices")
    require(graph_bytes(n, n), f"a cycle of {n} vertices")
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    require(graph_bytes(n, n * (n - 1) / 2), f"a complete graph on {n} vertices")
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> MultiGraph:
    require(graph_bytes(leaves + 1, leaves), f"a star of {leaves} leaves")
    return MultiGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube_graph(m: int) -> MultiGraph:
    """Hamming hypercube on 2^m vertices; ids are bit patterns."""
    if m < 0:
        raise ContractViolation("hypercube needs m >= 0")
    require(graph_bytes(2.0 ** m, 2.0 ** m * m / 2), f"a hypercube of dimension {m}")
    n = 1 << m
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(m) if not (v >> b) & 1]
    return MultiGraph(n, edges)


def torus_graph(m: int, d: int) -> MultiGraph:
    """d-dimensional discrete torus with m vertices per axis (m >= 2)."""
    if m < 2 or d < 1:
        raise ContractViolation("torus needs m >= 2 and d >= 1")
    require(graph_bytes(float(m) ** d, float(m) ** d * d), f"a torus of {m}^{d} vertices")
    n = m ** d
    strides = [m ** i for i in range(d)]
    pairs = set()
    for v in range(n):
        for axis in range(d):
            coord = (v // strides[axis]) % m
            up = v + ((coord + 1) % m - coord) * strides[axis]
            pairs.add((min(v, up), max(v, up)))
    return MultiGraph(n, sorted(pairs))


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
        return MultiGraph(n, list(zip(lo.tolist(), hi.tolist())))
    raise DegenerateModelError(
        f"configuration model failed to produce a simple graph in {_KERNEL_TRIES} tries"
    )


# ---------------------------------------------------------------------------
# Erdos-Renyi


def gnp(n: int, p: float, seed: int) -> MultiGraph:
    """G(n, p) by geometric skipping over the pair index, so the cost is
    O(n + edges) for sparse p."""
    if not 0.0 <= p <= 1.0:
        raise ContractViolation("p must be in [0, 1]")
    if n < 0:
        raise ContractViolation("n must be >= 0")
    require(graph_bytes(n, p * n * (n - 1) / 2), f"G({n}, {p})")
    if p >= 1.0:
        return complete_graph(n)
    edges = []
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
                edges.append((v, w))
    return MultiGraph(n, edges)


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
    degree = np.ones(k, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq.tolist():
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
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
        offspring = rng.poisson(mu, size=len(frontier))
        total = int(offspring.sum())
        if total == 0:
            break
        if size + total > size_cap:
            truncated = True
            total = size_cap - size
        nxt = []
        produced = 0
        for parent, c in zip(frontier, offspring.tolist()):
            for _ in range(c):
                if produced == total:
                    break
                child = next_id
                next_id += 1
                edges.append((parent, child))
                nxt.append(child)
                produced += 1
            if produced == total:
                break
        size += produced
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
    kernel_edges: list[tuple[int, int]]
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
        kernel_edges = [(u, v) for u, v, _ in kernel.edges]
        lengths = rng.geometric(1.0 - mu, size=len(kernel_edges))
        edges: list[tuple[int, int]] = []
        next_id = N
        for (a, b), length in zip(kernel_edges, lengths.tolist()):
            prev = a
            for _ in range(length - 1):
                edges.append((prev, next_id))
                prev = next_id
                next_id += 1
            edges.append((prev, b))
        core_size = next_id
        tree_sizes = np.empty(core_size, dtype=np.int64)
        truncated = 0
        for core_v in range(core_size):
            t_edges, t_size, _, t_flag, next_id = _pgw_offspring(
                rng, mu, tree_size_cap, core_v, next_id
            )
            edges.extend(t_edges)
            tree_sizes[core_v] = t_size
            truncated += int(t_flag)
        graph = MultiGraph(next_id, edges)
        return GiantSample(
            graph=graph,
            lambda_value=lam,
            kernel_degrees=big.copy(),
            kernel_edges=kernel_edges,
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
    kept: list[tuple[int, int, int]] = []
    if p >= 1.0:
        kept = list(base.edges)
    elif p > 0.0:
        for u, v, m in base.edges:
            keep = int(rng.binomial(m, p)) if m > 1 else int(rng.random() < p)
            if keep:
                kept.append((u, v, keep))
    full = MultiGraph(base.vertex_count, kept)
    return full, largest_component(full)
