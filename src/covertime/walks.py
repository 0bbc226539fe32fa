"""Simple-random-walk simulation and exact small-instance cover times.

Monte Carlo estimates use one counter-based random stream per trial (both
engines read its values from ``rng``), so every estimate is a pure
function of (graph, parameters, master_seed) whatever the batching,
engine or process count.

Pooled batches. An estimate is a request: (component, quantity, start
policy, trials, seed, step cap). ``_estimates`` runs the walks of a list
of requests (k * trials walks for the worst start) in pooled batches:
consecutive requests share one while their walks number at most
``_POOL_WALKS`` (``_BLOCK_VALUES``, where a block is down to one step, so
a larger batch spreads the per-block cost no thinner) and fit the memory
budget together with the union of their components; a request with more
walks is a batch of its own. A batch is charged its measured peak
(``_batch_bytes``) before it allocates anything, so one over the budget
fails its requests. A batch runs on the disjoint union of its components,
a ``MultiGraph`` that charges itself and its tables before it builds
them: vertex v of a component is its base plus v, and each vertex keeps
its edge ends in order, so a stream value takes the same step as on the
component alone. Each walk has its own cap, and its rule state covers its
own component only; a request
with a walk past its cap fails with StepLimitExceeded and leaves the
other requests of the batch as they are. ``simulate`` is a one-request
call, and each process of a scaling suite pools the walks of its cells.
A batch is split into W contiguous shares, which ``forkmap.fork_shares``
runs one per process, each process pinned to its own CPU; each share
writes its samples into its slice of one buffer that the processes
share, so they stay in batch order. W is the number of usable CPUs, at
most the walks on the scalar engine and at most walks // ``_SHARE_WALKS``
(256) on the vector engine: a second process costs about 3 ms on a
2-vCPU VM, the vector loop's time for 256 walks of about 600 steps.

Both engines step through the step table of the graph they walk on (the
vector loop the batch's union, the scalar loop a walk's component) when
``MultiGraph.step_tables`` builds it, at most
``graphs.STEP_TABLE_ENTRIES`` entries: with L the lcm of the degrees, row
v lists v's edge ends repeated L / deg(v) times, so a stream value r steps
from v to row_v[r mod L], which is the edge end (r mod L) mod deg(v) =
r mod deg(v) of the walk without a table. Otherwise each step takes r mod
the degree of its vertex; the choice is made once per call.
Each engine has one stepping loop, and each quantity is a stop rule that
the loop consults:

* vector (a batch of at least VECTOR_THRESHOLD walks with a vector rule
  per usable CPU, and the local-time tail): ``_walk_vector``
  steps all running walks at once through a block of S steps and keeps
  the block's (S, walks) positions. S starts at ``_FIRST_BLOCK`` (16) and
  doubles up to ``_BLOCK_STEPS`` (128), S * walks at most
  ``_BLOCK_VALUES``, so that the walks of a short batch step few steps
  past their stop (a 2000-walk cover of a 256-vertex tree ran about 9%
  faster than with S = 128 from the start); the stream values of a block
  come from one call, reduced mod L once per block on the table path, so
  a step through the table is two gathers and an add. Each rule then takes
  the whole block in one call, folds it into its per-walk state (visited
  set, phase, visit counts) with reductions over the steps, and returns
  the walks that stopped in the block and the step at which each did;
  only those are followed step by step. Cover on at most
  ``MASK_VERTICES`` (64) vertices keeps one uint64 mask of the unvisited
  vertices per walk (a gather and an and-reduce a block); larger
  components keep a row of unvisited flags per walk, in slices that keep
  the rows under ``_visited_bytes()``, and find a block's first visits with
  one stable sort. Once fewer than VECTOR_THRESHOLD // W walks of a share
  are running at a block's end, so that about one threshold of walks per
  batch is left, each goes on in the scalar loop on its own component,
  from its position and step count, with a scalar rule that carries its
  state (the local-time tail has none and stays here). VECTOR_THRESHOLD
  (32) is the crossover with the scalar engine, measured on a 2-vCPU VM
  with cover walks on trees of 256 and 1024 vertices (modulo path): a
  block step of 32 walks costs about 2.8 us, 88 ns a walk, and 40 walks
  78 ns, where the scalar loop takes about 80 ns a step on long walks
  and 160-330 ns on walks of a few thousand steps or fewer. A batch
  below W thresholds of walks, on W CPUs, stays on the scalar engine,
  whose W shares run at once: one vector process (W = 1 below
  ``_SHARE_WALKS`` walks) would not beat them.
* scalar (the rest): ``_walk_scalar`` steps one walk a chunk at a time
  (256 steps, doubling up to ``_CHUNK``) and hands the chunk's positions,
  the Python list the stepping comprehension built, to the rule, which
  returns the index of the stopping step or None. The chunk's stream
  values are reduced mod L in numpy, so the comprehension steps with small
  ints: ``rows[pos][r]`` through the table, ``nbrs[pos][r % deg]``
  without it. The rules stay on the list, with C-level set and list
  methods and no numpy round trip: cover intersects the chunk with its set
  of unvisited vertices, and hitting, commute and cover_return's return
  home use ``list.index``. Blanket runs here only; after cover its rule
  touches a heap of one entry per vertex only at steps that can raise the
  minimum local time.

On both engines a walk not stopped by step ``step_cap`` fails its request
with StepLimitExceeded.
"""
from __future__ import annotations

import heapq
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import errors, forkmap
from .errors import ContractViolation, StepLimitExceeded, require
from .graphs import ComponentView, MultiGraph, graph_bytes, walk_bytes
from .rng import mix64, stream_block, trial_key, trial_keys
from .resistance import ResistanceOracle

_STATIONARY_SALT = np.uint64(0xD1342543DE82EF95)
_FIRST_CHUNK = 256
_CHUNK = 4096
_BLOCK_VALUES = 1 << 16
_FIRST_BLOCK = 16
_BLOCK_STEPS = 128
MASK_VERTICES = 64
_POOL_WALKS = _BLOCK_VALUES
VECTOR_THRESHOLD = 32
_SHARE_WALKS = 256
WORST_START_LIMIT = 64
EXACT_DP_LIMIT = 20
_DP_BLOCK = 1 << 10

QUANTITIES = ("cover", "cover_return", "blanket", "hitting", "commute")


@dataclass
class WalkEstimate:
    """Monte Carlo estimate of a walk functional, in steps."""

    quantity: str
    start_policy: str
    mean: float
    std_err: float
    trials: int
    master_seed: int
    samples: np.ndarray | None = None
    start: int | None = None
    u: int | None = None
    v: int | None = None

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "start_policy": self.start_policy,
            "mean": float(self.mean),
            "std_err": float(self.std_err),
            "trials": int(self.trials),
            "seed": int(self.master_seed),
        }


def _default_cap(component: ComponentView) -> int:
    g = component.graph
    return max(10_000 * 2 * g.edge_total * g.vertex_count, 1_000_000)


# ---------------------------------------------------------------------------
# pooled batches: requests, the union of their components, their walks


@dataclass
class _Request:
    """The walks of one estimate: trials walks of a quantity on one
    component from its start policy (k * trials for the worst start), each
    failing the request past step cap. vector is the (rule class, argument)
    of the vector loop, or None; scalar(start) builds the scalar rule of a
    walk, or is None; with neither, every walk stops at step 0."""

    component: ComponentView
    quantity: str
    policy: str
    start: int | None                  # the fixed start, an original id
    waypoints: tuple[int, ...] | None  # hitting (v,), commute (v, u): local ids
    trials: int
    master_seed: int
    cap: int
    extra: dict
    vector: tuple | None
    scalar: Callable | None

    @property
    def graph(self):
        return self.component.graph

    @property
    def worst(self) -> bool:
        return self.policy == "worst_over_all_starts"

    @property
    def walk_count(self) -> int:
        return self.component.size * self.trials if self.worst else self.trials

    @property
    def row_bytes(self) -> int:
        """Bytes of its walks' visited rows on the vector loop."""
        rows = self.vector is not None and self.vector[0] is _VisitedRows
        return self.component.size * self.walk_count if rows else 0

    def walks(self):
        """(local starts, stream keys) of the request's walks."""
        keys = trial_keys(self.master_seed, self.trials)
        if self.worst:  # trial j of every start keeps stream key j
            k = self.component.size
            return np.repeat(np.arange(k), self.trials), np.tile(keys, k)
        if self.policy == "stationary":
            return _stationary_starts(self.graph, keys), keys
        return np.full(self.trials, self.component.to_local(self.start), dtype=np.int64), keys

    def estimate(self, samples, keep_samples):
        """(True, WalkEstimate) from the walks' samples, or (False,
        StepLimitExceeded) when a walk went past the cap (sample -1)."""
        if samples.min() < 0:
            return False, StepLimitExceeded(f"walk exceeded {self.cap} steps")
        start = self.start
        if self.worst:  # keep the first start with the largest mean
            per_start = samples.reshape(self.component.size, self.trials)
            s_local = int(per_start.sum(axis=1).argmax())
            samples, start = per_start[s_local].copy(), self.component.to_original(s_local)
        trials = self.trials
        std_err = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return True, WalkEstimate(
            self.quantity, self.policy, float(samples.mean()), std_err, trials,
            self.master_seed, samples if keep_samples else None, start, **self.extra,
        )


def _request(
    component: ComponentView,
    quantity: str,
    *,
    start_policy: str = "fixed",
    start: int | None = None,
    u: int | None = None,
    v: int | None = None,
    trials: int = 1000,
    master_seed: int = 0,
    step_cap: int | None = None,
) -> _Request:
    """The request of one ``simulate`` call, its arguments checked."""
    if quantity not in QUANTITIES:
        raise ContractViolation(f"unknown quantity {quantity!r}")
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    g = component.graph
    k = g.vertex_count
    cap = step_cap if step_cap is not None else _default_cap(component)
    waypoints, extra = None, {}

    if quantity in ("hitting", "commute"):
        if u is None or v is None:
            raise ContractViolation(f"{quantity} requires u and v")
        a = component.to_local(u)
        b = component.to_local(v)
        if quantity == "commute" and a == b:
            raise ContractViolation("commute requires u != v")
        if g.degree(a) == 0:
            raise ContractViolation("walk cannot move from an isolated vertex")
        waypoints = (b,) if quantity == "hitting" else (b, a)
        start_policy, start, extra = "fixed", u, {"u": u, "v": v}
    elif k > 1 and int(g.degrees.min()) == 0:
        raise ContractViolation("component has an isolated vertex; walk is stuck")

    if start_policy == "worst_over_all_starts":
        if k > WORST_START_LIMIT:
            raise ContractViolation(
                f"worst_over_all_starts only for size <= {WORST_START_LIMIT}, got {k}"
            )
        policy = start_policy
    elif start_policy == "stationary":
        policy, start = "stationary", None
    elif start_policy != "fixed":
        raise ContractViolation(f"unknown start_policy {start_policy!r}")
    elif start is None:
        raise ContractViolation("fixed start_policy requires start")
    else:
        component.to_local(start)
        policy = f"fixed({start})"

    if waypoints is not None:
        vector, scalar = (_WaypointRows, None), lambda s: _WaypointScan(waypoints)
    elif k == 1:
        vector, scalar = None, None
    elif quantity == "blanket":
        vector, scalar = None, lambda s: _Blanket(g, s)
    else:
        need_return = quantity == "cover_return"
        vector = (_VisitedMask if k <= MASK_VERTICES else _VisitedRows, need_return)
        scalar = lambda s: _Unvisited.at(k, s, need_return)
    return _Request(component, quantity, policy, start, waypoints, trials, master_seed, cap,
                    extra, vector, scalar)


class _Batch:
    """The walks of a list of requests, in one order: those with a vector
    rule first, grouped by rule, then those with a scalar rule only; a
    request with neither takes no place. Walk i belongs to request req[i],
    starts at union vertex starts[i] and reads stream keys[i]; the
    per-request arrays (base, size, cap, waypoints) are indexed by req.
    Whether the vector part runs on the vector loop (``vectorize``) and
    the most shares it takes (``most``) follow the usable cpus (module
    docstring)."""

    def __init__(self, requests, cpus=1):
        self.requests = requests
        graphs = list({id(r.graph): r.graph for r in requests}.values())
        sizes = [g.vertex_count for g in graphs]
        base = np.cumsum([0] + sizes[:-1]).tolist()
        # the disjoint union, vertex v of graphs[i] at base[i] + v: each graph's
        # sorted edge rows, shifted by its base, stay sorted, so each vertex
        # keeps its edge ends in order; one graph is its own union
        self.union = graphs[0] if len(graphs) == 1 else MultiGraph(sum(sizes), np.concatenate(
            [g.edge_array + (b, b, 0) for g, b in zip(graphs, base)]))
        self.local = np.arange(sum(sizes)) - np.repeat(base, sizes)  # each union vertex's local id
        base_of = {id(g): b for g, b in zip(graphs, base)}
        self.base_r = np.array([base_of[id(r.graph)] for r in requests], dtype=np.int64)
        self.size_r = np.array([r.component.size for r in requests], dtype=np.int64)
        self.cap_r = np.array([r.cap for r in requests], dtype=np.int64)
        # hitting walks reach their one waypoint first; commute reaches v, then u
        self.waypoints_r = np.array([(r.waypoints * 2)[:2] if r.waypoints else (-1, -1)
                                     for r in requests], dtype=np.int64).reshape(-1, 2)
        self.waypoints_r += self.base_r[:, None]
        rules = list(dict.fromkeys(r.vector for r in requests if r.vector is not None))
        order = [i for rule in rules for i, r in enumerate(requests) if r.vector == rule]
        self.vector_end = sum(requests[i].walk_count for i in order)
        order += [i for i, r in enumerate(requests) if r.vector is None and r.scalar is not None]
        counts = [requests[i].walk_count for i in order]
        ends = np.cumsum([0] + counts).tolist()
        self.spans = {i: (a, b) for i, a, b in zip(order, ends, ends[1:])}
        self.groups, a = [], 0
        for rule in rules:
            b = a + sum(requests[i].walk_count for i in order if requests[i].vector == rule)
            self.groups.append((a, b, *rule))
            a = b
        self.size = ends[-1]
        self.req = np.repeat(np.array(order, dtype=np.int64), counts)
        starts, keys = [], []
        for i in order:
            s, key = requests[i].walks()
            starts.append(s + self.base_r[i])
            keys.append(key)
        self.starts = np.concatenate(starts) if order else np.zeros(0, dtype=np.int64)
        self.keys = np.concatenate(keys) if order else np.zeros(0, dtype=np.uint64)
        # one vector process must beat the scalar loop on each of the cpus
        self.vectorize = self.vector_end >= VECTOR_THRESHOLD * cpus or any(
            requests[i].scalar is None for i in order if requests[i].vector is not None)
        self.most = self.vector_end // _SHARE_WALKS if self.vectorize else self.size

    def rules(self, lo, hi):
        """[(rule, walks)] of the vector walks lo..hi-1, in batch order."""
        return [(cls(self, max(a, lo), min(b, hi), arg), min(b, hi) - max(a, lo))
                for a, b, cls, arg in self.groups if a < hi and b > lo]

    def slices(self, lo, hi):
        """Cuts of lo..hi-1 into runs whose visited rows (one byte per
        vertex of a walk's component, cover on more than MASK_VERTICES
        vertices) stay under ``_visited_bytes()``, one walk at least."""
        nbytes = np.zeros(hi - lo, dtype=np.int64)
        for a, b, cls, _ in self.groups:
            a, b = max(a, lo), min(b, hi)
            if cls is _VisitedRows and a < b:
                nbytes[a - lo:b - lo] = self.size_r[self.req[a:b]]
        cum = np.cumsum(nbytes)
        visited = _visited_bytes()
        cuts = [lo]
        while cuts[-1] < hi:
            c = cuts[-1]
            held = int(cum[c - lo - 1]) if c > lo else 0
            fit = lo + int(np.searchsorted(cum, held + visited, side="right"))
            cuts.append(min(hi, max(c + 1, fit)))
        return list(zip(cuts, cuts[1:]))

    def run(self, lo, hi, shares):
        """Samples of walks lo..hi-1: the vector part on the vector loop
        when the batch vectorizes, the rest one walk at a time."""
        out = np.empty(hi - lo, dtype=np.int64)
        mid = min(max(lo, self.vector_end if self.vectorize else lo), hi)
        if mid > lo:
            out[:mid - lo] = _walk_vector(self, lo, mid, shares)
        failed = set()  # requests with a walk past its cap: their other walks need not run
        for j, (i, s, key) in enumerate(zip(self.req[mid:hi].tolist(),
                                            self.starts[mid:hi].tolist(),
                                            self.keys[mid:hi].tolist()), mid - lo):
            out[j] = -1 if i in failed else self.scalar_walk(i, s, key, None, 0)
            if out[j] < 0:
                failed.add(i)
        return out

    def scalar_walk(self, i, pos, key, rule, t):
        """Stopping time of a walk of request i on its own component, at
        union vertex pos after step t, with its scalar rule (a fresh one
        when rule is None); -1 past the request's cap."""
        r = self.requests[i]
        pos -= int(self.base_r[i])
        try:
            rule = r.scalar(pos) if rule is None else rule
            return _walk_scalar(r.graph, pos, key, rule, r.cap, t)
        except StepLimitExceeded:
            return -1


def _visited_bytes():
    """The most bytes of visited rows a slice of walks holds: 64 MiB."""
    return errors.MEMORY_BYTES // 64


def _batch_bytes(walks, rows=0):
    """The most bytes a batch of this many walks holds, rows bytes of
    visited rows among them: 160 a walk (under tracemalloc at one CPU
    98-141, and the 8-byte shared sample buffer it does not see), 4 MiB for
    a block's arrays (up to 3.9 MB), and the rows of two slices at most,
    which meet while the next slice's are built."""
    return (4 << 20) + 160 * walks + min(rows, 2 * _visited_bytes())


def _pool(requests) -> list[np.ndarray]:
    """The samples of each request, from one batch of all their walks
    (``_Batch``) in shares (``_in_shares``); -1 marks a walk past its
    request's cap."""
    walks = sum(r.walk_count for r in requests)
    require(_batch_bytes(walks, sum(r.row_bytes for r in requests)), f"a batch of {walks} walks")
    cpus = forkmap.usable_cpus()
    batch = _Batch(requests, cpus)
    samples = np.zeros(0, dtype=np.int64)
    if batch.size:
        samples = _in_shares(batch.run, batch.size, min(cpus, batch.most))
    return [samples[slice(*batch.spans[i])] if i in batch.spans
            else np.zeros(r.walk_count, dtype=np.int64) for i, r in enumerate(requests)]


def _pools(requests):
    """Consecutive runs of requests whose walks, together, number at most
    ``_POOL_WALKS`` and fit the memory budget with the union of their
    components: ``_batch_bytes``, and the union graph's ``graph_bytes`` and
    ``walk_bytes``, so that a run is cut before a union the budget would
    refuse. A request with more walks is a run of its own."""
    run, graphs, size = [], set(), (0,) * 5
    for r in requests:
        g = r.graph
        part = (g.vertex_count, len(g.edge_array), 2 * g.edge_total)  # its graph's, once a run
        own = (r.walk_count, r.row_bytes, *(part if id(g) not in graphs else (0, 0, 0)))
        w, b, n, e, x = grown = tuple(map(sum, zip(size, own)))
        if run and (w > _POOL_WALKS or _batch_bytes(w, b) + graph_bytes(n, e) + walk_bytes(n, x)
                    > errors.MEMORY_BYTES):
            yield run
            run, graphs, grown = [], set(), (r.walk_count, r.row_bytes, *part)
        run.append(r)
        graphs.add(id(g))
        size = grown
    if run:
        yield run


def _estimates(requests, keep_samples=False):
    """(True, WalkEstimate) or (False, error) of each request, their walks
    run in pooled batches (``_pools``). A batch that raises, as one over the
    budget does, fails each of its requests with that error."""
    out = []
    for pool in _pools(requests):
        try:
            samples = _pool(pool)
        except Exception as exc:
            out += [(False, exc)] * len(pool)
        else:
            out += [r.estimate(s, keep_samples) for r, s in zip(pool, samples)]
    return out


# ---------------------------------------------------------------------------
# vector engine: rules see a block of positions of the running walks


def _walk_vector(batch, lo, hi, shares=1):
    """Samples of the batch's walks lo..hi-1, -1 for a walk past its cap,
    stepping all running walks at once until their rules stop them.

    The walks step through blocks of S steps (module docstring), and each
    rule takes the (S, walks) positions of its walks in one call. A slice of
    walks steps here while at least ``VECTOR_THRESHOLD // shares`` of them
    run, so that a batch in that many shares hands about one threshold of
    walks to the scalar loop; each walk still running then goes on in
    ``_walk_scalar`` on its own component from its position and step count,
    with the scalar rule ``rule.scalar(j, i)`` (walk j of the rule, of
    request i) that carries its state. A rule whose ``scalar`` is None keeps
    every walk here to the end. Finished walks go on stepping, marked so
    that none is recorded twice, until a quarter of the arrays has finished
    and they are dropped where a block ends.
    """
    offsets, flat, degrees = batch.union.walk_tables()
    steps = batch.union.step_tables()
    table = None if steps is None else steps[0]
    if table is None:
        degs_u = degrees.astype(np.uint64)
    else:
        lcm = np.uint64(table.shape[1])
        rows, table = np.arange(len(table)) * table.shape[1], table.ravel()
    out = np.zeros(hi - lo, dtype=np.int64)
    for a, b in batch.slices(lo, hi):
        part = out[a - lo:b - lo]
        spans = batch.rules(a, b)
        n = b - a
        floor = 1 if any(rule.scalar is None for rule, _ in spans) else max(
            1, VECTOR_THRESHOLD // shares)
        idx = np.arange(n)
        live = np.ones(n, dtype=bool)
        running = n
        pos, keys_a, req = batch.starts[a:b], batch.keys[a:b], batch.req[a:b]
        cap_min = int(batch.cap_r[req].min())  # no walk stops past its cap before
        # room for a block and its scratch: S * len(pos) never exceeds it
        values = np.empty((2, max(n, min(_BLOCK_STEPS * n, _BLOCK_VALUES))), dtype=np.uint64)
        t, grow = 0, _FIRST_BLOCK
        while running >= floor:
            m = len(pos)
            S = max(1, min(grow, _BLOCK_STEPS, _BLOCK_VALUES // m))
            grow = 2 * S
            block, scratch = (v[:S * m].reshape(S, m) for v in values)
            stream_block(keys_a, t, block, scratch)
            trail = []
            if table is None:
                for r in block:
                    z = r % degs_u[pos]
                    at = offsets[pos]
                    at += z.view(np.int64)
                    pos = flat[at]
                    trail.append(pos)
            else:  # mod lcm; floor division by a scalar is the fast one
                np.floor_divide(block, lcm, out=scratch)
                scratch *= lcm
                block -= scratch
                for r in block.view(np.int64):
                    at = rows[pos]
                    at += r
                    pos = table[at]
                    trail.append(pos)
            P = pos[None] if S == 1 else np.concatenate(trail).reshape(S, m)
            t0, t = t, t + S
            col = 0
            for rule, count in spans:
                c1 = col + count
                got = rule.block(P[:, col:c1] if count < m else P, live[col:c1])
                if got is not None:
                    cols, s = got
                    times = s + (t0 + 1)
                    vals = rule.value(times, cols, s)
                    cols += col
                    if t > cap_min:
                        vals[times > batch.cap_r[req[cols]]] = -1  # stopped past its cap
                    part[idx[cols]] = vals
                    live[cols] = False
                    running -= len(cols)
                col = c1
            if t > cap_min:  # walks still running past their cap
                over = live & (batch.cap_r[req] < t)
                if over.any():
                    part[idx[over]] = -1
                    live &= ~over
                    running -= int(np.count_nonzero(over))
            if 4 * running <= 3 * m:
                idx, pos, keys_a, req = idx[live], pos[live], keys_a[live], req[live]
                col, kept = 0, []
                for rule, count in spans:
                    keep = live[col:col + count]
                    rule.keep(keep)
                    kept.append((rule, int(np.count_nonzero(keep))))
                    col += count
                spans = kept
                live = np.ones(running, dtype=bool)
        col = 0
        for rule, count in spans:
            for j in np.flatnonzero(live[col:col + count]).tolist():
                i = int(req[col + j])
                part[idx[col + j]] = batch.scalar_walk(
                    i, int(pos[col + j]), int(keys_a[col + j]), rule.scalar(j, i), t)
            col += count
    return out


def _first(done, cols):
    """(cols, steps): the entries of cols whose column of done, a (steps,
    len(cols)) bool array, holds a true entry, and the first such step."""
    s = done.argmax(axis=0)
    hit = done[s, np.arange(len(cols))]
    return cols[hit], s[hit]


class _StopTimes:
    """A vector rule whose stopped walks report their stopping times."""

    def value(self, times, cols, s):
        return times


class _VisitedMask(_StopTimes):
    """Cover on components of at most 64 vertices: a walk's mask holds a bit
    for each local vertex it has not visited; the walk is done once the
    mask is empty and, for cover_return, it stands on its start again.
    A block is folded into the masks with one and-reduce; only the walks
    it empties are followed step by step."""

    def __init__(self, batch, a, b, need_return):
        self.batch = batch
        req = batch.req[a:b]
        # every bit but that of the vertex's local id; read only on graphs of
        # at most 64 vertices (a shift by 64 or more gives 0)
        self.others = ~np.left_shift(np.uint64(1), batch.local.astype(np.uint64))
        full = [(1 << k) - 1 if k <= 64 else 0 for k in batch.size_r.tolist()]
        starts = batch.starts[a:b]
        self.missing = np.array(full, dtype=np.uint64)[req] & self.others[starts]
        self.home = starts if need_return else None

    def block(self, P, live):
        left = self.others[P]
        before = self.missing
        self.missing = before & (left[0] if len(P) == 1 else np.bitwise_and.reduce(left, axis=0))
        cols = np.flatnonzero((self.missing == 0) & live)
        if not len(cols):
            return None
        done = np.bitwise_and.accumulate(left[:, cols], axis=0)
        done &= before[cols]
        done = done == 0
        if self.home is not None:
            done &= P[:, cols] == self.home[cols]
        return _first(done, cols)

    def keep(self, keep):
        self.missing = self.missing[keep]
        if self.home is not None:
            self.home = self.home[keep]

    def scalar(self, j, i):
        m = int(self.missing[j])
        home = None if self.home is None else int(self.home[j]) - int(self.batch.base_r[i])
        return _Unvisited({v for v in range(m.bit_length()) if m >> v & 1}, home)


class _VisitedRows(_StopTimes):
    """Cover on larger components: each walk keeps a row of unvisited flags,
    one per vertex of its component, in one flat array; the flag of union
    vertex v for walk j is cell[j] + v. A walk is done at the step of its
    last first visit and, for cover_return, at its first return home after
    it."""

    def __init__(self, batch, a, b, need_return):
        self.batch = batch
        req = batch.req[a:b]
        k = batch.size_r[req]
        self.cell = np.cumsum(k) - k - batch.base_r[req]
        self.unvisited = np.ones(int(k.sum()), dtype=bool)
        starts = batch.starts[a:b]
        self.unvisited[self.cell + starts] = False
        self.unvis = k - 1
        self.home = starts if need_return else None

    def block(self, P, live):
        S, m = P.shape
        cells = P + self.cell
        fresh = np.flatnonzero(self.unvisited[cells])  # in step order
        left = self.unvis
        if not len(fresh) and self.home is None:
            return None  # no first visit: no walk covers in this block
        if len(fresh):
            # a vertex new to the block counts at its first step only: the
            # stable sort puts that step first among its equal cells
            c = cells.ravel()[fresh]
            order = np.argsort(c, kind="stable")
            c = c[order]
            head = np.ones(len(c), dtype=bool)
            np.not_equal(c[1:], c[:-1], out=head[1:])
            first = fresh[order[head]]
            self.unvisited[c] = False
            self.unvis = left - np.bincount(first % m, minlength=m)
        cols = np.flatnonzero((self.unvis == 0) & live)
        if not len(cols):
            return None
        covered = np.full(len(cols), -1)  # the covering step; -1: covered before the block
        new = left[cols] > 0
        if new.any():
            firsts = np.zeros((S, m), dtype=bool)
            firsts.flat[first] = True
            got = cols[new]
            covered[new] = (np.cumsum(firsts[:, got], axis=0) >= left[got]).argmax(axis=0)
        if self.home is None:
            return cols, covered
        done = P[:, cols] == self.home[cols]
        done &= np.arange(S)[:, None] > covered
        return _first(done, cols)

    def keep(self, keep):
        self.cell, self.unvis = self.cell[keep], self.unvis[keep]
        if self.home is not None:
            self.home = self.home[keep]

    def scalar(self, j, i):
        base, k = int(self.batch.base_r[i]), int(self.batch.size_r[i])
        row = int(self.cell[j]) + base
        home = None if self.home is None else int(self.home[j]) - base
        return _Unvisited(set(np.flatnonzero(self.unvisited[row:row + k]).tolist()), home)


class _WaypointRows(_StopTimes):
    """Hitting (first waypoint equal to the last, reached from the start) or
    commute (the first waypoint, then the last one, back at the start). Only
    the walks that meet the last waypoint in a block are followed step by
    step."""

    def __init__(self, batch, a, b, arg):
        self.batch = batch
        self.first, self.last = batch.waypoints_r[batch.req[a:b]].T
        self.reached = self.first == self.last

    def block(self, P, live):
        at_last = P == self.last
        before = self.reached
        if not before.all():
            self.reached = before | (P == self.first).any(axis=0)
        cols = np.flatnonzero(at_last.any(axis=0) & self.reached & live)
        if not len(cols):
            return None
        done = at_last[:, cols]
        if not before[cols].all():
            done &= np.logical_or.accumulate(P[:, cols] == self.first[cols], axis=0) | before[cols]
        return _first(done, cols)

    def keep(self, keep):
        self.reached = self.reached[keep]
        self.first, self.last = self.first[keep], self.last[keep]

    def scalar(self, j, i):
        todo = (self.last[j],) if self.reached[j] else (self.first[j], self.last[j])
        return _WaypointScan([int(w) - int(self.batch.base_r[i]) for w in todo])


class _TailRows:
    """Local-time tail: walks from u stop when their visits to u reach
    target and report their visits to v; arg is (u, v, target), local ids.
    Only the walks that reach target in a block are counted step by step."""

    scalar = None  # no scalar form: tail walks stay on the vector loop

    def __init__(self, batch, a, b, arg):
        u, v, self.target = arg
        base = batch.base_r[batch.req[a:b]]
        self.u, self.v = base + u, base + v
        self.cu = np.ones(b - a, dtype=np.int64)
        self.cv = np.zeros(b - a, dtype=np.int64)

    def block(self, P, live):
        at_u, at_v = P == self.u, P == self.v
        cu, cv = self.cu, self.cv
        self.cu, self.cv = cu + at_u.sum(axis=0), cv + at_v.sum(axis=0)
        cols = np.flatnonzero((self.cu >= self.target) & live)
        if not len(cols):
            return None
        cols, s = _first(np.cumsum(at_u[:, cols], axis=0) + cu[cols] >= self.target, cols)
        self.stop = cv[cols] + np.cumsum(at_v[:, cols], axis=0)[s, np.arange(len(cols))]
        return cols, s

    def value(self, times, cols, s):
        return self.stop

    def keep(self, keep):
        self.u, self.v = self.u[keep], self.v[keep]
        self.cu, self.cv = self.cu[keep], self.cv[keep]


# ---------------------------------------------------------------------------
# scalar engine: rules see one chunk of positions of one walk


def _walk_scalar(graph, start, key, rule, cap, t0=0):
    """Stopping time of one walk from start under the rule, the walk
    standing at start after step t0 (a walk the vector loop handed over).

    Stream values are reduced mod the lcm of the degrees before they become
    Python ints, which keeps them small; (r mod lcm) mod d == r mod d for
    every degree d, so the walk is the same. With a step table each step
    is one lookup, rows[pos][r]; without one it takes r mod the degree from
    the neighbour lists, and an lcm of 2**63 or more leaves the values as
    they are. The values of a chunk come from ``stream_block`` into two
    buffers the walk keeps.
    """
    if graph.degrees[start] == 0:
        raise ContractViolation("walk cannot move from an isolated vertex")
    steps = graph.step_tables()
    if steps is None:
        rows, (nbrs, degs, lcm) = None, graph.walk_tables_py()
    else:
        rows, lcm = steps[1], steps[0].shape[1]
    mod = np.uint64(lcm) if lcm < 1 << 63 else None
    keys = np.array([key], dtype=np.uint64)
    values, scratch = np.empty((2, _CHUNK, 1), dtype=np.uint64)
    pos, t, n = start, t0, _FIRST_CHUNK
    while True:
        vals = stream_block(keys, t, values[:n], scratch[:n]).reshape(n)
        if mod is not None:
            vals %= mod
        if rows is None:
            path = [pos := nbrs[pos][r % degs[pos]] for r in vals.tolist()]
        else:
            path = [pos := rows[pos][r] for r in vals.tolist()]
        i = rule(path)
        t += n if i is None else i + 1
        if t > cap:
            raise StepLimitExceeded(f"walk exceeded {cap} steps")
        if i is not None:
            return t
        n = min(2 * n, _CHUNK)


class _Unvisited:
    """Cover: done at the step that visits the last unvisited vertex or,
    for cover_return, at the first return to the start after it.

    The unvisited vertices are a set: each chunk costs one C-level pass
    over its positions, whatever the vertex count. A set never shrinks its
    hash table and leaves a dummy slot for each removed vertex, which slows
    every later lookup, so the set is rebuilt once it has lost half the
    entries it was built with.
    """

    def __init__(self, unvisited, home):
        self.unvisited = unvisited  # set of vertices not yet visited, owned by the rule
        self.built = len(unvisited)  # its size when last built
        self.home = home            # the start for cover_return, else None

    @classmethod
    def at(cls, k, start, need_return):
        unvisited = set(range(k))
        unvisited.discard(start)
        return cls(unvisited, start if need_return else None)

    @property
    def unvis(self):
        return len(self.unvisited)

    def __call__(self, path):
        i = 0
        unvisited = self.unvisited
        if unvisited:
            hit = unvisited.intersection(path)
            unvisited -= hit
            if unvisited:
                if 2 * len(unvisited) < self.built:
                    self.unvisited = set(unvisited)
                    self.built = len(unvisited)
                return None
            # the first visit of the last new vertex: each pass finds the
            # first visit i of a new vertex after the steps already scanned
            # and drops the new vertices seen before it, so the chunk is
            # scanned once however many vertices it visits first
            i = -1
            while hit:
                j = i + 1
                i = path.index(hit.pop(), j)
                hit.difference_update(path[j:i])
            if self.home is None:
                return i
        try:
            return path.index(self.home, i)
        except ValueError:
            return None


class _WaypointScan:
    """Hitting or commute: done at the first visit to the last waypoint
    after the earlier ones, each strictly later than the one before."""

    def __init__(self, waypoints):
        self.todo = list(waypoints)

    def __call__(self, path):
        i = 0
        todo = self.todo
        while True:
            try:
                i = path.index(todo[0], i)
            except ValueError:
                return None
            del todo[0]
            if not todo:
                return i
            i += 1


class _Blanket:
    """Blanket: done at the first time all local times are positive and
    within a factor of 2 (the start counts as a visit at time 0).

    Until cover, visits are counted per chunk. After it, a min-heap holds
    one (local time, vertex, visits) entry per vertex; an entry goes stale
    when its vertex is revisited and is refreshed only when it reaches the
    top. Local times only grow, so the condition can first hold only at a
    step that raises the minimum, which is a step onto the top vertex: the
    heap is touched and the condition checked only at those steps.
    """

    def __init__(self, graph, start):
        self.degs = graph.degrees.tolist()
        self.cover = _Unvisited.at(graph.vertex_count, start, False)
        self.counts = np.zeros(graph.vertex_count, dtype=np.int64)
        self.counts[start] = 1
        self.heap = None

    def __call__(self, path):
        i = 0
        if self.heap is None:
            i = self.cover(path)
            if i is None:
                self.counts += np.bincount(path, minlength=len(self.degs))
                return None
            # counts before the covering step, which the loop below takes
            self.counts = (self.counts + np.bincount(path[:i], minlength=len(self.degs))).tolist()
            self.heap = [(c / d, vv, c) for vv, (c, d) in enumerate(zip(self.counts, self.degs))]
            heapq.heapify(self.heap)
            self.max_l = max(entry[0] for entry in self.heap)
        counts, heap, degs, max_l = self.counts, self.heap, self.degs, self.max_l
        top = heap[0][1]
        for j, pos in enumerate(path[i:], i):
            c = counts[pos] + 1
            counts[pos] = c
            loc = c / degs[pos]
            if loc > max_l:
                max_l = loc
            if pos == top:  # its entry is stale now; refresh stale tops
                while heap[0][2] != counts[top := heap[0][1]]:
                    c = counts[top]
                    heapq.heapreplace(heap, (c / degs[top], top, c))
                if max_l <= 2.0 * heap[0][0] * (1.0 + 1e-12):
                    return j
        self.max_l = max_l
        return None


class _Checkpoints:
    """Trace: copies the visit counts at each checkpoint time (sorted) and
    stops at the last one."""

    def __init__(self, k, start, checkpoints):
        self.cps = checkpoints
        self.counts = np.zeros(k, dtype=np.int64)
        self.counts[start] = 1
        self.out = np.zeros((len(checkpoints), k), dtype=np.int64)
        self.t = self.j = 0
        self([])  # the checkpoints at time 0

    def __call__(self, path):
        k = len(self.counts)
        i = 0
        while self.j < len(self.cps) and self.cps[self.j] - self.t <= len(path):
            c = self.cps[self.j] - self.t
            self.counts += np.bincount(path[i:c], minlength=k)
            self.out[self.j] = self.counts
            self.j += 1
            i = c
        if self.j == len(self.cps):
            return i - 1
        self.counts += np.bincount(path[i:], minlength=k)
        self.t += len(path)
        return None


# ---------------------------------------------------------------------------
# sampling drivers


def _stationary_starts(graph, keys) -> np.ndarray:
    cum = np.cumsum(graph.degrees)
    if cum[-1] == 0:  # a single loopless vertex: no degree mass to sample
        return np.zeros(len(keys), dtype=np.int64)
    r = mix64(keys ^ _STATIONARY_SALT) % np.uint64(int(cum[-1]))
    return np.searchsorted(cum, r.astype(np.int64), side="right").astype(np.int64)


def _in_shares(run, trials, w):
    """The samples of range(trials), run(lo, hi, W) giving those of [lo, hi).
    W = max(1, w) contiguous shares run one per process and
    write their samples into one buffer that the forked processes share, so
    none goes through a pipe; the error of the first share that raised is
    raised."""
    w = max(1, w)
    bounds = [trials * i // w for i in range(w + 1)]
    samples = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.int64)

    def fill(share):
        for lo, hi in share:
            samples[lo:hi] = run(lo, hi, w)
        return [None] * len(share)

    forkmap.fork_shares(fill, list(zip(bounds, bounds[1:])))
    return samples


def simulate(
    component: ComponentView,
    quantity: str,
    *,
    start_policy: str = "fixed",
    start: int | None = None,
    u: int | None = None,
    v: int | None = None,
    trials: int = 1000,
    master_seed: int = 0,
    keep_samples: bool = True,
    step_cap: int | None = None,
) -> WalkEstimate:
    """Estimate a walk functional on a connected component.

    Quantities: "cover" (visit every vertex), "cover_return" (cover and
    return to the start), "blanket" (all local times positive and within a
    factor of 2), "hitting" (first visit to v from u; with u == v this is
    the first return time), "commute" (u to v and back).

    start_policy is one of "fixed" (requires start), "stationary" (start
    drawn from the degree distribution per trial), or
    "worst_over_all_starts" (size <= 64 only: one batch of k * trials walks
    runs the full trial set from every start; the estimate keeps the start
    with the maximum mean). Hitting and commute always start at u. The
    walks are a one-request pooled batch, run in shares on the usable CPUs
    (module docstring).
    """
    request = _request(component, quantity, start_policy=start_policy, start=start, u=u, v=v,
                       trials=trials, master_seed=master_seed, step_cap=step_cap)
    (ok, got), = _estimates([request], keep_samples)
    if not ok:
        raise got
    return got


# ---------------------------------------------------------------------------
# exact cover-time oracle


def exact_cover_times(component: ComponentView) -> np.ndarray:
    """Exact expected cover time from every start, by dynamic programming
    over (visited set, current vertex) states.

    table[mask, v] is the expected number of steps to cover from v with the
    vertices of mask already visited. Masks are filled one popcount layer
    at a time, from k - 1 down to 1: each mask's moves that stay inside it
    form a linear system, absorbed by moves into the layer above, and a
    block of ``_DP_BLOCK`` masks is solved in one batched call. Exponential
    in the vertex count; limited to ``EXACT_DP_LIMIT`` vertices.
    """
    g = component.graph
    k = g.vertex_count
    if k > EXACT_DP_LIMIT:
        raise ContractViolation(f"exact cover time limited to {EXACT_DP_LIMIT} vertices, got {k}")
    P = np.zeros((k, k))
    for vtx, nbrs in enumerate(g.adjacency):
        d = g.degrees[vtx]
        for w, m in nbrs:
            P[vtx, w] += (2 * m if w == vtx else m) / d
    masks = np.arange(1 << k)
    bits = (masks[:, None] & (1 << np.arange(k))) != 0
    popcount = bits.sum(axis=1)
    table = np.zeros((1 << k, k))
    for p in range(k - 1, 0, -1):
        layer = masks[popcount == p]
        for lo in range(0, len(layer), _DP_BLOCK):
            block = layer[lo:lo + _DP_BLOCK]
            inside = np.nonzero(bits[block])[1].reshape(-1, p)
            outside = np.nonzero(~bits[block])[1].reshape(-1, k - p)
            mask = block[:, None]
            A = np.eye(p) - P[inside[:, :, None], inside[:, None, :]]
            ext = table[mask | (1 << outside), outside]
            b = 1.0 + P[inside[:, :, None], outside[:, None, :]] @ ext[:, :, None]
            table[mask, inside] = np.linalg.solve(A, b)[:, :, 0]
    return table[1 << np.arange(k), np.arange(k)]


def exact_cover_time(component: ComponentView, start: int) -> float:
    return float(exact_cover_times(component)[component.to_local(start)])


def exact_cover_time_worst(component: ComponentView) -> float:
    return float(exact_cover_times(component).max())


# ---------------------------------------------------------------------------
# local-time concentration check


@dataclass
class TailCheckPoint:
    lam: float
    empirical_prob: float
    bound: float
    std_err: float


def local_time_tail_check(
    component: ComponentView,
    u: int,
    v: int,
    k_level: float,
    lambdas: Sequence[float],
    trials: int,
    master_seed: int,
    step_cap: int | None = None,
) -> list[TailCheckPoint]:
    """Empirical tail of L_u - L_v at the time L_u first reaches k_level,
    against exp(-lambda^2 / (4 k_level R(u, v))).

    Local time is visits divided by degree, with the start counting as a
    visit at time 0. The stopping time is the first t with L_u >= k_level,
    so L_u equals k_level up to 1/degree(u) granularity there.
    """
    if u == v:
        raise ContractViolation("tail check requires u != v")
    if k_level <= 0:
        raise ContractViolation("k_level must be positive")
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    g = component.graph
    a = component.to_local(u)
    b = component.to_local(v)
    d_u = g.degree(a)
    d_v = g.degree(b)
    target = max(1, math.ceil(k_level * d_u - 1e-9))
    cap = step_cap if step_cap is not None else _default_cap(component) * max(1, target)
    require(_batch_bytes(trials), f"a batch of {trials} walks")
    if target > 1:
        request = _Request(component, "tail", f"fixed({u})", u, None, trials, master_seed, cap, {},
                           (_TailRows, (a, b, target)), None)
        cv = _pool([request])[0]
        if cv.min() < 0:
            raise StepLimitExceeded(f"walk exceeded {cap} steps")
    else:
        cv = np.zeros(trials, dtype=np.int64)
    gap = target / d_u - cv / d_v
    r_uv = ResistanceOracle(component, dense_limit=0).resistance(u, v)  # one row, R not kept
    points = []
    for lam in lambdas:
        emp = float(np.mean(gap >= lam - 1e-12))
        bound = math.exp(-(lam * lam) / (4.0 * k_level * r_uv)) if lam > 0 else 1.0
        se = math.sqrt(emp * (1.0 - emp) / trials)
        points.append(TailCheckPoint(float(lam), emp, bound, se))
    return points


@dataclass
class LocalTimeTrace:
    """Visit counts at fixed checkpoint times along one walk."""

    checkpoints: tuple[int, ...]
    visit_counts: np.ndarray  # (len(checkpoints), k)
    degrees: np.ndarray

    def local_times(self) -> np.ndarray:
        return self.visit_counts / self.degrees


def trace_local_times(
    component: ComponentView,
    start: int,
    checkpoints: Sequence[int],
    master_seed: int,
    trial: int = 0,
) -> LocalTimeTrace:
    """Visit counts at each checkpoint time of one walk (trial `trial` of
    master_seed), the start counting as a visit at time 0."""
    g = component.graph
    cps = tuple(sorted(int(c) for c in checkpoints))
    if cps and cps[0] < 0:
        raise ContractViolation("checkpoints must be >= 0")
    if trial < 0:
        raise ContractViolation("trial must be >= 0")
    key = trial_key(master_seed, trial)
    s = component.to_local(start)
    k = g.vertex_count
    require(8 * len(cps) * k, f"a trace of {len(cps)} checkpoints on {k} vertices")
    rule = _Checkpoints(k, s, cps)
    if rule.j < len(cps):
        _walk_scalar(g, s, key, rule, cps[-1])
    return LocalTimeTrace(cps, rule.out, g.degrees.copy())
