"""Simple-random-walk simulation and exact small-instance cover times.

Monte Carlo estimates use one counter-based random stream per trial (both
engines read its values from ``rng``), so every estimate is a pure
function of (graph, parameters, master_seed) whatever the batching,
engine or process count. ``simulate`` runs one batch per estimate (k *
trials walks for the worst start); a batch whose keys, starts and samples
would exceed ``BATCH_BYTES`` is refused before any of them is allocated.
The batch is split into W contiguous shares, which ``forkmap.fork_map``
runs one per process, each process pinned to its own CPU; each share
writes its samples into its slice of one buffer that the processes share,
so they stay in trial order. W is the number of usable CPUs, at most
trials // VECTOR_THRESHOLD on the vector engine, so that no share drops to
the scalar engine, and at most the trials on the scalar engine. The
local-time tail splits its trials the same way.

Both engines step through the graph's step table (``step_tables``) when it
holds at most ``STEP_TABLE_ENTRIES`` entries: with L the lcm of the
degrees, row v lists v's edge ends repeated L / deg(v) times, so a stream
value r steps from v to row_v[r mod L], which is the edge end r mod deg(v)
of the walk without a table. A larger table is not built, and each step
takes r mod the degree of its vertex; the choice is made once per call.
Each engine has one stepping loop, and each quantity is a stop rule that
the loop consults:

* vector (batches of >= VECTOR_THRESHOLD trials except blanket, and the
  local-time tail): ``_walk_vector`` steps all active trials at once
  and asks the rule which are done; the rule keeps per-trial state
  (visited set, phase, visit counts). Stream values come in blocks of S
  steps of every trial from one call, S * trials about ``_BLOCK_VALUES``
  and S at most ``_BLOCK_STEPS``, reduced mod L once per block, so a step
  through the table is two gathers and an add. Cover on at most
  ``MASK_VERTICES`` (64) vertices keeps one uint64 visited mask per trial
  (a gather, an or and a compare a step); larger graphs keep a row of
  visited flags per trial, in slices that keep the rows under
  ``_VISITED_BYTES``. Once fewer than VECTOR_THRESHOLD // W trials of a
  share are running, so that about one threshold of walks per batch is
  left, each goes on in the scalar loop from its position and step count,
  with a scalar rule that carries its state (the local-time tail has none
  and stays here).
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

On both engines a walk not stopped by step ``step_cap`` raises
StepLimitExceeded.
"""
from __future__ import annotations

import heapq
import math
import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forkmap
from .errors import ContractViolation, StepLimitExceeded
from .graphs import ComponentView
from .rng import mix64, stream_block, stream_chunk, trial_key, trial_keys
from .resistance import ResistanceOracle

_STATIONARY_SALT = np.uint64(0xD1342543DE82EF95)
_FIRST_CHUNK = 256
_CHUNK = 4096
_VISITED_BYTES = 1 << 26
_BLOCK_VALUES = 1 << 16
_BLOCK_STEPS = 32
STEP_TABLE_ENTRIES = 1 << 16
MASK_VERTICES = 64
BATCH_BYTES = 1 << 30
VECTOR_THRESHOLD = 256
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
# vector engine: rules see the positions of the active trials after a step


def _walk_vector(graph, starts, keys, make_rule, cap, row_bytes=0, shares=1):
    """One value per trial, stepping all trials until the rule stops each;
    make_rule(starts) builds the rule of one slice of trials, which holds
    row_bytes bytes per trial.

    Stream values come in blocks of S steps of every trial (module
    docstring); with the step table a block is reduced mod its lcm once.
    A slice steps here while at least ``VECTOR_THRESHOLD // shares`` of its
    trials run, so that a batch in that many shares hands about one
    threshold of walks to the scalar loop; each walk still running then
    goes on in ``_walk_scalar`` from its position and step count, with the
    scalar rule ``rule.scalar(j)`` that carries its state. A rule whose ``scalar`` is None keeps every walk
    here to the end. Finished trials go on stepping, marked so that none
    is recorded twice, until a quarter of the arrays has finished and they
    are dropped, with the rest of their block.
    """
    offsets, flat, degrees = graph.walk_tables()
    steps = graph.step_tables(STEP_TABLE_ENTRIES)
    if steps is None:
        degs_u = degrees.astype(np.uint64)
    else:
        table = steps[0]
        lcm = np.uint64(table.shape[1])
        rows, table = np.arange(len(table)) * table.shape[1], table.ravel()
    T = len(keys)
    out = np.zeros(T, dtype=np.int64)
    width = max(1, _VISITED_BYTES // row_bytes) if row_bytes else T
    for lo in range(0, T, width):
        home, keys_a = starts[lo:lo + width], keys[lo:lo + width]
        part = out[lo:lo + width]
        rule = make_rule(home)
        n = len(home)
        floor = 1 if rule.scalar is None else max(1, VECTOR_THRESHOLD // shares)
        idx = np.arange(n)
        live = np.ones(n, dtype=bool)
        running = n
        pos = home
        # room for a block and its scratch: S * len(pos) never exceeds it
        values = np.empty((2, max(n, min(_BLOCK_STEPS * n, _BLOCK_VALUES))), dtype=np.uint64)
        block, s, t = (), 0, 0
        while running >= floor:
            if s == len(block):
                size = min(_BLOCK_STEPS, max(1, _BLOCK_VALUES // len(pos))) * len(pos)
                block, scratch = (v[:size].reshape(-1, len(pos)) for v in values)
                stream_block(keys_a, t, block, scratch)
                if steps is not None:  # mod lcm; floor division by a scalar is the fast one
                    np.floor_divide(block, lcm, out=scratch)
                    scratch *= lcm
                    block -= scratch
                    block = block.view(np.int64)
                s = 0
            if steps is None:
                z = block[s] % degs_u[pos]
                at = offsets[pos]
                at += z.view(np.int64)
                pos = flat[at]
            else:
                at = rows[pos]
                at += block[s]
                pos = table[at]
            s += 1
            t += 1
            done = rule.step(pos)
            if done is not None:
                done &= live
                finished = int(np.count_nonzero(done))
                if finished:
                    part[idx[done]] = rule.value(t, done)
                    live ^= done  # done is a subset of live
                    running -= finished
                    if 4 * running <= 3 * len(live):
                        idx, pos, keys_a = idx[live], pos[live], keys_a[live]
                        block, s = block[s:, live], 0
                        rule.keep(live)
                        live = np.ones(running, dtype=bool)
            if t > cap:
                raise StepLimitExceeded(f"walk exceeded {cap} steps")
        for j in np.flatnonzero(live).tolist():
            part[idx[j]] = _walk_scalar(graph, int(pos[j]), int(keys_a[j]), rule.scalar(j), cap, t)
    return out


class _VisitedRows:
    """Cover: a trial is done once its row has no unvisited vertex left and,
    for cover_return, it stands on its start again. The rows are one flat
    array, trial i's row starting at base[i]."""

    def __init__(self, k, starts, need_return):
        T = len(starts)
        self.k = k
        self.base = np.arange(T, dtype=np.int64) * k
        self.unvisited = np.ones(T * k, dtype=bool)
        self.unvisited[self.base + starts] = False
        self.unvis = np.full(T, k - 1, dtype=np.int64)
        self.home = starts if need_return else None

    def step(self, pos):
        """Done mask, or None when no trial can be done: without a return,
        only a step with a fresh visit can end a trial."""
        cell = self.base + pos
        fresh = self.unvisited[cell]
        if np.count_nonzero(fresh):
            self.unvisited[cell] = False
            self.unvis -= fresh
        elif self.home is None:
            return None
        if self.home is None:
            return self.unvis == 0
        return (self.unvis == 0) & (pos == self.home)

    def value(self, t, done):
        return t

    def keep(self, keep):
        self.base, self.unvis = self.base[keep], self.unvis[keep]
        if self.home is not None:
            self.home = self.home[keep]

    def scalar(self, j):
        b = int(self.base[j])
        home = None if self.home is None else int(self.home[j])
        return _Unvisited(set(np.flatnonzero(self.unvisited[b:b + self.k]).tolist()), home)


class _VisitedMask:
    """Cover on at most 64 vertices: bit v of a trial's mask is set once it
    has visited v, and the trial is done once the mask is full and, for
    cover_return, it stands on its start again."""

    def __init__(self, k, starts, need_return):
        self.k = k
        self.bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
        self.full = np.uint64((1 << k) - 1)
        self.mask = self.bits[starts]
        self.home = starts if need_return else None

    def step(self, pos):
        self.mask |= self.bits[pos]
        if self.home is None:
            return self.mask == self.full
        return (self.mask == self.full) & (pos == self.home)

    def value(self, t, done):
        return t

    def keep(self, keep):
        self.mask = self.mask[keep]
        if self.home is not None:
            self.home = self.home[keep]

    def scalar(self, j):
        m = int(self.mask[j])
        home = None if self.home is None else int(self.home[j])
        return _Unvisited({v for v in range(self.k) if not m >> v & 1}, home)


class _WaypointRows:
    """Hitting (one waypoint) or commute (target, then back at the start)."""

    def __init__(self, waypoints, T):
        self.waypoints = waypoints
        self.phase = np.zeros(T, dtype=bool)

    def step(self, pos):
        if len(self.waypoints) == 1:
            return pos == self.waypoints[0]
        self.phase |= pos == self.waypoints[0]
        return self.phase & (pos == self.waypoints[1])

    def value(self, t, done):
        return t

    def keep(self, keep):
        self.phase = self.phase[keep]

    def scalar(self, j):
        return _WaypointScan(self.waypoints[1:] if self.phase[j] else self.waypoints)


class _TailRows:
    """Local-time tail: walks from u stop when their visits to u reach
    target and report their visits to v."""

    scalar = None  # no scalar form: tail walks stay on the vector loop

    def __init__(self, u, v, target, T):
        self.u, self.v, self.target = u, v, target
        self.cu = np.ones(T, dtype=np.int64)
        self.cv = np.zeros(T, dtype=np.int64)

    def step(self, pos):
        self.cu += pos == self.u
        self.cv += pos == self.v
        return self.cu >= self.target

    def value(self, t, done):
        return self.cv[done]

    def keep(self, keep):
        self.cu, self.cv = self.cu[keep], self.cv[keep]


# ---------------------------------------------------------------------------
# scalar engine: rules see one chunk of positions of one walk


def _walk_scalar(graph, start, key, rule, cap, t0=0):
    """Stopping time of one walk from start under the rule, the walk
    standing at start after step t0 (a walk the vector loop handed over).

    Stream values are reduced mod the lcm of the degrees before they become
    Python ints, which keeps them small; (r mod lcm) mod d == r mod d for
    every degree d, so the walk is the same. With a step table each step
    is one lookup, rows[pos][r]; without one it takes r mod the degree, and
    an lcm of 2**63 or more leaves the values as they are.
    """
    nbrs, degs, lcm = graph.walk_tables_py()
    if degs[start] == 0:
        raise ContractViolation("walk cannot move from an isolated vertex")
    steps = graph.step_tables(STEP_TABLE_ENTRIES)
    rows = None if steps is None else steps[1]
    mod = np.uint64(lcm) if lcm < 1 << 63 else None
    pos, t, n = start, t0, _FIRST_CHUNK
    while True:
        vals = stream_chunk(key, t, n)
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
    offsets, _, degrees = graph.walk_tables()
    cum = np.cumsum(degrees)
    if cum[-1] == 0:  # a single loopless vertex: no degree mass to sample
        return np.zeros(len(keys), dtype=np.int64)
    r = mix64(keys ^ _STATIONARY_SALT) % np.uint64(int(cum[-1]))
    return np.searchsorted(cum, r.astype(np.int64), side="right").astype(np.int64)


def _check_batch(walks):
    """Raise before anything is allocated when the keys, starts and samples
    of a batch of walks, 8 bytes each per walk, exceed ``BATCH_BYTES``."""
    if 24 * walks > BATCH_BYTES:
        raise ContractViolation(
            f"a batch of {walks} walks needs {24 * walks} bytes of keys, starts and samples,"
            f" over the budget of {BATCH_BYTES}")


def _in_shares(run, trials, most):
    """The samples of range(trials), run(lo, hi, W) giving those of [lo, hi).
    W = min(usable CPUs, most) contiguous shares run one per process and
    write their samples into one buffer that the forked processes share, so
    none goes through a pipe; the error of the first share that raised is
    raised."""
    w = max(1, min(forkmap.usable_cpus(), most))
    bounds = [trials * i // w for i in range(w + 1)]
    samples = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.int64)

    def fill(lo, hi):
        samples[lo:hi] = run(lo, hi, w)

    for ok, error in forkmap.fork_map(fill, list(zip(bounds, bounds[1:]))):
        if not ok:
            raise error
    return samples


def _run_batch(graph, quantity, starts, keys, waypoints, cap):
    """Samples of one batch of trials, on the engine the quantity and the
    trial count select, in shares (``_in_shares``) that each keep it."""
    k = graph.vertex_count
    row_bytes = 0
    if waypoints is not None:
        vector_rule = lambda s: _WaypointRows(waypoints, len(s))
        scalar_rule = lambda s: _WaypointScan(waypoints)
    elif k == 1:
        return np.zeros(len(keys), dtype=np.int64)
    elif quantity == "blanket":
        vector_rule, scalar_rule = None, lambda s: _Blanket(graph, s)
    else:
        need_return = quantity == "cover_return"
        if k <= MASK_VERTICES:
            vector_rule, row_bytes = lambda s: _VisitedMask(k, s, need_return), 0
        else:
            vector_rule, row_bytes = lambda s: _VisitedRows(k, s, need_return), k
        scalar_rule = lambda s: _Unvisited.at(k, s, need_return)
    T = len(keys)
    if vector_rule is not None and T >= VECTOR_THRESHOLD:
        return _in_shares(
            lambda lo, hi, w: _walk_vector(graph, starts[lo:hi], keys[lo:hi], vector_rule, cap,
                                           row_bytes, w),
            T, T // VECTOR_THRESHOLD)
    return _in_shares(
        lambda lo, hi, w: np.array(
            [_walk_scalar(graph, s, key, scalar_rule(s), cap)
             for s, key in zip(starts[lo:hi].tolist(), keys[lo:hi].tolist())],
            dtype=np.int64),
        T, T)


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
    batch runs in shares on the usable CPUs (module docstring).
    """
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

    worst = start_policy == "worst_over_all_starts"
    if worst and k > WORST_START_LIMIT:
        raise ContractViolation(
            f"worst_over_all_starts only for size <= {WORST_START_LIMIT}, got {k}"
        )
    _check_batch(k * trials if worst else trials)
    keys = trial_keys(master_seed, trials)
    if worst:
        # trial j of every start keeps stream key j
        starts, keys, policy = np.repeat(np.arange(k), trials), np.tile(keys, k), start_policy
    elif start_policy == "stationary":
        starts, policy, start = _stationary_starts(g, keys), "stationary", None
    elif start_policy != "fixed":
        raise ContractViolation(f"unknown start_policy {start_policy!r}")
    elif start is None:
        raise ContractViolation("fixed start_policy requires start")
    else:
        starts = np.full(trials, component.to_local(start), dtype=np.int64)
        policy = f"fixed({start})"
    samples = _run_batch(g, quantity, starts, keys, waypoints, cap)
    if policy == "worst_over_all_starts":  # keep the first start with the largest mean
        per_start = samples.reshape(k, trials)
        s_local = int(per_start.sum(axis=1).argmax())
        samples, start = per_start[s_local].copy(), component.to_original(s_local)
    std_err = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return WalkEstimate(
        quantity, policy, float(samples.mean()), std_err, trials, master_seed,
        samples if keep_samples else None, start, **extra,
    )


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
    _check_batch(trials)
    keys = trial_keys(master_seed, trials)
    if target > 1:
        cv = _in_shares(
            lambda lo, hi, w: _walk_vector(g, np.full(hi - lo, a, dtype=np.int64), keys[lo:hi],
                                           lambda s: _TailRows(a, b, target, len(s)), cap),
            trials, trials // VECTOR_THRESHOLD)
    else:
        cv = np.zeros(trials, dtype=np.int64)
    gap = target / d_u - cv / d_v
    r_uv = ResistanceOracle(component).resistance(u, v)
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
    rule = _Checkpoints(g.vertex_count, s, cps)
    if rule.j < len(cps):
        _walk_scalar(g, s, key, rule, cps[-1])
    return LocalTimeTrace(cps, rule.out, g.degrees.copy())
