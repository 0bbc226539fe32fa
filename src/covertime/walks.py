"""Simple-random-walk simulation and exact small-instance cover times.

Monte Carlo estimates use one counter-based random stream per trial (see
``rng``), making every estimate a pure function of (graph, parameters,
master_seed) regardless of batching or worker count. Two engines, a
vectorized one for wide trial counts and a scalar one for long walks,
consume identical streams and therefore produce identical trajectories.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, StepLimitExceeded
from .graphs import ComponentView
from .rng import mix64, stream_chunk, trial_keys
from .resistance import ResistanceOracle, resistance_diameter

_MASK = (1 << 64) - 1
_STATIONARY_SALT = np.uint64(0xD1342543DE82EF95)
_CHUNK = 4096
VECTOR_THRESHOLD = 256
WORST_START_LIMIT = 64

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


def _step_vals(keys: np.ndarray, t: int) -> np.ndarray:
    return mix64(keys + np.uint64((t * 0x9E3779B97F4A7C15) & _MASK))


# ---------------------------------------------------------------------------
# vector engine


def _cover_vector(graph, starts, keys, need_return, cap):
    offsets, flat, degrees = graph.walk_tables()
    k = graph.vertex_count
    T = len(starts)
    samples = np.zeros(T, dtype=np.int64)
    if k == 1:
        return samples
    degs_u = degrees.astype(np.uint64)
    visited = np.zeros((T, k), dtype=bool)
    visited[np.arange(T), starts] = True
    idx = np.arange(T)
    pos = starts.astype(np.int64).copy()
    unvis = np.full(T, k - 1, dtype=np.int64)
    start_a = starts.astype(np.int64).copy()
    keys_a = keys.copy()
    t = 0
    while idx.size:
        r = _step_vals(keys_a, t)
        step = (r % degs_u[pos]).astype(np.int64)
        pos = flat[offsets[pos] + step]
        t += 1
        fresh = ~visited[idx, pos]
        if fresh.any():
            visited[idx[fresh], pos[fresh]] = True
            unvis -= fresh
        done = (unvis == 0) & (pos == start_a) if need_return else unvis == 0
        if done.any():
            samples[idx[done]] = t
            keep = ~done
            idx, pos, unvis = idx[keep], pos[keep], unvis[keep]
            start_a, keys_a = start_a[keep], keys_a[keep]
        if t > cap:
            raise StepLimitExceeded(f"cover walk exceeded {cap} steps")
    return samples


def _hitting_vector(graph, starts, keys, target, second, cap):
    offsets, flat, degrees = graph.walk_tables()
    T = len(starts)
    samples = np.zeros(T, dtype=np.int64)
    degs_u = degrees.astype(np.uint64)
    idx = np.arange(T)
    pos = starts.astype(np.int64).copy()
    keys_a = keys.copy()
    phase = np.zeros(T, dtype=bool)
    t = 0
    while idx.size:
        r = _step_vals(keys_a, t)
        step = (r % degs_u[pos]).astype(np.int64)
        pos = flat[offsets[pos] + step]
        t += 1
        if second is None:
            done = pos == target
        else:
            phase |= pos == target
            done = phase & (pos == second)
        if done.any():
            samples[idx[done]] = t
            keep = ~done
            idx, pos, keys_a, phase = idx[keep], pos[keep], keys_a[keep], phase[keep]
        if t > cap:
            raise StepLimitExceeded(f"hitting walk exceeded {cap} steps")
    return samples


def _tail_vector(graph, keys, u_local, v_local, target_visits, cap):
    """Walks from u until the visit count at u reaches target_visits;
    returns the visit counts at v at that stopping time."""
    offsets, flat, degrees = graph.walk_tables()
    T = len(keys)
    out = np.zeros(T, dtype=np.int64)
    if target_visits <= 1:
        return out
    degs_u = degrees.astype(np.uint64)
    idx = np.arange(T)
    pos = np.full(T, u_local, dtype=np.int64)
    cu = np.ones(T, dtype=np.int64)
    cv = np.zeros(T, dtype=np.int64)
    keys_a = keys.copy()
    t = 0
    while idx.size:
        r = _step_vals(keys_a, t)
        step = (r % degs_u[pos]).astype(np.int64)
        pos = flat[offsets[pos] + step]
        t += 1
        cu += pos == u_local
        cv += pos == v_local
        done = cu >= target_visits
        if done.any():
            out[idx[done]] = cv[done]
            keep = ~done
            idx, pos, cu, cv, keys_a = idx[keep], pos[keep], cu[keep], cv[keep], keys_a[keep]
        if t > cap:
            raise StepLimitExceeded(f"local-time walk exceeded {cap} steps")
    return out


# ---------------------------------------------------------------------------
# scalar engine (identical streams, faster for few long walks)


def _cover_scalar(graph, start, key, need_return, cap):
    offsets, flat, degs = graph.walk_tables_py()
    k = graph.vertex_count
    if k == 1:
        return 0
    visited = bytearray(k)
    visited[start] = 1
    unvis = k - 1
    pos = start
    t = 0
    while True:
        for r in stream_chunk(key, t, _CHUNK).tolist():
            pos = flat[offsets[pos] + r % degs[pos]]
            t += 1
            if visited[pos] == 0:
                visited[pos] = 1
                unvis -= 1
                if unvis == 0 and not need_return:
                    return t
            elif unvis == 0 and need_return and pos == start:
                return t
        if t > cap:
            raise StepLimitExceeded(f"cover walk exceeded {cap} steps")


def _hitting_scalar(graph, start, key, target, second, cap):
    offsets, flat, degs = graph.walk_tables_py()
    pos = start
    t = 0
    phase = False
    while True:
        for r in stream_chunk(key, t, _CHUNK).tolist():
            pos = flat[offsets[pos] + r % degs[pos]]
            t += 1
            if not phase and pos == target:
                if second is None:
                    return t
                phase = True
            elif phase and pos == second:
                return t
        if t > cap:
            raise StepLimitExceeded(f"hitting walk exceeded {cap} steps")


def _blanket_scalar(graph, start, key, cap):
    """First time all local times are positive and within a factor of 2.

    The start counts as a visit at time 0. Tracked with a lazy min-heap of
    (visits, vertex) entries; entries go stale when a vertex is revisited.
    """
    offsets, flat, degs = graph.walk_tables_py()
    k = graph.vertex_count
    if k == 1:
        return 0
    counts = [0] * k
    counts[start] = 1
    unvis = k - 1
    pos = start
    t = 0
    heap: list[tuple[float, int, int]] = []
    max_l = 0.0
    covered = False
    while True:
        for r in stream_chunk(key, t, _CHUNK).tolist():
            pos = flat[offsets[pos] + r % degs[pos]]
            t += 1
            c = counts[pos] + 1
            counts[pos] = c
            if c == 1:
                unvis -= 1
                if unvis == 0:
                    covered = True
                    heap = [(counts[vv] / degs[vv], vv, counts[vv]) for vv in range(k)]
                    heapq.heapify(heap)
                    max_l = max(entry[0] for entry in heap)
            elif covered:
                loc = c / degs[pos]
                if loc > max_l:
                    max_l = loc
                heapq.heappush(heap, (loc, pos, c))
            if covered:
                while heap[0][2] != counts[heap[0][1]]:
                    heapq.heappop(heap)
                if max_l <= 2.0 * heap[0][0] * (1.0 + 1e-12):
                    return t
        if t > cap:
            raise StepLimitExceeded(f"blanket walk exceeded {cap} steps")


# ---------------------------------------------------------------------------
# sampling drivers


def _stationary_starts(graph, keys) -> np.ndarray:
    offsets, _, degrees = graph.walk_tables()
    cum = np.cumsum(degrees)
    r = mix64(keys ^ _STATIONARY_SALT) % np.uint64(int(cum[-1]))
    return np.searchsorted(cum, r.astype(np.int64), side="right").astype(np.int64)


def _run_batch(graph, quantity, starts, keys, target, second, cap):
    """Dispatch one batch of trials to the right engine."""
    T = len(keys)
    if quantity == "blanket":
        return np.array(
            [_blanket_scalar(graph, int(starts[i]), int(keys[i]), cap) for i in range(T)],
            dtype=np.int64,
        )
    if quantity in ("cover", "cover_return"):
        need_return = quantity == "cover_return"
        if T >= VECTOR_THRESHOLD:
            return _cover_vector(graph, starts, keys, need_return, cap)
        return np.array(
            [_cover_scalar(graph, int(starts[i]), int(keys[i]), need_return, cap) for i in range(T)],
            dtype=np.int64,
        )
    if T >= VECTOR_THRESHOLD:
        return _hitting_vector(graph, starts, keys, target, second, cap)
    return np.array(
        [_hitting_scalar(graph, int(starts[i]), int(keys[i]), target, second, cap) for i in range(T)],
        dtype=np.int64,
    )


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
    "worst_over_all_starts" (size <= 64 only: runs the full trial set from
    every start and reports the maximum mean).
    """
    if quantity not in QUANTITIES:
        raise ContractViolation(f"unknown quantity {quantity!r}")
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    g = component.graph
    k = g.vertex_count
    cap = step_cap if step_cap is not None else _default_cap(component)
    keys = trial_keys(master_seed, trials)

    if quantity in ("hitting", "commute"):
        if u is None or v is None:
            raise ContractViolation(f"{quantity} requires u and v")
        a = component.to_local(u)
        b = component.to_local(v)
        if quantity == "commute" and a == b:
            raise ContractViolation("commute requires u != v")
        if g.degree(a) == 0:
            raise ContractViolation("walk cannot move from an isolated vertex")
        target, second = (b, None) if quantity == "hitting" else (b, a)
        starts = np.full(trials, a, dtype=np.int64)
        samples = _run_batch(g, quantity, starts, keys, target, second, cap)
        return _make_estimate(
            quantity, f"fixed({u})", samples, trials, master_seed, keep_samples,
            start=u, u=u, v=v,
        )

    if k > 1 and int(g.degrees.min()) == 0:
        raise ContractViolation("component has an isolated vertex; walk is stuck")

    if start_policy in ("worst", "worst_over_all_starts"):
        if k > WORST_START_LIMIT:
            raise ContractViolation(
                f"worst_over_all_starts only for size <= {WORST_START_LIMIT}, got {k}"
            )
        best = None
        for s_local in range(k):
            starts = np.full(trials, s_local, dtype=np.int64)
            samples = _run_batch(g, quantity, starts, keys, None, None, cap)
            mean = float(samples.mean())
            if best is None or mean > best[0]:
                best = (mean, s_local, samples)
        _, s_local, samples = best
        return _make_estimate(
            quantity, "worst_over_all_starts", samples, trials, master_seed,
            keep_samples, start=component.to_original(s_local),
        )

    if start_policy == "stationary":
        starts = _stationary_starts(g, keys)
        samples = _run_batch(g, quantity, starts, keys, None, None, cap)
        return _make_estimate(
            quantity, "stationary", samples, trials, master_seed, keep_samples,
        )

    if start_policy != "fixed":
        raise ContractViolation(f"unknown start_policy {start_policy!r}")
    if start is None:
        raise ContractViolation("fixed start_policy requires start")
    s_local = component.to_local(start)
    starts = np.full(trials, s_local, dtype=np.int64)
    samples = _run_batch(g, quantity, starts, keys, None, None, cap)
    return _make_estimate(
        quantity, f"fixed({start})", samples, trials, master_seed, keep_samples,
        start=start,
    )


def worst_start_heuristic(
    component: ComponentView,
    quantity: str = "cover",
    *,
    trials: int = 1000,
    master_seed: int = 0,
    keep_samples: bool = True,
    step_cap: int | None = None,
) -> WalkEstimate:
    """Heuristic stand-in for worst_over_all_starts on large components:
    run the trial set from both endpoints of the resistance-diameter pair
    and report the larger mean. Always a lower bound on the worst-start
    value, and labeled as such in the policy string."""
    if quantity not in ("cover", "cover_return", "blanket"):
        raise ContractViolation("worst-start heuristic applies to cover-type quantities")
    diam = resistance_diameter(ResistanceOracle(component))
    best = None
    for start in sorted(set(diam.pair)):
        est = simulate(
            component, quantity, start_policy="fixed", start=start,
            trials=trials, master_seed=master_seed, keep_samples=keep_samples,
            step_cap=step_cap,
        )
        if best is None or est.mean > best.mean:
            best = est
    best.start_policy = f"diameter_endpoint_max({best.start}); heuristic lower bound on worst start"
    return best


def _make_estimate(quantity, policy, samples, trials, master_seed, keep, **extra):
    mean = float(samples.mean())
    std_err = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return WalkEstimate(
        quantity=quantity,
        start_policy=policy,
        mean=mean,
        std_err=std_err,
        trials=trials,
        master_seed=master_seed,
        samples=samples if keep else None,
        **extra,
    )


# ---------------------------------------------------------------------------
# exact cover-time oracle


def exact_cover_times(component: ComponentView) -> np.ndarray:
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
    g = component.graph
    a = component.to_local(u)
    b = component.to_local(v)
    d_u = g.degree(a)
    d_v = g.degree(b)
    target = max(1, math.ceil(k_level * d_u - 1e-9))
    cap = step_cap if step_cap is not None else _default_cap(component) * max(1, target)
    keys = trial_keys(master_seed, trials)
    cv = _tail_vector(g, keys, a, b, target, cap)
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
    g = component.graph
    offsets, flat, degs = g.walk_tables_py()
    k = g.vertex_count
    cps = tuple(sorted(int(c) for c in checkpoints))
    if cps and cps[0] < 0:
        raise ContractViolation("checkpoints must be >= 0")
    key = int(trial_keys(master_seed, trial + 1)[-1])
    counts = np.zeros(k, dtype=np.int64)
    pos = component.to_local(start)
    counts[pos] += 1
    out = np.zeros((len(cps), k), dtype=np.int64)
    t = 0
    cp_iter = 0
    while cp_iter < len(cps) and cps[cp_iter] == 0:
        out[cp_iter] = counts
        cp_iter += 1
    while cp_iter < len(cps):
        for r in stream_chunk(key, t, _CHUNK).tolist():
            pos = flat[offsets[pos] + r % degs[pos]]
            t += 1
            counts[pos] += 1
            while cp_iter < len(cps) and cps[cp_iter] == t:
                out[cp_iter] = counts
                cp_iter += 1
            if cp_iter == len(cps):
                break
    return LocalTimeTrace(cps, out, g.degrees.copy())
