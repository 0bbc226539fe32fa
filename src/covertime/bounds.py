"""Dyadic resistance-ball covering profiles and cover-time bounds.

A covering profile holds, for each dyadic level i, a greedily grown
maximal family of centers whose resistance balls of radius R/2^(i+1) are
pairwise disjoint. Maximality makes the radius-R/2^i balls around the
same centers a cover, which sandwiches the (NP-hard) minimal covering
numbers from both sides:

    |centers at level i-1|  <=  minimal cover count at level i  <=  |centers at level i|

One pass over the vertices grows every level, reading each resistance row
at most once, to a depth fixed before the pass from the smallest resistance
between two vertices.

From the level sizes the module derives an explicit upper bound on the
worst-start expected cover time, a certified covering-number lower bound,
and the Matthews hitting-time lower bound. ``compute_bound_report`` runs
these stages on one component.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import blas
from .errors import ContractViolation
from .graphs import ComponentView
from .resistance import BALL_ATOL, BALL_RTOL, ResistanceOracle, resistance_diameter

LEVEL_HARD_CAP = 40
# largest packing level offered to Matthews as a candidate set; each
# candidate costs its |A| x |A| block of resistances
MATTHEWS_SET_CAP = 2048
# candidate rows read at a time by matthews_from_oracle
_MATTHEWS_BLOCK = 64


def ball_radius(radius: float) -> float:
    return radius * (1.0 + BALL_RTOL) + BALL_ATOL


@dataclass(frozen=True)
class CoveringLevel:
    index: int
    radius: float          # covering radius R / 2^index
    centers: tuple[int, ...]  # original vertex ids, ascending
    size: int
    alpha: float           # 2^-index * ln(size)

    def to_dict(self) -> dict:
        return {
            "i": self.index,
            "radius": float(self.radius),
            "size": int(self.size),
            "alpha": float(self.alpha),
        }


@dataclass
class CoveringProfile:
    R: float
    vertex_count: int
    levels: list[CoveringLevel]   # indices 0..truncation_level
    truncation_level: int

    def level(self, index: int) -> CoveringLevel:
        return self.levels[index]


@dataclass
class BoundReport:
    """Itemized cover-time bounds for one component, in walk steps."""

    R: float
    levels: list[CoveringLevel]
    psi: float
    upper_theorem: float   # 6 * psi * R * |E|
    upper_clean: float     # constant-free scaling statistic
    kklv_lower: float      # certified covering-number lower bound
    matthews_lower: float | None = None
    # original ids of the resistance-diameter pair; kept out of to_dict so
    # the report bytes carry only bounds
    diameter_pair: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "R": float(self.R),
            "levels": [lvl.to_dict() for lvl in self.levels],
            "psi": float(self.psi),
            "upper_theorem": float(self.upper_theorem),
            "upper_clean": float(self.upper_clean),
            "kklv_lower": float(self.kklv_lower),
            "matthews_lower": None if self.matthews_lower is None else float(self.matthews_lower),
        }


def required_levels(vertex_count: int) -> int:
    """Smallest level index the upper-bound sum must reach: log2(ln k)."""
    if vertex_count < 3:
        return 1
    return max(1, math.ceil(math.log2(math.log(vertex_count))))


def greedy_packing(
    oracle: ResistanceOracle,
    R: float,
    i_max: int | None = None,
) -> CoveringProfile:
    """Covering profile with one greedy packing per dyadic level.

    Level i grows closed balls of radius R/2^(i+1) in ascending id order,
    admitting a candidate iff its ball misses the balls that level already
    claimed. Level 0 is included so that every level's covering count carries
    a certified lower bound from the previous packing. With i_max unset, the
    depth is the first level from required_levels(k) on whose ball radius is
    below the oracle's separation, so every vertex is a center; at most 40.
    Each level depends only on its own claimed mask, so one pass fills them
    all and reads a vertex's row once, if some tested level has not claimed
    it. A level whose ball radius is below the separation takes every vertex
    untested.
    """
    comp = oracle.component
    k = oracle.size
    if R < 0:
        raise ContractViolation("resistance diameter must be >= 0")
    if i_max is not None and i_max < 1:
        raise ContractViolation("i_max must be >= 1")
    if i_max is None:
        i_max = next((i for i in range(required_levels(k), LEVEL_HARD_CAP)
                      if oracle.separation > ball_radius(R / 2.0 ** (i + 1))),
                     LEVEL_HARD_CAP)
    radii = [ball_radius(R / 2.0 ** (i + 1)) for i in range(i_max + 1)]
    # a level whose ball radius is below the separation holds every vertex:
    # every row carries the bits the separation was read from
    tested = next((i for i, rad in enumerate(radii) if oracle.separation > rad), len(radii))
    # per tested level: the ball radius, the claimed mask and the centers so far
    packings = [(rad, np.zeros(k, dtype=bool), []) for rad in radii[:tested]]
    for v in range(k):
        unclaimed = [level for level in packings if not level[1][v]]
        row = oracle.resistances_from_local(v) if unclaimed else None
        for rad, claimed, centers in unclaimed:
            ball = row <= rad
            if not (claimed & ball).any():
                centers.append(v)
                claimed |= ball
    per_level = [centers for _, _, centers in packings] + [range(k)] * (len(radii) - tested)
    levels = [
        CoveringLevel(
            index=i,
            radius=R / 2.0 ** i,
            centers=tuple(comp.to_original(c) for c in centers),
            size=len(centers),
            alpha=2.0 ** (-i) * math.log(len(centers)),
        )
        for i, centers in enumerate(per_level)
    ]
    return CoveringProfile(R=float(R), vertex_count=k, levels=levels, truncation_level=i_max)


_TAIL_RATE = 2.0 ** -0.25  # per-level factor of the analytic sqrt(alpha') tail


def psi_bound(profile: CoveringProfile, edge_count: int) -> BoundReport:
    """Bounds from a covering profile. The Matthews field is left unset.

    psi = 128 * (sum_i sqrt(max(alpha_i, 2^-i/2)))^2 where the sum runs
    over levels 1..truncation plus the closed-form geometric tail of the
    2^-i/2 floor; the upper bound is 6 * psi * R * |E|. upper_clean is the
    constant-free (sum of sqrt(alpha_i) up to log2(ln k))^2 * R * |E|.
    The certified lower bound shifts each packing size one level down:
    the minimal covering count at level i+1 is at least the packing size
    at level i, so max_i 2^-(i+1) * ln(size_i) * R * |E| never exceeds the
    true covering-number lower bound.
    """
    if not profile.levels:
        raise ContractViolation("empty covering profile")
    if edge_count < 0:
        raise ContractViolation("edge_count must be >= 0")
    # edge_count 0 only happens for a loopless single vertex; every
    # step-valued bound is then legitimately 0
    R = profile.R
    i_max = profile.truncation_level
    s_theorem = 0.0
    for lvl in profile.levels:
        if lvl.index == 0:
            continue
        alpha_floor = max(lvl.alpha, 2.0 ** (-lvl.index / 2.0))
        s_theorem += math.sqrt(alpha_floor)
    tail = _TAIL_RATE ** (i_max + 1) / (1.0 - _TAIL_RATE)
    psi = 128.0 * (s_theorem + tail) ** 2
    upper_theorem = 6.0 * psi * R * edge_count

    i_clean = min(required_levels(profile.vertex_count), i_max)
    s_clean = sum(
        math.sqrt(lvl.alpha) for lvl in profile.levels if 1 <= lvl.index <= i_clean
    )
    upper_clean = (s_clean ** 2) * R * edge_count

    kklv = 0.0
    for lvl in profile.levels:
        kklv = max(kklv, 0.5 * lvl.alpha)
    kklv_lower = kklv * R * edge_count

    return BoundReport(
        R=R,
        levels=list(profile.levels),
        psi=psi,
        upper_theorem=upper_theorem,
        upper_clean=upper_clean,
        kklv_lower=kklv_lower,
    )


def _dedupe_sets(candidate_sets: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for cand in candidate_sets:
        key = tuple(sorted(set(int(x) for x in cand)))
        if len(key) < 2 or key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def matthews_from_oracle(
    oracle: ResistanceOracle,
    candidate_sets: Iterable[Sequence[int]],
) -> tuple[float, tuple[int, ...]]:
    """max over candidate sets A of ln|A| * min_{u != v in A} E_u[tau_v].

    Every candidate yields a valid lower bound on the worst-start cover
    time; the best one is returned together with its set. All-pairs hitting
    times are never materialized: within one candidate set,
    E_u[tau_v] = |E| R(u,v) + (S_v - S_u)/2 with S_x = sum_w d_w R(x, w),
    so only the candidate rows of the resistance matrix are needed. They are
    read ``_MATTHEWS_BLOCK`` at a time, and only their |A| x |A| block Rp is
    kept, so the set costs Rp and one block of rows."""
    sets = _dedupe_sets(candidate_sets)
    if not sets:
        raise ContractViolation("matthews needs a candidate set with >= 2 vertices")
    comp = oracle.component
    degs = oracle.degrees_local()
    E = oracle.edge_total
    best_val = -1.0
    best_set: tuple[int, ...] = ()
    for cand in sets:
        locs = np.array([comp.to_local(x) for x in cand], dtype=np.intp)
        n = locs.size
        S = np.empty(n, dtype=np.float64)
        Rp = np.empty((n, n), dtype=np.float64)
        for start in range(0, n, _MATTHEWS_BLOCK):
            stop = min(start + _MATTHEWS_BLOCK, n)
            rows = oracle.rows_from_locals(locs[start:stop])
            with blas.single_thread():  # a long gemv rounds by thread count
                S[start:stop] = rows @ degs
            Rp[start:stop] = rows[:, locs]
        h_min = np.inf
        for start in range(0, n, _MATTHEWS_BLOCK):
            stop = min(start + _MATTHEWS_BLOCK, n)
            H = E * Rp[start:stop] + 0.5 * (S[None, :] - S[start:stop, None])
            H[np.arange(stop - start), np.arange(start, stop)] = np.inf
            h_min = min(h_min, float(H.min()))
        val = math.log(n) * h_min
        if val > best_val:
            best_val = val
            best_set = cand
    return best_val, best_set


def default_matthews_sets(
    profile: CoveringProfile,
    diameter_pair: tuple[int, int] | None,
) -> list[tuple[int, ...]]:
    """Default Matthews candidates: every packing level's center set of 2 to
    ``MATTHEWS_SET_CAP`` centers plus the resistance-diameter pair."""
    sets: list[tuple[int, ...]] = [
        lvl.centers for lvl in profile.levels if 2 <= lvl.size <= MATTHEWS_SET_CAP
    ]
    if diameter_pair is not None and diameter_pair[0] != diameter_pair[1]:
        sets.append(tuple(diameter_pair))
    return sets


def compute_bound_report(
    component: ComponentView,
    *,
    i_max: int | None = None,
) -> BoundReport:
    """Full bound pipeline: oracle, diameter, packing, bounds, Matthews."""
    oracle = ResistanceOracle(component)
    diam = resistance_diameter(oracle)
    profile = greedy_packing(oracle, diam.value, i_max=i_max)
    report = psi_bound(profile, component.graph.edge_total)
    report.diameter_pair = diam.pair
    if component.size >= 2:
        sets = default_matthews_sets(profile, diam.pair)
        report.matthews_lower = matthews_from_oracle(oracle, sets)[0]
    else:
        report.matthews_lower = 0.0
    return report
