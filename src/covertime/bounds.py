"""Dyadic resistance-ball covering profiles and cover-time bounds.

A covering profile holds, for each dyadic level i, a greedily grown
maximal family of centers whose resistance balls of radius R/2^(i+1) are
pairwise disjoint. Maximality makes the radius-R/2^i balls around the
same centers a cover, which sandwiches the (NP-hard) minimal covering
numbers from both sides:

    |centers at level i-1|  <=  minimal cover count at level i  <=  |centers at level i|

From the level sizes the module derives an explicit upper bound on the
worst-start expected cover time, a certified covering-number lower bound,
and the Matthews hitting-time lower bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation
from .resistance import BALL_ATOL, BALL_RTOL, ResistanceOracle

LEVEL_HARD_CAP = 40
# largest packing level offered to Matthews as a candidate set; each
# candidate costs a |A| x k block of resistance rows
MATTHEWS_SET_CAP = 2048


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

    def alphas(self) -> dict[int, float]:
        return {lvl.index: lvl.alpha for lvl in self.levels}


@dataclass
class BoundReport:
    """Itemized cover-time bounds for one component, in walk steps."""

    R: float
    r_provenance: dict
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
            "R_provenance": self.r_provenance,
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


def _greedy_level_centers(oracle: ResistanceOracle, radius: float) -> list[int]:
    """Maximal family of local ids whose closed balls of the given radius
    are pairwise disjoint, grown in ascending id order.

    A candidate is admitted iff its ball misses the union of the balls
    already claimed: a vertex inside any existing ball would witness an
    intersection, including the candidate itself once claimed.
    """
    k = oracle.size
    rad = ball_radius(radius)
    claimed = np.zeros(k, dtype=bool)
    centers: list[int] = []
    for v in range(k):
        if claimed[v]:
            continue
        row = oracle.resistances_from_local(v)
        ball = row <= rad
        if not bool(np.any(claimed & ball)):
            centers.append(v)
            claimed |= ball
    return centers


def greedy_packing(
    oracle: ResistanceOracle,
    R: float,
    i_max: int | None = None,
) -> CoveringProfile:
    """Covering profile with one greedy packing per dyadic level.

    Level i packs balls of radius R/2^(i+1); level 0 is included so that
    every level's covering count carries a certified lower bound from the
    previous packing. With i_max unset, levels are generated adaptively:
    at least up to required_levels(k), stopping once every vertex is a
    center (all deeper levels then equal the whole vertex set) or at the
    hard cap of 40.
    """
    comp = oracle.component
    k = oracle.size
    if R < 0:
        raise ContractViolation("resistance diameter must be >= 0")
    if i_max is not None and i_max < 1:
        raise ContractViolation("i_max must be >= 1")
    need = i_max if i_max is not None else required_levels(k)
    levels: list[CoveringLevel] = []
    i = 0
    while True:
        if levels and levels[-1].size == k:
            centers = list(range(k))
        else:
            centers = _greedy_level_centers(oracle, R / 2.0 ** (i + 1))
        size = len(centers)
        levels.append(
            CoveringLevel(
                index=i,
                radius=R / 2.0 ** i,
                centers=tuple(comp.to_original(c) for c in centers),
                size=size,
                alpha=2.0 ** (-i) * math.log(size),
            )
        )
        if i >= need and (i_max is not None or size == k or i >= LEVEL_HARD_CAP):
            break
        i += 1
    return CoveringProfile(R=float(R), vertex_count=k, levels=levels, truncation_level=i)


_TAIL_RATE = 2.0 ** -0.25  # per-level factor of the analytic sqrt(alpha') tail


def psi_bound(
    profile: CoveringProfile,
    edge_count: int,
    r_provenance: dict | None = None,
) -> BoundReport:
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
        r_provenance=r_provenance if r_provenance is not None else {"mode": "exact"},
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
    so only the candidate rows of the resistance matrix are needed."""
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
        S = rows @ degs
        Rp = rows[:, locs]
        H = E * Rp + 0.5 * (S[None, :] - S[:, None])
        np.fill_diagonal(H, np.inf)
        val = math.log(len(cand)) * float(H.min())
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
