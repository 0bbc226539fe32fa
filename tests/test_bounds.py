import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from covertime import (
    ComponentView,
    ContractViolation,
    CoveringLevel,
    CoveringProfile,
    MultiGraph,
    ResistanceOracle,
    compute_bound_report,
    cycle_graph,
    default_matthews_sets,
    exact_cover_time_worst,
    greedy_packing,
    matthews_from_oracle,
    path_graph,
    psi_bound,
    resistance_diameter,
)
from covertime.bounds import LEVEL_HARD_CAP, ball_radius
from covertime.resistance import DENSE_LIMIT


def pipeline(g: MultiGraph):
    comp = ComponentView.whole(g)
    oracle = ResistanceOracle(comp)
    diam = resistance_diameter(oracle)
    profile = greedy_packing(oracle, diam.value)
    return comp, oracle, diam, profile


class TestGreedyPacking:
    def test_single_vertex(self):
        comp = ComponentView.whole(MultiGraph(1))
        profile = greedy_packing(ResistanceOracle(comp), 0.0)
        assert all(lvl.size == 1 and lvl.alpha == 0.0 for lvl in profile.levels)

    def test_cycle8_level_sizes(self):
        _, _, _, profile = pipeline(cycle_graph(8))
        # packing radius 1/2 leaves singleton balls, so every vertex packs
        assert profile.level(1).size == 8
        assert profile.level(0).size == 2

    def test_p5_level_zero_single_center(self):
        _, _, _, profile = pipeline(path_graph(5))
        assert profile.level(0).size == 1
        assert profile.level(1).size == 2

    def test_sizes_nondecreasing(self):
        for g in (cycle_graph(11), path_graph(13), oc.random_connected_multigraph(
                np.random.default_rng(3), 12, extra_edges=6, loops=2)):
            _, _, _, profile = pipeline(g)
            sizes = [lvl.size for lvl in profile.levels]
            assert sizes == sorted(sizes)

    def test_packing_balls_disjoint_and_covering(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            g = oc.random_connected_multigraph(rng, int(rng.integers(3, 12)),
                                               extra_edges=int(rng.integers(0, 8)))
            comp, oracle, diam, profile = pipeline(g)
            R = np.array([oracle.resistances_from(u) for u in comp.vertices])
            for lvl in profile.levels:
                centers = [comp.to_local(c) for c in lvl.centers]
                pack_rad = ball_radius(lvl.radius / 2)
                balls = [set(np.flatnonzero(R[c] <= pack_rad).tolist()) for c in centers]
                for i in range(len(balls)):
                    for j in range(i + 1, len(balls)):
                        assert not balls[i] & balls[j]
                cover_rad = ball_radius(lvl.radius)
                covered = set()
                for c in centers:
                    covered |= set(np.flatnonzero(R[c] <= cover_rad).tolist())
                assert covered == set(range(g.vertex_count))

    def test_remark_sandwich_against_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = oc.random_connected_multigraph(rng, int(rng.integers(3, 9)),
                                               extra_edges=int(rng.integers(0, 5)))
            comp, oracle, diam, profile = pipeline(g)
            R = oc.resistance_matrix_pinv(g)
            for lvl in profile.levels:
                if lvl.index == 0:
                    continue
                min_cover = oc.minimal_cover_size(R, diam.value / 2 ** lvl.index)
                assert profile.level(lvl.index - 1).size <= min_cover <= lvl.size

    def test_explicit_i_max(self):
        comp, oracle, _, _ = pipeline(path_graph(9))
        profile = greedy_packing(oracle, 8.0, i_max=3)
        assert profile.truncation_level == 3
        assert [lvl.index for lvl in profile.levels] == [0, 1, 2, 3]

    def test_sqrt_sum_sandwich(self):
        # the sum of sqrt(true covering alphas) over levels 1..i_max is
        # trapped between 1/sqrt(2) times the packing sum over levels
        # 0..i_max-1 (the certified shift) and the packing sum over 1..i_max
        rng = np.random.default_rng(13)
        for _ in range(6):
            g = oc.random_connected_multigraph(rng, int(rng.integers(3, 9)),
                                               extra_edges=int(rng.integers(0, 4)))
            comp, oracle, diam, profile = pipeline(g)
            R = oc.resistance_matrix_pinv(g)
            true_sum = 0.0
            pack_sum = 0.0
            shifted_sum = 0.0
            for lvl in profile.levels:
                if lvl.index < profile.truncation_level:
                    shifted_sum += math.sqrt(max(lvl.alpha, 0.0))
                if lvl.index == 0:
                    continue
                min_cover = oc.minimal_cover_size(R, diam.value / 2 ** lvl.index)
                true_sum += math.sqrt(2.0 ** -lvl.index * math.log(min_cover))
                pack_sum += math.sqrt(max(lvl.alpha, 0.0))
            assert shifted_sum / math.sqrt(2) <= true_sum + 1e-9
            assert true_sum <= pack_sum + 1e-9


def _profiles(g: MultiGraph, limit: int, i_max: int | None):
    """The one-pass profile and the per-level reference on one oracle."""
    oracle = oc.swept_oracle(ComponentView.whole(g), limit)
    R = resistance_diameter(oracle).value
    return greedy_packing(oracle, R, i_max), oc.greedy_packing_per_level(oracle, R, i_max)


def _assert_matches_reference(g: MultiGraph, limit: int, i_max: int | None):
    got, want = _profiles(g, limit, i_max)
    # levels (index, radius, centers, size, alpha) and the truncation level
    assert got == want
    if i_max is None and got.truncation_level < LEVEL_HARD_CAP:
        assert got.levels[-1].size == g.vertex_count


@st.composite
def connected_multigraphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return oc.random_connected_multigraph(
        rng, draw(st.integers(1, 14)), extra_edges=draw(st.integers(0, 10)),
        loops=draw(st.integers(0, 3)), max_multiplicity=draw(st.integers(1, 3)),
    )


@given(connected_multigraphs(), st.sampled_from([DENSE_LIMIT, 1]),
       st.sampled_from([None, 1, 2, 6]))
@settings(max_examples=80, deadline=None)
def test_one_pass_matches_per_level_reference(g, limit, i_max):
    _assert_matches_reference(g, limit, i_max)


@pytest.mark.parametrize("g", [path_graph(n) for n in (2, 3, 5, 9, 17, 33, 64)]
                         + [cycle_graph(n) for n in (3, 4, 6, 8, 12, 16, 24)],
                         ids=lambda g: f"{g.vertex_count}v{g.edge_total}e")
@pytest.mark.parametrize("limit", [DENSE_LIMIT, 1])
@pytest.mark.parametrize("i_max", [None, 7])
def test_one_pass_matches_reference_at_ties(g, limit, i_max):
    # path radii hit integers and cycle radii rationals at the ball boundary
    _assert_matches_reference(g, limit, i_max)


@pytest.mark.parametrize("limit,want_reads", [(DENSE_LIMIT, []), (1, [])])
def test_full_levels_skip_the_ball_test(monkeypatch, limit, want_reads):
    # in K8 every pair is 1/4 apart, above every level's ball radius (at most
    # R/2 = 1/8), so each level holds every vertex; in either mode no row is
    # read for them, as every row carries the bits of the separation
    g = MultiGraph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    oracle = oc.swept_oracle(ComponentView.whole(g), limit)
    R = resistance_diameter(oracle).value
    want = oc.greedy_packing_per_level(oracle, R, 3)
    reads = []
    read = oracle.resistances_from_local
    monkeypatch.setattr(oracle, "resistances_from_local", lambda v: reads.append(v) or read(v))
    got = greedy_packing(oracle, R, 3)
    assert got == want
    assert [lvl.size for lvl in got.levels] == [8] * 4
    assert reads == want_reads


def test_depth_capped_when_a_pair_stays_inside_every_ball():
    # a 2^45-fold edge puts its ends 2^-45 apart, inside the ball of every
    # level up to the cap
    g = MultiGraph(3, [(0, 1, 1), (1, 2, 2 ** 45)])
    got, want = _profiles(g, DENSE_LIMIT, None)
    assert got == want
    assert got.truncation_level == LEVEL_HARD_CAP
    assert got.levels[-1].size == 2


def _rows_requested(monkeypatch, oracle: ResistanceOracle) -> list[int]:
    """Local ids of the rows requested from the oracle from now on; a call
    made inside another row method is not counted twice."""
    reads: list[int] = []
    busy = []

    def wrap(name, ids):
        inner = getattr(oracle, name)

        def call(arg):
            if not busy:
                reads.extend(ids(arg))
            busy.append(name)
            try:
                return inner(arg)
            finally:
                busy.pop()
        monkeypatch.setattr(oracle, name, call)

    wrap("resistances_from_local", lambda a: [int(a)])
    wrap("rows_from_locals", lambda locals_: [int(a) for a in locals_])
    return reads


@pytest.mark.parametrize("limit", [DENSE_LIMIT, 1])
def test_packing_reads_each_row_at_most_once(monkeypatch, limit):
    oracle = oc.swept_oracle(ComponentView.whole(path_graph(64)), limit)
    R = resistance_diameter(oracle).value
    reads = _rows_requested(monkeypatch, oracle)
    oc.greedy_packing_per_level(oracle, R)
    assert len(reads) > len(set(reads))   # one pass per level reads rows again
    reads.clear()
    greedy_packing(oracle, R)
    assert len(reads) == len(set(reads))
    assert set(reads) <= set(range(64))


class TestPsiBound:
    def test_k2_sandwich(self):
        g = MultiGraph(2, [(0, 1)])
        comp, oracle, diam, profile = pipeline(g)
        report = psi_bound(profile, g.edge_total)
        assert report.kklv_lower <= 1.0 <= report.upper_theorem

    def test_cycle8_sandwich(self):
        g = cycle_graph(8)
        comp, oracle, diam, profile = pipeline(g)
        report = psi_bound(profile, g.edge_total)
        t_cov = exact_cover_time_worst(comp)
        assert t_cov == pytest.approx(28.0, abs=1e-9)
        assert report.kklv_lower <= t_cov <= report.upper_theorem

    def test_path_upper_clean_band(self):
        # cover time of a path is Theta(L^2) = Theta(R |E|), so the
        # constant-free statistic per R|E| stays in a fixed band as L
        # doubles; the truncation depth log2(ln k) gains a level at k=65,
        # which steps the ratio once without breaking the band
        ratios = []
        for L in (16, 32, 64, 128, 256):
            g = path_graph(L + 1)
            comp, oracle, diam, profile = pipeline(g)
            report = psi_bound(profile, g.edge_total)
            ratios.append(report.upper_clean / (diam.value * g.edge_total))
        assert max(ratios) / min(ratios) < 3.0

    def test_empty_profile_rejected(self):
        with pytest.raises(ContractViolation):
            psi_bound(CoveringProfile(R=1.0, vertex_count=2, levels=[], truncation_level=0), 1)

    def test_kklv_below_upper_always(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = oc.random_connected_multigraph(rng, int(rng.integers(2, 14)),
                                               extra_edges=int(rng.integers(0, 9)),
                                               loops=int(rng.integers(0, 3)))
            comp, oracle, diam, profile = pipeline(g)
            report = psi_bound(profile, g.edge_total)
            assert report.kklv_lower <= report.upper_theorem
            assert report.matthews_lower is None

    def test_psi_monotone_in_alpha(self):
        def synthetic(sizes):
            levels = [
                CoveringLevel(index=i, radius=2.0 ** -i, centers=tuple(range(s)),
                              size=s, alpha=2.0 ** -i * math.log(s))
                for i, s in enumerate(sizes)
            ]
            return CoveringProfile(R=1.0, vertex_count=max(sizes), levels=levels,
                                   truncation_level=len(sizes) - 1)

        base = psi_bound(synthetic([1, 4, 16, 64]), 10).psi
        shrunk = psi_bound(synthetic([1, 4, 8, 64]), 10).psi
        assert shrunk <= base

    def test_report_json_schema(self):
        g = cycle_graph(6)
        report = compute_bound_report(ComponentView.whole(g))
        d = report.to_dict()
        assert set(d) == {"R", "levels", "psi", "upper_theorem",
                          "upper_clean", "kklv_lower", "matthews_lower"}
        assert all(set(lvl) == {"i", "radius", "size", "alpha"} for lvl in d["levels"])


class TestMatthews:
    def test_p3_pair(self):
        g = path_graph(3)
        comp = ComponentView.whole(g)
        hm = oc.HittingMatrix.from_component(comp)
        val, best = oc.matthews_lower(hm, [(0, 2)])
        assert val == pytest.approx(math.log(2) * 4.0, rel=1e-9)
        assert best == (0, 2)
        assert val <= 5.0  # worst-start cover time of the path

    def test_k2(self):
        g = MultiGraph(2, [(0, 1)])
        hm = oc.HittingMatrix.from_component(ComponentView.whole(g))
        val, _ = oc.matthews_lower(hm, [(0, 1)])
        assert val == pytest.approx(math.log(2), rel=1e-9)
        assert val <= 1.0

    def test_lower_bounds_exact_cover(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = oc.random_connected_multigraph(rng, int(rng.integers(2, 13)),
                                               extra_edges=int(rng.integers(0, 7)),
                                               loops=int(rng.integers(0, 2)))
            comp = ComponentView.whole(g)
            oracle = ResistanceOracle(comp)
            hm = oc.HittingMatrix.from_component(comp)
            sets = [tuple(range(g.vertex_count))]
            diam = resistance_diameter(oracle)
            if diam.pair[0] != diam.pair[1]:
                sets.append(diam.pair)
            val, _ = oc.matthews_lower(hm, sets)
            assert val <= exact_cover_time_worst(comp) + 1e-9

    def test_oracle_path_matches_matrix_path(self):
        rng = np.random.default_rng(31)
        g = oc.random_connected_multigraph(rng, 11, extra_edges=7, loops=1)
        comp = ComponentView.whole(g)
        oracle = ResistanceOracle(comp)
        diam = resistance_diameter(oracle)
        profile = greedy_packing(oracle, diam.value)
        sets = default_matthews_sets(profile, diam.pair)
        hm = oc.HittingMatrix.from_component(comp)
        v1, s1 = oc.matthews_lower(hm, sets)
        v2, s2 = matthews_from_oracle(oracle, sets)
        assert v1 == pytest.approx(v2, rel=1e-9)
        assert s1 == s2

    def test_no_valid_set_rejected(self):
        g = MultiGraph(2, [(0, 1)])
        hm = oc.HittingMatrix.from_component(ComponentView.whole(g))
        with pytest.raises(ContractViolation):
            oc.matthews_lower(hm, [(0,)])


@st.composite
def matthews_cases(draw):
    """A connected multigraph with loops on up to 200 vertices and 1 to 4
    candidate sets of any size from 2 to k, so that sets reach past one and
    two blocks of rows, and most sizes are not a multiple of the block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 200))
    g = oc.random_connected_multigraph(
        rng, n, extra_edges=draw(st.integers(0, n)), loops=draw(st.integers(0, 5)),
        max_multiplicity=draw(st.integers(1, 3)),
    )
    sizes = draw(st.lists(st.integers(2, n), min_size=1, max_size=4))
    return g, [tuple(rng.choice(n, size, replace=False).tolist()) for size in sizes]


@given(matthews_cases(), st.sampled_from([DENSE_LIMIT, 1]))
@settings(max_examples=60, deadline=None)
def test_blocked_matthews_matches_unblocked(case, limit):
    g, sets = case
    oracle = oc.swept_oracle(ComponentView.whole(g), limit)
    assert matthews_from_oracle(oracle, sets) == oc.matthews_from_oracle_unblocked(oracle, sets)


@pytest.mark.parametrize("limit", [DENSE_LIMIT, 1])
def test_blocked_matthews_at_block_edges(limit):
    rng = np.random.default_rng(41)
    g = oc.random_connected_multigraph(rng, 300, extra_edges=150, loops=6, max_multiplicity=3)
    oracle = oc.swept_oracle(ComponentView.whole(g), limit)
    sets = [tuple(rng.choice(300, size, replace=False).tolist())
            for size in (2, 63, 64, 65, 128, 129, 300)]
    for cand in sets:
        assert (matthews_from_oracle(oracle, [cand])
                == oc.matthews_from_oracle_unblocked(oracle, [cand]))
    assert matthews_from_oracle(oracle, sets) == oc.matthews_from_oracle_unblocked(oracle, sets)


class TestOrderingChain:
    def test_full_sandwich_small_graphs(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            g = oc.random_connected_multigraph(rng, int(rng.integers(2, 12)),
                                               extra_edges=int(rng.integers(0, 6)),
                                               loops=int(rng.integers(0, 2)))
            comp = ComponentView.whole(g)
            report = compute_bound_report(comp)
            t_cov = exact_cover_time_worst(comp)
            lower = max(report.kklv_lower, report.matthews_lower)
            assert report.kklv_lower <= lower <= t_cov + 1e-9 <= report.upper_theorem
