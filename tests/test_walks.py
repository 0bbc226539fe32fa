import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as oc
from covertime import (
    ComponentView,
    ContractViolation,
    MultiGraph,
    ResistanceOracle,
    StepLimitExceeded,
    complete_graph,
    connected_components,
    cycle_graph,
    exact_cover_time,
    exact_cover_time_worst,
    exact_cover_times,
    hitting_time,
    local_time_tail_check,
    path_graph,
    simulate,
    star_graph,
    trace_local_times,
    uniform_labeled_tree,
)
from covertime import errors, forkmap, graphs, walks
from covertime.rng import trial_key, trial_keys


def comp(g: MultiGraph) -> ComponentView:
    return ComponentView.whole(g)


class TestExactCoverTime:
    def test_complete_graphs_coupon_collector(self):
        for n in range(3, 9):
            got = exact_cover_time(comp(complete_graph(n)), 0)
            assert got == pytest.approx(oc.coupon_collector_cover(n), abs=1e-9)

    def test_cycles(self):
        for n in range(3, 11):
            got = exact_cover_time(comp(cycle_graph(n)), 0)
            assert got == pytest.approx(oc.cycle_cover(n), abs=1e-9)

    def test_p3_from_middle(self):
        assert exact_cover_time(comp(path_graph(3)), 1) == pytest.approx(5.0, abs=1e-12)
        assert exact_cover_time_worst(comp(path_graph(3))) == pytest.approx(5.0, abs=1e-12)

    def test_single_vertex(self):
        assert exact_cover_time(comp(MultiGraph(1)), 0) == 0.0
        assert np.array_equal(exact_cover_times(comp(MultiGraph(1))), [0.0])

    def test_too_large_rejected(self):
        with pytest.raises(ContractViolation):
            exact_cover_times(comp(path_graph(walks.EXACT_DP_LIMIT + 1)))

    @pytest.mark.parametrize("block", [walks._DP_BLOCK, 7])
    @pytest.mark.parametrize("g", [cycle_graph(12), complete_graph(12)], ids=["cycle12", "complete12"])
    def test_table_matches_per_mask_bitwise(self, g, block, monkeypatch):
        monkeypatch.setattr(walks, "_DP_BLOCK", block)
        assert np.array_equal(exact_cover_times(comp(g)), oc.exact_cover_times_per_mask(comp(g)))

    def test_loops_slow_cover(self):
        # a loop at the start wastes steps but covers eventually
        plain = exact_cover_time(comp(MultiGraph(2, [(0, 1)])), 0)
        loopy = exact_cover_time(comp(MultiGraph(2, [(0, 1), (0, 0)])), 0)
        assert plain == pytest.approx(1.0)
        assert loopy == pytest.approx(3.0)  # Geom(1/3) tries to leave 0


@st.composite
def small_connected_multigraphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 10))
    return oc.random_connected_multigraph(
        rng, n, extra_edges=draw(st.integers(0, 12)), loops=draw(st.integers(0, 3)),
        max_multiplicity=draw(st.integers(1, 3)),
    )


@given(small_connected_multigraphs())
@settings(max_examples=40, deadline=None)
def test_table_matches_per_mask(g):
    assert np.array_equal(exact_cover_times(comp(g)), oc.exact_cover_times_per_mask(comp(g)))


class TestSimulateCover:
    def test_k2_deterministic(self):
        est = simulate(comp(MultiGraph(2, [(0, 1)])), "cover",
                       start_policy="fixed", start=0, trials=300, master_seed=1)
        assert (est.samples == 1).all()
        assert est.mean == 1.0 and est.std_err == 0.0

    def test_c4_matches_exact(self):
        est = simulate(comp(cycle_graph(4)), "cover",
                       start_policy="fixed", start=0, trials=20000, master_seed=5)
        assert abs(est.mean - 6.0) <= 3 * est.std_err

    def test_worst_start_p3(self):
        est = simulate(comp(path_graph(3)), "cover",
                       start_policy="worst_over_all_starts", trials=4000, master_seed=2)
        assert est.start == 1
        assert abs(est.mean - 5.0) <= 3 * est.std_err

    def test_worst_start_size_cap(self):
        with pytest.raises(ContractViolation):
            simulate(comp(cycle_graph(70)), "cover",
                     start_policy="worst_over_all_starts", trials=2, master_seed=0)

    def test_worst_start_is_one_batch(self, monkeypatch):
        batches = []
        pool = walks._pool

        def counting(requests):
            batches.append([r.walk_count for r in requests])
            return pool(requests)

        monkeypatch.setattr(walks, "_pool", counting)
        est = simulate(_LOOPY, "cover", start_policy="worst_over_all_starts",
                       trials=30, master_seed=14)
        assert batches == [[7 * 30]]
        assert est.trials == 30 and est.samples.shape == (30,)

    def test_matches_exact_dp_randomized(self):
        rng = np.random.default_rng(33)
        bad = 0
        for trial in range(12):
            g = oc.random_connected_multigraph(rng, int(rng.integers(2, 11)),
                                               extra_edges=int(rng.integers(0, 6)),
                                               loops=int(rng.integers(0, 2)))
            c = comp(g)
            start = int(rng.integers(0, g.vertex_count))
            est = simulate(c, "cover", start_policy="fixed", start=start,
                           trials=4000, master_seed=trial)
            exact = exact_cover_time(c, start)
            if abs(est.mean - exact) > 3 * max(est.std_err, 1e-12):
                bad += 1
        assert bad <= 1

    @pytest.mark.parametrize("quantity", ["cover", "cover_return", "hitting", "commute"])
    def test_engines_agree_exactly(self, quantity):
        # scalar (trials < threshold) and vector engines share streams
        c = comp(cycle_graph(6))
        kw = dict(start=0, u=0, v=3) if quantity in ("hitting", "commute") else dict(start=0)
        lo = simulate(c, quantity, trials=50, master_seed=9, **kw)
        hi = simulate(c, quantity, trials=500, master_seed=9, **kw)
        assert np.array_equal(lo.samples, hi.samples[:50])

    @pytest.mark.parametrize("quantity", ["cover", "cover_return", "hitting", "commute"])
    def test_engines_agree_on_raw_values(self, quantity):
        # spokes of prime multiplicity 2..53 and a loop at the hub: the lcm
        # of the degrees is above 2**63, so the scalar engine steps on the
        # raw stream values
        primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
        g = MultiGraph(len(primes) + 1, [(0, i, p) for i, p in enumerate(primes, 1)] + [(0, 0)])
        nbrs, degs, lcm = g.walk_tables_py()
        offsets, flat, degrees = g.walk_tables()
        assert lcm >= 1 << 63 and lcm == math.lcm(*degs) and degs == degrees.tolist()
        assert nbrs == [flat[offsets[v]:offsets[v + 1]].tolist() for v in range(g.vertex_count)]
        c = comp(g)
        kw = dict(start=0, u=1, v=2) if quantity in ("hitting", "commute") else dict(start=1)
        lo = simulate(c, quantity, trials=50, master_seed=19, **kw)
        hi = simulate(c, quantity, trials=500, master_seed=19, **kw)
        assert np.array_equal(lo.samples, hi.samples[:50])

    def test_vector_slices_agree(self, monkeypatch):
        # the visited rows are bounded by running trials in slices of a 64th
        # of the memory budget: 700 rows of 400 vertices in at least 4
        c = comp(star_graph(399))
        whole = simulate(c, "cover_return", start=2, trials=700, master_seed=4)
        monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(700, 400 * 700))
        request = walks._request(c, "cover_return", start=2, trials=700, master_seed=4)
        assert len(walks._Batch([request]).slices(0, 700)) >= 4
        sliced = simulate(c, "cover_return", start=2, trials=700, master_seed=4)
        assert np.array_equal(whole.samples, sliced.samples)

    @pytest.mark.parametrize("trials", [50, 300, 600])
    def test_step_cap_is_exact_on_both_engines(self, trials, monkeypatch):
        # at W = 2 the 50 and 600 trials run in two shares, 300 in one
        c = comp(path_graph(12))
        for w in (1, 2):
            monkeypatch.setattr(forkmap, "usable_cpus", lambda: w)
            longest = int(simulate(c, "cover", start=5, trials=trials, master_seed=3).samples.max())
            capped = simulate(c, "cover", start=5, trials=trials, master_seed=3, step_cap=longest)
            assert int(capped.samples.max()) == longest
            with pytest.raises(StepLimitExceeded):
                simulate(c, "cover", start=5, trials=trials, master_seed=3, step_cap=longest - 1)

    def test_reruns_bit_exact(self):
        c = comp(star_graph(5))
        a = simulate(c, "cover", start_policy="fixed", start=0, trials=64, master_seed=123)
        b = simulate(c, "cover", start_policy="fixed", start=0, trials=64, master_seed=123)
        assert np.array_equal(a.samples, b.samples)

    def test_stationary_policy_runs(self):
        est = simulate(comp(cycle_graph(5)), "cover", start_policy="stationary",
                       trials=500, master_seed=4)
        assert est.start_policy == "stationary"
        assert abs(est.mean - 10.0) < 1.0  # cycle cover is start-independent

    @pytest.mark.parametrize("trials", [3, 300])
    def test_stationary_single_vertex(self, trials):
        # a loopless vertex has no degree mass; no division by zero may occur
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate(comp(MultiGraph(1)), "cover", start_policy="stationary",
                           trials=trials, master_seed=4)
        assert est.mean == 0.0 and est.samples.tolist() == [0] * trials


@given(small_connected_multigraphs(), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_blanket_matches_per_step_heap(g, start, seed):
    if g.vertex_count == 1:
        return
    start %= g.vertex_count
    est = simulate(comp(g), "blanket", start=start, trials=6, master_seed=seed)
    expected = [oc.blanket_time_per_step(g, start, key) for key in trial_keys(seed, 6).tolist()]
    assert est.samples.tolist() == expected


def test_blanket_matches_per_step_heap_path30():
    g = path_graph(30)
    est = simulate(comp(g), "blanket", start=0, trials=5, master_seed=11)
    expected = [oc.blanket_time_per_step(g, 0, key) for key in trial_keys(11, 5).tolist()]
    assert est.samples.tolist() == expected


class TestOtherQuantities:
    def test_blanket_k2(self):
        est = simulate(comp(MultiGraph(2, [(0, 1)])), "blanket",
                       start_policy="fixed", start=0, trials=200, master_seed=0)
        assert (est.samples == 1).all()

    def test_blanket_at_least_cover_pathwise(self):
        for seed in range(3):
            g = uniform_labeled_tree(7, seed + 50)
            c = comp(g)
            cov = simulate(c, "cover", start_policy="fixed", start=0,
                           trials=400, master_seed=seed)
            bl = simulate(c, "blanket", start_policy="fixed", start=0,
                          trials=400, master_seed=seed)
            assert np.all(bl.samples >= cov.samples)

    def test_cover_return_dominates_cover(self):
        c = comp(cycle_graph(5))
        cov = simulate(c, "cover", start_policy="fixed", start=0, trials=1000, master_seed=3)
        ret = simulate(c, "cover_return", start_policy="fixed", start=0,
                       trials=1000, master_seed=3)
        assert np.all(ret.samples >= cov.samples)

    def test_hitting_matches_exact(self):
        g = path_graph(4)
        c = comp(g)
        o = ResistanceOracle(c)
        est = simulate(c, "hitting", u=0, v=3, trials=20000, master_seed=11)
        assert abs(est.mean - hitting_time(o, 0, 3)) <= 3 * est.std_err

    def test_return_time_identity(self):
        g = MultiGraph(3, [(0, 1), (1, 2), (1, 1)])  # loop at the middle
        c = comp(g)
        est = simulate(c, "hitting", u=1, v=1, trials=30000, master_seed=13)
        expect = 2 * g.edge_total / g.degree(1)
        assert abs(est.mean - expect) <= 3 * est.std_err
        assert est.mean == pytest.approx(oc.return_time_exact(g, 1), rel=0.05)

    def test_commute_identity_simulated(self):
        g = cycle_graph(6)
        c = comp(g)
        o = ResistanceOracle(c)
        est = simulate(c, "commute", u=0, v=2, trials=20000, master_seed=17)
        expect = 2 * g.edge_total * o.resistance(0, 2)
        assert abs(est.mean - expect) <= 3 * est.std_err

    def test_commute_requires_distinct(self):
        with pytest.raises(ContractViolation):
            simulate(comp(path_graph(3)), "commute", u=1, v=1, trials=10, master_seed=0)

    def test_cover_return_at_most_twice_worst_cover(self):
        rng = np.random.default_rng(71)
        for seed in range(4):
            g = oc.random_connected_multigraph(rng, 8, extra_edges=4, loops=1)
            c = comp(g)
            worst = simulate(c, "cover", start_policy="worst_over_all_starts",
                             trials=3000, master_seed=seed)
            ret = simulate(c, "cover_return", start_policy="fixed",
                           start=worst.start, trials=3000, master_seed=seed + 100)
            joint_se = math.hypot(worst.std_err, ret.std_err)
            assert ret.mean <= 2 * worst.mean + 3 * joint_se

    def test_estimate_json_fields(self):
        est = simulate(comp(path_graph(3)), "cover", start_policy="fixed",
                       start=0, trials=10, master_seed=0)
        assert set(est.to_dict()) == {"quantity", "start_policy", "mean",
                                      "std_err", "trials", "seed"}
        assert est.to_dict()["start_policy"] == "fixed(0)"


class TestLocalTimeTail:
    def test_lambda_zero_trivial(self):
        pts = local_time_tail_check(comp(path_graph(3)), 0, 2, 4.0, [0.0],
                                    trials=500, master_seed=1)
        assert pts[0].empirical_prob <= 1.0 == pts[0].bound

    def test_k2_gap_bounded(self):
        # alternating walk: visits differ by at most one
        pts = local_time_tail_check(comp(MultiGraph(2, [(0, 1)])), 0, 1, 6.0,
                                    [1.5, 2.0], trials=2000, master_seed=2)
        for p in pts:
            assert p.empirical_prob == 0.0

    def test_p3_inequality(self):
        pts = local_time_tail_check(comp(path_graph(3)), 0, 2, 8.0, [1.0, 2.0, 4.0],
                                    trials=50000, master_seed=3)
        for p in pts:
            assert p.empirical_prob <= p.bound + 3 * p.std_err + 1e-6

    def test_zero_trials_rejected(self):
        with pytest.raises(ContractViolation):
            local_time_tail_check(comp(path_graph(3)), 0, 2, 4.0, [0.0],
                                  trials=0, master_seed=1)

    def test_reads_r_uv_without_a_k2_array(self):
        # on a 1000-vertex path R would take 8 MB; the check reads R(u, v)
        # from one row, with the bits of the R that the sweep keeps
        k, lambdas = 1000, [0.5, 1.0, 30.0]
        c = comp(path_graph(k))
        run = lambda: local_time_tail_check(c, 10, 500, 2.0, lambdas, trials=100, master_seed=4)
        run()  # first-call imports and the graph's tables
        tracemalloc.start()
        try:
            pts = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8 / 8, peak
        oracle = ResistanceOracle(c)
        oracle.eccentricity   # the sweep, which keeps R
        assert oracle.dense and oracle._R is not None
        r_uv = oracle.resistance(10, 500)
        assert [p.bound for p in pts] == [math.exp(-lam * lam / (4.0 * 2.0 * r_uv))
                                          for lam in lambdas]


class TestLocalTimeTrace:
    def test_visits_sum_to_time_plus_one(self):
        tr = trace_local_times(comp(cycle_graph(6)), 0, [0, 5, 17, 40], master_seed=7)
        for i, t in enumerate(tr.checkpoints):
            assert tr.visit_counts[i].sum() == t + 1

    def test_local_times_normalized(self):
        tr = trace_local_times(comp(star_graph(3)), 0, [10], master_seed=1)
        lt = tr.local_times()
        assert lt.shape == (1, 4)
        assert lt[0, 0] == tr.visit_counts[0, 0] / 3

    def test_single_vertex_component(self):
        c = connected_components(MultiGraph(1, []))[0]
        tr = trace_local_times(c, 0, [0, 0], master_seed=0)
        assert tr.visit_counts.tolist() == [[1], [1]]
        with pytest.raises(ContractViolation):
            trace_local_times(c, 0, [0, 5], master_seed=0)

    def test_negative_trial_rejected(self):
        with pytest.raises(ContractViolation):
            trace_local_times(comp(cycle_graph(6)), 0, [5], master_seed=0, trial=-1)

    def test_trial_key_matches_trial_keys(self):
        for seed in (0, 12, 2 ** 64 - 1):
            assert [trial_key(seed, t) for t in range(300)] == trial_keys(seed, 300).tolist()

    def test_far_trial_reads_one_key(self):
        # the key of trial 2**40 is computed alone, not read off 2**40 keys
        tracemalloc.start()
        try:
            tr = trace_local_times(comp(cycle_graph(6)), 0, [0, 50], master_seed=3, trial=2 ** 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert tr.visit_counts[1].sum() == 51


# sha256 of sample arrays for each quantity, engine and start policy: a
# change to an engine or a stop rule must reproduce them bit for bit.
_LOOPY = comp(MultiGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                             (0, 3, 2), (2, 2), (5, 1)]))
_PATH100 = comp(path_graph(100))  # walks that cross several scalar chunks


def _sim(c, quantity, trials, seed, **kw):
    return simulate(c, quantity, trials=trials, master_seed=seed, **kw).samples


def _worst(c, quantity, trials, seed):
    """Samples of a worst-start estimate, then its chosen start."""
    est = simulate(c, quantity, trials=trials, master_seed=seed,
                   start_policy="worst_over_all_starts")
    return np.append(est.samples, est.start)


PINNED = {
    "cover-scalar": (
        lambda: _sim(_LOOPY, "cover", 100, 1, start=2),
        "293ffad7c761f3cd9d3ca560f01bc21670ddc6ca0e72fecbffd07d80fc278994"),
    "cover-vector": (
        lambda: _sim(_LOOPY, "cover", 300, 1, start=2),
        "e86e317452b6b1f21240c93775b53baf9e5d02b7b95a9effb598833fb35c67fd"),
    "cover-long-scalar": (
        lambda: _sim(_PATH100, "cover", 6, 2, start=40),
        "136c23a3aeec82e9b54c1f6bbb2630660262e79224e1d7afe5f2e326a71c4e9b"),
    "cover-long-vector": (
        lambda: _sim(_PATH100, "cover", 256, 2, start=40),
        "b3ac1f357440a05d5014fb60f6eccb543ea09c5d06c51787d80cd95917358497"),
    "cover_return-scalar": (
        lambda: _sim(_LOOPY, "cover_return", 100, 3, start=6),
        "12936a3dafebb4a423e3178c66e1bf9dc4afce6d9d005b618a5e81ef79191e67"),
    "cover_return-vector": (
        lambda: _sim(_LOOPY, "cover_return", 300, 3, start=6),
        "a89beb81b9d4e6ca66bcfe10fb0b3ce062acac1f943e1fef721b1d202eab49ea"),
    "cover-stationary-scalar": (
        lambda: _sim(_LOOPY, "cover", 100, 4, start_policy="stationary"),
        "f0bb42bf1e53165d390f616f7a1c5f5575e1aaf7e104f8f4f9eb90ad8f0f4bf9"),
    "cover-stationary-vector": (
        lambda: _sim(_LOOPY, "cover", 400, 4, start_policy="stationary"),
        "1a2b053cc78defc34af70def56240f4879ff2c07693a63d3dd387323a5d902b3"),
    "cover-worst": (
        lambda: _sim(_LOOPY, "cover", 50, 5, start_policy="worst_over_all_starts"),
        "5336aa0a24358eb998304cdd02ca167d46ad3cdc93182c685bf402c1e82b73c9"),
    # k * trials = 210 and 2100: below and above VECTOR_THRESHOLD however
    # the starts are batched
    "cover-worst-scalar": (
        lambda: _worst(_LOOPY, "cover", 30, 14),
        "7cb58fb453106a5cf886f8fb0f3a751dbc599909c7e81a6638bae2b01ee971ba"),
    "cover-worst-vector": (
        lambda: _worst(_LOOPY, "cover", 300, 15),
        "9ebef9f4887a740e24e438372f324880ce9b0000d9cc143bab0a0c14228494b8"),
    "cover_return-worst": (
        lambda: _worst(_LOOPY, "cover_return", 50, 16),
        "88bd3de89ff1d71731645917c732439bd8cc4338d549d8137ca78dbd404344ce"),
    "blanket-worst": (
        lambda: _worst(_LOOPY, "blanket", 10, 17),
        "20475c91c880010162ee21784469195d167e0f9777a4530ad427606cc2ef75d9"),
    "cover-worst-long": (
        lambda: _worst(comp(path_graph(40)), "cover", 4, 18),
        "12dd015f9013314749299e8764b4e2ca83a81d7ac2a06820cde607d01bb1a62e"),
    "hitting-scalar": (
        lambda: _sim(_LOOPY, "hitting", 100, 6, u=0, v=4),
        "918b4e1f6cf803413650d0d0358b4feb07d1776f29c50e032e0dc76beffd2fee"),
    "hitting-vector": (
        lambda: _sim(_LOOPY, "hitting", 300, 6, u=0, v=4),
        "ba7908058afc870dfa07b73098a9d7314e02ce74f63bebbbc0e02d027b7078dc"),
    "return-scalar": (
        lambda: _sim(_LOOPY, "hitting", 100, 7, u=2, v=2),
        "e3655e5b71e2ca813f45238e7d563046eaaac0ebe65aff1ad1252226313de987"),
    "commute-scalar": (
        lambda: _sim(_LOOPY, "commute", 100, 8, u=1, v=6),
        "bcea1e616c452a6093feb55cc25f2b30395f95790c0122bd7a7dfd9ff66963fb"),
    "commute-vector": (
        lambda: _sim(_LOOPY, "commute", 300, 8, u=1, v=6),
        "f6ce01661b6fcad7ee05a3f80d3245f988e96090b7ec1b573672f858fbec3e11"),
    "commute-long-scalar": (
        lambda: _sim(_PATH100, "commute", 4, 9, u=0, v=99),
        "24c7f76f09662968184b9652559e7bd2fa3d71badd453f99b0b99648ce8bf02d"),
    "blanket": (
        lambda: _sim(_LOOPY, "blanket", 60, 10, start=0),
        "5a811734a58352ba03ceab8064ff76aa264dd51b99064e66a1cca352a8cbc2d5"),
    "blanket-long": (
        lambda: _sim(comp(path_graph(30)), "blanket", 5, 11, start=0),
        "2b50be7a13c000a45f8fd4f2eea9a844a5c102fd5017be731fa4469a80ab6813"),
    "trace": (
        lambda: trace_local_times(_LOOPY, 3, [0, 3, 3, 255, 256, 257, 5000, 12000],
                                  master_seed=12, trial=2).visit_counts,
        "351753477ec27b6af2a942bb78ec1ab7648429092ea54520d679daf8185ce034"),
    "tail": (
        lambda: [np.float64(p.empirical_prob).view(np.int64) for p in
                 local_time_tail_check(_LOOPY, 0, 4, 6.0, [0.5, 1.0, 2.0],
                                       trials=3000, master_seed=13)],
        "832f6f06ffde34d23accbc7195e086cfa2f901060a1431fbc5a826577f00e68c"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_samples(case):
    compute, expected = PINNED[case]
    data = np.ascontiguousarray(compute(), dtype="<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == expected


# The vector loop hands its last walks (fewer than VECTOR_THRESHOLD) to the
# scalar loop; the samples must equal those of one vector loop that steps
# every walk to its end.


def _recording_scalar(mp):
    """Patch the scalar loop to record (t0, unvisited count, waypoints left)
    of every walk it is handed, as the walk enters it. A forked share's
    walks would go unrecorded, so batches run in this process."""
    mp.setattr(forkmap, "usable_cpus", lambda: 1)
    seen = []
    scalar = walks._walk_scalar

    def recording(graph, start, key, rule, cap, t0=0):
        seen.append((t0, getattr(rule, "unvis", None), list(getattr(rule, "todo", []))))
        return scalar(graph, start, key, rule, cap, t0)

    mp.setattr(walks, "_walk_scalar", recording)
    return seen


def _reference_samples(c, quantity, trials, seed, **kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "_pool", oc.pooled_reference)
        est = simulate(c, quantity, trials=trials, master_seed=seed, **kw)
    return est.samples, est.start


@given(small_connected_multigraphs(),
       st.sampled_from(["cover", "cover_return", "hitting", "commute"]),
       st.sampled_from(["fixed", "stationary", "worst_over_all_starts"]),
       st.integers(0, 2 ** 32 - 1), st.integers(2, 70))
@settings(max_examples=80, deadline=None)
def test_handoff_matches_reference(g, quantity, policy, seed, threshold):
    k = g.vertex_count
    if quantity in ("hitting", "commute"):
        u, v = seed % k, (seed >> 8) % k
        if quantity == "commute":
            assume(k > 1)
            v = (u + 1 + v % (k - 1)) % k
        assume(g.degree(u) > 0)
        kw, trials = dict(u=u, v=v), 60
    else:
        kw = dict(start_policy=policy)
        if policy == "fixed":
            kw["start"] = seed % k
        trials = 10 if policy == "worst_over_all_starts" else 60
    c = comp(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "VECTOR_THRESHOLD", threshold)
        est = simulate(c, quantity, trials=trials, master_seed=seed, **kw)
    samples, start = _reference_samples(c, quantity, trials, seed, **kw)
    assert np.array_equal(est.samples, samples) and est.start == start


class TestHandOff:
    def test_cover_return_handed_off_between_cover_and_return(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "VECTOR_THRESHOLD", 150)
            seen = _recording_scalar(mp)
            got = _sim(_LOOPY, "cover_return", 300, 3, start=6)
        assert 0 < len(seen) < 150 and all(t0 > 0 for t0, _, _ in seen)
        assert any(unvis == 0 for _, unvis, _ in seen)
        assert any(unvis > 0 for _, unvis, _ in seen)
        assert np.array_equal(got, _reference_samples(_LOOPY, "cover_return", 300, 3, start=6)[0])

    def test_commute_handed_off_after_reaching_v(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "VECTOR_THRESHOLD", 150)
            seen = _recording_scalar(mp)
            got = _sim(_LOOPY, "commute", 300, 8, u=1, v=6)
        assert [1] in [todo for _, _, todo in seen]  # back to u only
        assert [6, 1] in [todo for _, _, todo in seen]
        assert np.array_equal(got, _reference_samples(_LOOPY, "commute", 300, 8, u=1, v=6)[0])

    def test_step_cap_crossed_in_scalar_tail(self):
        c = comp(path_graph(12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "VECTOR_THRESHOLD", 100)
            seen = _recording_scalar(mp)
            longest = int(_sim(c, "cover", 300, 3, start=5).max())
            assert seen and max(t0 for t0, _, _ in seen) < longest - 1
            capped = _sim(c, "cover", 300, 3, start=5, step_cap=longest)
            assert int(capped.max()) == longest
            with pytest.raises(StepLimitExceeded, match=f"exceeded {longest - 1} steps"):
                _sim(c, "cover", 300, 3, start=5, step_cap=longest - 1)

    def test_tail_check_stays_on_vector_loop(self):
        with pytest.MonkeyPatch.context() as mp:
            seen = _recording_scalar(mp)
            local_time_tail_check(_LOOPY, 0, 4, 6.0, [1.0], trials=3000, master_seed=13)
        assert seen == []


# Every stepping path gives the same bits: the vector loop with and without
# the step table, with the visited mask and with visited rows, and the
# scalar loop with and without the table. Graphs of 63, 64 and 65 vertices
# (loops, parallel edges, lcm 840) put the mask at its last width, its full
# value 2**64 - 1, and past it.
_GATES = [oc.random_connected_multigraph(np.random.default_rng(seed), k, extra_edges=6, loops=2,
                                         max_multiplicity=2)
          for k, seed in ((63, 2), (64, 9), (65, 3))]
_PATHS = {"table+mask": {}, "table+rows": {(walks, "MASK_VERTICES"): 0},
          "modulo+mask": {(graphs, "STEP_TABLE_ENTRIES"): 0},
          "modulo+rows": {(graphs, "STEP_TABLE_ENTRIES"): 0, (walks, "MASK_VERTICES"): 0}}


def _take_path(mp, path):
    for (module, name), value in _PATHS[path].items():
        mp.setattr(module, name, value)


def test_gate_graphs_take_the_table():
    for g in _GATES:
        assert g.vertex_count * g.walk_tables_py()[2] <= graphs.STEP_TABLE_ENTRIES
        assert g.step_tables() is not None


@pytest.mark.parametrize("quantity", ["cover", "cover_return"])
@pytest.mark.parametrize("gi", range(3))
@pytest.mark.parametrize("path", sorted(_PATHS))
def test_every_path_gives_the_same_bits(quantity, gi, path):
    c = comp(_GATES[gi])
    want = _reference_samples(c, quantity, 300, 21 + gi, start=5)[0]
    with pytest.MonkeyPatch.context() as mp:
        _take_path(mp, path)
        vector = _sim(c, quantity, 300, 21 + gi, start=5)
        scalar = _sim(c, quantity, 40, 21 + gi, start=5)
    assert np.array_equal(vector, want) and np.array_equal(scalar, want[:40])


def test_scalar_paths_step_alike():
    # one long walk on each scalar path, its chunks compared position by position
    g = _GATES[1]
    paths = {}
    for entries in (graphs.STEP_TABLE_ENTRIES, 0):
        seen = []

        def rule(path):
            seen.append(path)
            return len(path) - 1 if len(seen) == 3 else None

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "STEP_TABLE_ENTRIES", entries)
            t = walks._walk_scalar(g, 7, trial_key(5, 3), rule, 10 ** 6)
        paths[entries] = (t, seen)
    assert paths[0] == paths[graphs.STEP_TABLE_ENTRIES]
    assert paths[0][0] == 256 + 512 + 1024


class _Compactions:
    """Wraps a vector rule and records the step of each compaction."""

    def __init__(self, rule, steps):
        self.rule, self.steps, self.t = rule, steps, 0
        self.scalar = rule.scalar

    def block(self, P, live):
        self.t += len(P)
        return self.rule.block(P, live)

    def value(self, times, cols, s):
        return self.rule.value(times, cols, s)

    def keep(self, keep):
        self.steps.append(self.t)
        self.rule.keep(keep)


@pytest.mark.parametrize("block_steps", [1, 3, 7, 32])
@pytest.mark.parametrize("path", sorted(_PATHS))
def test_blocks_end_mid_compaction(block_steps, path):
    # with S steps a block, blocks start at multiples of S and the arrays
    # are compacted where a block ends; walks stop inside their blocks,
    # each at its own step
    c = comp(_GATES[1])
    want = _reference_samples(c, "cover", 600, 31, start=0)[0]
    compactions = []
    rules = walks._Batch.rules
    with pytest.MonkeyPatch.context() as mp:
        _take_path(mp, path)
        mp.setattr(forkmap, "usable_cpus", lambda: 1)  # the spy sees this process only
        mp.setattr(walks, "_BLOCK_STEPS", block_steps)
        mp.setattr(walks, "_FIRST_BLOCK", block_steps)
        mp.setattr(walks, "_BLOCK_VALUES", 1 << 30)
        mp.setattr(walks._Batch, "rules", lambda batch, lo, hi: [
            (_Compactions(rule, compactions), n) for rule, n in rules(batch, lo, hi)])
        got = _sim(c, "cover", 600, 31, start=0)
    assert np.array_equal(got, want)
    assert compactions and all(t % block_steps == 0 for t in compactions)
    if block_steps > 1:
        assert any(t % block_steps for t in got.tolist())


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_step_cap_at_a_block_boundary(path):
    # every walk stays on the vector loop (threshold 1, one share); blocks of
    # `longest` steps end at the longest walk's last step, blocks of
    # `longest - 1` steps at the step before it
    c = comp(_GATES[0])
    with pytest.MonkeyPatch.context() as mp:
        _take_path(mp, path)
        mp.setattr(forkmap, "usable_cpus", lambda: 1)
        mp.setattr(walks, "VECTOR_THRESHOLD", 1)
        longest = int(_sim(c, "cover", 300, 41, start=0).max())
        for block_steps in (1, 2, longest - 1, longest, longest + 1):
            mp.setattr(walks, "_BLOCK_STEPS", block_steps)
            mp.setattr(walks, "_FIRST_BLOCK", block_steps)
            mp.setattr(walks, "_BLOCK_VALUES", 1 << 30)
            assert int(_sim(c, "cover", 300, 41, start=0, step_cap=longest).max()) == longest
            with pytest.raises(StepLimitExceeded, match=f"exceeded {longest - 1} steps"):
                _sim(c, "cover", 300, 41, start=0, step_cap=longest - 1)


@pytest.mark.parametrize("entries", [graphs.STEP_TABLE_ENTRIES, 0])
def test_scalar_step_cap_at_a_chunk_boundary(entries):
    # the first chunk holds 256 steps: a walk stopped at its last step
    # meets a cap of 256 and exceeds one of 255
    stop_at_end = lambda path: len(path) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "STEP_TABLE_ENTRIES", entries)
        assert walks._walk_scalar(_GATES[2], 0, 99, stop_at_end, 256) == 256
        with pytest.raises(StepLimitExceeded, match="exceeded 255 steps"):
            walks._walk_scalar(_GATES[2], 0, 99, stop_at_end, 255)


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_mask_state_handed_off_between_cover_and_return(path):
    c = comp(_GATES[1])
    with pytest.MonkeyPatch.context() as mp:
        _take_path(mp, path)
        mp.setattr(walks, "VECTOR_THRESHOLD", 150)
        seen = _recording_scalar(mp)
        got = _sim(c, "cover_return", 300, 51, start=3)
    assert 0 < len(seen) < 150 and all(t0 > 0 for t0, _, _ in seen)
    assert any(unvis == 0 for _, unvis, _ in seen)
    assert any(unvis > 0 for _, unvis, _ in seen)
    assert np.array_equal(got, _reference_samples(c, "cover_return", 300, 51, start=3)[0])


@pytest.mark.parametrize("entries", [graphs.STEP_TABLE_ENTRIES, 0])
def test_commute_handed_off_after_reaching_v_on_each_path(entries):
    c = comp(_GATES[2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "STEP_TABLE_ENTRIES", entries)
        mp.setattr(walks, "VECTOR_THRESHOLD", 150)
        seen = _recording_scalar(mp)
        got = _sim(c, "commute", 300, 61, u=1, v=60)
    assert [1] in [todo for _, _, todo in seen]  # back to u only
    assert [60, 1] in [todo for _, _, todo in seen]
    assert np.array_equal(got, _reference_samples(c, "commute", 300, 61, u=1, v=60)[0])


def test_one_scalar_tail_per_batch(monkeypatch):
    # each of W = 2 shares hands off below VECTOR_THRESHOLD // 2 walks; the
    # shares run in this process so that the spy sees both
    c = comp(uniform_labeled_tree(256, 4))
    one = simulate(c, "cover", start=0, trials=2000, master_seed=6)
    seen = _recording_scalar(monkeypatch)
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forkmap, "fork_shares", lambda run, jobs: run(jobs))
    two = simulate(c, "cover", start=0, trials=2000, master_seed=6)
    assert 0 < len(seen) <= 2 * (walks.VECTOR_THRESHOLD // 2 - 1) <= 255
    assert two.samples.tobytes() == one.samples.tobytes() and two.to_dict() == one.to_dict()


def test_batch_over_budget_rejected_before_allocating(monkeypatch):
    # 10**5 walks: their keys alone would take 800 kB
    c = comp(cycle_graph(5))
    simulate(c, "cover", start=0, trials=300, master_seed=1)  # first-call imports and tables
    monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(10 ** 5) - 1)
    need = re.compile("batch of 100000 walks")  # compiled before tracing
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=need):
            simulate(c, "cover", start=0, trials=10 ** 5, master_seed=1)
        with pytest.raises(ContractViolation, match=need):  # k walks a trial
            simulate(c, "cover", start_policy="worst_over_all_starts", trials=2 * 10 ** 4,
                     master_seed=1)
        with pytest.raises(ContractViolation, match=need):
            local_time_tail_check(c, 0, 2, 3.0, [1.0], trials=10 ** 5, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 4, peak
    # the budget itself is allowed
    monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(300))
    assert simulate(c, "cover", start=0, trials=300, master_seed=1).trials == 300


# Every kind of batch at one CPU: masks from a fixed start and from every
# start, rows on a 200-vertex tree, commute, and the local-time tail, each
# with enough walks that the per-walk bytes show past a block's arrays.
CHARGE_CASES = {
    "mask-fixed": (lambda: uniform_labeled_tree(10, 3), dict(quantity="cover", start=0), 200000),
    "mask-worst": (lambda: uniform_labeled_tree(10, 3),
                   dict(quantity="cover", start_policy="worst_over_all_starts"), 20000),
    "rows": (lambda: star_graph(199), dict(quantity="cover_return", start=0), 20000),
    "commute": (lambda: path_graph(4), dict(quantity="commute", u=0, v=3), 200000),
    "tail": (lambda: path_graph(4), None, 200000),
}


@pytest.mark.parametrize("case", sorted(CHARGE_CASES))
def test_batch_peak_within_its_charge(monkeypatch, case):
    # the traced peak of a whole call, plus the 8-byte shared sample buffer
    # a walk that tracemalloc does not see, stays within the batch's charge
    make, kw, trials = CHARGE_CASES[case]
    c = comp(make())
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    if kw is None:
        run = lambda n: local_time_tail_check(c, 0, 3, 4.0, [1.0], trials=n, master_seed=2)
        walk_count, rows = trials, 0
    else:
        run = lambda n: simulate(c, trials=n, master_seed=2, **kw)
        request = walks._request(c, trials=trials, **kw)
        walk_count, rows = request.walk_count, request.row_bytes
    run(100)  # first-call imports and the graph's tables
    tracemalloc.start()
    try:
        run(trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rows > 0) == (case == "rows")
    assert peak + 8 * walk_count <= walks._batch_bytes(walk_count, rows), (peak, walk_count)


def test_trace_over_budget_rejected_before_allocating(monkeypatch):
    # 10 checkpoints on 100 vertices: a table of 8000 bytes
    c = comp(path_graph(100))
    trace_local_times(c, 0, [5], master_seed=1)  # first-call imports and tables
    monkeypatch.setattr(errors, "MEMORY_BYTES", 8000 - 1)
    # compiled before tracing
    need = re.compile("^a trace of 10 checkpoints on 100 vertices needs 8000 bytes")
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=need):
            trace_local_times(c, 0, range(0, 100, 10), master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4, peak
    monkeypatch.setattr(errors, "MEMORY_BYTES", 8000)
    trace = trace_local_times(c, 0, range(0, 100, 10), master_seed=1)
    assert trace.visit_counts.shape == (10, 100)


def test_scalar_rules_are_handed_lists(monkeypatch):
    # every scalar rule, those the vector loop hands its last walks to
    # included, gets each chunk as the list the comprehension built
    seen = []
    scalar = walks._walk_scalar

    def recording(graph, start, key, rule, cap, t0=0):
        def spy(path):
            seen.append((type(rule).__name__, type(path)))
            return rule(path)
        return scalar(graph, start, key, spy, cap, t0)

    monkeypatch.setattr(walks, "_walk_scalar", recording)
    monkeypatch.setattr(walks, "VECTOR_THRESHOLD", 150)
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)  # the spy sees this process only
    for quantity, kw in (("cover", dict(start=2)), ("cover_return", dict(start=6)),
                         ("hitting", dict(u=0, v=4)), ("commute", dict(u=1, v=6)),
                         ("blanket", dict(start=0))):
        for trials in (20, 300):
            _sim(_LOOPY, quantity, trials, 3, **kw)
    trace_local_times(_LOOPY, 3, [0, 5000], master_seed=12)
    assert {name for name, _ in seen} == {"_Unvisited", "_WaypointScan", "_Blanket", "_Checkpoints"}
    assert {tp for _, tp in seen} == {list}


# The scalar stop rules scan each chunk as a Python list. The ndarray rules
# they replaced (tests/oracles.py) must give the same stop index and carry
# the same state, chunk by chunk.

def _chunks(k):
    return st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=30), min_size=1, max_size=6)


def _cover_rules(visited, home):
    unvisited = {v for v, seen in enumerate(visited) if not seen}
    return walks._Unvisited(unvisited, home), oc.UnvisitedArray(np.array(visited), home)


def _run_cover_rules(visited, home, chunks):
    """Stop indices of both cover rules on each chunk until one stops."""
    rule, ref = _cover_rules(visited, home)
    out = []
    for path in chunks:
        got = rule(list(path))
        assert got == ref(np.array(path, dtype=np.int64))
        assert rule.unvis == ref.unvis
        if ref.unvis:  # the array rule stops updating its row at cover
            assert rule.unvisited == set(np.flatnonzero(~ref.visited).tolist())
        out.append(got)
        if got is not None:
            break
    return out


@st.composite
def cover_rule_runs(draw):
    k = draw(st.integers(1, 10))
    home = draw(st.integers(0, k - 1))
    visited = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    visited[home] = True
    need_return = draw(st.booleans())
    assume(need_return or not all(visited))  # a cover walk is handed over before cover
    return visited, home if need_return else None, draw(_chunks(k))


@given(cover_rule_runs())
@settings(max_examples=300, deadline=None)
def test_cover_rule_matches_array_rule(case):
    _run_cover_rules(*case)


@pytest.mark.parametrize("visited, home, chunks, want", [
    ([True, True, False], None, [[0, 1, 0], [2, 1]], [None, 0]),  # covers at step 0
    ([True, False, False], 0, [[1, 2, 1], [1, 0]], [None, 1]),    # home not back in the chunk
    ([True, False, False], 0, [[1, 0, 2, 1], [2, 1, 0]], [None, 2]),  # home only before cover
    ([True, False, False], 0, [[2, 1, 0, 0]], [2]),               # home right after cover
    ([True, True, True], 0, [[1, 2], [0]], [None, 0]),            # handed over covered
], ids=["cover-at-step-0", "return-not-in-chunk", "home-before-cover", "return-next-step",
        "covered-on-hand-over"])
def test_cover_rule_cases(visited, home, chunks, want):
    assert _run_cover_rules(visited, home, chunks) == want


class _ScanCountingList(list):
    """A chunk that counts the positions its index calls and slices read."""

    scanned = 0

    def index(self, x, start=0):
        i = super().index(x, start)
        self.scanned += i - start + 1
        return i

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.scanned += len(out)
        return out


@pytest.mark.parametrize("home", [None, 0])
@pytest.mark.parametrize("seed", range(3))
def test_cover_rule_scans_final_chunk_once(seed, home):
    # thousands of vertices are first visited in the chunk that covers;
    # finding the covering step reads each position at most twice, not
    # once per new vertex
    k, n = 3000, 4096
    rng = np.random.default_rng(seed)
    path = rng.integers(1, k, size=n)
    path[rng.permutation(n - 50)[:k - 1]] = np.arange(1, k)  # the chunk goes on after cover
    path[-1] = 0
    visited = [v == 0 for v in range(k)]
    rule, ref = _cover_rules(visited, home)
    chunk = _ScanCountingList(path.tolist())
    got = rule(chunk)
    assert got == ref(path) and rule.unvis == ref.unvis == 0
    if home is None:
        assert chunk.scanned <= 2 * n
        assert got == max(path.tolist().index(v) for v in range(1, k))


def test_cover_rule_rebuilds_its_set():
    # the set is rebuilt once it has lost half its entries; the stop index
    # and the remaining vertices are those of the array rule throughout
    k = 64
    visited = [v == 0 for v in range(k)]
    chunks = [list(range(1, 20)), list(range(20, 40)), [0] * 5, list(range(40, 63)), [63]]
    rule, _ = _cover_rules(visited, None)
    first = rule.unvisited
    assert _run_cover_rules(visited, None, chunks) == [None, None, None, None, 0]
    rule(chunks[0])
    assert rule.unvisited is first and rule.built == k - 1
    rule(chunks[1])
    assert rule.unvisited is not first and rule.built == 24 == rule.unvis


@st.composite
def waypoint_rule_runs(draw):
    k = draw(st.integers(1, 6))
    waypoints = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))
    return waypoints, draw(_chunks(k))


def _run_waypoint_rules(waypoints, chunks):
    rule, ref = walks._WaypointScan(waypoints), oc.WaypointScanArray(waypoints)
    out = []
    for path in chunks:
        got = rule(list(path))
        assert got == ref(np.array(path, dtype=np.int64))
        assert rule.todo == ref.todo
        out.append(got)
        if got is not None:
            break
    return out


@given(waypoint_rule_runs())
@settings(max_examples=300, deadline=None)
def test_waypoint_rule_matches_array_rule(case):
    _run_waypoint_rules(*case)


@pytest.mark.parametrize("waypoints, chunks, want", [
    ((3, 0), [[1, 3, 2, 0, 3]], [3]),         # commute: v, then u, in one chunk
    ((3, 0), [[0, 1, 3, 3, 0]], [4]),         # u before v does not count
    ((3, 0), [[1, 2, 3], [0, 1]], [None, 0]),  # v at the chunk's last step
    ((3, 0), [[3, 0]], [1]),                  # u right after v
    ((2,), [[1, 1], [0, 2, 2]], [None, 1]),    # hitting with u == v: first return
], ids=["v-then-u", "u-then-v", "v-last-step", "adjacent", "return"])
def test_waypoint_rule_cases(waypoints, chunks, want):
    assert _run_waypoint_rules(waypoints, chunks) == want
