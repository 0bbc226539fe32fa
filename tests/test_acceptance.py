"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear;
the whole suite is seeded and deterministic.
"""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

import oracles as oc
from covertime import (
    BaseGraphSpec,
    ComponentView,
    GiantModelParams,
    ResistanceOracle,
    complete_graph,
    connected_components,
    conjugate_mu,
    cycle_graph,
    edge_addition_suite,
    evaluate_cell,
    evolution_suite,
    exact_cover_time,
    giant_model,
    gnp,
    greedy_packing,
    gw_scaling_suite,
    hitting_time,
    local_time_tail_check,
    path_graph,
    percolate,
    random_regular_graph,
    resistance_diameter,
    simulate,
    to_edge_list_text,
    uniform_labeled_tree,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_exact_oracle_equivalence():
    rng = np.random.default_rng(101)
    within = 0
    for i in range(50):
        g = oc.random_connected_multigraph(
            rng, int(rng.integers(2, 11)),
            extra_edges=int(rng.integers(0, 6)), loops=int(rng.integers(0, 2)),
        )
        comp = ComponentView.whole(g)
        start = int(rng.integers(0, g.vertex_count))
        est = simulate(comp, "cover", start_policy="fixed", start=start,
                       trials=100_000, master_seed=1000 + i, keep_samples=False)
        exact = exact_cover_time(comp, start)
        if abs(est.mean - exact) <= 3 * max(est.std_err, 1e-12):
            within += 1
    complete_ok = all(
        abs(exact_cover_time(ComponentView.whole(complete_graph(n)), 0)
            - oc.coupon_collector_cover(n)) <= 1e-9
        for n in range(3, 9)
    )
    cycle_ok = all(
        abs(exact_cover_time(ComponentView.whole(cycle_graph(n)), 0)
            - oc.cycle_cover(n)) <= 1e-9
        for n in range(3, 11)
    )
    ok = within >= 48 and complete_ok and cycle_ok
    _line(1, ok, f"{within}/50 sims within 3 SE of the DP oracle; "
                 f"complete-graph closed form {'ok' if complete_ok else 'BAD'}, "
                 f"cycle closed form {'ok' if cycle_ok else 'BAD'}")
    assert ok


def test_criterion_02_commute_identity():
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    sim_ok = True
    for i in range(20):
        n = int(rng.integers(20, 201))
        g = oc.random_connected_multigraph(
            rng, n, extra_edges=int(rng.integers(n // 2, 2 * n)),
            loops=int(rng.integers(0, 4)), max_multiplicity=2,
        )
        comp = ComponentView.whole(g)
        oracle = ResistanceOracle(comp)
        E = g.edge_total
        for _ in range(100):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            commute = hitting_time(oracle, u, v) + hitting_time(oracle, v, u)
            expect = 2 * E * oracle.resistance(u, v)
            worst_rel = max(worst_rel, abs(commute - expect) / expect)
        u = int(rng.integers(0, n))
        v = (u + 1 + int(rng.integers(0, n - 1))) % n
        est = simulate(comp, "commute", u=u, v=v, trials=1500,
                       master_seed=2000 + i, keep_samples=False)
        expect = 2 * E * oracle.resistance(u, v)
        if abs(est.mean - expect) > 3 * est.std_err:
            sim_ok = False
    ok = worst_rel <= 1e-8 and sim_ok
    _line(2, ok, f"worst formula relative error {worst_rel:.2e}; "
                 f"simulated commutes {'within' if sim_ok else 'OUTSIDE'} 3 SE")
    assert ok


def test_criterion_03_return_time():
    rng = np.random.default_rng(303)
    misses = []
    for i in range(20):
        n = int(rng.integers(2, 30))
        g = oc.random_connected_multigraph(
            rng, n, extra_edges=int(rng.integers(0, n)),
            loops=int(rng.integers(0, 3)), max_multiplicity=3,
        )
        comp = ComponentView.whole(g)
        v = int(rng.integers(0, n))
        est = simulate(comp, "hitting", u=v, v=v, trials=30_000,
                       master_seed=3000 + i, keep_samples=False)
        expect = 2 * g.edge_total / g.degree(v)
        if abs(est.mean - expect) > 3 * max(est.std_err, 1e-12):
            misses.append(i)
    ok = not misses
    _line(3, ok, f"20 return-time identities, misses: {misses or 'none'}")
    assert ok


def _corpus():
    yield "path17", ComponentView.whole(path_graph(17)), 2000
    yield "path65", ComponentView.whole(path_graph(65)), 16
    yield "cycle16", ComponentView.whole(cycle_graph(16)), 2000
    yield "cycle64", ComponentView.whole(cycle_graph(64)), 2000
    yield "complete8", ComponentView.whole(complete_graph(8)), 2000
    yield "complete32", ComponentView.whole(complete_graph(32)), 2000
    yield "tree256", ComponentView.whole(uniform_labeled_tree(256, 41)), 16
    yield "tree1024", ComponentView.whole(uniform_labeled_tree(1024, 42)), 12
    yield "torus20", percolate(BaseGraphSpec.torus(20, 2, 0.55), 7)[1], 16
    yield "hypercube10", percolate(BaseGraphSpec.hypercube(10, 0.12), 8)[1], 16
    yield "gnp_critical", connected_components(gnp(10_000, 1.0 / 10_000, 44))[0], 16
    yield "gnp_super", connected_components(gnp(10_000, 1.1 / 10_000, 45))[0], 16
    yield "torus100", percolate(BaseGraphSpec.torus(100, 2, 0.55), 7)[1], 10


@pytest.mark.slow
def test_criterion_04_bound_sandwich_corpus():
    failures = []
    sizes = []
    for name, comp, trials in _corpus():
        cell = evaluate_cell(comp, trials=trials, master_seed=oc_seed(name))
        sizes.append((name, comp.size))
        if not cell.sandwich_ok():
            failures.append((name, cell.to_dict()))
    ok = not failures
    detail = f"{len(sizes)} corpus graphs (sizes {dict(sizes)}), violations: {failures or 'none'}"
    _line(4, ok, detail)
    assert ok


def oc_seed(name: str) -> int:
    return sum(ord(c) for c in name) * 7919


def test_criterion_05_packing_cover_sandwich():
    rng = np.random.default_rng(505)
    bad = []
    for i in range(100):
        g = oc.random_connected_multigraph(
            rng, int(rng.integers(2, 10)), extra_edges=int(rng.integers(0, 6)),
        )
        comp = ComponentView.whole(g)
        oracle = ResistanceOracle(comp)
        diam = resistance_diameter(oracle)
        profile = greedy_packing(oracle, diam.value)
        R = oc.resistance_matrix_pinv(g)
        for lvl in profile.levels:
            if lvl.index == 0:
                continue
            min_cover = oc.minimal_cover_size(R, diam.value / 2 ** lvl.index)
            prev = profile.level(lvl.index - 1).size
            if not (prev <= min_cover <= lvl.size):
                bad.append((i, lvl.index, prev, min_cover, lvl.size))
    ok = not bad
    _line(5, ok, f"100 graphs, every level sandwiched exactly; exceptions: {bad or 'none'}")
    assert ok


def test_criterion_06_local_time_tail():
    lambdas = [0.5, 1.0, 2.0, 4.0]
    cases = []
    p3 = ComponentView.whole(path_graph(3))
    cases.append(("path3", p3, 0, 2))
    c6 = ComponentView.whole(cycle_graph(6))
    cases.append(("cycle6", c6, 0, 3))
    tree = ComponentView.whole(uniform_labeled_tree(10, 606))
    pair = resistance_diameter(ResistanceOracle(tree)).pair
    cases.append(("tree10", tree, pair[0], pair[1]))
    bad = []
    for name, comp, u, v in cases:
        pts = local_time_tail_check(comp, u, v, 8.0, lambdas,
                                    trials=1_000_000, master_seed=oc_seed(name))
        for p in pts:
            if p.empirical_prob > p.bound + 3 * p.std_err + 1e-9:
                bad.append((name, p.lam, p.empirical_prob, p.bound))
    ok = not bad
    _line(6, ok, f"3 graphs x 4 lambdas at 1e6 trials; exceedances: {bad or 'none'}")
    assert ok


def test_criterion_07_edge_addition():
    single = edge_addition_suite("exact", 1, 200, master_seed=707)
    multi_ok = True
    details = [f"k=1: {len(single.rows)} instances, violations {single.violations or 'none'}"]
    for k in (2, 3):
        rep = edge_addition_suite("exact", k, 50, master_seed=707 + k)
        details.append(f"k={k}: violations {rep.violations or 'none'}")
        if rep.violations:
            multi_ok = False
    ok = not single.violations and multi_ok
    _line(7, ok, "; ".join(details))
    assert ok


def test_criterion_08_critical_window_band():
    rep = evolution_suite("b", [4000, 8000, 16000, 32000], seeds=20, trials=12,
                          master_seed=2026)
    ok = 0.8 <= rep.fitted_exponent <= 1.2 and rep.all_cells_sandwiched()
    _line(8, ok, f"fitted exponent {rep.fitted_exponent:.3f} "
                 f"(ci {rep.fitted_ci[0]:.3f}..{rep.fitted_ci[1]:.3f}), "
                 f"sandwich {'ok' if rep.all_cells_sandwiched() else 'VIOLATED'}")
    assert ok


@pytest.mark.slow
def test_criterion_09_tree_scaling_band():
    rep = gw_scaling_suite([256, 1024, 4096], seeds=20, trials=8, master_seed=2026)
    ok = 1.3 <= rep.fitted_exponent <= 1.7 and rep.all_cells_sandwiched()
    _line(9, ok, f"fitted exponent {rep.fitted_exponent:.3f} "
                 f"(ci {rep.fitted_ci[0]:.3f}..{rep.fitted_ci[1]:.3f}), "
                 f"sandwich {'ok' if rep.all_cells_sandwiched() else 'VIOLATED'}")
    assert ok


def test_criterion_10_off_window_bands_informative():
    grid = [4000, 8000, 16000]
    bands = {}
    for regime in ("a", "c"):
        rep = evolution_suite(regime, grid, seeds=6, trials=8, master_seed=1010)
        ratios = [row.median_cover / row.law for row in rep.rows]
        bands[regime] = max(ratios) / min(ratios)
        print(f"  regime {regime}: median/law ratios "
              f"{[round(r, 3) for r in ratios]} band {bands[regime]:.2f}")
    ok = all(b <= 4.0 for b in bands.values())
    _line(10, ok, f"ratio bands a={bands['a']:.2f}, c={bands['c']:.2f} "
                  "(informative: failure logs for review, does not reject)")
    if not ok:
        warnings.warn(
            f"off-window ratio bands exceeded 4x: {bands}; full data logged above",
            stacklevel=1,
        )


def test_criterion_11_tree_sampler_uniformity():
    pvals = {}
    for k in (3, 4, 5):
        categories = {t: 0 for t in oc.all_labeled_trees(k)}
        draws = 100_000
        base = 11_000 * k
        for s in range(draws):
            categories[oc.canonical_edges(uniform_labeled_tree(k, base + s))] += 1
        expect = draws / len(categories)
        stat = sum((c - expect) ** 2 / expect for c in categories.values())
        pvals[k] = float(chi2.sf(stat, df=len(categories) - 1))
    ok = all(p > 1e-3 for p in pvals.values())
    _line(11, ok, "chi-square p-values " +
          ", ".join(f"k={k}: {p:.4f}" for k, p in pvals.items()))
    assert ok


def test_criterion_12_giant_model_structure():
    residuals = {}
    for eps in (1e-3, 1e-2, 1e-1, 0.5):
        mu = conjugate_mu(eps)
        residuals[eps] = abs(mu * math.exp(-mu) - (1 + eps) * math.exp(-(1 + eps)))
    res_ok = all(r <= 1e-12 for r in residuals.values())
    params = GiantModelParams(30_000, 0.25)
    sample = giant_model(params, 1212)
    min_deg = int(sample.kernel_degrees.min())
    stub_sum = int(sample.kernel_degrees.sum())
    lengths = sample.path_lengths
    expect = 1.0 / (1.0 - params.mu)
    se = float(lengths.std(ddof=1)) / math.sqrt(len(lengths))
    geom_ok = abs(float(lengths.mean()) - expect) <= 3 * se
    ok = res_ok and min_deg >= 3 and stub_sum % 2 == 0 and geom_ok
    _line(12, ok, f"conjugate residuals max {max(residuals.values()):.1e}; "
                  f"kernel min degree {min_deg}, stub sum parity "
                  f"{'even' if stub_sum % 2 == 0 else 'ODD'}, "
                  f"path-length mean {float(lengths.mean()):.3f} vs {expect:.3f}")
    assert ok


def _run_cli(*argv: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "covertime", *argv],
                          capture_output=True, text=True, timeout=900, **kw)


def test_criterion_13_cli_thread_determinism(tmp_path):
    # the 1200-vertex 3-regular graph is its own kernel: a 1199 x 1199 dense
    # factorization, whose rounding follows the BLAS thread count unless pinned
    regular = tmp_path / "regular1200.txt"
    regular.write_text(to_edge_list_text(random_regular_graph(1200, 3, 5)))
    combos = [
        ["--seed", "77", "evolution", "--regime", "b", "--n-grid", "400,800,1600",
         "--seeds", "3", "--trials", "4"],
        ["--seed", "78", "gw-scaling", "--k-grid", "16,32,64", "--seeds", "3",
         "--trials", "4"],
        ["--seed", "79", "bound", "--model", "gnp", "--n", "500", "--p", "0.002",
         "--largest-component"],
        ["bound", "--edges", str(regular)],
    ]
    # suites fork one process per CPU of the affinity mask: one CPU runs
    # them in one process, all CPUs in several
    one_cpu = min(os.sched_getaffinity(0))
    affinities = {"all CPUs": None,
                  "one CPU": lambda: os.sched_setaffinity(0, {one_cpu})}
    ok = True
    for args in combos:
        outs = set()
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
            for pin in affinities.values():
                proc = _run_cli(*args, env=env, preexec_fn=pin)
                ok = ok and proc.returncode == 0
                outs.add(proc.stdout)
        ok = ok and len(outs) == 1
    _line(13, ok, f"{len(combos)} commands byte-identical at 1 and 2 BLAS threads, "
                  f"on {' and on '.join(affinities)}")
    assert ok
