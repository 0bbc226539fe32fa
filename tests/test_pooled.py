"""Pooled batches: the walks of many estimates stepped as one batch on the
disjoint union of their components, each walk with its own rule state and
cap, and the block stop rules that the vector loop consults once per block
of steps."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as oc
from covertime import (
    ComponentView,
    ContractViolation,
    MultiGraph,
    StepLimitExceeded,
    cycle_graph,
    path_graph,
    simulate,
    uniform_labeled_tree,
)
from covertime import errors, forkmap, walks


def comp(g: MultiGraph) -> ComponentView:
    return ComponentView.whole(g)


_LOOPY = comp(MultiGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                             (0, 3, 2), (2, 2), (5, 1)]))
# degrees up to 21 with loops and multiplicities: 26 * lcm is far above the
# step table's 2**16 entries
_WIDE = comp(oc.random_connected_multigraph(np.random.default_rng(4), 26, extra_edges=70, loops=4,
                                            max_multiplicity=3))


def test_wide_graph_is_above_the_table_gate():
    g = _WIDE.graph
    assert g.vertex_count * g.walk_tables_py()[2] > walks.STEP_TABLE_ENTRIES
    assert g.step_tables(walks.STEP_TABLE_ENTRIES) is None


# ---------------------------------------------------------------------------
# the union of the components of a batch


def test_union_tables_are_each_components_rows_shifted():
    graphs = [_LOOPY.graph, cycle_graph(5), MultiGraph(1, [(0, 0)]), path_graph(4)]
    union = walks._Union(graphs)
    offsets, flat, degrees = union.walk_tables()
    assert union.base == [0, 7, 12, 13] and union.vertex_count == 17
    assert len(offsets) == 18 and offsets[-1] == len(flat)
    for g, base in zip(graphs, union.base):
        o, f, d = g.walk_tables()
        k = g.vertex_count
        assert np.array_equal(degrees[base:base + k], d)
        for v in range(k):  # each vertex keeps its edge ends, in order
            assert np.array_equal(flat[offsets[base + v]:offsets[base + v + 1]],
                                  f[o[v]:o[v + 1]] + base)
    # several graphs take each value mod the degree, however small
    assert union.step_table(walks.STEP_TABLE_ENTRIES) is None


def test_one_graph_is_its_own_union():
    g = _LOOPY.graph
    union = walks._Union([g])
    assert union.walk_tables() is g.walk_tables()
    assert union.step_table(walks.STEP_TABLE_ENTRIES) is g.step_tables(walks.STEP_TABLE_ENTRIES)[0]


# ---------------------------------------------------------------------------
# pooled samples equal each request's own


def _kwargs(c, quantity, policy, trials, seed):
    k = c.size
    kw = dict(quantity=quantity, trials=trials, master_seed=seed)
    if quantity in ("hitting", "commute"):
        u = seed % k
        v = (seed >> 8) % k if quantity == "hitting" else (u + 1 + (seed >> 8) % (k - 1)) % k
        return dict(kw, u=c.vertices[u], v=c.vertices[v])
    kw["start_policy"] = policy
    if policy == "fixed":
        kw["start"] = c.vertices[seed % k]
    return kw


@st.composite
def pooled_cases(draw):
    """A few requests, some of them on one component: small multigraphs with
    loops and parallel edges, and graphs whose k * lcm is above the table's
    gate; trial counts on both sides of the vector loop's floor."""
    comps, cases = [], []
    for _ in range(draw(st.integers(1, 4))):
        if comps and draw(st.integers(0, 3)) == 0:
            c = comps[draw(st.integers(0, len(comps) - 1))]
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            if draw(st.integers(0, 3)) == 0:
                n = draw(st.integers(10, 24))
                g = oc.random_connected_multigraph(rng, n, extra_edges=3 * n, loops=3,
                                                   max_multiplicity=3)
            else:
                g = oc.random_connected_multigraph(
                    rng, draw(st.integers(1, 9)), extra_edges=draw(st.integers(0, 12)),
                    loops=draw(st.integers(0, 3)), max_multiplicity=draw(st.integers(1, 3)))
            c = comp(g)
            comps.append(c)
        quantity = draw(st.sampled_from(["cover", "cover_return", "hitting", "commute"]))
        if c.size == 1:  # one vertex: covered at the start, hitting only with a loop
            quantity = "hitting" if c.graph.degrees[0] else "cover"
        policy = draw(st.sampled_from(["fixed", "stationary", "worst_over_all_starts"]))
        trials = draw(st.sampled_from([1, 5, 31, 32, 33, 70]))
        if policy == "worst_over_all_starts" and quantity in ("cover", "cover_return"):
            trials = min(trials, 8)
        cases.append((c, _kwargs(c, quantity, policy, trials, draw(st.integers(0, 2 ** 32 - 1)))))
    return cases


@given(pooled_cases())
@settings(max_examples=60, deadline=None)
def test_pooled_samples_equal_each_requests_own(cases):
    requests = [walks._request(c, **kw) for c, kw in cases]
    pooled = walks._estimates(requests, keep_samples=True)
    for (ok, est), (c, kw) in zip(pooled, cases):
        own = simulate(c, **kw)
        assert ok
        assert est.samples.tobytes() == own.samples.tobytes()
        assert est.to_dict() == own.to_dict() and est.start == own.start


def test_pooled_batch_of_every_kind_and_gate():
    # cover on rows and on masks, cover_return, hitting and commute, on
    # components above and below the table's gate, one component twice:
    # one vector batch
    cases = [
        (_WIDE, _kwargs(_WIDE, "cover", "fixed", 40, 1)),
        (_WIDE, _kwargs(_WIDE, "commute", "fixed", 20, 2)),
        (_LOOPY, _kwargs(_LOOPY, "cover_return", "worst_over_all_starts", 6, 3)),
        (_LOOPY, _kwargs(_LOOPY, "hitting", "fixed", 33, 4)),
        (comp(path_graph(80)), _kwargs(comp(path_graph(80)), "cover", "stationary", 9, 5)),
    ]
    requests = [walks._request(c, **kw) for c, kw in cases]
    batch = walks._Batch(requests)
    assert batch.vectorize
    assert {cls for _, _, cls, _ in batch.groups} == {
        walks._VisitedRows, walks._VisitedMask, walks._WaypointRows}
    for (ok, est), (c, kw) in zip(walks._estimates(requests, keep_samples=True), cases):
        assert ok and est.samples.tobytes() == simulate(c, **kw).samples.tobytes()


@pytest.mark.parametrize("budget, pools", [(10 ** 6, [1500]), (700, [400, 700, 400]),
                                           (699, [400, 700, 400])])
def test_requests_pool_in_runs_under_the_budget(monkeypatch, budget, pools):
    # runs of consecutive requests whose walks fit a budget of that many
    # walks together; a request over it alone is a batch of its own, refused
    # with its own error (700 walks, one over the smallest budget), and the
    # others run
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    real = errors.MEMORY_BYTES
    monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(budget))
    cases = [(_LOOPY, _kwargs(_LOOPY, "cover", "fixed", n, j))
             for j, n in enumerate([300, 100, 700, 150, 250])]
    sizes = oc.pooled_sizes(monkeypatch)
    got = walks._estimates([walks._request(c, **kw) for c, kw in cases], keep_samples=True)
    assert sizes == pools
    monkeypatch.setattr(errors, "MEMORY_BYTES", real)
    for j, ((ok, est), (c, kw)) in enumerate(zip(got, cases)):
        if j == 2 and budget < 700:
            assert not ok and type(est) is ContractViolation
            assert str(est).startswith("a batch of 700 walks")
        else:
            assert ok and est.samples.tobytes() == simulate(c, **kw).samples.tobytes()


def test_pools_stop_at_the_walk_bound(monkeypatch):
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    monkeypatch.setattr(walks, "_POOL_WALKS", 100)
    cases = [(_LOOPY, _kwargs(_LOOPY, "cover", "fixed", n, j))
             for j, n in enumerate([40, 60, 30, 200, 10])]
    sizes = oc.pooled_sizes(monkeypatch)
    got = walks._estimates([walks._request(c, **kw) for c, kw in cases], keep_samples=True)
    assert sizes == [100, 30, 200, 10]
    for (ok, est), (c, kw) in zip(got, cases):
        assert ok and est.samples.tobytes() == simulate(c, **kw).samples.tobytes()


@pytest.mark.parametrize("block_steps", [1, 7, 64])
@pytest.mark.parametrize("threshold", [1, 10 ** 6], ids=["vector", "scalar"])
def test_each_request_keeps_its_own_cap(monkeypatch, block_steps, threshold):
    # request b's cap is one step short of its longest walk: b fails alone,
    # a (capped at exactly its longest walk) and c are untouched
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    monkeypatch.setattr(walks, "VECTOR_THRESHOLD", threshold)
    monkeypatch.setattr(walks, "_BLOCK_STEPS", block_steps)
    monkeypatch.setattr(walks, "_FIRST_BLOCK", block_steps)
    monkeypatch.setattr(walks, "_BLOCK_VALUES", 1 << 30)
    a_kw = _kwargs(_LOOPY, "cover", "fixed", 30, 7)
    b_c = comp(path_graph(12))
    b_kw = _kwargs(b_c, "cover", "fixed", 25, 8)
    c_kw = _kwargs(_LOOPY, "commute", "fixed", 20, 9)
    a_long = int(simulate(_LOOPY, **a_kw).samples.max())
    b_long = int(simulate(b_c, **b_kw).samples.max())
    requests = [walks._request(_LOOPY, **a_kw, step_cap=a_long),
                walks._request(b_c, **b_kw, step_cap=b_long - 1),
                walks._request(_LOOPY, **c_kw)]
    (a_ok, a), (b_ok, b), (c_ok, c) = walks._estimates(requests, keep_samples=True)
    assert a_ok and a.samples.tobytes() == simulate(_LOOPY, **a_kw).samples.tobytes()
    assert not b_ok and type(b) is StepLimitExceeded
    assert str(b) == f"walk exceeded {b_long - 1} steps"
    assert c_ok and c.samples.tobytes() == simulate(_LOOPY, **c_kw).samples.tobytes()


def test_hand_offs_mid_phase_in_a_pooled_batch(monkeypatch):
    # the scalar loop gets each walk on its own component, in local ids:
    # commute walks that have reached v, cover_return walks that have covered
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    monkeypatch.setattr(walks, "VECTOR_THRESHOLD", 150)
    seen = []
    scalar = walks._walk_scalar

    def recording(graph, start, key, rule, cap, t0=0):
        state = getattr(rule, "unvisited", None)
        seen.append((graph.vertex_count, start, t0, None if state is None else set(state),
                     list(getattr(rule, "todo", []))))
        return scalar(graph, start, key, rule, cap, t0)

    monkeypatch.setattr(walks, "_walk_scalar", recording)
    tree = comp(uniform_labeled_tree(30, 2))
    cases = [(tree, _kwargs(tree, "commute", "fixed", 150, 3)),
             (_LOOPY, _kwargs(_LOOPY, "cover_return", "fixed", 150, 11))]
    requests = [walks._request(c, **kw) for c, kw in cases]
    pooled = walks._estimates(requests, keep_samples=True)
    handed = [s for s in seen if s[2] > 0]
    assert handed and all(0 <= start < k for k, start, _, _, _ in handed)
    u = tree.to_local(cases[0][1]["u"])
    assert [u] in [todo for k, _, _, _, todo in handed if k == 30]  # back to u only
    loopy = [state for k, _, _, state, _ in handed if k == 7]
    assert set() in loopy and all(state <= set(range(7)) for state in loopy)
    monkeypatch.setattr(walks, "_walk_scalar", scalar)
    for (ok, est), (c, kw) in zip(pooled, cases):
        assert ok and est.samples.tobytes() == simulate(c, **kw).samples.tobytes()


# ---------------------------------------------------------------------------
# block rules against one rule per walk fed one position at a time


_STEPS = 320


def _block_edges(block_steps, rng, low, high):
    """A step index (0-based) in low..high-1 at the first or last step of a
    block."""
    edges = [j * block_steps + e for j in range(high // block_steps + 1)
             for e in (0, block_steps - 1) if low <= j * block_steps + e < high]
    return int(rng.choice(edges))


def _designed(kind, base, k, start, first, last, block_steps, rng):
    """Positions after steps 1.._STEPS of one walk whose stopping step
    falls on a block's first or last step (random draws elsewhere)."""
    comp_ids = np.arange(base, base + k)
    seq = rng.choice(comp_ids, size=_STEPS)
    if kind in ("cover", "cover_return") and k > 1:
        x = int(rng.choice([v for v in comp_ids if v != start]))
        rest = np.array([v for v in comp_ids if v != x])
        at = _block_edges(block_steps, rng, k, _STEPS // 2)
        seq[:at] = rng.choice(rest, size=at)
        seq[rng.choice(at, size=len(rest), replace=False)] = rest
        seq[at] = x
        if kind == "cover_return":
            back = _block_edges(block_steps, rng, at + 1, _STEPS)
            away = np.array([v for v in comp_ids if v != start])
            seq[at + 1:back] = rng.choice(away, size=back - at - 1)
            seq[back] = start
    elif kind == "waypoints":
        at = _block_edges(block_steps, rng, 1, _STEPS // 2)
        seq[:at] = rng.choice([v for v in comp_ids if v != first] or [last], size=at)
        seq[at] = first
        if first != last:
            back = at + 1 if rng.integers(2) else _block_edges(block_steps, rng, at + 1, _STEPS)
            seq[at + 1:back] = rng.choice([v for v in comp_ids if v != last], size=back - at - 1)
            seq[back] = last
    return seq


def _feed(batch, block_steps, seqs, steps=_STEPS):
    """Each walk's (stopping time, value), None if it runs on, from the
    batch's block rules fed steps 1..steps S at a time as the vector loop
    feeds them: a stopped walk stays in the arrays, marked, until every
    third block compacts them. Returns those and the rules with the
    columns of the walks still running."""
    rules = batch.rules(0, batch.size)
    got = [None] * batch.size
    idx, live, t = np.arange(batch.size), np.ones(batch.size, dtype=bool), 0
    while t < steps:
        P = seqs[idx, t:min(t + block_steps, steps)].T
        col = 0
        for rule, count in rules:
            stops = rule.block(P[:, col:col + count], live[col:col + count])
            if stops is not None:
                cols, s = stops
                values = rule.value(s + t + 1, cols, s)
                for c, step, value in zip(cols.tolist(), s.tolist(), values.tolist()):
                    assert live[col + c]
                    got[idx[col + c]] = (t + step + 1, value)
                live[col + cols] = False
            col += count
        t += len(P)
        if t // block_steps % 3 == 0:
            col, kept = 0, []
            for rule, count in rules:
                rule.keep(live[col:col + count])
                kept.append((rule, int(np.count_nonzero(live[col:col + count]))))
                col += count
            rules, idx, live = kept, idx[live], np.ones(int(live.sum()), dtype=bool)
    return got, rules, idx, live


def _reference(batch, kinds, seqs, steps=_STEPS):
    refs = []
    for j in range(batch.size):
        i = int(batch.req[j])
        first, last = batch.waypoints_r[i].tolist()
        tail = kinds[i][1] if kinds[i][0] == "tail" else None
        if tail is not None:
            base = int(batch.base_r[i])
            tail = (tail[0] + base, tail[1] + base, tail[2])
        refs.append(oc.StepRule(kinds[i][0], int(batch.starts[j]), int(batch.base_r[i]),
                                int(batch.size_r[i]), first, last, tail))
    want = [None] * batch.size
    for j, ref in enumerate(refs):
        for pos in seqs[j, :steps].tolist():
            if ref.step(pos):
                want[j] = (ref.t, ref.value)
                break
    return want, refs


def _tail_request(c, u, v, target, trials):
    return walks._Request(c, "tail", f"fixed({u})", u, None, trials, 0, 10 ** 6, {},
                          (walks._TailRows, (c.to_local(u), c.to_local(v), target)), None)


@pytest.mark.parametrize("block_steps", [1, 7, 64])
@pytest.mark.parametrize("mask", [True, False], ids=["mask", "rows"])
def test_block_rules_match_per_step_rules(monkeypatch, block_steps, mask):
    if not mask:
        monkeypatch.setattr(walks, "MASK_VERTICES", 0)
    tree = comp(uniform_labeled_tree(9, 1))
    specs = [  # (component, quantity, kwargs, reference kind)
        (_LOOPY, "cover", dict(start=2), "cover"),
        (tree, "cover_return", dict(start=4), "cover_return"),
        (_LOOPY, "cover_return", dict(start=0), "cover_return"),
        (tree, "hitting", dict(u=3, v=5), "waypoints"),
        (_LOOPY, "hitting", dict(u=6, v=6), "waypoints"),
        (tree, "commute", dict(u=0, v=8), "waypoints"),
    ]
    requests = [walks._request(c, q, trials=12, master_seed=j, **kw)
                for j, (c, q, kw, _) in enumerate(specs)]
    requests.append(_tail_request(_LOOPY, 0, 4, 5, 12))
    kinds = [(kind, None) for _, _, _, kind in specs] + [("tail", (0, 4, 5))]
    batch = walks._Batch(requests)
    rng = np.random.default_rng(block_steps)
    seqs = np.stack([
        _designed(kinds[i][0], int(batch.base_r[i]), int(batch.size_r[i]), int(batch.starts[j]),
                  *batch.waypoints_r[i].tolist(), block_steps, rng)
        for j, i in enumerate(batch.req.tolist())])
    want, refs = _reference(batch, kinds, seqs)
    got, rules, idx, live = _feed(batch, block_steps, seqs)
    assert got == want
    # stops on a block's first step and on its last one
    stops = {t - 1 for t, _ in filter(None, got)}
    assert any(t % block_steps == 0 for t in stops)
    assert any(t % block_steps == block_steps - 1 for t in stops)
    # the walks still running hand their state to their scalar rules
    col = 0
    for rule, count in rules:
        for j in np.flatnonzero(live[col:col + count]).tolist():
            walk = int(idx[col + j])
            if rule.scalar is None:
                continue
            scalar = rule.scalar(j, int(batch.req[walk]))
            state = scalar.unvisited if hasattr(scalar, "unvisited") else scalar.todo
            assert state == refs[walk].scalar_state()
        col += count


@pytest.mark.parametrize("block_steps", [1, 7, 64])
def test_block_rules_hand_off_mid_phase(monkeypatch, block_steps):
    # commute walks between reaching v and returning to u, cover_return
    # walks between cover and return, when the walks are cut after 100 steps
    tree = comp(uniform_labeled_tree(9, 1))
    requests = [walks._request(tree, "commute", u=0, v=8, trials=20, master_seed=1),
                walks._request(tree, "cover_return", start=4, trials=20, master_seed=2)]
    batch = walks._Batch(requests)
    rng = np.random.default_rng(block_steps + 1)
    seqs = np.stack([
        _designed("waypoints" if i == 0 else "cover_return", 0, 9, int(batch.starts[j]),
                  *batch.waypoints_r[i].tolist(), block_steps, rng)
        for j, i in enumerate(batch.req.tolist())])
    kinds = [("waypoints", None), ("cover_return", None)]
    want, refs = _reference(batch, kinds, seqs, steps=100)
    got, rules, idx, live = _feed(batch, block_steps, seqs, steps=100)
    assert got == want
    states = []
    col = 0
    for rule, count in rules:
        for j in np.flatnonzero(live[col:col + count]).tolist():
            walk = int(idx[col + j])
            scalar = rule.scalar(j, int(batch.req[walk]))
            state = scalar.unvisited if hasattr(scalar, "unvisited") else scalar.todo
            assert state == refs[walk].scalar_state()
            states.append(state)
        col += count
    assert [0] in states  # commute after reaching v: back to u only
    assert set() in states  # cover_return after cover: home only
