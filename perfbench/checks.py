"""Output checks, run outside the timed region, and their tamper self-check.

Each check takes one item's parsed output and returns a list of failure
messages; an empty list means the output is correct. ``self_check`` then
tampers with every real output in turn and requires each check to fail.
"""
from __future__ import annotations

import copy
import json
from collections import deque

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .workloads import Item, Workload

SE_LIMIT = 4.0       # Monte Carlo means within this many standard errors
EXACT_RTOL = 1e-6    # closed-form exact values and R == hop diameter on trees
_BFS_BLOCK = 512


def _bfs(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w, _ in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def hop_diameter(g, tree: bool) -> int:
    """Exact hop diameter: a double BFS sweep on a tree, all-pairs BFS
    otherwise."""
    if tree:
        first = _bfs(g.adjacency, 0)
        return max(_bfs(g.adjacency, first.index(max(first))))
    k = g.vertex_count
    pairs = np.array([(u, v) for u, v, _ in g.edges if u != v], dtype=np.int64).reshape(-1, 2)
    adj = scipy.sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(k, k)).tocsr()
    best = 0.0
    for start in range(0, k, _BFS_BLOCK):
        dist = scipy.sparse.csgraph.shortest_path(
            adj, method="D", directed=False, unweighted=True,
            indices=np.arange(start, min(start + _BFS_BLOCK, k)))
        best = max(best, float(dist.max()))
    return int(best)


class Context:
    """What the checks know besides the outputs: the workload's graphs and
    their hop diameters, computed once."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._hop: dict[str, int] = {}

    def hop(self, key: str, tree: bool) -> int:
        if key not in self._hop:
            self._hop[key] = hop_diameter(self.workload.graphs[key], tree)
        return self._hop[key]


def check_bound(report: dict, item: Item, ctx: Context, outputs: dict) -> list[str]:
    key = item.ctx["input"]
    k = ctx.workload.graphs[key].vertex_count
    bad = []
    upper = report["upper_theorem"]
    if not report["kklv_lower"] <= upper:
        bad.append(f"kklv_lower {report['kklv_lower']} > upper_theorem {upper}")
    if report["matthews_lower"] is None or not report["matthews_lower"] <= upper:
        bad.append(f"matthews_lower {report['matthews_lower']} > upper_theorem {upper}")
    sizes = [lvl["size"] for lvl in report["levels"]]
    if any(a > b for a, b in zip(sizes, sizes[1:])) or not sizes or sizes[-1] != k:
        bad.append(f"level sizes {sizes} decrease or do not end at k={k}")
    tree = item.ctx["tree"]
    hop = ctx.hop(key, tree)
    R = report["R"]
    if not R <= hop * (1 + EXACT_RTOL):
        bad.append(f"R {R} > hop diameter {hop}")
    if tree and abs(R - hop) > EXACT_RTOL * hop:
        bad.append(f"R {R} != hop diameter {hop} on a tree")
    return bad


def check_scaling(report: dict, item: Item, ctx: Context, outputs: dict) -> list[str]:
    bad = []
    cells = report["cells"]
    if len(cells) != item.ctx["cells"]:
        bad.append(f"{len(cells)} cells, expected {item.ctx['cells']}")
    failed = [i for i, c in enumerate(cells) if c["sandwich_ok"] is not True]
    if failed:
        bad.append(f"cells {failed} not sandwich_ok")
    return bad


def _within(mean: float, se: float, exact: float) -> bool:
    return abs(mean - exact) <= SE_LIMIT * se + EXACT_RTOL * abs(exact)


def check_simulate(report: dict, item: Item, ctx: Context, outputs: dict) -> list[str]:
    mean, se = report["mean"], report["std_err"]
    if "exact_item" in item.ctx:
        exact_out = outputs.get(item.ctx["exact_item"])
        if exact_out is None:
            return [f"no exact value from {item.ctx['exact_item']}"]
        exact = exact_out["exact_cover_times"][item.ctx["start"]]
        if not _within(mean, se, exact):
            return [f"cover mean {mean} +- {se} vs exact {exact}"]
    if "commute" in item.ctx:
        key, u, v = item.ctx["commute"]
        g = ctx.workload.graphs[key]
        expected = 2 * g.edge_total * _bfs(g.adjacency, u)[v]
        if not _within(mean, se, expected):
            return [f"commute mean {mean} +- {se} vs 2|E|d = {expected}"]
    return []


def check_exact(report: dict, item: Item, ctx: Context, outputs: dict) -> list[str]:
    values = report["exact_cover_times"]
    if "expected" in item.ctx:
        want = item.ctx["expected"]
        off = [x for x in values if abs(x - want) > EXACT_RTOL * want]
        if off:
            return [f"exact cover times {off[:3]} != {want}"]
    if not values or min(values) < 0:
        return [f"bad exact cover times {values[:3]}"]
    return []


CHECKS = {
    "bound": check_bound,
    "scaling": check_scaling,
    "simulate": check_simulate,
    "exact": check_exact,
}


def check_item(item: Item, rc: int, text: str, ctx: Context, outputs: dict) -> list[str]:
    """Exit code 0, JSON that parses, then the item kind's own check."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return CHECKS[item.kind](report, item, ctx, outputs)


# ---------------------------------------------------------------------------
# tamper self-check


def _set(path: tuple, value):
    def tamper(report):
        node = report
        for p in path[:-1]:
            node = node[p]
        node[path[-1]] = value
    return tamper


def _shrink_level(report):
    report["levels"][-1]["size"] -= 1


def _swap_levels(report):
    levels = report["levels"]
    levels[0]["size"], levels[1]["size"] = levels[1]["size"] + 1, levels[0]["size"]


def _drop_cell(report):
    report["cells"].pop()


def _unsandwich(report):
    report["cells"][0]["sandwich_ok"] = False


def _bound_tampers(report, item, ctx):
    hop = ctx.hop(item.ctx["input"], item.ctx["tree"])
    out = [
        ("kklv_above_upper", _set(("kklv_lower",), report["upper_theorem"] * 2)),
        ("matthews_above_upper", _set(("matthews_lower",), report["upper_theorem"] * 2)),
        ("last_level_not_k", _shrink_level),
        ("levels_decrease", _swap_levels),
        ("R_above_hop_diameter", _set(("R",), hop * 1.01 + 1.0)),
    ]
    if item.ctx["tree"]:
        out.append(("tree_R_below_hop_diameter", _set(("R",), hop * 0.5)))
    return out


def _simulate_tampers(report, item, ctx):
    if "exact_item" not in item.ctx and "commute" not in item.ctx:
        return []
    shift = 10 * SE_LIMIT * report["std_err"] + 1.0
    return [("mean_off", _set(("mean",), report["mean"] + shift))]


def _exact_tampers(report, item, ctx):
    values = report["exact_cover_times"]
    return [("value_off", _set(("exact_cover_times", 0), values[0] * 1.01 + 1.0))] \
        if "expected" in item.ctx else [("negative", _set(("exact_cover_times", 0), -1.0))]


TAMPERS = {
    "bound": _bound_tampers,
    "scaling": lambda report, item, ctx: [
        ("cell_missing", _drop_cell), ("cell_not_sandwiched", _unsandwich)],
    "simulate": _simulate_tampers,
    "exact": _exact_tampers,
}


def self_check(items: list[Item], outputs: dict, ctx: Context) -> tuple[int, list[str]]:
    """Tamper with each correct output and require its check to fail.
    A paired exact value is tampered through the simulate check that reads
    it. Returns (tampers tried, tampers the checks missed)."""
    tried, missed = 0, []
    for item in items:
        report = outputs.get(item.name)
        if report is None:
            continue
        for label, tamper in TAMPERS[item.kind](report, item, ctx):
            bad = copy.deepcopy(report)
            tamper(bad)
            tried += 1
            if not CHECKS[item.kind](bad, item, ctx, outputs):
                missed.append(f"{item.name}:{label}")
        if "exact_item" in item.ctx and item.ctx["exact_item"] in outputs:
            shifted = dict(outputs)
            exact = copy.deepcopy(outputs[item.ctx["exact_item"]])
            exact["exact_cover_times"][item.ctx["start"]] += 10 * SE_LIMIT * report["std_err"] + 1.0
            shifted[item.ctx["exact_item"]] = exact
            tried += 1
            if not check_simulate(report, item, ctx, shifted):
                missed.append(f"{item.name}:exact_value_off")
    for label, rc, text in (("exit_code", 2, "{}"), ("not_json", 0, "not json")):
        tried += 1
        if items and not check_item(items[0], rc, text, ctx, outputs):
            missed.append(f"any:{label}")
    return tried, missed
