"""Outside-in tracing: spans around the public functions of each module.

Wrappers are installed from here, by identity, on every ``covertime``
module attribute that holds a traced function (the defining module and
each module that imported it by name), and on the ``ResistanceOracle``
constructor and row methods. Nothing inside the package changes. Spans
are kept in memory as (name, start, end, parent, item), written out at
the end, and the originals are restored afterwards.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (defining module, attribute names)
FUNCTIONS = {
    "cli.main": ("covertime.cli", ("main",)),
    "graphs.parse": ("covertime.graphs", ("load_edge_list", "from_edge_list")),
    "graphs.components": ("covertime.graphs", ("connected_components",)),
    "generators.sample": ("covertime.generators", (
        "gnp", "uniform_labeled_tree", "giant_model", "percolate", "pgw_tree",
        "random_regular_graph")),
    "resistance.diameter": ("covertime.resistance", ("resistance_diameter",)),
    "bounds.packing": ("covertime.bounds", ("greedy_packing",)),
    "bounds.psi": ("covertime.bounds", ("psi_bound",)),
    "bounds.matthews_sets": ("covertime.bounds", ("default_matthews_sets",)),
    "bounds.matthews": ("covertime.bounds", ("matthews_from_oracle",)),
    "walks.simulate": ("covertime.walks", ("simulate",)),
    "walks.exact_dp": ("covertime.walks", ("exact_cover_times",)),
    "experiments.cell": ("covertime.experiments", ("evaluate_cell",)),
    "experiments.suite": ("covertime.experiments", ("evolution_suite", "gw_scaling_suite")),
}
# span name -> (module, class, method names)
METHODS = {
    "resistance.factor": ("covertime.resistance", "ResistanceOracle", ("__init__",)),
    "resistance.row": ("covertime.resistance", "ResistanceOracle", (
        "resistances_from_local", "rows_from_locals", "resistances_from")),
}
LAYERS = ("cli", "graphs", "generators", "resistance", "bounds", "walks", "experiments")

# Engine attribution of simulate(), mirroring walks._run_batch at the
# commit that defined this benchmark.
ENGINE_RULE = (
    "hitting/commute: vector if trials >= VECTOR_THRESHOLD else scalar; "
    "worst_over_all_starts: worst_start (steps not visible); blanket: scalar heap; "
    "cover/cover_return: vector if trials >= VECTOR_THRESHOLD else scalar"
)

PER_LAYER = (
    "resistance.factor_s", "resistance.factor_dense", "resistance.factor_sparse",
    "resistance.diameter_s", "resistance.diameter_exact", "resistance.row_queries",
    "resistance.row_s", "resistance.self_s",
    "bounds.packing_s", "bounds.packing_self_s", "bounds.packing_rows",
    "bounds.packing_centers", "bounds.packing_yield", "bounds.matthews_s",
    "bounds.matthews_rows", "bounds.self_s",
    "walks.simulate_s", "walks.vector_steps", "walks.vector_steps_per_s",
    "walks.scalar_steps", "walks.scalar_steps_per_s", "walks.blanket_steps_per_s",
    "walks.worst_start_s", "walks.exact_dp_s", "walks.exact_dp_states", "walks.self_s",
    "graphs.parse_s", "graphs.components_s", "graphs.vertices", "graphs.self_s",
    "generators.sample_s", "generators.samples", "generators.self_s",
    "experiments.cell_s", "experiments.cells", "experiments.cell_self_s",
    "experiments.suite_self_s", "cli.self_s",
    "trace.wall_s", "trace.unattributed_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.spans", "process.peak_rss_mb",
)
# Self-time metrics that, with trace.unattributed_s, add up to trace.wall_s.
SELF_TIMES = (
    "cli.self_s", "graphs.self_s", "generators.self_s", "resistance.self_s", "bounds.self_s",
    "walks.self_s", "experiments.cell_self_s", "experiments.suite_self_s",
)


class TraceError(RuntimeError):
    """A traced name no longer resolves; the traced run fails."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (name, start, end, parent, item)
        self.info: dict[int, dict] = {}
        self.item: str | None = None
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple] = []
        self.vector_threshold: int | None = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._open:  # nested call of the same layer counts once
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer.spans[idx] = (name, start, end, parent, tracer.item)
            if hook is not None:
                tracer.info[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raises TraceError if any name is missing."""
        walks = importlib.import_module("covertime.walks")
        if not hasattr(walks, "VECTOR_THRESHOLD"):
            raise TraceError("covertime.walks.VECTOR_THRESHOLD no longer resolves")
        self.vector_threshold = int(walks.VECTOR_THRESHOLD)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "covertime" or n.startswith("covertime."))]
        try:
            for name, (modname, attrs) in FUNCTIONS.items():
                home = importlib.import_module(modname)
                for attr in attrs:
                    orig = getattr(home, attr, None)
                    if not callable(orig):
                        raise TraceError(f"{modname}.{attr} no longer resolves")
                    wrapper = self._wrap(name, orig, self._hook(name, attr))
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, wrapper)
                                self._restore.append((mod, key, orig))
            for name, (modname, clsname, attrs) in METHODS.items():
                cls = getattr(importlib.import_module(modname), clsname, None)
                for attr in attrs:
                    orig = cls.__dict__.get(attr) if cls is not None else None
                    if not callable(orig):
                        raise TraceError(f"{modname}.{clsname}.{attr} no longer resolves")
                    setattr(cls, attr, self._wrap(name, orig, self._hook(name, attr)))
                    self._restore.append((cls, attr, orig))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- per-span counts ----------------------------------------------------

    def _hook(self, name: str, attr: str):
        if name == "resistance.row":
            if attr == "rows_from_locals":
                return lambda a, kw, r: {"rows": int(r.shape[0])}
            return lambda a, kw, r: {"rows": 1}
        if name == "resistance.factor":
            return lambda a, kw, r: {"dense": bool(a[0].dense)}
        if name == "resistance.diameter":
            return lambda a, kw, r: {"exact": bool(r.exact)}
        if name == "bounds.packing":
            return lambda a, kw, r: {"centers": _greedy_centers(r)}
        if name == "graphs.components":
            return lambda a, kw, r: {"vertices": int(a[0].vertex_count)}
        if name == "walks.exact_dp":
            return lambda a, kw, r: {"states": int(a[0].size) * 2 ** int(a[0].size)}
        if name == "walks.simulate":
            return self._simulate_info
        return None

    def _simulate_info(self, args, kwargs, est) -> dict:
        quantity = args[1] if len(args) > 1 else kwargs["quantity"]
        policy = kwargs.get("start_policy", "fixed")
        trials = int(est.trials)
        if quantity not in ("hitting", "commute") and policy in ("worst", "worst_over_all_starts"):
            return {"engine": "worst_start", "steps": None}
        if quantity == "blanket":
            engine = "blanket"
        else:
            engine = "vector" if trials >= self.vector_threshold else "scalar"
        return {"engine": engine, "steps": int(round(est.mean * trials))}

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                rec = {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                rec.update(self.info.get(idx) or {})
                fh.write(json.dumps(rec) + "\n")


def _greedy_centers(profile) -> int:
    """Centers found by greedy packing: levels after one that already held
    every vertex are copied without reading rows."""
    k = profile.vertex_count
    total = 0
    for i, lvl in enumerate(profile.levels):
        if i == 0 or profile.levels[i - 1].size < k:
            total += lvl.size
    return total


def self_times_add_up(m: dict) -> bool:
    parts = sum(m[name] for name in SELF_TIMES) + m["trace.unattributed_s"]
    return abs(parts - m["trace.wall_s"]) < 1e-6


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  peak_rss_mb: float) -> dict:
    """Per-layer metrics from the spans of one traced pass, plus the
    process's peak resident set from the untraced passes. Self times of all
    layers plus the unattributed time add up to the traced wall."""
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def ancestor(i: int, names: tuple) -> str | None:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return spans[p][0]
            p = spans[p][3]
        return None

    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + dur[i]
        count[s[0]] = count.get(s[0], 0) + 1

    m = {key: 0.0 for key in PER_LAYER}
    layer_self = {layer: 0.0 for layer in LAYERS}
    cell_self = suite_self = 0.0
    steps = {"vector": 0, "scalar": 0, "blanket": 0}
    engine_s = {"vector": 0.0, "scalar": 0.0, "blanket": 0.0, "worst_start": 0.0}
    packing_row_s = 0.0
    for i, s in enumerate(spans):
        name, info = s[0], tracer.info.get(i) or {}
        layer_self[name.split(".")[0]] += self_t[i]
        if name == "experiments.cell":
            cell_self += self_t[i]
        elif name == "experiments.suite":
            suite_self += self_t[i]
        elif name == "resistance.factor":
            m["resistance.factor_dense" if info["dense"] else "resistance.factor_sparse"] += 1
        elif name == "resistance.diameter":
            m["resistance.diameter_exact"] += int(info["exact"])
        elif name == "resistance.row":
            m["resistance.row_queries"] += info["rows"]
            owner = ancestor(i, ("bounds.packing", "bounds.matthews"))
            if owner == "bounds.packing":
                m["bounds.packing_rows"] += info["rows"]
                packing_row_s += dur[i]
            elif owner == "bounds.matthews":
                m["bounds.matthews_rows"] += info["rows"]
        elif name == "bounds.packing":
            m["bounds.packing_centers"] += info["centers"]
        elif name == "graphs.components":
            m["graphs.vertices"] += info["vertices"]
        elif name == "walks.exact_dp":
            m["walks.exact_dp_states"] += info["states"]
        elif name == "walks.simulate":
            engine_s[info["engine"]] += dur[i]
            if info["steps"] is not None:
                steps[info["engine"]] += info["steps"]

    def rate(engine: str) -> float:
        return steps[engine] / engine_s[engine] if engine_s[engine] > 0 else 0.0

    m.update({
        "resistance.factor_s": total.get("resistance.factor", 0.0),
        "resistance.diameter_s": total.get("resistance.diameter", 0.0),
        "resistance.row_s": total.get("resistance.row", 0.0),
        "resistance.self_s": layer_self["resistance"],
        "bounds.packing_s": total.get("bounds.packing", 0.0),
        "bounds.packing_self_s": total.get("bounds.packing", 0.0) - packing_row_s,
        "bounds.matthews_s": total.get("bounds.matthews", 0.0),
        "bounds.self_s": layer_self["bounds"],
        "walks.simulate_s": total.get("walks.simulate", 0.0),
        "walks.vector_steps": steps["vector"],
        "walks.vector_steps_per_s": rate("vector"),
        "walks.scalar_steps": steps["scalar"],
        "walks.scalar_steps_per_s": rate("scalar"),
        "walks.blanket_steps_per_s": rate("blanket"),
        "walks.worst_start_s": engine_s["worst_start"],
        "walks.exact_dp_s": total.get("walks.exact_dp", 0.0),
        "walks.self_s": layer_self["walks"],
        "graphs.parse_s": total.get("graphs.parse", 0.0),
        "graphs.components_s": total.get("graphs.components", 0.0),
        "graphs.self_s": layer_self["graphs"],
        "generators.sample_s": total.get("generators.sample", 0.0),
        "generators.samples": count.get("generators.sample", 0),
        "generators.self_s": layer_self["generators"],
        "experiments.cell_s": total.get("experiments.cell", 0.0),
        "experiments.cells": count.get("experiments.cell", 0),
        "experiments.cell_self_s": cell_self,
        "experiments.suite_self_s": suite_self,
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - sum(self_t),
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": n,
        "process.peak_rss_mb": peak_rss_mb,
    })
    rows = m["bounds.packing_rows"]
    m["bounds.packing_yield"] = m["bounds.packing_centers"] / rows if rows else 0.0
    return m
