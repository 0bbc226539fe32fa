"""Workload inputs and items.

Every input graph is generated from the workload seed during set-up and
written as an edge-list file. Items reach the program only through those
files and the command-line arguments built here, and run through the entry
points users call: ``covertime.cli.main`` in-process, or the package's
library functions where the CLI has no command (the exact cover-time DP).
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import covertime
import covertime.cli
from covertime import generators as gen
from covertime import graphs

# The CLI runs single-threaded in every item.
CLI_GLOBALS = ["--threads", "1"]


def sub_seed(seed: int, *tags: int) -> int:
    """Independent 63-bit seed for one input, a pure function of the
    workload seed and the input's tags."""
    entropy = [seed & 0xFFFF_FFFF_FFFF_FFFF, *tags]  # SeedSequence wants nonnegative ints
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class Item:
    """One call into the program: a CLI argv, or an exact-DP library call
    on an edge-list file."""

    name: str
    kind: str  # bound | scaling | simulate | exact
    argv: list[str] | None = None
    path: str | None = None
    ctx: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    warmup: Item
    graphs: dict[str, graphs.MultiGraph]  # input name -> graph, for the checks
    inputs: dict[str, dict]               # input name -> size record


def run_item(item: Item) -> tuple[int, str]:
    """Run one item; returns (exit code, stdout text). Looks the entry
    points up at call time so that installed trace wrappers take effect."""
    if item.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = covertime.cli.main(item.argv)
        return rc, out.getvalue()
    g = covertime.load_edge_list(item.path)
    comp = covertime.connected_components(g)[0]
    values = covertime.exact_cover_times(comp)
    return 0, json.dumps({"exact_cover_times": [float(x) for x in values]})


def _largest(g: graphs.MultiGraph) -> graphs.MultiGraph:
    return graphs.connected_components(g)[0].graph


def _sized(sample, seed: int, tag: int, lo: int, hi: int, tries: int = 500) -> graphs.MultiGraph:
    """Largest component of the first sample with lo <= k <= hi. The band
    keeps each near-critical input in one size class, and on one solver
    path, across seeds; near-critical giants fluctuate by tens of percent."""
    for i in range(tries):
        g = _largest(sample(sub_seed(seed, tag, i)))
        if lo <= g.vertex_count <= hi:
            return g
    raise RuntimeError(f"no sample with {lo} <= k <= {hi} in {tries} tries")


def _random_multigraph(rng: np.random.Generator, n: int) -> graphs.MultiGraph:
    """Connected multigraph on n vertices: a random recursive tree plus
    extra edges that may be loops or parallel edges, with multiplicities."""
    edges = [(v, int(rng.integers(0, v)), int(rng.integers(1, 3))) for v in range(1, n)]
    for _ in range(int(rng.integers(1, n + 2))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        edges.append((u, v, int(rng.integers(1, 3))))
    return graphs.MultiGraph(n, edges)


class _Builder:
    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.items: list[Item] = []
        self.graphs: dict[str, graphs.MultiGraph] = {}
        self.inputs: dict[str, dict] = {}

    def write(self, key: str, g: graphs.MultiGraph, **meta) -> str:
        path = os.path.join(self.workdir, f"{key}.txt")
        with open(path, "w") as fh:
            fh.write(graphs.to_edge_list_text(g))
        self.graphs[key] = g
        self.inputs[key] = {"k": g.vertex_count, "edges": g.edge_total, **meta}
        return path

    def cli(self, name: str, kind: str, argv: list[str], **ctx) -> None:
        self.items.append(Item(name, kind, argv=CLI_GLOBALS + argv, ctx=ctx))

    def exact(self, name: str, path: str, **ctx) -> None:
        self.items.append(Item(name, "exact", path=path, ctx=ctx))

    def done(self, warmup: Item) -> Workload:
        return Workload(self.items, warmup, self.graphs, self.inputs)


def _bound_workload(b: _Builder, seed: int, specs) -> Workload:
    for tag, (key, sample, meta) in enumerate(specs):
        path = b.write(key, sample(seed, tag), **meta)
        b.cli(key, "bound", ["bound", "--edges", path], input=key, tree=meta.get("tree", False))
    warm = b.write("warmup", gen.uniform_labeled_tree(200, sub_seed(seed, 99)))
    # --dense-limit below the warm-up size takes the sparse path the items take
    return b.done(Item("warmup", "bound",
                       argv=CLI_GLOBALS + ["bound", "--edges", warm, "--dense-limit", "64"]))


def _near_tree(b: _Builder, seed: int) -> Workload:
    giant = gen.GiantModelParams(9_000, 0.3)
    return _bound_workload(b, seed, [
        ("tree4096", lambda s, t: gen.uniform_labeled_tree(4096, sub_seed(s, t)),
         {"model": "uniform_labeled_tree(4096)", "tree": True}),
        ("giant_model", lambda s, t: _sized(
            lambda x: gen.giant_model(giant, x).graph, s, t, 3600, 4000),
         {"model": "giant_model(n=9000, eps=0.3), largest component, k in [3600, 4000]"}),
        ("gnp_giant", lambda s, t: _sized(
            lambda x: gen.gnp(12_000, 1.1 / 12_000, x), s, t, 1800, 2400),
         {"model": "gnp(12000, 1.1/n), largest component, k in [1800, 2400]"}),
    ])


def _lattice(b: _Builder, seed: int) -> Workload:
    return _bound_workload(b, seed, [
        ("torus60x2", lambda s, t: gen.percolate(
            gen.BaseGraphSpec.torus(60, 2, 0.55), sub_seed(s, t))[1].graph,
         {"model": "percolate(torus 60^2, p=0.55), largest component"}),
        ("regular3", lambda s, t: _largest(gen.random_regular_graph(2000, 3, sub_seed(s, t))),
         {"model": "random_regular_graph(2000, 3), largest component"}),
        ("torus14x3", lambda s, t: gen.percolate(
            gen.BaseGraphSpec.torus(14, 3, 0.4), sub_seed(s, t))[1].graph,
         {"model": "percolate(torus 14^3, p=0.4), largest component"}),
    ])


# Critical components stay under the CLI's dense limit (1024) at these n, so
# every cell takes the dense path and one large outlier cannot switch it.
EVOLUTION = {"n_grid": [2000, 4000, 6000], "seeds": 20, "trials": 12}
GW = {"k_grid": [256, 512, 1024], "seeds": 10, "trials": 8}


def _scaling(b: _Builder, seed: int) -> Workload:
    evo, gw = EVOLUTION, GW
    b.cli("evolution", "scaling", [
        "--seed", str(sub_seed(seed, 1)), "--trials", str(evo["trials"]),
        "evolution", "--regime", "b", "--n-grid", ",".join(map(str, evo["n_grid"])),
        "--seeds", str(evo["seeds"])], cells=len(evo["n_grid"]) * evo["seeds"])
    b.cli("gw_scaling", "scaling", [
        "--seed", str(sub_seed(seed, 2)), "--trials", str(gw["trials"]),
        "gw-scaling", "--k-grid", ",".join(map(str, gw["k_grid"])),
        "--seeds", str(gw["seeds"])], cells=len(gw["k_grid"]) * gw["seeds"])
    warm = Item("warmup", "scaling", argv=CLI_GLOBALS + [
        "--seed", str(sub_seed(seed, 99)), "--trials", "2",
        "gw-scaling", "--k-grid", "16,24,32", "--seeds", "1"])
    return b.done(warm)


MC_GRAPHS = 20
MC_TRIALS = 100_000


def _mc_exact(b: _Builder, seed: int) -> Workload:
    rng = np.random.default_rng(sub_seed(seed, 1))
    for i in range(MC_GRAPHS):
        key = f"mg{i:02d}"
        # sizes cycle through 2..10 so that only the structure depends on the seed
        path = b.write(key, _random_multigraph(rng, 2 + i % 9))
        b.cli(f"{key}.cover", "simulate", [
            "--seed", str(sub_seed(seed, 2, i)), "--trials", str(MC_TRIALS),
            "simulate", "--edges", path, "--quantity", "cover", "--policy", "fixed",
            "--start", "0"], exact_item=f"{key}.exact", start=0)
        b.exact(f"{key}.exact", path)
    tree256 = b.write("tree256", gen.uniform_labeled_tree(256, sub_seed(seed, 3)), tree=True)
    b.cli("tree256.cover", "simulate", [
        "--seed", str(sub_seed(seed, 4)), "--trials", "2000",
        "simulate", "--edges", tree256, "--quantity", "cover", "--policy", "fixed",
        "--start", "0"])
    tree64 = b.write("tree64", gen.uniform_labeled_tree(64, sub_seed(seed, 5)), tree=True)
    b.cli("tree64.blanket", "simulate", [
        "--seed", str(sub_seed(seed, 6)), "--trials", "50",
        "simulate", "--edges", tree64, "--quantity", "blanket", "--policy", "fixed",
        "--start", "0"])
    b.cli("tree64.commute", "simulate", [
        "--seed", str(sub_seed(seed, 7)), "--trials", "20000",
        "simulate", "--edges", tree64, "--quantity", "commute", "--u", "0", "--v", "63"],
        commute=("tree64", 0, 63))
    b.exact("cycle16.exact", b.write("cycle16", gen.cycle_graph(16)), expected=120.0)
    b.exact("complete15.exact", b.write("complete15", gen.complete_graph(15)),
            expected=14.0 * math.fsum(1.0 / j for j in range(1, 15)))
    warm = b.write("warmup", _random_multigraph(rng, 6))
    return b.done(Item("warmup", "simulate", argv=CLI_GLOBALS + [
        "--seed", "1", "--trials", "300", "simulate", "--edges", warm,
        "--quantity", "cover", "--policy", "fixed", "--start", "0"]))


_BUILDERS = {
    "bound_near_tree": _near_tree,
    "bound_lattice": _lattice,
    "scaling_suite": _scaling,
    "mc_exact": _mc_exact,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate and write the inputs of one workload."""
    return _BUILDERS[name](_Builder(workdir), seed)
