"""Command-line interface.

Subcommands: bound, simulate, evolution, gw-scaling, edge-add, generate.
Global flags: --seed, --trials, --json PATH, --csv PATH, --threads N.
Exit codes: 0 success, 1 stdout closed before the report was written (as
in ``covertime generate ... | head -2``; nothing is printed to stderr), 2
input contract violation (including a missing or unreadable file), 3
assertion failure in exact mode. --threads is accepted for compatibility
and ignored: suites run their cells, and simulate the trials of an
estimate, on the CPUs of the affinity mask, one process each (``taskset -c
0`` runs them in one).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import CovertimeError
from .experiments import (
    compute_bound_report,
    edge_addition_suite,
    evolution_suite,
    gw_scaling_suite,
)
from .generators import (
    BaseGraphSpec,
    GiantModelParams,
    giant_model,
    gnp,
    percolate,
    pgw_tree,
    uniform_labeled_tree,
)
from .graphs import (
    ComponentView,
    MultiGraph,
    connected_components,
    load_edge_list,
    to_edge_list_text,
)
from .resistance import DENSE_LIMIT
from .walks import simulate


# percolation base -> (spec constructor, the argparse dests it takes before p)
_BASES = {
    "complete": (BaseGraphSpec.complete, ("base_n",)),
    "hypercube": (BaseGraphSpec.hypercube, ("m",)),
    "torus": (BaseGraphSpec.torus, ("m", "d")),
    "random-regular": (BaseGraphSpec.random_regular, ("base_n", "d")),
    "file": (BaseGraphSpec.from_file, ("base_file",)),
}


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="edge-list file (header 'n <count>' optional)")
    p.add_argument("--model", choices=["gnp", "tree", "pgw", "giant", "percolation"])
    p.add_argument("--n", type=int, help="vertex count (gnp, giant)")
    p.add_argument("--p", type=float, help="edge probability (gnp, percolation)")
    p.add_argument("--k", type=int, help="tree size (tree)")
    p.add_argument("--mu", type=float, help="offspring mean (pgw)")
    p.add_argument("--epsilon", type=float, help="distance above the window (giant)")
    p.add_argument("--size-cap", type=int, default=1_000_000)
    p.add_argument("--base", choices=list(_BASES), help="base graph for percolation")
    p.add_argument("--m", type=int, help="hypercube dimension / torus side")
    p.add_argument("--d", type=int, help="torus dimension / regular degree")
    p.add_argument("--base-n", type=int, help="vertex count of the base graph")
    p.add_argument("--base-file", help="edge-list path for --base file")
    p.add_argument("--largest-component", action="store_true")


def _base_spec(args) -> BaseGraphSpec:
    if args.base is None:
        raise CovertimeError("percolation requires --base")
    make, dests = _BASES[args.base]
    missing = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is None]
    if missing:
        raise CovertimeError(f"--base {args.base} requires {' and '.join(missing)}")
    p = args.p if args.p is not None else 1.0
    return make(*(getattr(args, d) for d in dests), p)


def _build_graph(args) -> MultiGraph:
    if args.edges:
        return load_edge_list(args.edges)
    if args.model == "gnp":
        if args.n is None or args.p is None:
            raise CovertimeError("gnp requires --n and --p")
        return gnp(args.n, args.p, args.seed)
    if args.model == "tree":
        if args.k is None:
            raise CovertimeError("tree requires --k")
        return uniform_labeled_tree(args.k, args.seed)
    if args.model == "pgw":
        if args.mu is None:
            raise CovertimeError("pgw requires --mu")
        return pgw_tree(args.mu, args.seed, args.size_cap).graph
    if args.model == "giant":
        if args.n is None or args.epsilon is None:
            raise CovertimeError("giant requires --n and --epsilon")
        return giant_model(GiantModelParams(args.n, args.epsilon), args.seed).graph
    if args.model == "percolation":
        return percolate(_base_spec(args), args.seed)[0]
    raise CovertimeError("provide --edges or --model")


def _component(args) -> ComponentView:
    g = _build_graph(args)
    comps = connected_components(g)
    if not comps:
        raise CovertimeError("graph has no vertices")
    if len(comps) > 1 and not args.largest_component:
        raise CovertimeError(
            f"graph has {len(comps)} components; pass --largest-component"
        )
    return comps[0]


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    # the files first, so a closed stdout cannot lose them
    text = json.dumps(payload, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if args.csv and csv_rows is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)
    print(text)


def _cmd_bound(args) -> int:
    report = compute_bound_report(
        _component(args), dense_limit=args.dense_limit, i_max=args.i_max
    )
    payload = report.to_dict()
    rows = [[lvl["i"], lvl["radius"], lvl["size"], lvl["alpha"]] for lvl in payload["levels"]]
    _emit(args, payload, rows, ["i", "radius", "size", "alpha"])
    return 0


def _cmd_simulate(args) -> int:
    comp = _component(args)
    est = simulate(
        comp,
        args.quantity,
        start_policy=args.policy,
        start=args.start,
        u=args.u,
        v=args.v,
        trials=args.trials,
        master_seed=args.seed,
    )
    if args.emit_samples:
        with open(args.emit_samples, "w") as fh:
            for s in est.samples.tolist():
                fh.write(f"{s}\n")
    _emit(args, est.to_dict())
    return 0


def _cmd_evolution(args) -> int:
    report = evolution_suite(
        args.regime,
        args.n_grid,
        args.seeds,
        args.trials,
        args.seed,
        lam=args.lam,
        eps_power=args.eps_power,
    )
    payload = report.to_dict()
    rows = [
        [r["n"], r["seeds"], r["median_cover"], r["median_upper_clean"],
         r["median_kklv_lower"], r["law"]]
        for r in payload["rows"]
    ]
    _emit(args, payload, rows,
          ["n", "seeds", "median_cover", "median_upper_clean", "median_kklv_lower", "law"])
    return 0


def _cmd_gw_scaling(args) -> int:
    report = gw_scaling_suite(
        args.k_grid,
        args.seeds,
        args.trials,
        args.seed,
    )
    payload = report.to_dict()
    rows = [
        [r["k"], r["seeds"], r["median_cover"], r["median_upper_clean"],
         r["median_kklv_lower"], r["law"]]
        for r in payload["rows"]
    ]
    _emit(args, payload, rows,
          ["k", "seeds", "median_cover", "median_upper_clean", "median_kklv_lower", "law"])
    return 0


def _cmd_edge_add(args) -> int:
    report = edge_addition_suite(
        args.mode,
        args.k_edges,
        args.instances,
        args.seed,
        n_max=args.n_max,
        trials=args.trials,
    )
    payload = report.to_dict()
    rows = [
        [i, r["graph"]["n"], r["graph"]["edges"], r["tcov_before"], r["tcov_after"],
         r["ratio"], r["bound"]]
        for i, r in enumerate(payload["rows"])
    ]
    _emit(args, payload, rows,
          ["instance", "n", "edges", "tcov_before", "tcov_after", "ratio", "bound"])
    if args.mode == "exact" and report.violations:
        print(f"bound violated on instances {report.violations}", file=sys.stderr)
        return 3
    return 0


def _cmd_generate(args) -> int:
    g = _build_graph(args)
    comps = connected_components(g)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(to_edge_list_text(g))
    payload = {
        "model": args.model or "file",
        "seed": int(args.seed),
        "vertices": g.vertex_count,
        "edges": g.edge_total,
        "components": len(comps),
        "largest_component": comps[0].size if comps else 0,
        "dump": args.dump,
    }
    _emit(args, payload)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # on subparsers the defaults are suppressed so that values given before
    # the subcommand survive
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--seed", type=int, help="master seed",
                   **({"default": d} if suppress else {"default": 0}))
    p.add_argument("--trials", type=int,
                   **({"default": d} if suppress else {"default": 1000}))
    p.add_argument("--json", help="also write the JSON report to this path",
                   **({"default": d} if suppress else {"default": None}))
    p.add_argument("--csv", help="write tabular rows to this path",
                   **({"default": d} if suppress else {"default": None}))
    p.add_argument("--threads", type=int,
                   help="ignored; suites and simulate use one process per CPU of the affinity mask",
                   **({"default": d} if suppress else {"default": 1}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertime",
        description="Cover-time bounds from resistance-ball covering statistics, "
        "with Monte Carlo validation and random-graph models.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="covering profile and cover-time bounds")
    _add_graph_source(p_bound)
    _add_global_flags(p_bound, suppress=True)
    p_bound.add_argument("--i-max", type=int, default=None)
    p_bound.add_argument(
        "--dense-limit", type=int, default=DENSE_LIMIT,
        help="largest component whose R is materialized; larger ones read rows "
        "on demand, with the same bits",
    )
    p_bound.set_defaults(fn=_cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte Carlo walk functionals")
    _add_graph_source(p_sim)
    _add_global_flags(p_sim, suppress=True)
    p_sim.add_argument("--quantity", default="cover",
                       choices=["cover", "cover_return", "blanket", "hitting", "commute"])
    p_sim.add_argument("--policy", default="fixed",
                       choices=["fixed", "stationary", "worst_over_all_starts"])
    p_sim.add_argument("--start", type=int, default=None)
    p_sim.add_argument("--u", type=int, default=None)
    p_sim.add_argument("--v", type=int, default=None)
    p_sim.add_argument("--emit-samples", help="write one per-trial sample per line")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_evo = sub.add_parser("evolution", help="cover-time scaling across density regimes")
    p_evo.add_argument("--regime", required=True, choices=["a", "b", "c"])
    _add_global_flags(p_evo, suppress=True)
    p_evo.add_argument("--n-grid", type=_int_list, default="4000,8000,16000,32000")
    p_evo.add_argument("--seeds", type=int, default=20)
    p_evo.add_argument("--lam", type=float, default=0.0,
                       help="window position for regime b")
    p_evo.add_argument("--eps-power", type=float, default=0.25,
                       help="epsilon = n^-power in regimes a and c")
    p_evo.set_defaults(fn=_cmd_evolution)

    p_gw = sub.add_parser("gw-scaling", help="uniform-tree cover-time scaling")
    p_gw.add_argument("--k-grid", type=_int_list, default="256,1024,4096")
    _add_global_flags(p_gw, suppress=True)
    p_gw.add_argument("--seeds", type=int, default=20)
    p_gw.set_defaults(fn=_cmd_gw_scaling)

    p_edge = sub.add_parser("edge-add", help="cover time before/after adding edges")
    p_edge.add_argument("--mode", default="exact", choices=["exact", "mc"])
    _add_global_flags(p_edge, suppress=True)
    p_edge.add_argument("--k-edges", type=int, default=1)
    p_edge.add_argument("--instances", type=int, default=50)
    p_edge.add_argument("--n-max", type=int, default=10)
    p_edge.set_defaults(fn=_cmd_edge_add)

    p_gen = sub.add_parser("generate", help="sample a graph and dump it")
    _add_graph_source(p_gen)
    _add_global_flags(p_gen, suppress=True)
    p_gen.add_argument("--dump", help="write the edge list here")
    p_gen.set_defaults(fn=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early; point it at devnull so the interpreter's
        # final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CovertimeError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
