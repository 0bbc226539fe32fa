"""Benchmark of the covertime package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see ``perfbench/workloads.py``) in this process, as
one client in a closed loop, with the CLI at ``--threads 1`` and BLAS
pinned to one thread. Set-up imports the package, generates the inputs
from the seed, writes them as edge-list files and makes one untimed
warm-up call; it is measured five times (in four fresh processes, two
before and two after the timed region, and in this process) and reported
as the median. The timed region then runs whole passes over the workload's items
until the next pass would end after ``--seconds`` (at least one pass) and
reports the median pass wall. Every output is checked after the timed
region.

With ``--trace 1`` the untraced passes are followed by one traced pass,
which wraps the package's public functions from outside
(``perfbench/tracing.py``) and reports per-layer metrics instead of the
end-to-end ones; its spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment and run record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Set-up is sampled in fresh processes, half before and half after the
# timed region, plus this process's own set-up; the machine's speed drifts
# over tens of seconds, so the samples are spread across the run.
SETUP_CHILDREN_EACH_SIDE = 2
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 0

sys.path.insert(0, ROOT)
from perfbench import envinfo  # noqa: E402  (stdlib only; numpy is not loaded yet)

envinfo.pin_blas_threads()


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["bound_near_tree", "bound_lattice", "scaling_suite", "mc_exact"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload: str, seed: int, workdir: str):
    """Import, generate and write the inputs, and make the warm-up call.
    Returns (workload, seconds, warm-up exit code)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench import workloads

    os.makedirs(workdir)
    wl = workloads.build(workload, seed, workdir)
    rc, _ = workloads.run_item(wl.warmup)
    return wl, time.perf_counter() - t0, rc


def _setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_pass(items, run_item) -> tuple[float, dict, dict]:
    """One pass over all items. Returns (wall, name -> (rc, text), name -> item wall)."""
    results, walls = {}, {}
    t0 = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            results[item.name] = run_item(item)
        except (Exception, SystemExit) as exc:  # an item failure must not stop the run
            results[item.name] = (None, f"{type(exc).__name__}: {exc}")
        walls[item.name] = time.perf_counter() - t
    return time.perf_counter() - t0, results, walls


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_pass(items, results, ctx, checks, reference, label: str) -> tuple[dict, dict]:
    """Check one pass: exit code, JSON, the item kind's own check, and the
    same stdout bytes as the first untraced pass. Returns (name -> parsed
    output of the items that passed, "label:name" -> failures)."""
    parsed = {}
    for name, (rc, text) in results.items():
        if rc == 0:
            try:
                parsed[name] = json.loads(text)
            except ValueError:
                pass
    failures = {}
    for item in items:
        rc, text = results[item.name]
        bad = [text] if rc is None else checks.check_item(item, rc, text, ctx, parsed)
        if not bad and _sha(text) != reference[item.name]:
            bad = ["stdout differs from the first untraced pass"]
        if bad:
            failures[f"{label}:{item.name}"] = bad
    return {k: v for k, v in parsed.items() if f"{label}:{k}" not in failures}, failures


def _golden(workload: str, seed: int) -> dict | None:
    with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
        golden = json.load(fh)
    if seed != golden["seed"]:
        return None
    return golden["stdout_sha256"].get(workload, {})


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "covertime", "__init__.py")):
        print("error: package sources not found under src/covertime", file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    try:
        if args.setup_only:
            _, seconds, rc = _setup(args.workload, args.seed, workdir)
            if rc != 0:
                print(f"error: warm-up call exited {rc}", file=sys.stderr)
                return 1
            print(json.dumps({"setup_s": seconds}))
            return 0
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_pass(items, tracer, run_item) -> tuple[float, dict]:
    """One pass with the trace wrappers installed; spans carry the item name."""
    def traced_item(item):
        tracer.item = item.name
        return run_item(item)

    tracer.install()
    try:
        return _run_pass(items, traced_item)[:2]
    finally:
        tracer.restore()


def _bench(args, workdir: str) -> int:
    # setup_s is an end-to-end metric only; the traced run skips its samples
    children = 0 if args.trace else SETUP_CHILDREN_EACH_SIDE
    setup_samples = [_setup_in_child(args) for _ in range(children)]
    wl, own_setup_s, warm_rc = _setup(args.workload, args.seed, workdir)
    if warm_rc != 0:
        print(f"error: warm-up call exited {warm_rc}", file=sys.stderr)
        return 1
    setup_samples.append(own_setup_s)
    from perfbench import checks, tracing, workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()  # fails the traced run early if a name no longer resolves
        tracer.restore()

    # timed region: whole passes, tracing off
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(wl.items, workloads.run_item))
        if time.perf_counter() - start + passes[-1][0] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p[0] for p in passes]
    wall_s = statistics.median(walls)

    ctx = checks.Context(wl)
    first_hashes = {name: _sha(text) for name, (_, text) in passes[0][1].items()}
    failures: dict[str, list] = {}
    parsed0 = None
    for n, (_, results, _) in enumerate(passes):
        parsed, bad = _check_pass(wl.items, results, ctx, checks, first_hashes, f"pass{n}")
        parsed0 = parsed if parsed0 is None else parsed0
        failures.update(bad)
    attempted = len(wl.items) * len(passes)
    tried, missed = checks.self_check(wl.items, parsed0, ctx)

    trace_record, layer = {}, None
    if args.trace:
        traced_wall, results = _traced_pass(wl.items, tracer, workloads.run_item)
        layer = tracing.layer_metrics(tracer, traced_wall, wall_s, peak_rss_mb)
        failures.update(_check_pass(wl.items, results, ctx, checks, first_hashes, "traced")[1])
        attempted += len(wl.items)
        span_path = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(span_path), exist_ok=True)
        tracer.write(span_path)
        trace_record = {
            "engine_rule": tracing.ENGINE_RULE,
            "vector_threshold": tracer.vector_threshold,
            "spans_file": os.path.relpath(span_path, ROOT),
            "self_times_add_up": tracing.self_times_add_up(layer),
        }
    setup_samples += [_setup_in_child(args) for _ in range(children)]

    if layer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
        }
        ungated = {"peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = {name: {"value": layer[name], "unit": _unit(name)} for name in tracing.PER_LAYER}
        ungated = {}
    failed = len(failures)
    golden = _golden(args.workload, args.seed)
    outputs_changed = None if golden is None else sum(
        1 for name, digest in first_hashes.items() if golden.get(name) != digest)
    inputs = dict(wl.inputs)
    for item in wl.items:  # suites sample their graphs inside the program
        if item.kind == "scaling" and item.name in parsed0:
            inputs[item.name] = {"cell_k": [c["size"] for c in parsed0[item.name]["cells"]]}
    record = {
        **envinfo.record(ROOT, args.workload, args.seed, inputs),
        "loop": "closed, one client",
        "cli_globals": workloads.CLI_GLOBALS,
        "run_seconds": args.seconds,
        "passes": len(passes),
        "pass_walls_s": walls,
        "item_walls_s": passes[0][2],
        "setup_samples_s": setup_samples,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "failures": failures,
        "self_check": {"tampers": tried, "missed": missed},
        "stdout_sha256": first_hashes,
        "outputs_changed": outputs_changed,
        **trace_record,
    }

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in ungated.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    print(f"{'outputs_changed':32s} {outputs_changed}")
    print(json.dumps({"record": record}))
    correct = failed == 0 and not missed and trace_record.get("self_times_add_up", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
