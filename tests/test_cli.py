import csv
import json
import os
import subprocess
import sys
import time

import pytest

import oracles as oc
from covertime import (
    compute_bound_report,
    connected_components,
    from_edge_list,
    to_edge_list_text,
    uniform_labeled_tree,
)
from covertime.cli import main


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "covertime", *argv],
        capture_output=True, text=True, timeout=600,
        env=None if env is None else dict(os.environ, **env),
    )
    return proc


class TestBoundCommand:
    def test_schema_and_invariant(self, capsys):
        rc = main(["--seed", "7", "bound", "--model", "gnp", "--n", "1000",
                   "--p", "0.001", "--largest-component"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"R", "levels", "psi", "upper_theorem",
                                "upper_clean", "kklv_lower", "matthews_lower"}
        assert payload["kklv_lower"] <= payload["upper_theorem"]

    def test_single_edge_graph(self, tmp_path, capsys):
        edges = tmp_path / "k2.txt"
        edges.write_text("0 1\n")
        rc = main(["bound", "--edges", str(edges)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["R"] == pytest.approx(1.0)
        assert payload["psi"] > 0

    def test_path_level_growth(self, tmp_path, capsys):
        edges = tmp_path / "path64.txt"
        edges.write_text("\n".join(f"{i} {i+1}" for i in range(64)) + "\n")
        rc = main(["bound", "--edges", str(edges)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # resistance equals distance on a path: packings roughly double
        sizes = [lvl["size"] for lvl in payload["levels"] if lvl["i"] >= 1]
        for a, b in zip(sizes, sizes[1:]):
            if a < 65:
                assert 1.4 * a <= b <= 4 * a + 2

    def test_single_isolated_vertex(self, tmp_path, capsys):
        edges = tmp_path / "one.txt"
        edges.write_text("n 1\n")
        rc = main(["bound", "--edges", str(edges)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["R"] == 0.0
        assert payload["upper_theorem"] == 0.0
        assert payload["kklv_lower"] == 0.0

    # --dense-limit is parsed and ignored: it changes no byte
    @pytest.mark.parametrize("flags, kwargs", [([], {}), (["--dense-limit", "16"], {}),
                                               (["--i-max", "3"], {"i_max": 3})])
    def test_stdout_is_the_library_report(self, flags, kwargs, capsys):
        rc = main(["--seed", "3", "bound", "--model", "tree", "--k", "40", *flags])
        assert rc == 0
        comp = connected_components(uniform_labeled_tree(40, 3))[0]
        report = compute_bound_report(comp, **kwargs)
        assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("model", [
        pytest.param("percolation --base torus --m 30 --d 2 --p 0.6 --largest-component",
                     id="torus30"),
        pytest.param("tree --k 3000", id="tree3000"),   # a one-vertex core
        pytest.param("giant --n 9000 --epsilon 0.3 --largest-component", id="giant9000"),
    ])
    def test_same_bytes_with_r_kept_and_rows_on_demand(self, monkeypatch, capsys, model):
        # components of 875, 3000 and 3878 vertices: R is kept at the default
        # budget, and each row is formed on demand when R may take only
        # 100^2 doubles (the budget still fits each graph)
        argv = ["--seed", "5", "bound", "--model", *model.split()]
        assert main(argv) == 0
        kept = capsys.readouterr().out
        modes = oc.oracle_modes(monkeypatch)
        with oc.r_kept_up_to(100):
            assert main(argv) == 0
        assert modes == [False]
        assert capsys.readouterr().out == kept

    def test_disconnected_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "two.txt"
        edges.write_text("0 1\n2 3\n")
        assert main(["bound", "--edges", str(edges)]) == 2

    def test_json_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["--seed", "3", "--json", str(out), "bound", "--model", "tree", "--k", "40"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert out.read_text() == stdout

    def test_csv_levels(self, tmp_path, capsys):
        out = tmp_path / "levels.csv"
        rc = main(["--seed", "3", "--csv", str(out), "bound", "--model", "tree", "--k", "30"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "i,radius,size,alpha"
        assert len(lines) >= 2


class TestSimulateCommand:
    def test_cover_and_samples(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        rc = main(["--seed", "5", "--trials", "200", "simulate", "--model", "tree",
                   "--k", "8", "--quantity", "cover", "--policy", "worst_over_all_starts",
                   "--emit-samples", str(samples)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"quantity", "start_policy", "mean", "std_err",
                                "trials", "seed"}
        values = [int(x) for x in samples.read_text().split()]
        assert len(values) == 200
        assert abs(sum(values) / 200 - payload["mean"]) < 1e-9

    def test_hitting_requires_uv(self, tmp_path):
        edges = tmp_path / "p3.txt"
        edges.write_text("0 1\n1 2\n")
        assert main(["simulate", "--edges", str(edges), "--quantity", "hitting"]) == 2

    def test_hitting_mean_near_exact(self, tmp_path, capsys):
        edges = tmp_path / "p4.txt"
        edges.write_text("0 1\n1 2\n2 3\n")
        rc = main(["--seed", "6", "--trials", "20000", "simulate", "--edges",
                   str(edges), "--quantity", "hitting", "--u", "0", "--v", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mean"] - 9.0) <= 3 * payload["std_err"]

    def test_blanket_via_cli(self, tmp_path, capsys):
        edges = tmp_path / "k2.txt"
        edges.write_text("0 1\n")
        rc = main(["--trials", "50", "simulate", "--edges", str(edges),
                   "--quantity", "blanket", "--policy", "fixed", "--start", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == 1.0


class TestGenerate:
    def test_dump_roundtrip(self, tmp_path, capsys):
        dump = tmp_path / "g.txt"
        rc = main(["--seed", "9", "generate", "--model", "gnp", "--n", "50",
                   "--p", "0.1", "--dump", str(dump)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        g = from_edge_list(dump.read_text())
        assert g.vertex_count == 50
        assert g.edge_total == payload["edges"]

    def test_percolation_model(self, capsys):
        rc = main(["--seed", "2", "generate", "--model", "percolation", "--base",
                   "hypercube", "--m", "4", "--p", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 16

    def test_pgw_model(self, capsys):
        rc = main(["--seed", "4", "generate", "--model", "pgw", "--mu", "0.9"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["components"] == 1

    def test_giant_model(self, capsys):
        rc = main(["--seed", "5", "generate", "--model", "giant", "--n", "20000",
                   "--epsilon", "0.3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] > 100


class TestExitCodes:
    def test_edge_add_exact_ok(self, capsys):
        rc = main(["--seed", "11", "edge-add", "--mode", "exact", "--instances", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert all(r["ratio"] <= r["bound"] + 1e-9 for r in payload["rows"])

    def test_missing_model_args(self):
        assert main(["bound", "--model", "gnp"]) == 2

    def test_closed_stdout_exits_quietly(self):
        # the reader of the pipe is gone before the report is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "covertime", "generate", "--model", "tree", "--k", "50"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 1
        assert err == b""

    def test_closed_stdout_keeps_json_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "covertime", "generate", "--model", "tree", "--k", "50",
             "--json", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 1
        assert err == b""
        assert json.loads(out.read_text())["vertices"] == 50


class TestInputErrors:
    """Bad input exits 2 with one `error:` line and no traceback."""

    @staticmethod
    def _assert_input_error(proc):
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_edges_file(self, tmp_path):
        self._assert_input_error(run_cli("bound", "--edges", str(tmp_path / "none.txt")))

    def test_missing_base_file(self, tmp_path):
        self._assert_input_error(run_cli(
            "generate", "--model", "percolation", "--base", "file",
            "--base-file", str(tmp_path / "none.txt")))

    @pytest.mark.parametrize("argv", [
        ["evolution", "--regime", "b", "--n-grid", "16,x,32"],
        ["gw-scaling", "--k-grid", "16,x,32"],
    ])
    def test_non_integer_grid(self, argv):
        self._assert_input_error(run_cli(*argv))

    def test_gw_scaling_single_vertex_tree(self):
        # a 1-vertex tree would put log(0) into the fit and print NaN
        proc = run_cli("gw-scaling", "--k-grid", "1,2,3", "--seeds", "1")
        self._assert_input_error(proc)
        assert proc.stdout == ""

    @pytest.mark.parametrize("base", ["torus", "hypercube", "complete", "random-regular"])
    def test_percolation_base_without_size_flags(self, base):
        self._assert_input_error(run_cli(
            "generate", "--model", "percolation", "--base", base, "--p", "0.5"))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_edge_add_n_max_below_two(self, mode):
        self._assert_input_error(run_cli(
            "edge-add", "--mode", mode, "--n-max", "1", "--instances", "1"))

    def test_trial_batch_over_budget(self):
        # 10**12 walks would need 24 TB of keys, starts and samples
        proc = run_cli("--trials", "1000000000000", "simulate", "--model", "tree", "--k", "10",
                       "--quantity", "cover", "--start", "0")
        self._assert_input_error(proc)
        assert "over the budget" in proc.stderr and proc.stdout == ""

    def test_trial_batch_over_the_measured_charge(self, capsys):
        # 4 * 10**7 walks passed a charge of 24 bytes a walk and then ran out
        # of memory; at the measured charge they are refused, 10**5 still run
        argv = ["simulate", "--model", "tree", "--k", "10", "--quantity", "cover", "--start", "0"]
        t0 = time.perf_counter()
        assert main(["--trials", "40000000", *argv]) == 2
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: a batch of 40000000 walks needs ")
        assert main(["--trials", "100000", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 100000

    @pytest.mark.parametrize("argv", [
        ["generate", "--edges", "{path}"],
        ["bound", "--edges", "{path}"],
        ["simulate", "--edges", "{path}", "--quantity", "cover", "--start", "0"],
        ["generate", "--model", "percolation", "--base", "file", "--base-file", "{path}"],
    ], ids=["generate", "bound", "simulate", "percolation"])
    def test_edge_list_header_over_budget(self, tmp_path, capsys, argv):
        # the header asks for a degree table of 80 GB
        path = tmp_path / "huge.txt"
        path.write_text("n 10000000000\n0 1\n")
        t0 = time.perf_counter()
        assert main([a.format(path=path) for a in argv]) == 2
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: a graph of 10000000000 vertices and 1 edges needs ")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--edges", "{path}", "--quantity", "cover", "--start", "0"],
        ["--trials", "10", "simulate", "--edges", "{path}", "--quantity", "cover", "--start", "0"],
    ], ids=["vector", "scalar"])
    def test_walk_tables_over_budget(self, tmp_path, capsys, argv):
        # one edge of multiplicity 10**10: 2 * 10**10 edge ends to step through
        path = tmp_path / "heavy.txt"
        path.write_text("n 2\n0 1 10000000000\n")
        t0 = time.perf_counter()
        assert main([a.format(path=path) for a in argv]) == 2
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: a walk ") and "over the budget" in out.err

    @pytest.mark.parametrize("model", [
        ["--model", "tree", "--k", "10000000000"],
        ["--model", "gnp", "--n", "10000000000", "--p", "1e-10"],
        ["--model", "giant", "--n", "10000000000", "--epsilon", "0.3"],
        ["--model", "percolation", "--base", "torus", "--m", "100000", "--d", "3"],
        ["--model", "percolation", "--base", "hypercube", "--m", "2000", "--p", "0.5"],
        ["--model", "percolation", "--base", "torus", "--m", "10", "--d", "400", "--p", "0.5"],
    ], ids=["tree", "gnp", "giant", "torus", "hypercube-past-float", "torus-past-float"])
    def test_generate_over_budget(self, model, capsys):
        # a tree array of 10**10 entries, or 10**10 skips of the G(n, p)
        # loop, would run out of memory or time; the size is refused first
        t0 = time.perf_counter()
        assert main(["generate", *model]) == 2
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "over the budget" in out.err

    def test_edge_add_mc_n_max_above_worst_start_limit(self):
        proc = run_cli("edge-add", "--mode", "mc", "--n-max", "200",
                       "--instances", "3", "--trials", "10")
        self._assert_input_error(proc)
        assert "n_max" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "percolation", "--base", "hypercube", "--m", "-1"],
        ["generate", "--model", "percolation", "--base", "complete", "--base-n", "0"],
        ["bound", "--model", "gnp", "--n", "0", "--p", "0.5"],
    ])
    def test_empty_or_negative_size(self, argv):
        self._assert_input_error(run_cli(*argv))

    def test_edges_file_without_vertices(self, tmp_path):
        edges = tmp_path / "empty.txt"
        edges.write_text("n 0\n")
        self._assert_input_error(run_cli("bound", "--edges", str(edges)))


class TestReportSchemas:
    @pytest.mark.parametrize("argv", [
        ["--trials", "10", "simulate", "--model", "tree", "--k", "5", "--start", "0"],
        ["--seed", "9", "generate", "--model", "gnp", "--n", "50", "--p", "0.1"],
    ], ids=["simulate", "generate"])
    def test_csv_without_rows_is_the_report_as_one_row(self, tmp_path, capsys, argv):
        out = tmp_path / "report.csv"
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(["--csv", str(out), *argv]) == 0
        assert capsys.readouterr().out == stdout
        payload = json.loads(stdout)
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == list(payload)
        # csv writes None (generate's "dump") as an empty field
        assert row == ["" if v is None else str(v) for v in payload.values()]

    def test_evolution_report_keys(self, capsys):
        rc = main(["--seed", "21", "evolution", "--regime", "c",
                   "--n-grid", "400,800,1600", "--seeds", "2", "--trials", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"regime", "params", "rows", "fitted_exponent",
                                "fitted_ci", "master_seed", "cells"}
        for row in payload["rows"]:
            assert {"n", "seeds", "median_cover", "median_upper_clean",
                    "median_kklv_lower", "median_upper_theorem", "law",
                    "cooper_frieze_reference"} == set(row)

    def test_edge_add_report_keys(self, capsys):
        rc = main(["--seed", "22", "edge-add", "--mode", "exact", "--instances", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"mode", "k_edges", "rows", "violations", "master_seed"}
        assert all({"graph", "added", "tcov_before", "tcov_after", "ratio",
                    "bound"} <= set(r) for r in payload["rows"])


_SCIPY_PROBE = (
    "import sys; from covertime.cli import main; rc = main(sys.argv[1:]); "
    "print(rc, 'scipy' in sys.modules, file=sys.stderr)"
)


def _loads_scipy(*argv) -> bool:
    """Whether a CLI command, run in a fresh process, imported scipy."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                          capture_output=True, text=True, timeout=300)
    rc, loaded = proc.stderr.split()[-2:]
    assert rc == "0", proc.stderr
    return loaded == "True"


class TestLazyScipy:
    def test_simulate_never_loads_scipy(self):
        assert not _loads_scipy("--seed", "3", "--trials", "300", "simulate", "--model", "tree",
                                "--k", "12", "--quantity", "cover", "--policy", "fixed",
                                "--start", "0")

    def test_dense_bound_never_loads_scipy(self):
        assert not _loads_scipy("--seed", "3", "bound", "--model", "tree", "--k", "40")
        # a 3-regular graph is its own kernel, so the LAPACK inverse runs
        assert not _loads_scipy("--seed", "3", "bound", "--model", "percolation",
                                "--base", "random-regular", "--base-n", "60", "--d", "3")

    def test_dense_suites_never_load_scipy(self):
        assert not _loads_scipy("--seed", "3", "gw-scaling", "--k-grid", "16,32,64",
                                "--seeds", "2", "--trials", "2")
        assert not _loads_scipy("--seed", "3", "evolution", "--regime", "b",
                                "--n-grid", "300,600,1200", "--seeds", "2", "--trials", "2")

    def test_on_demand_bound_never_loads_scipy(self):
        # components above 4096 vertices read rows on demand: a 4200-vertex
        # tree, and a giant of 5440 vertices whose kernel's inverse (227
        # vertices) runs
        assert not _loads_scipy("--seed", "3", "bound", "--model", "tree", "--k", "4200")
        assert not _loads_scipy("--seed", "3", "bound", "--model", "giant", "--n", "10000",
                                "--epsilon", "0.3", "--largest-component")


# the covertime layers loaded by `import covertime`, then by one command run
# through main, in a fresh process; the last stderr line is their JSON
_LAYER_PROBE = (
    "import json, sys; import covertime; "
    "layers = lambda: sorted(m for m in sys.modules if m.startswith('covertime.')); "
    "root = layers(); from covertime.cli import main; rc = main(sys.argv[1:]); "
    "print(json.dumps([rc, root, layers()]), file=sys.stderr)"
)


def _layers_loaded(*argv) -> tuple[list[str], set[str]]:
    proc = subprocess.run([sys.executable, "-c", _LAYER_PROBE, *argv],
                          capture_output=True, text=True, timeout=300)
    rc, root, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0, proc.stderr
    return root, set(loaded)


class TestLazyLayers:
    def test_each_command_loads_only_its_layers(self, tmp_path):
        edges = tmp_path / "tree.txt"
        edges.write_text(to_edge_list_text(uniform_labeled_tree(40, 3)))
        root, bound = _layers_loaded("bound", "--edges", str(edges))
        assert root == []  # the package root imports no layer
        assert "covertime.bounds" in bound
        assert not bound & {"covertime.walks", "covertime.experiments",
                            "covertime.forkmap", "covertime.rng"}
        _, walk = _layers_loaded("--trials", "40", "simulate", "--edges", str(edges),
                                 "--start", "0")
        assert "covertime.walks" in walk
        assert not walk & {"covertime.resistance", "covertime.bounds",
                           "covertime.blas", "covertime.experiments"}


# OPENBLAS_NUM_THREADS is read when the library loads, so each count runs in
# its own process; --threads is parsed and ignored
class TestThreadDeterminism:
    def test_evolution_bytes_identical_across_threads(self):
        args = ["--seed", "31", "evolution", "--regime", "b",
                "--n-grid", "300,600,1200", "--seeds", "3", "--trials", "4"]
        one = run_cli("--threads", "1", *args, env={"OPENBLAS_NUM_THREADS": "1"})
        two = run_cli("--threads", "3", *args, env={"OPENBLAS_NUM_THREADS": "2"})
        assert one.returncode == 0 and two.returncode == 0
        assert one.stdout == two.stdout

    def test_gw_scaling_bytes_identical_across_threads(self):
        args = ["--seed", "32", "gw-scaling", "--k-grid", "16,32,64",
                "--seeds", "3", "--trials", "4"]
        one = run_cli("--threads", "1", *args, env={"OPENBLAS_NUM_THREADS": "1"})
        two = run_cli("--threads", "4", *args, env={"OPENBLAS_NUM_THREADS": "2"})
        assert one.returncode == 0 and two.returncode == 0
        assert one.stdout == two.stdout

    def test_simulate_rerun_identical(self):
        args = ["--seed", "33", "--trials", "50", "simulate", "--model", "tree",
                "--k", "12", "--quantity", "cover", "--policy", "fixed", "--start", "0"]
        a = run_cli(*args, env={"OPENBLAS_NUM_THREADS": "1"})
        b = run_cli("--threads", "5", *args, env={"OPENBLAS_NUM_THREADS": "2"})
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
