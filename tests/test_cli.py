import csv
import io
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import tis
import tis.bench
import tis.cli
import tis.solvers
from tis.model import InternalError, Solution

DATA = "tests/data"


class TestValidate:
    def test_valid_instance(self, run_cli):
        r = run_cli("validate", f"{DATA}/windows_triangle.tis")
        assert r.returncode == 0
        assert r.stdout == "VALID n=5 tau=3 delta=2 k=3 mode=edges unit=0\n"

    def test_missing_file(self, run_cli):
        r = run_cli("validate", f"{DATA}/no_such_file.tis")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr != ""

    def test_overlong_file_name(self, run_cli):
        # ENAMETOOLONG is an OSError that is neither FileNotFoundError nor
        # IsADirectoryError: still an input error, not a traceback
        r = run_cli("validate", "x" * 5000)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")

    def test_malformed_input(self, run_cli, tmp_path):
        bad = tmp_path / "bad.tis"
        bad.write_text("n 3\ntau zero\n")
        r = run_cli("validate", str(bad))
        assert r.returncode == 2

    def test_unknown_flag(self, run_cli):
        r = run_cli("validate", f"{DATA}/single.tis", "--frobnicate")
        assert r.returncode == 2

    def test_runs_as_a_module(self):
        r = subprocess.run(
            [sys.executable, "-m", "tis.cli", "validate", f"{DATA}/single.tis"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert r.returncode == 0
        assert r.stdout == "VALID n=1 tau=1 delta=1 k=0 mode=model unit=1\n"


class TestConflict:
    def test_edge_list_exact(self, run_cli):
        r = run_cli("conflict", f"{DATA}/windows_triangle.tis")
        assert r.returncode == 0
        assert r.stdout == "v1 v2\nv1 v3\nv2 v3\nv2 v4\nv3 v5\n"

    def test_dot_output(self, run_cli):
        r = run_cli("conflict", f"{DATA}/windows_triangle.tis", "--out", "dot")
        assert r.returncode == 0
        assert r.stdout.startswith("graph conflict {")
        assert '"v2" -- "v4";' in r.stdout
        assert r.stdout.rstrip().endswith("}")

    def test_dot_escapes_quotes_in_names(self, run_cli, tmp_path):
        f = tmp_path / "quoted.tis"
        f.write_text(
            "tis 1\nmode edges\nn 2\ntau 1\ndelta 1\nk 1\nunit false\n"
            'vertex a"b 1\nvertex c 1\nlayer 1\nedge a"b c\n'
        )
        r = run_cli("conflict", str(f), "--out", "dot")
        assert r.returncode == 0
        assert r.stdout == (
            'graph conflict {\n  "a\\"b";\n  "c";\n  "a\\"b" -- "c";\n}\n'
        )

    def test_dot_ids_parse_back_to_the_names(self, run_cli, tmp_path):
        # a backslash ending a name must not escape the closing quote
        names = ["a\\", 'b"c', 'x\\\\"y', "\\"]
        f = tmp_path / "backslash.tis"
        f.write_text(
            "tis 1\nmode edges\nn 4\ntau 1\ndelta 1\nk 0\n"
            + "".join(f"vertex {name}\n" for name in names)
            + f"layer 1\nedge {names[0]} {names[1]}\nedge {names[0]} {names[2]}\n"
        )
        r = run_cli("conflict", str(f), "--out", "dot")
        assert r.returncode == 0
        lines = r.stdout.splitlines()[1:-1]
        ids = [re.findall(r'"((?:[^"\\]|\\.)*)"', line) for line in lines]
        assert [len(x) for x in ids] == [1, 1, 1, 1, 2, 2]

        def unescape(x):
            return re.sub(r"\\(.)", r"\1", x)

        assert [unescape(x[0]) for x in ids[:4]] == names
        pairs = [tuple(map(unescape, x)) for x in ids[4:]]
        assert pairs == [(names[0], names[1]), (names[0], names[2])]
        assert all(line.endswith(";") for line in lines)

    def test_window_semantics_flag(self, run_cli):
        r = run_cli(
            "conflict",
            f"{DATA}/windows_triangle.tis",
            "--window-semantics",
            "formula",
        )
        assert r.returncode == 0
        # the wider windows keep only the pairs adjacent in both layer pairs
        assert set(r.stdout.splitlines()) <= {
            "v1 v2", "v1 v3", "v2 v3", "v2 v4", "v3 v5"
        }


class TestRecognize:
    def test_negative(self, run_cli):
        r = run_cli("recognize", f"{DATA}/two_layer_path.tis")
        assert r.returncode == 1
        assert r.stdout.startswith("NOT-ORDER-PRESERVING witness=")

    def test_positive(self, run_cli, tmp_path):
        out = tmp_path / "op.tis"
        g = run_cli("gen", "op", "--n", "6", "--tau", "2", "--delta", "1",
                    "--k", "2", "--seed", "9", "--out", str(out))
        assert g.returncode == 0
        r = run_cli("recognize", str(out))
        assert r.returncode == 0
        assert r.stdout.startswith("ORDER-PRESERVING ")
        names = r.stdout.split()[1].split(",")
        assert len(names) == 6


class TestSolve:
    def test_exact_decision_yes(self, run_cli):
        r = run_cli("solve", f"{DATA}/windows_triangle.tis", "--alg", "exact")
        assert r.returncode == 0
        assert "objective=3" in r.stdout
        assert "set=v1,v4,v5" in r.stdout
        assert "verify=PASS" in r.stdout
        assert r.stdout.rstrip().endswith("decision=YES")

    def test_greedy_decision_no_exits_one(self, run_cli, tmp_path):
        # k is above anything a single greedy pick can reach only if the
        # instance is dense; force a NO by raising k in a copy
        text = open(f"{DATA}/windows_triangle.tis").read()
        bumped = tmp_path / "hard.tis"
        bumped.write_text(text.replace("k 3", "k 5"))
        r = run_cli("solve", str(bumped), "--alg", "exact")
        assert r.returncode == 1
        assert r.stdout.rstrip().endswith("decision=NO")

    def test_op_on_non_preserving_instance(self, run_cli):
        r = run_cli("solve", f"{DATA}/two_layer_path.tis", "--alg", "op")
        assert r.returncode == 1
        assert r.stdout.startswith("NOT-ORDER-PRESERVING")

    def test_fpt_requires_deletion_set(self, run_cli):
        r = run_cli("solve", f"{DATA}/two_layer_path.tis", "--alg", "fpt")
        assert r.returncode == 2

    def test_fpt_with_explicit_set(self, run_cli):
        r = run_cli(
            "solve", f"{DATA}/two_layer_path.tis",
            "--alg", "fpt", "--opvd-set", "v1",
        )
        assert r.returncode == 0
        assert "algorithm=fpt" in r.stdout
        assert "decision=YES" in r.stdout

    def test_fpt_auto(self, run_cli):
        r = run_cli(
            "solve", f"{DATA}/two_layer_path.tis", "--alg", "fpt",
            "--opvd", "auto",
        )
        assert r.returncode == 0
        exact = run_cli("solve", f"{DATA}/two_layer_path.tis", "--alg", "exact")
        line = [l for l in r.stdout.splitlines() if l.startswith("objective=")]
        assert line == [
            l for l in exact.stdout.splitlines() if l.startswith("objective=")
        ]

    def test_limit_oracle_exceeded(self, run_cli, tmp_path):
        out = tmp_path / "big.tis"
        run_cli("gen", "random", "--n", "9", "--tau", "2", "--delta", "1",
                "--k", "1", "--seed", "2", "--out", str(out))
        r = run_cli("solve", str(out), "--alg", "exact", "--limit-oracle", "8")
        assert r.returncode == 3

    def test_negative_limit_oracle_is_input_error(self, run_cli):
        r = run_cli(
            "solve", f"{DATA}/two_layer_path.tis", "--alg", "exact",
            "--limit-oracle", "-1",
        )
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--limit-oracle" in r.stderr

    def test_internal_error_exits_four(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalError("planted failure")

        monkeypatch.setattr(tis.solvers, "solve_greedy", broken)
        code = tis.cli.run(["solve", f"{DATA}/single.tis", "--alg", "greedy"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "planted failure" in err


class TestOpvd:
    def test_size_and_set(self, run_cli):
        r = run_cli("opvd", f"{DATA}/two_layer_path.tis")
        assert r.returncode == 0
        assert r.stdout == "size=1\nset=v1\nordering=v2,v3,v4,v5,v6\n"

    def test_budget_exceeded(self, run_cli):
        r = run_cli("opvd", f"{DATA}/two_layer_path.tis", "--budget", "0")
        assert r.returncode == 1
        assert r.stdout == "BUDGET-EXCEEDED budget=0\n"

    def test_negative_budget_is_input_error(self, run_cli):
        r = run_cli("opvd", f"{DATA}/pooled_trap.tis", "--budget", "-1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--budget" in r.stderr

    def test_exact_mode_honours_budget(self, run_cli):
        r = run_cli("opvd", f"{DATA}/two_layer_path.tis", "--exact", "--budget", "0")
        assert r.returncode == 1
        assert r.stdout == "BUDGET-EXCEEDED budget=0\n"
        r = run_cli("opvd", f"{DATA}/two_layer_path.tis", "--exact", "--budget", "1")
        assert r.returncode == 0
        assert r.stdout == "size=1\nset=v1\nordering=v2,v3,v4,v5,v6\n"

    def test_exact_mode(self, run_cli):
        r = run_cli("opvd", f"{DATA}/pooled_trap.tis", "--exact")
        assert r.returncode == 0
        assert "size=1" in r.stdout
        assert "set=a" in r.stdout


class TestGen:
    def test_round_trip_through_validate(self, run_cli, tmp_path):
        out = tmp_path / "r.tis"
        g = run_cli("gen", "random", "--n", "7", "--tau", "3", "--delta", "2",
                    "--k", "2", "--seed", "13", "--out", str(out))
        assert g.returncode == 0
        assert g.stdout == f"wrote {out}\n"
        v = run_cli("validate", str(out))
        assert v.returncode == 0
        assert "n=7 tau=3 delta=2 k=2" in v.stdout

    def test_stdout_when_no_out_flag(self, run_cli):
        r = run_cli("gen", "random", "--n", "4", "--tau", "2", "--delta", "1",
                    "--k", "1", "--seed", "3")
        assert r.returncode == 0
        assert r.stdout.startswith("tis 1\n")

    def test_lcsp_perms(self, run_cli, tmp_path):
        out = tmp_path / "g.tis"
        g = run_cli("gen", "lcsp", "--perms", "abc,cab", "--out", str(out))
        assert g.returncode == 0
        v = run_cli("validate", str(out))
        # 3 characters plus 2*3*3 frame columns
        assert "n=21 tau=2 delta=1 k=0" in v.stdout

    def test_unwritable_out_path(self, run_cli, tmp_path):
        out = tmp_path / ("x" * 300 + ".tis")
        r = run_cli("gen", "op", "--n", "4", "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")

    def test_vertex_count_past_a_list_is_input_error(self, run_cli):
        r = run_cli("gen", "op", "--n", "100000000000000000000")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr

    def test_lcsp_bad_perms(self, run_cli):
        r = run_cli("gen", "lcsp", "--perms", "abc,ab")
        assert r.returncode == 2

    def test_zero_denominator_spread_is_input_error(self, run_cli):
        r = run_cli("gen", "random", "--n", "4", "--spread", "1/0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--spread" in r.stderr and "Traceback" not in r.stderr


class TestBench:
    def test_runs_and_reports(self, run_cli, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        for s in range(3):
            run_cli("gen", "random", "--n", "6", "--tau", "2", "--delta", "1",
                    "--k", "2", "--seed", str(s),
                    "--out", str(d / f"r{s}.tis"))
        csv_out = tmp_path / "bench.csv"
        r = run_cli("bench", str(d), str(csv_out))
        assert r.returncode == 0
        assert r.stdout == f"rows={len(open(csv_out).readlines()) - 1} csv={csv_out}\n"
        rows = list(csv.DictReader(open(csv_out)))
        assert all(row["instance"].endswith(".tis") for row in rows)
        algs = {row["algorithm"] for row in rows}
        assert "greedy" in algs and "exact" in algs

    def test_error_row_keeps_run_alive(self, run_cli, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "broken.tis").write_text("not an instance\n")
        run_cli("gen", "random", "--n", "5", "--tau", "2", "--delta", "1",
                "--k", "1", "--seed", "0", "--out", str(d / "ok.tis"))
        csv_out = tmp_path / "bench.csv"
        r = run_cli("bench", str(d), str(csv_out))
        assert r.returncode == 0
        rows = list(csv.DictReader(open(csv_out)))
        assert any(row["verified"] == "ERROR" for row in rows)
        assert any(
            row["instance"] == "ok.tis" and row["verified"] == "PASS"
            for row in rows
        )

    def test_internal_error_stops_the_run(self, monkeypatch, capsys, tmp_path):
        def broken(*args, **kwargs):
            raise InternalError("planted failure")

        d = tmp_path / "corpus"
        d.mkdir()
        shutil.copy(f"{DATA}/single.tis", d)
        monkeypatch.setattr(tis.solvers, "solve_greedy", broken)
        code = tis.cli.run(["bench", str(d), str(tmp_path / "b.csv")])
        assert code == 4
        assert "planted failure" in capsys.readouterr().err

    def test_suboptimal_op_answer_stops_the_run(self, monkeypatch, capsys, tmp_path):
        solve = tis.bench.solve

        def suboptimal_op(inst, alg, *args, **kwargs):
            sol = solve(inst, alg, *args, **kwargs)
            if alg != "op" or sol is None:
                return sol
            # independent (empty) but below the optimum
            return Solution(frozenset(), Fraction(0), sol.algorithm)

        d = tmp_path / "corpus"
        d.mkdir()
        inst = tis.gen_order_preserving(12, 3, 1, 0, seed=5)
        (d / "op.tis").write_text(tis.serialize_instance(inst))
        assert tis.cli.run(["bench", str(d), str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(tis.bench, "solve", suboptimal_op)
        code = tis.cli.run(["bench", str(d), str(tmp_path / "b.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "op objective 0 differs from the exact optimum" in err

    def test_other_optimal_set_stops_the_run(self, monkeypatch, capsys, tmp_path):
        solve = tis.bench.solve

        def other_fpt_set(inst, alg, *args, **kwargs):
            sol = solve(inst, alg, *args, **kwargs)
            if alg != "fpt" or sol is None:
                return sol
            # the optimal objective, but not the exact run's set
            return Solution(frozenset(), sol.objective, sol.algorithm)

        d = tmp_path / "corpus"
        d.mkdir()
        inst = tis.gen_order_preserving(12, 3, 1, 0, seed=5)
        (d / "op.tis").write_text(tis.serialize_instance(inst))
        monkeypatch.setattr(tis.bench, "solve", other_fpt_set)
        code = tis.cli.run(["bench", str(d), str(tmp_path / "b.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "fpt set is not the exact run's" in err

    def test_no_timing_on_stdout(self, run_cli, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        run_cli("gen", "random", "--n", "5", "--tau", "2", "--delta", "1",
                "--k", "1", "--seed", "1", "--out", str(d / "a.tis"))
        r = run_cli("bench", str(d), str(tmp_path / "b.csv"))
        assert "ms" not in r.stdout
