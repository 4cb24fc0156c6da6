import argparse
import json
import math
import re
import shlex
from pathlib import Path

import pytest

import gydet.oracles
from gydet import verify
from gydet.cli import build_parser, json_17g, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestJsonWriter:
    def test_round_trip_exact(self):
        vals = [0.1, 1.0 / 3.0, 5.2574953720277815, -1e-300, 1e300, 0.0]
        text = json_17g({"v": vals})
        back = json.loads(text)["v"]
        assert back == vals

    def test_nonfinite_becomes_null(self):
        assert json_17g(math.inf) == "null"
        assert json_17g({"x": math.nan}) == '{"x": null}'

    def test_escaping(self):
        assert json.loads(json_17g('a"b\\c')) == 'a"b\\c'


class TestDet:
    def test_free_2d_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "--dim", "2", "--size-n", "3", "--size-m", "3",
            "--mass2", "0", "--method", "gy-a",
        )
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {
            "method", "inputs", "log_abs_det", "sign", "wall_time_seconds", "diagnostics",
        }
        assert abs(rec["log_abs_det"] - math.log(192)) < 1e-10
        assert rec["sign"] == 1
        assert rec["inputs"]["potential"] == "constant(m2=0)"

    def test_free_1d_default_potential(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--dim", "1", "--size-n", "10")
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["log_abs_det"] - math.log(10)) < 1e-12

    @pytest.mark.parametrize("method", ["gy-a", "gy-y", "dense", "eigenproduct", "sinh-product"])
    def test_schema_stable_across_methods(self, capsys, method):
        code, out, _ = run_cli(
            capsys, "det", "--dim", "2", "--size-n", "4", "--size-m", "5",
            "--mass2", "1", "--method", method,
        )
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {
            "method", "inputs", "log_abs_det", "sign", "wall_time_seconds", "diagnostics",
        }
        # frozen from the eigenvalue-product oracle for (m2, N, M) = (1, 4, 5)
        assert abs(rec["log_abs_det"] - 18.520807948695325) < 1e-9

    def test_methods_cross_agree(self, capsys):
        values = {}
        for method in ("gy-a", "dense"):
            _, out, _ = run_cli(
                capsys, "det", "--dim", "2", "--size-n", "3", "--size-m", "3",
                "--mass2", "0", "--method", method,
            )
            values[method] = json.loads(out)["log_abs_det"]
        assert abs(values["gy-a"] - values["dense"]) < 1e-10

    def test_deterministic_modulo_wall_time(self, capsys):
        argv = (
            "det", "--dim", "2", "--size-n", "6", "--size-m", "5",
            "--random-seed", "11", "--random-range", "-1", "1",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_seconds")
        r2.pop("wall_time_seconds")
        assert r1 == r2

    def test_potential_file(self, capsys, tmp_path):
        path = tmp_path / "pot.txt"
        path.write_text("1 1.0\n2 1.0\n3 1.0\n4 1.0\n")
        code, out, _ = run_cli(
            capsys, "det", "--dim", "1", "--size-n", "5",
            "--potential-file", str(path), "--method", "gy-a",
        )
        assert code == 0
        assert abs(json.loads(out)["log_abs_det"] - math.log(55)) < 1e-12

    def test_conflicting_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "det", "--dim", "2", "--size-n", "4", "--size-m", "4",
                "--mass2", "1", "--random-seed", "3",
            ])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_eigenproduct_with_random_potential_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "det", "--dim", "2", "--size-n", "4", "--size-m", "4",
            "--random-seed", "3", "--method", "eigenproduct",
        )
        assert code == 1
        assert "constant mass" in err

    @pytest.mark.parametrize("method", ["gy-a", "gy-y", "dense"])
    def test_singular_crossing_exit_code(self, capsys, method):
        # single interior site with V = -2: the operator is exactly zero
        code, _, err = run_cli(
            capsys, "det", "--dim", "1", "--size-n", "2", "--mass2", "-2", "--method", method,
        )
        assert code == 2
        assert "singular" in err.lower()
        if method == "gy-y":
            # one line of its own, no LAPACK warning before it
            assert err.startswith("gydet: singular crossing: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("det", "--size-n", "1"), "N must be >= 2, got 1"),
            (("det", "--dim", "0", "--size-n", "4"), "d must be >= 1, got 0"),
            (
                ("det", "--size-n", "4", "--random-seed", "1", "--random-range", "1", "-1"),
                "empty interval [1.0, -1.0)",
            ),
            (("asym", "--mass2", "1", "--size-n", "1", "--size-m", "4"), "N must be >= 2, got 1"),
            (("det", "--size-n", "4", "--random-seed", "-1"), "seed must be in [0, 2**64), got -1"),
            (
                ("det", "--size-n", "3", "--size-m", "3", "--random-seed", "1",
                 "--random-range", "0", "inf"),
                "interval [0.0, inf) is too wide: hi - lo must be finite",
            ),
            (
                ("asym", "--mass2", "nan", "--size-n", "8", "--size-m", "8"),
                "massive asymptotic requires finite m2 > 0, got nan",
            ),
            (
                ("asym", "--mass2", "inf", "--size-n", "8", "--size-m", "8"),
                "massive asymptotic requires finite m2 > 0, got inf",
            ),
            (
                ("det", "--size-n", "4", "--method", "sinh-product", "--mass2", "-1"),
                "m2 must be finite and >= 0, got -1.0",
            ),
            (
                ("asym", "--mass2", "-1", "--size-n", "8", "--size-m", "8"),
                "massive asymptotic requires finite m2 > 0, got -1.0",
            ),
            (
                # used to run the zero potential and exit 0
                ("det", "--size-n", "4", "--random-range", "0", "2"),
                "--random-range needs --random-seed",
            ),
        ],
        ids=[
            "det-size-n", "det-dim", "det-random-range", "asym-size-n", "det-random-seed",
            "det-random-range-unbounded", "asym-mass2-nan", "asym-mass2-inf",
            "det-sinh-product-mass2-negative", "asym-mass2-negative",
            "det-random-range-without-seed",
        ],
    )
    def test_invalid_input_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"gydet: error: {message}\n"

    def test_argparse_usage_exit_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--dim", "2"])  # missing --size-n
        assert exc.value.code == 1


class TestAsym:
    def test_massless_with_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "asym", "--mass2", "0", "--size-n", "3", "--size-m", "3",
            "--with-exact",
        )
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["total"] - 5.2614067841091777) < 1e-10
        assert abs(rec["exact"]["log_abs_det"] - math.log(192)) < 1e-10
        assert abs(rec["exact"]["discrepancy"]) < 0.005

    def test_exchange_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "asym", "--mass2", "0", "--size-n", "4", "--size-m", "16")
        _, out2, _ = run_cli(capsys, "asym", "--mass2", "0", "--size-n", "16", "--size-m", "4")
        t1 = json.loads(out1)["total"]
        t2 = json.loads(out2)["total"]
        assert abs(t1 - t2) < 1e-12 * max(1.0, abs(t1))

    def test_massive_with_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "asym", "--mass2", "1", "--size-n", "64", "--size-m", "64",
            "--with-exact",
        )
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["exact"]["discrepancy"]) <= 0.01
        assert rec["regime"] == "massive"
        assert rec["log_term"] == 0 and rec["modular_term"] == 0


class TestBench:
    def test_csv_shape_and_slope_comment(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--dim", "2", "--sizes", "4,6,8",
            "--methods", "gy-a", "--repeats", "2", "--min-time", "0.005",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,N,median_seconds,log_abs_det"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 3
        for row in data:
            method, n, med, log_abs = row.split(",")
            assert method == "gy-a"
            assert float(med) > 0
            float(log_abs)
        slopes = [l for l in lines if l.startswith("# slope gy-a")]
        assert len(slopes) == 1

    def test_dense_cap_skips_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--dim", "2", "--sizes", "4,150",
            "--methods", "dense", "--repeats", "1", "--min-time", "0.005",
        )
        assert code == 0
        # 149^2 = 22201 rows is over DENSE_CAP
        assert "dense,150,skipped,skipped" in out

    def test_methods_agree_on_overlap(self, capsys):
        _, out, _ = run_cli(
            capsys, "bench", "--dim", "2", "--sizes", "6",
            "--methods", "gy-a,dense", "--repeats", "1", "--min-time", "0.002",
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        vals = [float(r.split(",")[3]) for r in rows]
        assert abs(vals[0] - vals[1]) < 1e-9 * max(1.0, abs(vals[0]))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--repeats", "0"), "--repeats must be >= 1, got 0"),
            (("--min-time", "-1"), "--min-time must be finite and >= 0, got -1.0"),
            (("--min-time", "nan"), "--min-time must be finite and >= 0, got nan"),
            (("--min-time", "inf"), "--min-time must be finite and >= 0, got inf"),
        ],
        ids=["repeats-zero", "min-time-negative", "min-time-nan", "min-time-inf"],
    )
    def test_rejects_bad_timing_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bench", "--sizes", "4", "--methods", "gy-a", *argv)
        assert code == 1
        assert out == ""
        assert err == f"gydet: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(("--methods", "gy-a,gy-y"), "bench methods must be gy-a or dense, got gy-y")],
        ids=["method"],
    )
    def test_rejected_before_output(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bench", "--sizes", "4", *argv)
        assert code == 1
        assert out == ""
        assert err == f"gydet: error: {message}\n"

    def test_one_distinct_size_has_no_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "4,4", "--methods", "gy-a",
            "--repeats", "1", "--min-time", "0.002",
        )
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("gy-a,4,")]) == 2
        assert out.splitlines()[-1] == "# slope gy-a nan (fewer than two distinct timed sizes)"

    def test_writes_nothing_to_stderr(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--sizes", "4,6", "--methods", "gy-a",
            "--repeats", "1", "--min-time", "0.005",
        )
        assert code == 0
        assert err == ""

    def test_rejects_other_dims(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dim", "3", "--sizes", "4", "--methods", "gy-a"])
        assert exc.value.code == 1


def test_readme_matches_parser():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("gydet ")]
    assert examples
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    undocumented = [
        f"{name} {option}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    ]
    assert undocumented == []


class TestVerify:
    @pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                             ids=[name for name, _ in verify.CHECKS])
    def test_every_check_passes_at_full_size(self, check):
        assert check(False) is None

    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        assert out.count("PASS") >= 12
        assert "FAIL" not in out

    def test_corrupted_gamma_caught(self, capsys, monkeypatch):
        # a dispersion relation off by 1e-3 relative must fail exactly the
        # checks that evaluate the sinh product
        gamma_k = gydet.oracles.gamma_k
        monkeypatch.setattr(
            gydet.oracles, "gamma_k", lambda m2, lam: gamma_k(m2, lam) * (1.0 + 1e-3)
        )
        code, _, err = run_cli(capsys, "verify", "--quick")
        assert code == 3
        assert err == (
            "FAILED: four-way-agreement, sinh-product-vs-eigenproduct, "
            "sinh-product-anchors\n"
        )
        monkeypatch.undo()
        code, _, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
