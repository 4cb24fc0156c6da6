import json
import math

import pytest

from gydet import verify
from gydet.cli import json_17g, main


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
        code, _, err = run_cli(
            capsys, "det", "--dim", "2", "--size-n", "4", "--size-m", "4",
            "--mass2", "1", "--random-seed", "3",
        )
        assert code == 1
        assert "conflicting" in err

    def test_eigenproduct_with_random_potential_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "det", "--dim", "2", "--size-n", "4", "--size-m", "4",
            "--random-seed", "3", "--method", "eigenproduct",
        )
        assert code == 1
        assert "constant mass" in err

    def test_singular_crossing_exit_code(self, capsys):
        # single interior site with V = -2: the operator is exactly zero
        code, _, err = run_cli(
            capsys, "det", "--dim", "1", "--size-n", "2", "--mass2", "-2",
        )
        assert code == 2
        assert "singular" in err.lower()

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
            capsys, "bench", "--dim", "2", "--sizes", "4,40",
            "--methods", "dense", "--repeats", "1", "--min-time", "0.005",
            "--dense-cap", "100",
        )
        assert code == 0
        assert "dense,40,skipped,skipped" in out

    def test_methods_agree_on_overlap(self, capsys):
        _, out, _ = run_cli(
            capsys, "bench", "--dim", "2", "--sizes", "6",
            "--methods", "gy-a,dense", "--repeats", "1", "--min-time", "0.002",
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        vals = [float(r.split(",")[3]) for r in rows]
        assert abs(vals[0] - vals[1]) < 1e-9 * max(1.0, abs(vals[0]))

    def test_rejects_other_dims(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--dim", "3", "--sizes", "4", "--methods", "gy-a",
        )
        assert code == 1


class TestThreads:
    def test_thread_flag_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "--threads", "1", "det", "--dim", "1", "--size-n", "5",
        )
        assert code == 0
        assert abs(json.loads(out)["log_abs_det"] - math.log(5)) < 1e-12

    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GYDET_THREADS", "1")
        code, out, _ = run_cli(capsys, "det", "--dim", "1", "--size-n", "5")
        assert code == 0


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

    def test_corrupted_gamma_caught(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick", "--corrupt-gamma", "1e-3")
        assert code == 3
        assert "sinh-product" in err
        # the fault hook must be reset afterwards
        code2, _, _ = run_cli(capsys, "verify", "--quick")
        assert code2 == 0
