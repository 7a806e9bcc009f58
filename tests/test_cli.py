import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from zetacf import cli
from zetacf.coeff_core import SinhSeries


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)] if "--out" not in args else args)
    return code, out


def insert_global_flags(args, flags):
    return flags + args


class TestCoeffs:
    def test_a_table_golden(self, tmp_path):
        out = tmp_path / "a3.json"
        code = cli.main(["--out", str(out), "coeffs", "3", "--kind", "a"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "zetacf/v1"
        rows = doc["rows"]
        assert [(r["index"], r["value"]) for r in rows] == [
            (0, "1/1"), (1, "11/6"), (2, "1/1"), (3, "1/6"),
        ]

    def test_a_m0_single_row(self, tmp_path):
        out = tmp_path / "a0.json"
        assert cli.main(["--out", str(out), "coeffs", "0", "--kind", "a"]) == 0
        assert len(json.loads(out.read_text())["rows"]) == 1

    def test_c_table_golden(self, tmp_path):
        out = tmp_path / "c1.json"
        assert cli.main(["--out", str(out), "coeffs", "1", "--kind", "c"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(r["index"], r["value"]) for r in rows] == [(0, "1/1"), (1, "2/1")]

    def test_sinh_requires_r_squared(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "3", "--kind", "sinh"])
        assert exc.value.code == 2

    def test_sinh_table(self, tmp_path):
        out = tmp_path / "sinh.json"
        code = cli.main(["--out", str(out), "coeffs", "0", "--kind", "sinh",
                         "--r-squared", "1", "--n", "2"])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["value"] == "48/13"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "a3.csv"
        code = cli.main(["--format", "csv", "--out", str(out), "coeffs", "3", "--kind", "a"])
        assert code == 0
        text = out.read_text()
        assert "# tool_version:" in text
        assert "index,numerator,denominator,decimal30" in text
        assert "1,11,6," in text


class TestVerify:
    @pytest.mark.parametrize("claim,m", [
        # each sweep's first row as the bound
        ("newton", "0"),
        ("lemma1", "2"),
        ("positivity", "1"),
        ("c1-identity", "1"),
        ("oracle3", "1"),
        ("genfunc", "0"),
        ("lemma1", "60"),
        ("newton", "40"),
        ("positivity", "25"),
        ("oracle3", "12"),
        ("genfunc", "8"),
        ("binomial-cf", "8"),
        ("c1-identity", "40"),
        ("logconcave-sinh", "20"),
    ])
    def test_claims_pass(self, claim, m, tmp_path):
        out = tmp_path / "v.json"
        code = cli.main(["--out", str(out), "verify", claim, m])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True and doc["witness"] is None

    def test_unknown_claim_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("num,witness", [
        # d = 1/2, 3/4, 3/2: d_1^2 = 9/16 < d_0 d_2 = 3/4
        ((2, 3, 6), "log-concavity fails at r^2=1/4, k=1: 9/16 < 3/4"),
        ((2, 0, 6), "d[1] <= 0 at r^2=1/4: 0/1"),
    ])
    def test_sinh_failure_witness(self, num, witness, tmp_path, monkeypatch):
        # the verdict is decided on the integer row; the witness text is exact
        monkeypatch.setattr(cli, "sinh_series",
                            lambda r2, n: SinhSeries(Fraction(r2), num, 4))
        code, out = run_cli(["verify", "logconcave-sinh", "3"], tmp_path)
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False and doc["witness"] == witness


class TestScan:
    def test_worpitzky_small(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = cli.main(["--out", str(out), "scan", "worpitzky", "12",
                         "--grid", "7x7", "--no-band"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        assert len(doc["points"]) == 49
        # run statistics go to stderr (not a TTY here), never into the report;
        # 7 sigmas x 4 distinct |t| points, 10 levels each
        err = capsys.readouterr().err
        assert "scan worpitzky: 49 points, 280 k-levels, 0 exact fallbacks\n" in err
        assert "fallback" not in out.read_text()
        # progress is written as whole lines when stderr is not a TTY
        assert err.startswith("28/28 points\n") and "\r" not in err

    def test_jobs_does_not_change_points(self, tmp_path):
        # --jobs is accepted and validated, and the scan runs in one process
        points = []
        for jobs in ("1", "2"):
            code, out = run_cli(["scan", "worpitzky", "40", "--grid", "7x7", "--no-band",
                                 "--jobs", jobs], tmp_path, f"j{jobs}.json")
            assert code == 0
            points.append(json.loads(out.read_text())["points"])
        assert len(points[0]) == 49 and points[0] == points[1]

    def test_worpitzky_far_out(self, tmp_path):
        # |E_k|^2 is beyond 2^53 at every level at t = +-10^9: the argmin is
        # then picked by exact comparison, and every level passes
        code, out = run_cli(["scan", "worpitzky", "5", "--grid", "1x3",
                             "--t-max", "1000000000", "--no-band"], tmp_path)
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["all_pass"] is True
        assert [p["argmin_k"] for p in doc["points"]] == [1, 2, 1]
        # the far points' float margins are infinite: written as null
        assert [p["margin"] is None for p in doc["points"]] == [True, False, True]

    def test_worpitzky_csv_schema(self, tmp_path):
        out = tmp_path / "w.csv"
        code = cli.main(["--format", "csv", "--out", str(out), "scan", "worpitzky",
                         "10", "--grid", "5x5", "--no-band"])
        assert code == 0
        header = out.read_text().splitlines()
        cols = next(l for l in header if not l.startswith("#"))
        assert cols == "sigma_num,sigma_den,t_num,t_den,margin_sq_num,margin_sq_den,pass"

    def test_zero_scan_g3(self, tmp_path):
        out = tmp_path / "z.json"
        code = cli.main(["--out", str(out), "scan", "zero", "3", "--rect", "0,1,-2,2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["G"]["winding_number"] == 0
        assert doc["results"]["F"]["winding_number"] == 0

    def test_zero_scan_failure_exit(self, tmp_path):
        # a rectangle that encloses roots of the G_3 numerator
        out = tmp_path / "z.json"
        code = cli.main(["--out", str(out), "scan", "zero", "3",
                         "--which", "g", "--rect=-4,-2,-2,2"])
        assert code == 1

    def test_uncertifiable_exit_code(self, tmp_path, monkeypatch):
        from zetacf.errors import UncertifiableError

        def boom(*a, **k):
            raise UncertifiableError("synthetic")

        monkeypatch.setattr(cli, "zero_scan", boom)
        code = cli.main(["--out", str(tmp_path / "z.json"), "scan", "zero", "3"])
        assert code == 3

    def test_convergence_default_point(self, tmp_path):
        out = tmp_path / "c.json"
        code = cli.main(["--precision", "128", "--out", str(out),
                         "scan", "convergence", "--m-list", "4,8,16"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["points"][0]["strictly_decreasing"] is True

    def test_worpitzky_1000_report_pinned(self, capsys):
        # integers in this report run past the interpreter's 4300-digit
        # int-to-str limit; the bytes are pinned so later changes to the
        # element test must reproduce them exactly
        args = ["scan", "worpitzky", "1000", "--grid", "3x3", "--no-band"]
        assert cli.main(args) == 0
        report = capsys.readouterr().out.encode()
        assert hashlib.sha256(report).hexdigest() == (
            "3d593a321a7d5de2aa300d6627bf203bc9d753cb3e648c22f21caf5d55539d1c")
        assert cli.main([*args, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 9 and all(r.endswith(",1") for r in rows)

    def test_monotonicity_range(self, tmp_path):
        out = tmp_path / "m.json"
        code = cli.main(["--out", str(out), "scan", "monotonicity", "2..20"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["first_k_ratio_violation_m"] is None
        assert len(doc["findings"]) == 2 * 19


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        out = tmp_path / "a.json"
        args = ["--out", str(out), "--seed", "7", "--precision", "128",
                "scan", "worpitzky", "8", "--grid", "5x5", "--no-band"]
        assert cli.main(args) == 0
        first = out.read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first

    def test_header_records_run(self, tmp_path):
        out = tmp_path / "h.json"
        cli.main(["--seed", "99", "--precision", "128", "--out", str(out),
                  "coeffs", "2", "--kind", "a"])
        run = json.loads(out.read_text())["run"]
        assert run["seed"] == 99
        assert run["precision"] == 128
        assert run["tool_version"]
        assert run["command"] == "coeffs"

    def test_config_file_and_flag_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("zetacf.json").write_text(json.dumps({"seed": 5, "precision": 64}))
        out = tmp_path / "x.json"
        cli.main(["--out", str(out), "coeffs", "2", "--kind", "a"])
        run = json.loads(out.read_text())["run"]
        assert run["seed"] == 5 and run["precision"] == 64
        cli.main(["--seed", "8", "--out", str(out), "coeffs", "2", "--kind", "a"])
        run = json.loads(out.read_text())["run"]
        assert run["seed"] == 8 and run["precision"] == 64


class TestFlagPlacement:
    def test_trailing_run_options(self, tmp_path):
        # options are accepted after the subcommand as well as before it
        out = tmp_path / "t.json"
        code = cli.main(["coeffs", "3", "--kind", "a", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert json.loads(out.read_text())["run"]["seed"] == 3

    def test_front_flag_survives_subparser(self, tmp_path):
        out = tmp_path / "t.json"
        code = cli.main(["--seed", "11", "coeffs", "3", "--kind", "a", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["run"]["seed"] == 11


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_grid(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "worpitzky", "10", "--grid", "banana"])
        assert exc.value.code == 2

    def test_low_precision_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--precision", "10", "coeffs", "3", "--kind", "a"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        '{"precision": 128',        # not JSON
        '[128]',                    # not an object
        '{"precision": "high"}',
        '{"seed": 1.5}',
        '{"jobs": true}',
        '{"jobs": 0}',
    ])
    def test_bad_config_file_rejected(self, text, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("zetacf.json").write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "x.json"), "coeffs", "2", "--kind", "a"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["scan", "monotonicity", "abc"],
        ["scan", "monotonicity", "1..5"],
        ["scan", "zero", "5", "--rect", "1,0,0,1"],
        ["scan", "zero", "5", "--rect", "a,b,c,d"],
        ["scan", "convergence", "--s", "1"],
        ["scan", "convergence", "--m-list", "x"],
        ["coeffs", "-1", "--kind", "a"],
        ["coeffs", "5", "--kind", "sinh", "--r-squared", "x"],
        ["scan", "worpitzky", "5", "--t-max", "zz"],
        ["coeffs", "0", "--kind", "sinh", "--r-squared", "1", "--n", "0"],
        # sweep bounds below the first checked row, which would check nothing
        ["verify", "newton", "-3"],
        ["verify", "lemma1", "1"],
        ["verify", "positivity", "0"],
        ["verify", "c1-identity", "0"],
        ["verify", "oracle3", "0"],
        ["scan", "monotonicity", "5..3"],
    ])
    def test_malformed_argument_is_usage_error(self, argv, tmp_path, capsys):
        # any exception other than the parser's exit would escape pytest.raises
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "worpitzky", "10", "--grid", "3x3", "--jobs", "0"])
        assert exc.value.code == 2
