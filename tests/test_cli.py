import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from zetacf import cli, coeff_core
from zetacf.coeff_core import CSequence, SinhSeries, Witness
from zetacf.serialize import frac_str

ROOT = Path(__file__).resolve().parent.parent
# sha256 of `scan zero` reports written with `--out zero.json`, keyed by the
# arguments before it
ZERO_REPORT_SHA256 = json.loads(
    (Path(__file__).parent / "golden" / "scan_zero_sha256.json").read_text())


@pytest.fixture(autouse=True)
def _quiet_stderr(monkeypatch):
    """Send what `cli.main` writes to stderr (`done in N ms`, progress lines,
    usage text) to a buffer, so it stays out of the test log: `pyproject.toml`
    turns pytest's own capture off to keep the acceptance module's PASS/FAIL
    lines. A test that takes `capsys` still reads stderr through it."""
    monkeypatch.setattr(sys, "stderr", io.StringIO())


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)] if "--out" not in args else args)
    return code, out


def all_levels_open(g):
    """A `_sinh_open_levels` whose enclosures decide nothing, so every level
    of the sinh row goes to the exact row."""
    return 0, list(range(len(g))), list(range(1, len(g) - 1))


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

    def test_sinh_requires_r_squared(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "3", "--kind", "sinh"])
        assert exc.value.code == 2
        assert "error: --r-squared is required when kind is sinh" in capsys.readouterr().err

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

    def test_unknown_claim_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2
        assert ("error: argument claim: invalid choice: 'nonsense' (choose from 'lemma1', "
                "'newton', 'positivity', 'oracle3', 'genfunc', 'binomial-cf', "
                "'c1-identity', 'logconcave-sinh')") in capsys.readouterr().err

    @pytest.mark.parametrize("claim,name,sweep,witness", [
        ("lemma1", "ratio_bounds_sweep", lambda m: SimpleNamespace(m=11, witness="j=3"),
         "m=11: j=3"),
        ("newton", "a_invariant_witness",
         lambda m, deep_roots: Witness("newton", 7, 2, Fraction(1, 3), Fraction(2, 5)),
         "newton fails at m=7, index 2: 1/3 vs 2/5"),
        ("positivity", "c_positivity_witness",
         lambda m: Witness("c-positivity", 4, 1, Fraction(-1, 2), Fraction(0)),
         "c-positivity fails at m=4, index 1: -1/2 vs 0"),
        # c_direct(1) is the row (1, 2) over D = 1; the stub's row is over the same D
        ("oracle3", "c_residue_oracle", lambda m: CSequence(m, (1, 9), 1),
         "residue oracle mismatch at m=1, k=1: 2/1 vs 9/1"),
        ("genfunc", "c_genfunc_oracle", lambda m: [[Fraction(2)]], "constant term is 2/1, not 1"),
        ("binomial-cf", "binomial_cf_check",
         lambda m: SimpleNamespace(passed=False, first_mismatch=5), "first mismatch at y^5"),
        ("c1-identity", "c1_identity_witness",
         lambda m: Witness("c1", 9, 0, Fraction(3), Fraction(4)), "c1 fails at m=9, index 0: 3 vs 4"),
    ])
    def test_claim_failure_witness(self, claim, name, sweep, witness, tmp_path, monkeypatch):
        # each claim runs the sweep named in this module when it is called
        monkeypatch.setattr(cli, name, sweep)
        code, out = run_cli(["verify", claim, "3"], tmp_path)
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False and doc["witness"] == witness

    @pytest.mark.parametrize("num,witness", [
        # over den = u^3 = 8, u^(2-k) | num[k]: d = 1/2, 3/4, 3/2, so
        # d_1^2 = 9/16 < d_0 d_2 = 3/4
        ((4, 6, 12), "log-concavity fails at r^2=1/4, k=1: 9/16 < 3/4"),
        ((4, 0, 12), "d[1] <= 0 at r^2=1/4: 0/1"),
    ])
    def test_sinh_failure_witness(self, num, witness, tmp_path, monkeypatch):
        # the verdict is decided on the integer row; the witness text is exact
        monkeypatch.setattr(cli, "_sinh_open_levels", all_levels_open)
        monkeypatch.setattr(cli, "sinh_series",
                            lambda r2, n: SinhSeries(Fraction(r2), num, 8, 2))
        code, out = run_cli(["verify", "logconcave-sinh", "3"], tmp_path)
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False and doc["witness"] == witness

    @pytest.mark.parametrize("fails", [True, False])
    def test_sinh_tops_fallback(self, fails, tmp_path, monkeypatch):
        # 200-bit rows whose tops cannot decide k = 1, so the exact products
        # must: consecutive Fibonacci numbers miss log-concavity by one unit
        # (Cassini: F_289 F_291 = F_290^2 + 1), and x^2, xy, y^2 holds with
        # equality
        if fails:
            a, b = 0, 1
            for _ in range(289):
                a, b = b, a + b
            num = (a, b, a + b)
        else:
            x, y = 2**100 + 3, 2**100 + 7
            num = (x * x, x * y, y * y)
        assert num[0] * num[2] - num[1] ** 2 == (1 if fails else 0)
        assert min(v.bit_length() for v in num) >= 200
        tops_said = []

        def tops_prove(tops, k, p, q):
            tops_said.append(coeff_core._tops_prove(tops, k, p, q))
            return tops_said[-1]

        monkeypatch.setattr(cli, "_tops_prove", tops_prove)
        monkeypatch.setattr(cli, "_sinh_open_levels", all_levels_open)
        # u = 1: consecutive Fibonacci numbers are coprime
        monkeypatch.setattr(cli, "sinh_series",
                            lambda r2, n: SinhSeries(Fraction(r2), num, 1, 1))
        code, out = run_cli(["verify", "logconcave-sinh", "3"], tmp_path)
        doc = json.loads(out.read_text())
        if fails:
            assert tops_said == [False] and code == 1 and doc["pass"] is False
            sq, ab = Fraction(num[1] ** 2), Fraction(num[0] * num[2])
            assert doc["witness"] == (f"log-concavity fails at r^2=1/4, k=1: "
                                      f"{frac_str(sq)} < {frac_str(ab)}")
        else:
            assert tops_said == [False] * 4 and code == 0 and doc["pass"] is True

    def test_sinh_decided_without_the_exact_row(self, tmp_path, monkeypatch, capsys):
        # at n = 60 the enclosures decide every level of all four rows
        def no_exact_row(r2, n):
            raise AssertionError("the exact sinh row was built")

        monkeypatch.setattr(cli, "sinh_series", no_exact_row)
        code, out = run_cli(["verify", "logconcave-sinh", "60"], tmp_path)
        doc = json.loads(out.read_text())
        assert code == 0 and doc["pass"] is True and doc["witness"] is None
        # one stderr line per r^2, and none of it in the report
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "logconcave-sinh" in line] == [
            f"verify logconcave-sinh: r^2={r2} enclosure at {bits} bits, "
            "0 levels left to the exact row"
            for r2, bits in (("1/4", 256), ("1/1", 256), ("100/1", 256), ("10000/1", 512))]
        assert "enclosure" not in out.read_text()

    @pytest.mark.parametrize("n", [3, 8, 30, 60])
    def test_sinh_enclosures_agree_with_the_exact_check(self, n, monkeypatch):
        fast = cli._verify_sinh(n)
        monkeypatch.setattr(cli, "_sinh_open_levels", all_levels_open)
        assert fast == cli._verify_sinh(n)


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
        # the far points' pair ratios overflow a double, but their margins
        # (about 4.76e8) do not: taken from margin_sq, they are finite
        margins = [p["margin"] for p in doc["points"]]
        assert margins[0] == margins[2] and 4.7e8 < margins[0] < 4.8e8
        assert doc["global_min_margin"] == margins[1] < 4

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

    @pytest.mark.parametrize("point, message", [
        # 1 - 2^(1-s) = 0 at s = 1 + 2 pi i k / log 2 (here k = 1)
        ("1+9.0647202836543876192553658914333336203437229354i",
         "eta-to-zeta conversion factor too small"),
        # the reference's term count overflows a float
        ("1/2+1e400i", "term count is not finite"),
    ])
    def test_convergence_reference_failure_exit(self, tmp_path, point, message):
        # a reference that cannot be computed is exit 3 with one stderr line,
        # not a traceback read as exit 1 (claim failed)
        out = tmp_path / "c.json"
        code = cli.main(["--out", str(out), "scan", "convergence", "--s", point])
        assert code == 3
        assert not out.exists()
        err = sys.stderr.getvalue()
        assert err.count("\n") == 1 and err.startswith("reference: ") and message in err

    def test_convergence_reference_term_limit(self, tmp_path):
        # the eta series would need about 8.9e11 terms at t = 1e12: the
        # reference refuses at once, exit 3 with one stderr line
        out = tmp_path / "c.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "zetacf.cli", "scan", "convergence",
             "--s", "1/2+1e12i", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3 and not out.exists()
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("reference: ") and "term limit" in proc.stderr

    @pytest.mark.parametrize("args", list(ZERO_REPORT_SHA256))
    def test_zero_report_pinned(self, args, tmp_path, monkeypatch):
        # the header echoes argv, so the output name is fixed
        monkeypatch.chdir(tmp_path)
        cli.main([*args.split(), "--out", "zero.json"])
        digest = hashlib.sha256(Path("zero.json").read_bytes()).hexdigest()
        assert digest == ZERO_REPORT_SHA256[args]

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

    def test_worpitzky_100_banded_report_pinned(self, capsys):
        # with the band search on, the bytes pin the exact step of the grid
        # and of the bisection, and the payload of mirrored points
        args = ["scan", "worpitzky", "100", "--grid", "9x9"]
        assert cli.main(args) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "a4385822c79c2e026dedf79f1b777ca458f63d1347ee0a8de9169b0e7e2a10d9")
        assert json.loads(report)["t_empirical"] is not None

    # the run statistics each pinned report's scan writes to stderr, by m
    PINNED_LEVELS = {"300": "441 points, 80162 k-levels", "1000": "9 points, 5988 k-levels",
                     "3000": "9 points, 17988 k-levels"}

    @pytest.mark.parametrize("args, digest", [
        ("scan worpitzky 300 --grid 21x21",
         "b7602a9abc505011c2e2a4b431d7fb220b3c788595f3ebf558273f4011e467e1"),
        ("--format csv scan worpitzky 300 --grid 21x21",
         "257dea8425d81ec772433281142b66aa8c4b6f0d1c09ada7bb32a31de6bd247e"),
        ("scan worpitzky 1000 --grid 3x3 --no-band",
         "3d593a321a7d5de2aa300d6627bf203bc9d753cb3e648c22f21caf5d55539d1c"),
        ("--format csv scan worpitzky 1000 --grid 3x3 --no-band",
         "971041815a57b22f2f80d9ece57d5b9c5c34cb8222a392d5bf05968c92bdc56b"),
        ("scan worpitzky 3000 --grid 3x3 --no-band",
         "1709bfbbeea193e35b12ce03cc61f5bf913492f1fc4e5c65c69cb86c616a963b"),
        ("--format csv scan worpitzky 3000 --grid 3x3 --no-band",
         "2cc871ed853f80232e1d097264931bcb47471aade1ec30c975d569bf1e3333b4"),
    ])
    def test_worpitzky_report_bytes_pinned(self, args, digest, capsys):
        # the element test decides most levels of these scans by the tail
        # bound, from a prefix of the row at m = 1000 and 3000; every report
        # byte, JSON and CSV, and the run statistics must stay as they were
        assert cli.main(args.split()) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        m = args.split()[args.split().index("worpitzky") + 1]
        assert f"scan worpitzky: {self.PINNED_LEVELS[m]}, 0 exact fallbacks\n" in err

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

    def test_defaults_are_run_config_defaults(self, tmp_path, monkeypatch):
        # with no config file and no flags, every run value is RunConfig's own
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args(["coeffs", "2", "--kind", "a"])
        assert cli._resolve_config(args) == cli.RunConfig()
        Path("zetacf.json").write_text(json.dumps({"format": "csv", "jobs": 2}))
        args = cli.build_parser().parse_args(["--jobs", "3", "coeffs", "2", "--kind", "a"])
        assert cli._resolve_config(args) == cli.RunConfig(format="csv", jobs=3)


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
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert "error: the following arguments are required: command" in capsys.readouterr().err

    def test_bad_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "worpitzky", "10", "--grid", "banana"])
        assert exc.value.code == 2
        assert "error: argument --grid: grid must look like 41x41" in capsys.readouterr().err

    def test_low_precision_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--precision", "10", "coeffs", "3", "--kind", "a"])
        assert exc.value.code == 2
        assert "error: precision must be >= 53 bits" in capsys.readouterr().err

    _CONFIG_ERRORS = {
        '{"precision": 128': "cannot read zetacf.json: Expecting ',' delimiter",  # not JSON
        '[128]': "zetacf.json must hold a JSON object",
        '{"precision": "high"}': "precision must be an integer, not 'high'",
        '{"seed": 1.5}': "seed must be an integer, not 1.5",
        '{"jobs": true}': "jobs must be an integer, not True",
        '{"jobs": 0}': "jobs must be >= 1",
    }

    @pytest.mark.parametrize("text", list(_CONFIG_ERRORS))
    def test_bad_config_file_rejected(self, text, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("zetacf.json").write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "x.json"), "coeffs", "2", "--kind", "a"])
        assert exc.value.code == 2
        assert f"error: {self._CONFIG_ERRORS[text]}" in capsys.readouterr().err

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
        # --n only sizes the sinh kernel, whose table takes no m
        ["coeffs", "5", "--kind", "a", "--n", "3"],
        ["coeffs", "5", "--kind", "bernoulli", "--n", "3"],
        ["coeffs", "-7", "--kind", "sinh", "--r-squared", "1", "--n", "2"],
        ["coeffs", "3", "--kind", "sinh", "--r-squared", "1"],
    ])
    def test_malformed_argument_is_usage_error(self, argv, tmp_path, capsys):
        # any exception other than the parser's exit would escape pytest.raises
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_point_tokens(self):
        # an exponent's sign does not split the real and imaginary parts
        tokens = "1/2+14.13i,i,-i,3/4-2i,1e-3i,1/2-1e-3i,2.5E+1-4e-2i"
        assert cli._points_arg(tokens) == [
            (Fraction(1, 2), Fraction(1413, 100)), (0, 1), (0, -1), (Fraction(3, 4), -2),
            (0, Fraction(1, 1000)), (Fraction(1, 2), Fraction(-1, 1000)),
            (25, Fraction(-1, 25))]

    def test_nonpositive_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "worpitzky", "10", "--grid", "3x3", "--jobs", "0"])
        assert exc.value.code == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err
