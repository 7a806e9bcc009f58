"""The four workloads: fixed operation lists, their seeded inputs and checks.

Each op is one call into zetacf, library or CLI, followed (outside the timed
region) by a check of its output against a reference. The CLI ops call
`zetacf.cli.main(argv)` in-process with `--out` pointed at a file in the
pass's working directory.

Library functions are looked up on their modules at call time, so the
wrappers installed by `tracing.instrument` are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import mpmath as mp

import reference as ref

WORKLOADS = ("strip_scan", "many_m_sweep", "exact_series", "cf_contour")

# Failures present in the program this benchmark was written against. They
# stay in the workloads and are counted as failed; `correct` stays true only
# while each fails exactly like this (a detail starting with the text), so a
# new wrong answer anywhere turns it false.
_INT_STR_LIMIT = ("raised ValueError in frac_str: Exceeds the limit (4300 digits) "
                  "for integer string conversion")
SEED_DEFECTS = {
    "cli_worpitzky_1000": _INT_STR_LIMIT,
    "cli_sinh_coeffs_100": _INT_STR_LIMIT,
    "zero_zn": "n=40: certified winding 24, expected 40",
}

# sha256 of the report bytes each deterministic CLI op wrote on the program
# this benchmark was written against (full scale only). `scan zero` is not
# pinned: its samples and subdivisions describe the method, not the answer.
REPORT_SHA256 = {
    "cli_worpitzky_100":
        "8f44a473dbb6fa878944f2a244a75514a6f891f961fdd1ad978f74c5fd417a86",
    "cli_worpitzky_300_j1":
        "ffe4b02a490f6abd92237174e4990df98c7951d74c196427e8234cc4272bae81",
    "cli_worpitzky_300_j2":
        "7d1cb323e9727089cb2e0bccc5919eeeb38dfef0e220a128ec3f12f5bc6543d4",
    "cli_lemma1_500":
        "c40ef7f279b03bbdc62a8bed224dad1fada689e112b2aa36c70f13e0a74897d4",
    "cli_newton_200":
        "18bfdde2551516e59c311b10ac676b4822dc4561e4d3b09a0e0cd6ca65d679b9",
    "cli_c1_identity_500":
        "be8917c1f8a4c232765957ec35adbcc5e0488698c8f61aa6d21607e511117eeb",
    "cli_bernoulli_520":
        "0357e98ab3acaa436da921604b320656f13a6027cbe5fb9bb2cf4d5d75d1bd4f",
    "cli_oracle3_60":
        "862ec45740a1c03e9d7af31946dd043186c4f83d6dc9d4e2e3b1afe3bed2d4e0",
    "cli_sinh_verify_60":
        "163f267cd8a09d6ab270d25c243c40bb8cdf7a7b7aa8357706a118d9805dfcf0",
    "cli_monotonicity_200":
        "789a5db4d3c751ed1d96c88d3c6fd1afb92f3fc4269ec67c654e0ef28e6e3f30",
    "cli_convergence_256":
        "71b38d564d3bdaf399cb61b2d20509e1412c818ab922eabceb52fbc41e1fc677",
}

# tests/golden/monotonicity.json: the first m whose k c_k/c_{k-1} is not
# non-increasing, and its k; c_k/c_{k-1} itself decreases through m = 200.
_GOLDEN_FIRST_VIOLATION = (116, 9)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output matches
    is_cli: bool = False


@dataclass
class CliOutput:
    code: int
    path: Path


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def strip_points(seed: int, tag: str, count: int, t_bound: float,
                 denom: int = 64) -> list[tuple[Fraction, Fraction]]:
    """`count` rational points with 0 < sigma < 1 and |t| <= t_bound, on a
    1/denom lattice, reproducible from (seed, tag)."""
    rng = random.Random(f"{tag}-{seed}")
    t_max = math.floor(t_bound * denom)
    return [(Fraction(rng.randint(1, denom - 1), denom),
             Fraction(rng.randint(-t_max, t_max), denom)) for _ in range(count)]


def band_bound(m: int) -> float:
    """(1/2) sqrt(log m), less a margin for float rounding. The check
    confirms every point against zetacf's certified rational bound."""
    return math.sqrt(math.log(m)) / 2 - 1e-9


# ---------------------------------------------------------------------------
# op helpers
# ---------------------------------------------------------------------------


def _cli(Z, name: str, argv: list[str]) -> Callable[[], CliOutput]:
    path = Path(f"{name}.json")

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = Z.cli.main([*argv, "--out", str(path)])
        return CliOutput(code, path)

    return run


def _cli_check(name: str, expect: Callable[[dict], str | None],
               pin: bool) -> Callable[[CliOutput], str | None]:
    """Check a CLI report: its verdict (via `expect`), then exit code 0,
    which every passing report implies, then, when pinned, its sha256.
    The exit code alone is never taken as the verdict."""
    def check(out: CliOutput) -> str | None:
        data = out.path.read_bytes()
        problem = expect(json.loads(data))
        if problem:
            return problem
        if out.code != 0:
            return f"report passes but exit code is {out.code}"
        want = REPORT_SHA256.get(name) if pin else None
        if want:
            got = hashlib.sha256(data).hexdigest()
            if got != want:
                return f"report sha256 {got[:16]}... differs from pinned {want[:16]}..."
        return None
    return check


def _expect_verify(doc: dict) -> str | None:
    if doc.get("pass") is not True or doc.get("witness") is not None:
        return f"verify {doc.get('claim')} m_max={doc.get('m_max')}: witness {doc.get('witness')}"
    return None


def _expect_worpitzky(n_points: int):
    def expect(doc: dict) -> str | None:
        pts = doc["points"]
        if len(pts) != n_points:
            return f"{len(pts)} points, expected {n_points}"
        failing = [p for p in pts if p["pass"] is not True]
        if doc["all_pass"] is not True or doc["band_pass"] is not True or failing:
            return (f"all_pass={doc['all_pass']} band_pass={doc['band_pass']}, "
                    f"{len(failing)} failing points")
        return None
    return expect


def _expect_zero(doc: dict) -> str | None:
    for kind, res in sorted(doc["results"].items()):
        if res["winding_number"] != 0 or res["certified"] is not True:
            return (f"{kind} numerator: winding {res['winding_number']}, "
                    f"certified {res['certified']}, expected 0")
    return None


def _expect_table(values: list[Fraction]):
    def expect(doc: dict) -> str | None:
        rows = doc["rows"]
        if len(rows) != len(values):
            return f"{len(rows)} rows, expected {len(values)}"
        for row, want in zip(rows, values):
            if ref.parse_fraction(row["value"]) != want:
                return f"row {row['index']} differs from the reference"
        return None
    return expect


def _expect_monotonicity(lo: int, hi: int):
    first_m, first_k = _GOLDEN_FIRST_VIOLATION

    def expect(doc: dict) -> str | None:
        findings = doc["findings"]
        if {f["m"] for f in findings} != set(range(lo, hi + 1)):
            return "findings do not cover every m"
        if any(f["first_violation_k"] is not None
               for f in findings if f["sequence"] == "c_ratio"):
            return "some c_k/c_(k-1) sequence is not non-increasing"
        want_m = first_m if hi >= first_m else None
        if doc["first_k_ratio_violation_m"] != want_m:
            return f"first k-ratio violation at m={doc['first_k_ratio_violation_m']}, expected {want_m}"
        if want_m is not None:
            k = next(f["first_violation_k"] for f in findings
                     if f["m"] == first_m and f["sequence"] == "k_c_ratio")
            if k != first_k:
                return f"violation at m={first_m} has k={k}, expected {first_k}"
        return None
    return expect


def _expect_convergence(s: int, m_list: list[int]):
    def expect(doc: dict) -> str | None:
        (pt,) = doc["points"]
        if [r["m"] for r in pt["rows"]] != m_list:
            return "rows do not follow the m list"
        if pt["strictly_decreasing"] is not True:
            return f"error not strictly decreasing at s={s}"
        match = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", pt["zeta_reference"])
        if match is None:
            return f"zeta reference {pt['zeta_reference']!r} is not a complex value"
        re_part, sign, im_part = match.groups()
        with mp.workprec(128):
            got = mp.mpc(re_part, sign + im_part)
            if abs(got - mp.zeta(s)) > mp.mpf(10) ** -25:
                return f"zeta reference {pt['zeta_reference']} differs from mpmath's zeta({s})"
        return None
    return expect


def _none_check(what: str):
    def check(out) -> str | None:
        return None if out is None else f"{what} found a counterexample: {out}"
    return check


# ---------------------------------------------------------------------------
# library ops and their checks
# ---------------------------------------------------------------------------


def _margin_op(Z, m: int, points):
    def run():
        QC = Z.qcomplex.QComplex
        return [Z.region_analysis.worpitzky_margin(m, QC(s, t)) for s, t in points]

    def check(results) -> str | None:
        T = Z.region_analysis.half_sqrt_log_lower(m)
        a = Z.coeff_core.coeff_table(m - 1).a
        for (s, t), r in zip(points, results, strict=True):
            if abs(t) > T:
                return f"input point {s}+{t}i lies outside the band |t| <= {T}"
            if (r.sigma, r.t) != (s, t):
                return f"result for {s}+{t}i reports the point {r.sigma}+{r.t}i"
            if not r.passed or r.margin_sq < 0:
                return f"element test fails at {s}+{t}i (k={r.argmin_k})"
            if ref.element_margin_sq(a, (s, t), r.argmin_k) != r.margin_sq:
                return f"margin_sq at {s}+{t}i, k={r.argmin_k} differs from |E_k|^2-16"
        return None

    return run, check


def _prop1_op(Z, m: int, n: int):
    def run():
        ra = Z.region_analysis
        return ra.prop1_scan(m, ra.default_strip_grid(m, n, n), bisect_band=True)

    def check(rep) -> str | None:
        if len(rep.points) != n * n:
            return f"{len(rep.points)} points, expected {n * n}"
        if not (rep.all_pass and rep.band_pass) or not all(p.passed for p in rep.points):
            return f"all_pass={rep.all_pass} band_pass={rep.band_pass}"
        if rep.t_empirical is None or rep.t_empirical < rep.t_guaranteed:
            return f"empirical band {rep.t_empirical} below the guaranteed {rep.t_guaranteed}"
        return None

    return run, check


def _zero_zn_op(Z, degrees):
    rect = (-1, 1, -1, 1)

    def run():
        Poly = Z.series.Poly
        return [Z.region_analysis.zero_scan(Poly([Fraction(-1, 10**6)] + [0] * (n - 1) + [1]), rect)
                for n in degrees]

    def check(results) -> str | None:
        for n, res in zip(degrees, results, strict=True):
            if res.winding_number != n or not res.certified:
                state = "certified" if res.certified else "uncertified"
                return f"n={n}: {state} winding {res.winding_number}, expected {n}"
        return None

    return run, check


def _cf_op(Z, m: int, points):
    def run():
        ae = Z.approx_eval
        QC = Z.qcomplex.QComplex
        out = []
        for kind, expansion, build in (("G", ae.g_expansion, ae.build_g),
                                       ("F", ae.f_expansion, ae.build_f)):
            cf = ae.euler_cf(expansion(m))
            pf = build(m)
            for s, t in points:
                z = mp.mpc(mp.mpf(s.numerator) / s.denominator, mp.mpf(t.numerator) / t.denominator)
                out.append((kind, (s, t),
                            ae.eval_cf(cf, QC(s, t)).value,
                            ae.eval_cf(cf, z, precision=256).value.value,
                            ae.eval_pf_precise(pf, z, precision=290).value))
        return out

    def check(out) -> str | None:
        bound = mp.mpf(2) ** -200
        targets = {pt: ref.normalized_cf_targets(m, pt) for pt in points}
        for kind, (s, t), exact, approx, pf_value in out:
            want = targets[(s, t)][0 if kind == "G" else 1]
            if (exact.re, exact.im) != want:
                return f"{kind} m={m}: exact value at {s}+{t}i is not 1/(normalized)-1"
            with mp.workprec(300):
                w = mp.mpc(mp.mpf(want[0].numerator) / want[0].denominator,
                           mp.mpf(want[1].numerator) / want[1].denominator)
                z = mp.mpc(mp.mpf(s.numerator) / s.denominator, mp.mpf(t.numerator) / t.denominator)
                norm = m * z * (z - 1) if kind == "G" else (m + 1) * z
                via_pf = 1 / (norm * pf_value) - 1
                if abs(approx - w) >= bound * abs(w):
                    return f"{kind} m={m}: 256-bit CF value at {s}+{t}i off by more than 2^-200"
                if abs(via_pf - w) >= bound * abs(w):
                    return f"{kind} m={m}: 290-bit partial fraction at {s}+{t}i off by more than 2^-200"
        return None

    return run, check


def _positivity_op(Z, m_max: int, order: int):
    def run():
        ra = Z.region_analysis
        return ra.positivity_truncation_check(m_max), ra.binomial_cf_check(order)

    def check(out) -> str | None:
        pos, binom = out
        if not pos.passed:
            return f"negative coefficient at {pos.first_negative}"
        if not binom.passed:
            return f"binomial CF mismatch at y^{binom.first_mismatch}"
        return None

    return run, check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

FULL = SimpleNamespace(
    margin_m=1000, margin_points=16, prop1_m=1000, prop1_n=9,
    w100=["100"], w300=["300", "--grid", "21x21"], w1000=["1000", "--grid", "3x3", "--no-band"],
    w100_points=41 * 41, w300_points=21 * 21, w1000_points=9,
    lemma1=500, newton=200, a_inv=200, real_line=600, c1=500, bern=520, oracle3=60,
    sinh_verify=60, mono=(2, 200), pos=(30, 12), sinh_n=60,
    zero=(50, 150), zn=(16, 32, 40), cf=(60, 120), cf_points=10,
    conv=[4, 8, 16, 32, 64, 128, 256],
)

# The same op lists at sizes that take well under a second each, for the
# harness self-test.
TINY = SimpleNamespace(
    margin_m=30, margin_points=3, prop1_m=30, prop1_n=3,
    w100=["20", "--grid", "5x5"], w300=["40", "--grid", "5x5"], w1000=["50", "--grid", "3x3", "--no-band"],
    w100_points=25, w300_points=25, w1000_points=9,
    lemma1=30, newton=20, a_inv=20, real_line=30, c1=30, bern=30, oracle3=10,
    sinh_verify=8, mono=(2, 20), pos=(6, 4), sinh_n=8,
    zero=(10, 12), zn=(4, 8), cf=(6, 8), cf_points=2,
    conv=[4, 8, 16],
)


def build_ops(workload: str, seed: int, Z, sizes=FULL) -> list[Op]:
    """The op list of `workload`, with inputs generated from `seed`.

    `Z` holds the zetacf modules (cli, coeff_core, approx_eval,
    region_analysis, series, qcomplex) as attributes.
    """
    k = sizes
    pin = sizes is FULL
    ops: list[Op] = []

    def cli(name, argv, expect):
        ops.append(Op(name, _cli(Z, name, argv), _cli_check(name, expect, pin), True))

    def lib(name, run_check):
        ops.append(Op(name, *run_check))

    if workload == "strip_scan":
        # the seeded margins come first, so their first call builds the
        # per-m context that prop1_scan then reuses
        pts = strip_points(seed, "margin", k.margin_points, band_bound(k.margin_m))
        lib("margin_m1000_seeded", _margin_op(Z, k.margin_m, pts))
        lib("prop1_m1000", _prop1_op(Z, k.prop1_m, k.prop1_n))
        cli("cli_worpitzky_100", ["scan", "worpitzky", *k.w100], _expect_worpitzky(k.w100_points))
        for jobs in (1, 2):
            cli(f"cli_worpitzky_300_j{jobs}", ["scan", "worpitzky", *k.w300, "--jobs", str(jobs)],
                _expect_worpitzky(k.w300_points))
        cli("cli_worpitzky_1000", ["scan", "worpitzky", *k.w1000], _expect_worpitzky(k.w1000_points))
    elif workload == "many_m_sweep":
        cli("cli_lemma1_500", ["verify", "lemma1", str(k.lemma1)], _expect_verify)
        cli("cli_newton_200", ["verify", "newton", str(k.newton)], _expect_verify)
        lib("a_invariant_200_deep", (
            lambda: Z.coeff_core.a_invariant_witness(k.a_inv, deep_roots=True),
            _none_check("a_invariant_witness")))
        lib("real_line_600", (
            lambda: Z.region_analysis.real_line_margin_check(k.real_line),
            _none_check("real_line_margin_check")))
        cli("cli_c1_identity_500", ["verify", "c1-identity", str(k.c1)], _expect_verify)
        cli("cli_bernoulli_520", ["coeffs", str(k.bern), "--kind", "bernoulli"],
            lambda doc: _expect_table(ref.bernoulli(k.bern))(doc))
        cli("cli_oracle3_60", ["verify", "oracle3", str(k.oracle3)], _expect_verify)
    elif workload == "exact_series":
        cli("cli_sinh_verify_60", ["verify", "logconcave-sinh", str(k.sinh_verify)], _expect_verify)
        lo, hi = k.mono
        cli("cli_monotonicity_200", ["scan", "monotonicity", f"{lo}..{hi}"],
            _expect_monotonicity(lo, hi))
        lib("positivity_trunc_30", _positivity_op(Z, *k.pos))
        cli("cli_sinh_coeffs_100",
            ["coeffs", "0", "--kind", "sinh", "--r-squared", "100", "--n", str(k.sinh_n)],
            lambda doc: _expect_table(ref.sinh_coefficients(Fraction(100), k.sinh_n))(doc))
    elif workload == "cf_contour":
        for m, full_m in zip(k.zero, FULL.zero):
            cli(f"cli_zero_{full_m}", ["scan", "zero", str(m)], _expect_zero)
        lib("zero_zn", _zero_zn_op(Z, k.zn))
        pts = strip_points(seed, "cf", k.cf_points, 1.0)
        for m, full_m in zip(k.cf, FULL.cf):
            lib(f"cf_m{full_m}", _cf_op(Z, m, pts))
        cli("cli_convergence_256",
            ["scan", "convergence", "--s", "2", "--m-list", ",".join(map(str, k.conv))],
            _expect_convergence(2, k.conv))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops
