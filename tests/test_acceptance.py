"""Acceptance suite: every exit criterion as one test, with a printed
PASS/FAIL line and its runtime.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines go by. All
comparisons marked exact use rational arithmetic with zero tolerance.

Check 09 requires the approximant-vs-reference error to decrease at s = 2
and at one point of the critical line, s = 1/2 + i*half_sqrt_log_lower(4).
That height is the certified lower bound for (1/2) sqrt(log m) at the
smallest m probed; the band grows with m, so the point lies inside the strip
band for every m in the list. Heights near t = 14 lie outside the range
where m <= 64 can converge: there |Gamma(s-1)| is ~4e-11 and the ratio
F_m/((s-1)G_m) tends to 1, not to zeta, until log m >> |t|. That behaviour
is pinned by TestConvergenceProbe in test_region_analysis.py; see README,
"Notes on method".
"""

import time
from fractions import Fraction as F
from math import factorial

import mpmath as mp

from zetacf.approx_eval import (
    build_f,
    build_g,
    collapsed,
    euler_cf,
    eval_cf,
    eval_pf,
    eval_pf_precise,
    f_expansion,
    g_expansion,
    numerator_poly,
)
from zetacf.coeff_core import (
    _bernoulli_akiyama_tanigawa,
    _bernoulli_tangent,
    a_invariant_witness,
    c1_identity_witness,
    c_genfunc_oracle,
    c_positivity_witness,
    c_residue_oracle,
    c_sequences,
    sinh_series,
)
from zetacf.qcomplex import QComplex
from zetacf.region_analysis import (
    binomial_cf_check,
    c_monotonicity_search,
    convergence_probe,
    default_strip_grid,
    first_k_ratio_violation,
    half_sqrt_log_lower,
    positivity_truncation_check,
    prop1_scan,
    ratio_bounds_sweep,
    seeded_strip_points,
    zero_scan,
)
from zetacf.series import Poly

SEED = 1


def _finish(num: int, desc: str, t0: float, ok: bool, limit: float | None,
            detail: str = "") -> None:
    dt = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} {desc} ({dt:.1f}s){extra}")
    assert ok, f"acceptance {num:02d} failed: {desc}{extra}"
    if limit is not None:
        assert dt < limit, f"acceptance {num:02d} exceeded {limit}s (took {dt:.1f}s)"


def test_criterion_01_golden_forms():
    t0 = time.monotonic()
    cf_, pf_, polesf = collapsed(build_f(3))
    cg_, pg_, polesg = collapsed(build_g(3))
    ok = (
        cf_ == F(1, 12) and pf_ == Poly([11, 10, 3]) and polesf == (1, 0, -1)
        and cg_ == F(1, 3) and pg_ == Poly([11, 6, 1]) and polesg == (1, 0, -1, -2)
    )
    _finish(1, "collapsed golden forms of the two m=3 approximants", t0, ok, 1.0)


def test_criterion_02_triple_oracle():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for seq in c_sequences(60):
        if c_residue_oracle(seq.m).c != seq.c:
            ok, detail = False, f"residue mismatch at m={seq.m}"
            break
    if ok:
        M = c_genfunc_oracle(30)
        if M[0][0] != 1:
            ok, detail = False, "constant term not 1"
        for seq in c_sequences(30):
            for k in range(1, len(seq.c)):
                if M[seq.m][k - 1] != seq.c[k] / (seq.m + 1):
                    ok, detail = False, f"generating function mismatch at m={seq.m}, k={k}"
                    break
            if not ok:
                break
    _finish(2, "residue and generating-function oracles agree with the direct"
               " formula (m<=60 / m<=30, exact)", t0, ok, 120.0, detail)


def test_criterion_03_exact_invariant_sweep():
    t0 = time.monotonic()
    ok = True
    detail = ""
    w = a_invariant_witness(200, deep_roots=True)
    if w is not None:
        ok, detail = False, str(w)
    if ok:
        r = ratio_bounds_sweep(500)
        if r is not None:
            ok, detail = False, f"ratio bounds fail at m={r.m}: {r.witness}"
    if ok:
        w = c_positivity_witness(200)
        if w is not None:
            ok, detail = False, str(w)
    if ok:
        w = c1_identity_witness(500)
        if w is not None:
            ok, detail = False, str(w)
    if ok and _bernoulli_tangent(200) != _bernoulli_akiyama_tanigawa(200):
        ok, detail = False, "the two Bernoulli routes disagree through n=200"
    _finish(3, "exact invariant sweep: table identities, log-concavity, ratio"
               " bounds, positivity, first-coefficient identity, dual"
               " Bernoulli routes", t0, ok, 300.0, detail)


def test_criterion_04_cf_equals_series():
    t0 = time.monotonic()
    ok = True
    detail = ""
    rational_s = (F(1, 2), F(1, 3), F(3, 4))
    for m in range(1, 21):
        fcf = euler_cf(f_expansion(m))
        fpf = build_f(m)
        for s in rational_s:
            if eval_cf(fcf, s).value != 1 / ((m + 1) * s * eval_pf(fpf, s)) - 1:
                ok, detail = False, f"F exact mismatch m={m}, s={s}"
        if m >= 2:
            gcf = euler_cf(g_expansion(m))
            gpf = build_g(m)
            for s in rational_s:
                if eval_cf(gcf, s).value != 1 / (m * s * (s - 1) * eval_pf(gpf, s)) - 1:
                    ok, detail = False, f"G exact mismatch m={m}, s={s}"
    if ok:
        points = seeded_strip_points(SEED, 10)
        bound = mp.mpf(2) ** -200
        for m in range(2, 21):
            gcf = euler_cf(g_expansion(m))
            fcf = euler_cf(f_expansion(m))
            gpf, fpf = build_g(m), build_f(m)
            for q in points:
                s = mp.mpc(mp.mpf(q.re.numerator) / q.re.denominator,
                           mp.mpf(q.im.numerator) / q.im.denominator)
                with mp.workprec(300):
                    z = mp.mpc(s)
                    gv = eval_pf_precise(gpf, s, precision=290).value
                    fv = eval_pf_precise(fpf, s, precision=290).value
                    wantg = 1 / (m * z * (z - 1) * gv) - 1
                    wantf = 1 / ((m + 1) * z * fv) - 1
                    gotg = eval_cf(gcf, s, precision=256).value.value
                    gotf = eval_cf(fcf, s, precision=256).value.value
                    if abs(gotg - wantg) / abs(wantg) >= bound:
                        ok, detail = False, f"G complex deviation at m={m}, s={q}"
                    if abs(gotf - wantf) / abs(wantf) >= bound:
                        ok, detail = False, f"F complex deviation at m={m}, s={q}"
    _finish(4, "continued fractions equal 1/(normalized approximant) - 1"
               " (exact rational; seeded complex within 2^-200)", t0, ok, 60.0, detail)


def test_criterion_05_element_test_scan():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for m in (10, 100, 1000):
        rep = prop1_scan(m, default_strip_grid(m), bisect_band=False)
        if not rep.all_pass:
            ok = False
            detail = f"m={m}: {len(rep.failing_points)} failing points"
            break
    _finish(5, "element-test margins >= 0 on 41x41 rational grids inside the"
               " certified band, m in {10, 100, 1000} (exact squared moduli)",
            t0, ok, 600.0, detail)


def test_criterion_06_zero_scans():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for m in (10, 50, 100):
        T = half_sqrt_log_lower(m)
        rect = (F(0), F(1), -T, T)
        for kind, pf in (("G", build_g(m)), ("F", build_f(m))):
            res = zero_scan(numerator_poly(pf), rect)
            if res.winding_number != 0 or not res.certified:
                ok, detail = False, f"{kind} numerator at m={m}: winding {res.winding_number}"
    _finish(6, "certified winding number 0 for both collapsed numerators over"
               " the strip band, m in {10, 50, 100}", t0, ok, 300.0, detail)


def test_criterion_07_binomial_cf_and_positivity():
    t0 = time.monotonic()
    b = binomial_cf_check(12)
    p = positivity_truncation_check(30)
    ok = b.passed and p.passed
    detail = "" if ok else f"binomial mismatch {b.first_mismatch}, first negative {p.first_negative}"
    _finish(7, "binomial continued fraction exact to y^12; truncation"
               " positivity through y^30", t0, ok, 120.0, detail)


def test_criterion_08_monotonicity_experiment():
    t0 = time.monotonic()
    findings = c_monotonicity_search(2, 200)
    first = first_k_ratio_violation(findings)
    plain_all_decreasing = all(f.decreasing for f in findings if f.kind == "c_ratio")
    statuses = {f.m for f in findings}
    ok = (
        first is not None and first.m == 116 and first.first_violation_k == 9
        and plain_all_decreasing and statuses == set(range(2, 201))
    )
    detail = (f"first weighted-ratio violation at m={first.m}, k={first.first_violation_k}"
              if first else "no violation found below 200")
    _finish(8, "exhaustive ratio-monotonicity search to m=200 reproduces the"
               " golden artifact", t0, ok, None, detail)


def test_criterion_09_convergence_probe():
    t0 = time.monotonic()
    s_in_band = QComplex(F(1, 2), half_sqrt_log_lower(4))
    probe = convergence_probe([F(2), s_in_band], [4, 8, 16, 32, 64],
                              precision=256)
    at2, at_band = probe.points
    ok = at2.strictly_decreasing and at_band.strictly_decreasing
    detail = (f"s=2 decreasing: {at2.strictly_decreasing}, final {at2.rows[-1].error:.2e}; "
              f"s=1/2+{s_in_band.im}i decreasing: {at_band.strictly_decreasing}, "
              f"errors {[f'{r.error:.2e}' for r in at_band.rows]}")
    _finish(9, "approximant error against the independent reference decreases"
               " over m in {4,8,16,32,64} at both probe points", t0, ok, 60.0, detail)


def test_criterion_10_sinh_family():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for r2 in (F(1, 4), F(1), F(100), F(10000)):
        d = sinh_series(r2, 60).d
        if not all(x > 0 for x in d):
            ok, detail = False, f"nonpositive coefficient at r^2={r2}"
            break
        if not all(d[k] * d[k] >= d[k - 1] * d[k + 1] for k in range(1, 59)):
            ok, detail = False, f"log-concavity fails at r^2={r2}"
            break
    if ok:
        d0 = sinh_series(0, 60).d
        if d0[0] != 4 or any(x != 0 for x in d0[1:]):
            ok, detail = False, "degenerate limit is not the constant 4"
    # the leading coefficient equals 2 over the truncated denominator sum
    if ok:
        want = F(2) / sum(F(1) ** i / factorial(2 * i + 2) for i in range(60))
        if sinh_series(F(1), 60).d[0] != want:
            ok, detail = False, "leading coefficient disagrees with direct summation"
    _finish(10, "sinh-kernel family: 60 exact coefficients positive and"
                " log-concave for four r^2 values; degenerate limit 4",
            t0, ok, 60.0, detail)
