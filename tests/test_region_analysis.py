import json
import math
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest

from zetacf import float_filter as ff
from zetacf import region_analysis as ra
from zetacf.approx_eval import build_f, build_g, numerator_poly
from zetacf.coeff_core import c_genfunc_oracle, coeff_table, stirling_rows
from zetacf.errors import UncertifiableError
from zetacf.qcomplex import QComplex
from zetacf.region_analysis import (
    RegionGrid,
    binomial_cf_check,
    c_monotonicity_search,
    convergence_probe,
    default_strip_grid,
    first_k_ratio_violation,
    half_sqrt_log_lower,
    positivity_genfunc_matrix,
    positivity_truncation_check,
    prop1_scan,
    ratio_bounds_check,
    ratio_bounds_sweep,
    real_line_margin_check,
    seeded_strip_points,
    worpitzky_margin,
    zero_scan,
    zeta_reference,
)
from zetacf.series import Poly

GOLDEN = Path(__file__).parent / "golden"


class TestEnclosure:
    def test_lower_bound_certified(self):
        # T^2 <= log(m)/4, checked against a high-precision log
        for m in (10, 100, 1000):
            T = half_sqrt_log_lower(m)
            with mp.workprec(120):
                assert mp.mpf(T.numerator) / T.denominator < mp.sqrt(mp.log(m)) / 2
                # and the enclosure is tight to ~2^-16
                assert mp.sqrt(mp.log(m)) / 2 - mp.mpf(T.numerator) / T.denominator < 2 ** -15


class TestWorpitzkyMargin:
    @pytest.mark.parametrize("m", [5, 10, 25, 60])
    def test_real_line_nonnegative(self, m):
        for sigma in (F(1, 10), F(1, 2), F(9, 10)):
            r = worpitzky_margin(m, QComplex(sigma, F(0)))
            assert r.passed and r.margin_sq >= 0

    def test_reported_outside_region(self):
        # sign not asserted, only that an exact margin is produced
        r = worpitzky_margin(10, QComplex(F(1, 2), F(10)))
        assert isinstance(r.margin_sq, F)
        assert (r.margin + 4) ** 2 == pytest.approx(float(r.margin_sq + 16))

    def test_band_point_m100(self):
        T = half_sqrt_log_lower(100)
        r = worpitzky_margin(100, QComplex(F(1, 2), T))
        assert r.passed

    def test_matches_independent_float_route(self):
        from zetacf.coeff_core import coeff_table
        m, sigma, t = 30, F(1, 3), F(5, 4)
        a = [complex(x) for x in coeff_table(m - 1).a]
        s = complex(sigma) + 1j * complex(t)
        mins = min(
            abs((1 + (k + 1) * a[k] / ((k + s) * a[k - 1]))
                * (1 + ((k + 1 + s) * a[k]) / ((k + 2) * a[k + 1])))
            for k in range(1, m - 1)
        )
        r = worpitzky_margin(m, QComplex(sigma, t))
        assert abs((r.margin + 4) - mins) < 1e-9

    def test_dyadic_float_input_is_exact(self):
        r1 = worpitzky_margin(12, complex(0.5, 0.75))
        r2 = worpitzky_margin(12, QComplex(F(1, 2), F(3, 4)))
        assert r1.margin_sq == r2.margin_sq

    def test_mpmath_input_is_exact(self):
        assert QComplex.from_value(mp.mpc("0.5", "0.25")) == QComplex(F(1, 2), F(1, 4))
        r1 = worpitzky_margin(12, mp.mpc(0.5, 0.75))
        r2 = worpitzky_margin(12, QComplex(F(1, 2), F(3, 4)))
        assert r1 == r2

    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            worpitzky_margin(10, QComplex(F(1, 2), F(0)), k_range=(0, 3))


def _oracle_sq(a, sigma, t, k):
    """|E_k|^2 = |(v_k+1)(1+1/v_{k+1})|^2 in Fractions, from a = a_{m-1,.}."""
    x = k + sigma
    first = (((k + 1) * a[k] + x * a[k - 1]) ** 2 + (t * a[k - 1]) ** 2) \
        / ((x * x + t * t) * a[k - 1] ** 2)
    second = (((k + 2) * a[k + 1] + (x + 1) * a[k]) ** 2 + (t * a[k]) ** 2) \
        / ((k + 2) * a[k + 1]) ** 2
    return first * second


def _exact_pairs(ctx, sigma, t, k_lo, k_hi):
    """(k, num, den) with num/den = |E_k|^2, from the integer tables."""
    sn, sd = sigma.numerator, sigma.denominator
    tn, td = t.numerator, t.denominator
    P, Q = ctx.P, ctx.Q

    def N_of(k):
        R = sd * P[k] + (k * sd + sn) * Q[k]
        return R * R * td * td + (tn * sd * Q[k]) ** 2

    for k in range(k_lo, k_hi + 1):
        W = (k * sd + sn) ** 2 * td * td + (tn * sd) ** 2
        yield k, 16 * N_of(k) * N_of(k + 1), 16 * (sd * td) ** 2 * W * (Q[k] * P[k + 1]) ** 2


def _all_k_margin(ctx, sigma, t, k_lo, k_hi):
    """The element test as one exact integer loop over every k: the
    reference for the verdict, the argmin and the bytes of its float ratio.
    The argmin is the first k of least int_ratio_float value, or, where that
    value is inf at every k, the first k of least exact |E_k|^2."""
    pairs = list(_exact_pairs(ctx, sigma, t, k_lo, k_hi))
    all_pass = all(num >= 16 * den for _, num, den in pairs)
    ratios = [ff.int_ratio_float(num, den) for _, num, den in pairs]
    best_ratio = min(ratios)
    if best_ratio < math.inf:
        i = ratios.index(best_ratio)
    else:
        exact = [F(num, den) for _, num, den in pairs]
        i = exact.index(min(exact))
    return all_pass, pairs[i][0], best_ratio


def _refined_bracket(m):
    """The band bracket of prop1_scan at sigma = 1/2, bisected 40 more times
    with the exact verdict, until |E_k|^2 - 16 is far below the filter bound."""
    rep = prop1_scan(m, default_strip_grid(m, 3, 3), bisect_band=True)
    lo, hi = rep.t_empirical, rep.t_empirical + rep.t_resolution
    for _ in range(40):
        mid = (lo + hi) / 2
        if worpitzky_margin(m, (F(1, 2), mid)).passed:
            lo = mid
        else:
            hi = mid
    return rep.t_empirical, rep.t_empirical + rep.t_resolution, lo, hi


class TestFilteredElementTest:
    """The float filter with exact fallback against a Fraction oracle."""

    @pytest.mark.parametrize("m", [10, 30, 100])
    def test_matches_fraction_oracle(self, m):
        a = coeff_table(m - 1).a
        ctx = ra._margin_context(m)
        t_lo, t_hi, t_lo_fine, t_hi_fine = _refined_bracket(m)
        points = [(p.re, p.im) for p in seeded_strip_points(m, 6)]
        points += [(F(1, 2), t) for t in (t_lo, t_hi, t_lo_fine, t_hi_fine)]
        for sigma, t in points:
            r = worpitzky_margin(m, (sigma, t))
            q = [_oracle_sq(a, sigma, t, k) for k in range(1, m - 1)]
            q_min = min(q)
            assert r.passed == (q_min >= 16)
            assert r.argmin_k == 1 + q.index(q_min)
            assert r.margin_sq == q_min - 16
            all_pass, k_ref, ratio_ref = _all_k_margin(ctx, sigma, t, 1, m - 2)
            assert (r.passed, r.argmin_k, r.margin) == (all_pass, k_ref, math.sqrt(ratio_ref) - 4)
            with mp.workprec(200):
                exact = mp.sqrt(mp.mpf(q_min.numerator) / q_min.denominator) - 4
                assert abs(mp.mpf(r.margin) - exact) <= r.float_error_bound < 1e-12
        # floats decide every k at the bracket prop1_scan reports; the exact
        # test has to decide at the refined one, and never inside the band
        assert worpitzky_margin(m, (F(1, 2), t_lo_fine)).exact_fallbacks > 0
        assert worpitzky_margin(m, (F(1, 2), t_hi_fine)).exact_fallbacks > 0
        T = half_sqrt_log_lower(m)
        assert worpitzky_margin(m, (F(1, 2), T / 2)).exact_fallbacks == 0

    def test_filter_bound_is_sound(self):
        m = 60
        a = coeff_table(m - 1).a
        ctx = ra._margin_context(m)
        rel = F(ff.FILTER_REL)
        for p in seeded_strip_points(2024, 200):
            q_hat = ff.filter_values(ctx.r, p.re, p.im, 1, m - 2)
            for k, qh in enumerate(q_hat, 1):
                assert math.isfinite(qh)
                assert abs(F(qh) - _oracle_sq(a, p.re, p.im, k)) <= rel * F(qh)

    def test_filter_declines_inputs_outside_its_model(self):
        ctx = ra._margin_context(12)
        for sigma, t in ((F(-1, 3), F(1)),  # sigma < 0: terms can cancel
                         (F(1, 2), F(1, 2 ** 1060)),  # t is subnormal
                         (F(1, 2), F(10 ** 400))):  # t overflows
            assert all(math.isnan(q) for q in ff.filter_values(ctx.r, sigma, t, 1, 10))
            assert ra._point_margin(ctx, sigma, t, 1, 10)[:3] == _all_k_margin(ctx, sigma, t, 1, 10)
            assert worpitzky_margin(12, (sigma, t)).exact_fallbacks == 10

    def test_argmin_window_holds_ratio(self):
        # the argmin is searched among the k whose window can reach the least
        # upper end; each window must hold the k's _int_ratio_float value
        points = [(m, p.re, p.im) for m in (10, 60) for p in seeded_strip_points(m, 20)]
        points += _FAR_POINTS
        for m, sigma, t in points:
            ctx = ra._margin_context(m)
            q_hat = ff.filter_values(ctx.r, sigma, t, 1, m - 2)
            for (k, num, den), qh in zip(_exact_pairs(ctx, sigma, t, 1, m - 2), q_hat):
                w = ff.ratio_window(qh)
                assert qh * (1 - w) <= ff.int_ratio_float(num, den) <= qh * (1 + w)
        # the screen in _point_margin skips windows only below this q_hat
        assert ff.ratio_window(ff.WINDOW_UNDER_HALF) < 0.5

    def test_scan_counts_fallbacks(self):
        rep = prop1_scan(30, default_strip_grid(30, 3, 3), bisect_band=True)
        assert rep.exact_fallbacks == 0
        assert rep.k_levels > 6 * 28  # six unique grid points plus the band search
        assert rep.k_levels % 28 == 0


# far outside the band few bits of the smaller operand survive the shift in
# _int_ratio_float: the float margin carries that error, and the argmin by
# that ratio is not the argmin of the filtered values
_FAR_POINTS = [(m, sigma, t) for m in (5, 10, 30, 100) for sigma in (F(1, 3), F(1, 2))
               for t in (F(10 ** 3), F(10 ** 4), F(10 ** 6), F(3 ** 20, 7), F(10 ** 9))]


def test_margin_far_out():
    for m, sigma, t in _FAR_POINTS:
        ctx = ra._margin_context(m)
        assert ra._point_margin(ctx, sigma, t, 1, m - 2)[:3] == _all_k_margin(ctx, sigma, t, 1, m - 2)
        r = worpitzky_margin(m, QComplex(sigma, t))
        a = coeff_table(m - 1).a
        q = [_oracle_sq(a, sigma, t, k) for k in range(1, m - 1)]
        assert (r.argmin_k, r.passed, r.margin_sq) == (1 + q.index(min(q)), min(q) >= 16, min(q) - 16)
        assert math.isfinite(r.float_error_bound) == math.isfinite(r.margin)
        with mp.workprec(300):
            q = r.margin_sq + 16
            exact = mp.sqrt(mp.mpf(q.numerator) / q.denominator) - 4
            assert abs(mp.mpf(r.margin) - exact) <= r.float_error_bound, (m, sigma, t)


def test_far_out_argmin_compares_exactly():
    # on the a-rows the least |E_k|^2 far out is at the first k; this row
    # puts it at k = 2, where every int_ratio_float value is inf
    ctx = ra._MarginContext([1, 1, 1, 50, 1, 1, 1])
    sigma, t = F(1, 2), F(10 ** 12)
    found = ra._point_margin(ctx, sigma, t, 1, 5)
    assert found[:3] == _all_k_margin(ctx, sigma, t, 1, 5) == (True, 2, math.inf)
    assert F(*found[3:5]) == min(F(num, den) for _, num, den in _exact_pairs(ctx, sigma, t, 1, 5))


class TestProp1Scan:
    def test_m10_small_grid_all_pass(self):
        rep = prop1_scan(10, default_strip_grid(10, 11, 11), bisect_band=False)
        assert rep.all_pass
        assert rep.failing_points == ()
        assert rep.global_min_margin >= 0

    def test_single_point_grid(self):
        g = RegionGrid(F(1, 2), F(1, 2), F(0), F(0), 1, 1)
        rep = prop1_scan(12, g, bisect_band=False)
        assert len(rep.points) == 1 and rep.all_pass

    def test_mirror_symmetry(self):
        rep = prop1_scan(8, default_strip_grid(8, 5, 5), bisect_band=False)
        by_key = {(p.sigma, p.t): p for p in rep.points}
        for p in rep.points:
            assert by_key[(p.sigma, -p.t)].margin_sq == p.margin_sq

    def test_empirical_band_goldens(self):
        # frozen output of the stepped-plus-bisection band search
        rep10 = prop1_scan(10, default_strip_grid(10, 5, 5), bisect_band=True)
        assert rep10.t_empirical == F(2207284769875, 549755813888)
        rep100 = prop1_scan(100, default_strip_grid(100, 5, 5), bisect_band=True)
        assert rep100.t_empirical == F(1923112631833, 549755813888)
        # both verified bands extend beyond the guaranteed enclosure
        assert rep10.t_empirical > rep10.t_guaranteed
        assert rep100.t_empirical > rep100.t_guaranteed

    def test_strip_validation(self):
        g = RegionGrid(F(0), F(1, 2), F(0), F(0), 3, 1)
        with pytest.raises(ValueError):
            prop1_scan(10, g)

    def test_convergent_denominators_nonzero_in_band(self):
        # the conclusion the element test certifies, checked operationally:
        # exact forward-recurrence denominators never vanish inside the band
        from zetacf.approx_eval import euler_cf, eval_cf, g_expansion

        for m in (10, 20):
            T = half_sqrt_log_lower(m)
            cf = euler_cf(g_expansion(m))
            for sigma in (F(1, 4), F(1, 2), F(3, 4)):
                for t in (F(0), T / 2, -T / 2, T):
                    ev = eval_cf(cf, QComplex(sigma, t), trace=True)
                    assert all(not q.is_zero() if isinstance(q, QComplex) else q != 0
                               for q in ev.denominators)


class TestRealLineSweep:
    def test_every_m_to_300_three_sigmas(self):
        assert real_line_margin_check(300, sigmas=(F(1, 2), F(1, 7), F(6, 7))) is None

    def test_every_m_to_1000(self):
        assert real_line_margin_check(1000) is None

    @pytest.mark.parametrize("sigma", [F(0), F(1), F(-1, 2)])
    def test_sigma_outside_strip_rejected(self, sigma):
        with pytest.raises(ValueError):
            real_line_margin_check(10, sigmas=(F(1, 2), sigma))

    def test_streamed_rows_give_the_cached_contexts(self):
        # the sweep builds each context from the row stirling_rows streams
        for n, S in stirling_rows(59):
            if n < 2:
                continue
            ctx, ref = ra._MarginContext(S), ra._margin_context(n + 1)
            assert (ctx.m, ctx.P, ctx.Q, ctx.r[1:]) == (ref.m, ref.P, ref.Q, ref.r[1:])
            assert math.isnan(ctx.r[0]) and math.isnan(ref.r[0])


class TestRatioBounds:
    def test_m3_single_ratio(self):
        # a_{2,1}/a_{2,0} = 3/2 must lie in [(h_2-1)/1, h_2/1] = [1/2, 3/2]
        res = ratio_bounds_check(3)
        assert res.passed and res.lemma_j_max == 1

    def test_m2_trivial(self):
        assert ratio_bounds_check(2).passed

    def test_sweep_200(self):
        assert ratio_bounds_sweep(200) is None

    def test_lemma_range_grows(self):
        # h_{m-1}/2 reaches 2 only once h_{m-1} >= 4 (m - 1 >= 31)
        assert ratio_bounds_check(31).lemma_j_max == 1
        assert ratio_bounds_check(32).lemma_j_max == 2


class TestZeroScan:
    def test_g3_winding_zero(self):
        # roots of s^2+6s+11 are -3 +/- i sqrt(2): far outside [0,1]x[-2,2]
        res = zero_scan(numerator_poly(build_g(3)), (F(0), F(1), F(-2), F(2)))
        assert res.winding_number == 0 and res.certified

    def test_f3_winding_zero(self):
        # roots of 3s^2+10s+11 are -5/3 +/- i sqrt(8)/3
        res = zero_scan(numerator_poly(build_f(3)), (F(0), F(1), F(-2), F(2)))
        assert res.winding_number == 0 and res.certified

    def test_constant_poly(self):
        res = zero_scan(Poly([7]), (F(0), F(1), F(-1), F(1)))
        assert res.winding_number == 0

    def test_positive_controls(self):
        inside = zero_scan(Poly([F(-1, 2), 1]), (F(0), F(1), F(-1), F(1)))
        assert inside.winding_number == 1
        double = Poly([F(-1, 2), 1]) * Poly([F(-1, 4), 1])
        res2 = zero_scan(double, (F(0), F(1), F(-1), F(1)))
        assert res2.winding_number == 2
        outside = zero_scan(Poly([F(3), 1]), (F(0), F(1), F(-1), F(1)))
        assert outside.winding_number == 0

    def test_g3_root_box_has_windings(self):
        # box around -3 + i sqrt(2) contains exactly one root
        res = zero_scan(numerator_poly(build_g(3)), (F(-4), F(-2), F(1), F(2)))
        assert res.winding_number == 1

    def test_zero_on_boundary_uncertifiable(self):
        with pytest.raises(UncertifiableError):
            zero_scan(Poly([F(-1, 2), 1]), (F(1, 2), F(1), F(0), F(1)))

    def test_subdivision_near_boundary_roots(self):
        # conjugate roots just inside the right edge force adaptive refinement
        eps = F(1, 2**20)
        re0 = F(1, 2) - eps
        p = Poly([re0 * re0 + F(1, 32) ** 2, -2 * re0, 1])
        res = zero_scan(p, (F(0), F(1, 2), F(-1, 2), F(1, 2)))
        assert res.winding_number == 2
        assert res.subdivisions > 0 and res.certified


class TestMonotonicity:
    def test_golden_artifact(self, bern520):
        golden = json.loads((GOLDEN / "monotonicity.json").read_text())
        findings = c_monotonicity_search(2, 130, bern520)
        first = first_k_ratio_violation(findings)
        assert first is not None
        assert first.m == golden["first_violation_m"] == 116
        assert first.first_violation_k == golden["first_violation_k"] == 9
        # and the plain ratio stays non-increasing on the searched range
        assert all(f.decreasing for f in findings if f.kind == "c_ratio")

    def test_m2_trivially_decreasing(self, bern520):
        findings = c_monotonicity_search(2, 2, bern520)
        assert all(f.decreasing for f in findings)

    def test_violation_is_exact(self, bern520):
        findings = c_monotonicity_search(116, 116, bern520)
        f = next(x for x in findings if x.kind == "k_c_ratio")
        assert f.first_violation_k == 9
        assert f.lhs > f.rhs  # the recorded exact inequality


class TestBinomialCf:
    def test_order_12_exact(self):
        assert binomial_cf_check(12).passed

    def test_t1_specialization(self):
        # ((1-y)^1 - 1)/1 = -y: every y-coefficient beyond y^1 vanishes at t=1
        res = binomial_cf_check(8)
        assert res.passed
        vals = [p(F(1)) for p in res.series]
        assert vals[0] == 0 and vals[1] == -1
        assert all(v == 0 for v in vals[2:])

    def test_t2_specialization(self):
        # ((1-y)^2 - 1)/2 = -y + y^2/2
        res = binomial_cf_check(8)
        vals = [p(F(2)) for p in res.series]
        assert vals[:3] == [0, F(-1), F(1, 2)]
        assert all(v == 0 for v in vals[3:])

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            binomial_cf_check(3)


class TestPositivity:
    def test_nonnegative_to_30(self):
        res = positivity_truncation_check(30)
        assert res.passed and res.first_negative is None

    def test_cf_starts_at_y1_with_z(self):
        res = positivity_truncation_check(6)
        assert res.cf_coefficients[0] == (F(0),)
        assert res.cf_coefficients[1][1] == F(1, 6)  # zy/(3(2-y)) leading term z y/6

    def test_pipeline_reproduces_genfunc(self):
        got = positivity_genfunc_matrix(14)
        want = c_genfunc_oracle(14)
        for m in range(15):
            for t in range(len(want[m])):
                assert got[m][t] == want[m][t], (m, t)


class TestZetaReference:
    def test_classical_value_at_2(self):
        ref = zeta_reference(F(2), 256)
        with mp.workprec(300):
            assert abs(ref.value - mp.pi ** 2 / 6) < mp.mpf(2) ** -250

    def test_strip_point_against_mpmath(self):
        s = mp.mpc(mp.mpf(1) / 2, mp.mpf("14.13"))
        ref = zeta_reference(s, 192)
        with mp.workprec(260):
            assert abs(ref.value - mp.zeta(s)) < mp.mpf(2) ** -185

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            zeta_reference(F(1), 128)


class TestConvergenceProbe:
    def test_s2_strictly_decreasing(self, bern520):
        probe = convergence_probe([F(2)], [4, 8, 16, 32, 64], 192, bern520)
        pt = probe.points[0]
        assert pt.strictly_decreasing
        # threshold from the pilot run of the reference comparison
        assert pt.rows[-1].error < 2e-3

    def test_classical_limit_value(self, bern520):
        probe = convergence_probe([F(2)], [64], 192, bern520)
        # F_64(2)/G_64(2) is within 2e-3 of pi^2/6
        with mp.workprec(200):
            assert probe.points[0].rows[0].error < 2e-3

    def test_diverges_near_first_zero(self, bern520):
        # Near t = 14 |Gamma(s-1)| is ~4e-11 and log 64 is only 4.16, so
        # the ratio drifts toward 1 and its error toward |1 - zeta(s)|.
        s = mp.mpc(mp.mpf(1) / 2, mp.mpf("14.13"))
        pt = convergence_probe([s], [4, 8, 16, 32, 64], 256, bern520).points[0]
        errors = [r.error for r in pt.rows]
        assert not pt.strictly_decreasing
        assert all(a < b for a, b in zip(errors, errors[1:]))
        with mp.workprec(280):
            gap = float(abs(1 - zeta_reference(s, 256).value))
        assert abs(errors[-1] - gap) < abs(errors[0] - gap)

    def test_rejects_bad_points(self, bern520):
        with pytest.raises(ValueError):
            convergence_probe([F(1)], [4], 128, bern520)
        with pytest.raises(ValueError):
            convergence_probe([F(-2)], [4], 128, bern520)


class TestSeededPoints:
    def test_deterministic(self):
        a = seeded_strip_points(42, 10)
        b = seeded_strip_points(42, 10)
        assert a == b
        c = seeded_strip_points(43, 10)
        assert a != c
        for p in a:
            assert 0 < p.re < 1 and abs(p.im) <= 1
