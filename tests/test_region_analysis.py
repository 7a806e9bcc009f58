import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import pytest

from zetacf import float_filter as ff
from zetacf import region_analysis as ra
from zetacf.approx_eval import build_f, build_g, numerator_poly
from zetacf.coeff_core import (
    CSequence,
    c_genfunc_oracle,
    c_sequences,
    _stirling_row,
    coeff_table,
    harmonic_sums,
    stirling_rows,
)
from zetacf.errors import InternalConsistencyError, ReferenceAccuracyError, UncertifiableError
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
from zetacf.series import Poly, PowerSeries

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

    def test_pole_is_rejected(self):
        with pytest.raises(ValueError, match=r"^s coincides with the pole at k=3$"):
            worpitzky_margin(10, QComplex(F(-3), F(0)))

    @pytest.mark.parametrize("sigma, t, adjacent", [
        (F(-3) + F(1, 2**25), F(0), (3,)),  # |k+s|^2 = 2^-50 < 2^-40
        (F(-3), F(1, 2**21), (3,)),  # 2^-42
        (F(-3) + F(1, 2**19), F(0), ()),  # 2^-38
    ])
    def test_pole_adjacent_levels(self, sigma, t, adjacent):
        m = 10
        r = worpitzky_margin(m, QComplex(sigma, t))
        assert r.pole_adjacent == adjacent
        # the verdict, argmin and margin next to the pole are still exact
        all_pass, k_ref, num, den = _all_k_margin(ra._margin_context(m), sigma, t, 1, m - 2)
        assert (r.passed, r.argmin_k, r.margin_sq) == (all_pass, k_ref, F(num, den) - 16)


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


def _whole_row_context(m):
    """The context built from all of row m-1, for oracles that read its P, Q
    or r past the prefix `ra._margin_context(m)` holds."""
    return ra._MarginContext(_stirling_row(m - 1))


def _all_k_margin(ctx, sigma, t, k_lo, k_hi):
    """The element test as one exact integer loop over every k: the
    reference for the verdict, the argmin and its exact pair. The argmin is
    the first k of least exact |E_k|^2."""
    pairs = list(_exact_pairs(ctx, sigma, t, k_lo, k_hi))
    all_pass = all(num >= 16 * den for _, num, den in pairs)
    exact = [F(num, den) for _, num, den in pairs]
    return (all_pass, *pairs[exact.index(min(exact))])


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
        ctx = _whole_row_context(m)
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
            all_pass, k_ref, num, den = _all_k_margin(ctx, sigma, t, 1, m - 2)
            margin_ref = math.sqrt(ff.int_ratio_float(num, den)) - 4
            assert (r.passed, r.argmin_k, r.margin) == (all_pass, k_ref, margin_ref)
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
            assert ra._point_margin(ctx, sigma, t, 1, 10)[:4] == _all_k_margin(ctx, sigma, t, 1, 10)
            assert worpitzky_margin(12, (sigma, t)).exact_fallbacks == 10

    def test_short_ratio_list_is_refused(self):
        # zip would stop at the list's end and drop the last levels unfiltered
        r = ra._MarginContext([3 ** (11 - j) for j in range(12)]).r
        point = ff.filter_point(F(1, 2), F(1), 11)
        assert len(ff.filter_levels(r, point, 1, 10)) == len(ff.filter_levels(r, point, 10, 10)) * 10
        with pytest.raises(InternalConsistencyError, match=r"reads r\[11\], but r has 11 entries"):
            ff.filter_levels(r[:11], point, 1, 10)

    def test_scan_counts_fallbacks(self):
        rep = prop1_scan(30, default_strip_grid(30, 3, 3), bisect_band=True)
        assert rep.exact_fallbacks == 0
        assert rep.k_levels > 6 * 28  # six unique grid points plus the band search
        assert rep.k_levels % 28 == 0


# far outside the band few bits of the smaller operand survive the shift in
# int_ratio_float: the float margin carries that error, and that ratio would
# not order the k correctly
_FAR_POINTS = [(m, sigma, t) for m in (5, 10, 30, 100) for sigma in (F(1, 3), F(1, 2))
               for t in (F(10 ** 3), F(10 ** 4), F(10 ** 6), F(3 ** 20, 7), F(10 ** 9))]


def test_margin_far_out():
    for m, sigma, t in _FAR_POINTS:
        found = ra._point_margin(ra._margin_context(m), sigma, t, 1, m - 2)
        assert found[:4] == _all_k_margin(_whole_row_context(m), sigma, t, 1, m - 2)
        r = worpitzky_margin(m, QComplex(sigma, t))
        a = coeff_table(m - 1).a
        q = [_oracle_sq(a, sigma, t, k) for k in range(1, m - 1)]
        assert (r.argmin_k, r.passed, r.margin_sq) == (1 + q.index(min(q)), min(q) >= 16, min(q) - 16)
        # where the pair's float ratio overflows, the margin comes from margin_sq
        assert math.isfinite(r.margin) and math.isfinite(r.float_error_bound)
        with mp.workprec(300):
            q = r.margin_sq + 16
            exact = mp.sqrt(mp.mpf(q.numerator) / q.denominator) - 4
            assert abs(mp.mpf(r.margin) - exact) <= r.float_error_bound, (m, sigma, t)


def test_fraction_sqrt_float_within_sqrt_rel():
    # the bits int_ratio_float discards are all ones, so truncation lowers
    # both operands by almost one unit of the kept integers, and the smaller
    # one keeps as few as 2^51: the worst case SQRT_REL is derived for
    rng = random.Random(11)
    tested = 0
    for _ in range(3000):
        sh, e = rng.randint(1, 300), 2 * rng.randint(0, 400)
        n_hi = rng.randint(2 ** 52, 2 ** 53 - 1)
        d_hi = rng.randint(2 ** 51, n_hi)
        n = (n_hi << (sh + e)) | ((1 << (sh + e)) - 1)
        d = (d_hi << sh) | ((1 << sh) - 1)
        if math.gcd(n, d) > 1:  # Fraction would cancel, and keep other bits
            continue
        r = ff.fraction_sqrt_float(F(n, d))
        with mp.workprec(300):
            root = mp.sqrt(mp.mpf(n) / d)
            assert abs(mp.mpf(r) - root) <= ff.SQRT_REL * root, (n, d)
        tested += 1
    assert tested > 1000


def test_far_out_argmin_compares_exactly():
    # on the a-rows the least |E_k|^2 far out is at the first k; this row
    # puts it at k = 2, where every int_ratio_float value is inf
    ctx = ra._MarginContext([1, 1, 1, 50, 1, 1, 1])
    sigma, t = F(1, 2), F(10 ** 12)
    found = ra._point_margin(ctx, sigma, t, 1, 5)
    assert found[:4] == _all_k_margin(ctx, sigma, t, 1, 5)
    assert found[:2] == (True, 2)


def test_far_out_argmin_is_first_exact_minimum():
    # where int_ratio_float keeps one or two bits of the smaller operand,
    # its order puts the minimum at k = 2 at the first three points; the
    # argmin is the first k of least exact |E_k|^2
    points = [(30, F(15, 32), F(14760500000, 37)), (30, F(63, 64), F(4395338206, 11)),
              (30, F(13, 64), F(8408089919, 23))]
    rng = random.Random(2026)
    points += [(rng.choice((5, 10, 30, 60)), F(rng.randint(1, 63), 64),
                F(rng.randint(10 ** 6, 10 ** 10), rng.randint(1, 100))) for _ in range(12)]
    for m, sigma, t in points:
        a = coeff_table(m - 1).a
        q = [_oracle_sq(a, sigma, t, k) for k in range(1, m - 1)]
        r = worpitzky_margin(m, (sigma, t))
        assert (r.argmin_k, r.margin_sq) == (1 + q.index(min(q)), min(q) - 16), (m, sigma, t)
        with mp.workprec(300):
            exact = mp.sqrt(mp.mpf(min(q).numerator) / min(q).denominator) - 4
            assert abs(mp.mpf(r.margin) - exact) <= r.float_error_bound, (m, sigma, t)
    r = worpitzky_margin(30, points[0][1:])
    assert (r.argmin_k, r.margin) == (1, 74811609.04775213)


def _off_band_points(seed, count):
    """Points with sigma in [0, 3] and |t| <= 50 on the 1/64 lattice."""
    rng = random.Random(seed)
    return [(F(rng.randint(0, 192), 64), F(rng.randint(-3200, 3200), 64)) for _ in range(count)]


def _filter_fallbacks(ctx, sigma, t, k_lo, k_hi):
    """The exact fallbacks of filtering every level: the k whose q_hat
    neither clears PASS_AT (finite) nor falls below FAIL_BELOW."""
    q = ff.filter_values(ctx.r, sigma, t, k_lo, k_hi)
    return sum(not (ff.PASS_AT <= qh < math.inf or qh < ff.FAIL_BELOW) for qh in q)


class TestTailBound:
    """The levels k >= K(6) are decided by the Worpitzky disc bound, and
    those k >= K(lam) are left out of the argmin search."""

    @pytest.mark.parametrize("m", [10, 100, 300])
    def test_matches_all_level_oracle(self, m):
        ctx, whole = ra._margin_context(m), _whole_row_context(m)
        assert ctx.tail < m - 2  # the lemma decides some levels
        points = [(p.re, p.im) for p in seeded_strip_points(m + 5, 6)]
        points += _off_band_points(m, 6) + [(F(0), F(1, 2)), (F(3), F(50))]
        for sigma, t in points:
            found = ra._point_margin(ctx, sigma, t, 1, m - 2)
            assert found[:4] == _all_k_margin(whole, sigma, t, 1, m - 2), (sigma, t)
            assert found[-1] == _filter_fallbacks(whole, sigma, t, 1, m - 2)
            ok, k, *_, n_exact = ra._point_margin(ctx, sigma, t, 1, m - 2, want_min=False)
            assert ok == found[0] and (k is None) == ok
            if ok:
                assert n_exact == found[-1]

    @pytest.mark.parametrize("m", [10, 100, 300])
    def test_tail_start_is_least(self, m):
        # K(lam) is the least K with lam P_j <= j Q_j at every j in [K, m-1]
        ctx, whole = ra._margin_context(m), _whole_row_context(m)
        holds = lambda lam, j: lam * whole.P[j] <= j * whole.Q[j]
        for lam in (1, 6, 7, 10, 50, 10 ** 6):
            K = ctx.tail_start(lam)
            assert all(holds(lam, j) for j in range(K, m))
            assert K == 1 or not holds(lam, K - 1)
        assert ctx.tail == ctx.tail_start(6)
        assert ctx.tail_r == (min(whole.r[ctx.tail:]), max(whole.r[ctx.tail:]))

    @pytest.mark.parametrize("m", [10, 100])
    def test_skipped_levels_clear_the_bound(self, m):
        # every level k >= K(lam) has exact |E_k|^2 > (lam - 2)^2 wherever
        # sigma >= 0, at the boundary sigma = 0 too
        a = coeff_table(m - 1).a
        ctx = ra._margin_context(m)
        points = [(p.re, p.im) for p in seeded_strip_points(m + 9, 3)]
        points += _off_band_points(m + 1, 3)
        points += [(F(0), F(0)), (F(0), F(7)), (F(300), F(10 ** 6))]
        for sigma, t in points:
            q = {k: _oracle_sq(a, sigma, t, k) for k in range(ctx.tail, m - 1)}
            for lam in (6, 7, 9, 12, 20):
                assert all(q[k] > (lam - 2) ** 2 for k in range(ctx.tail_start(lam), m - 1))

    def test_row_with_a_non_positive_entry_has_no_tail(self):
        assert ra._MarginContext([9, 8, 7, 6, 5, 0]).tail_r is None
        # every r_j of the negative row is positive, and it still has no tail
        for S in ([1, 1, -1, 50, 1, 1, 1], [-(10 ** (8 - j)) for j in range(9)]):
            ctx = ra._MarginContext(S)
            m = len(S)
            assert ctx.tail == ctx.tail_start(1) == m and ctx.tail_r is None
            for sigma, t in ((F(1, 2), F(1)), (F(0), F(3)), (F(1, 3), F(10 ** 9))):
                found = ra._point_margin(ctx, sigma, t, 1, m - 2)
                assert found[:4] == _all_k_margin(ctx, sigma, t, 1, m - 2)
                assert found[-1] == _filter_fallbacks(ctx, sigma, t, 1, m - 2)

    def test_every_level_in_the_tail(self):
        # S_j = 100^(8-j): lam_j = 100 j / (j+1) >= 50, so K(6) = 1 and the
        # argmin search alone decides which levels are filtered
        ctx = ra._MarginContext([100 ** (8 - j) for j in range(9)])
        assert ctx.tail == 1
        for sigma, t in ((F(1, 2), F(1)), (F(0), F(0)), (F(5), F(200))):
            for k_lo, k_hi in ((1, 7), (3, 7), (1, 1)):
                found = ra._point_margin(ctx, sigma, t, k_lo, k_hi)
                assert found[:4] == _all_k_margin(ctx, sigma, t, k_lo, k_hi)
                assert found[0] and found[-1] == 0
                ok, k, *_ = ra._point_margin(ctx, sigma, t, k_lo, k_hi, want_min=False)
                assert (ok, k) == (True, None)

    def test_far_points_keep_the_full_path(self):
        # where the filter's tail values could overflow, every level is
        # filtered as before: the fallback count is the full filter's
        m = 100
        ctx, whole = ra._margin_context(m), _whole_row_context(m)
        for t in (F(10 ** 60), F(10 ** 75), F(10 ** 100), F(10 ** 153), F(10 ** 155)):
            point = ff.filter_point(F(1, 2), t, m - 1)
            if point is not None and ff.filter_finite(point, m - 1, *ctx.tail_r):
                tail = ff.filter_values(whole.r, F(1, 2), t, ctx.tail, m - 2)
                assert all(ff.PASS_AT <= qh < math.inf for qh in tail)
            found = ra._point_margin(ctx, F(1, 2), t, 1, m - 2)
            assert found[:4] == _all_k_margin(whole, F(1, 2), t, 1, m - 2)
            assert found[-1] == _filter_fallbacks(whole, F(1, 2), t, 1, m - 2)

    def test_filter_finite_is_sound(self):
        # at points where filter_finite holds, the filter is finite at every
        # level whose two ratios lie in [r_lo, r_hi]
        rng = random.Random(26)
        ctx, whole = ra._margin_context(300), _whole_row_context(300)
        r_lo, r_hi = ctx.tail_r
        tail = range(ctx.tail, 298)
        finite = 0
        for _ in range(300):
            sigma = F(rng.randint(0, 2 ** 20), 2 ** 20) * 10 ** rng.randint(0, 160)
            t = F(rng.randint(0, 2 ** 20), 2 ** 20) * 10 ** rng.randint(0, 160)
            point = ff.filter_point(sigma, t, 299)
            if point is None or not ff.filter_finite(point, 299, r_lo, r_hi):
                continue
            finite += 1
            q = ff.filter_levels(whole.r, point, 1, 298)
            assert all(math.isfinite(q[k - 1]) for k in tail)
        assert 50 < finite < 300


class TestRowPrefix:
    """`_margin_context(m)` builds from the prefix S_0..S_w of row m-1 with
    lam_w >= 6 (w = 64 at every m here past 65) and answers as the context
    of the whole row does, swapping that row in before it reads past w."""

    M_LIST = list(range(3, 401)) + [1000, 1500]

    @pytest.fixture(scope="class")
    def rows(self):
        wanted = set(self.M_LIST)
        return {n + 1: S for n, S in stirling_rows(max(wanted) - 1) if n + 1 in wanted}

    def test_matches_the_whole_row(self, rows, monkeypatch):
        # _stirling_row serves the streamed rows, so each swap costs nothing
        monkeypatch.setattr(ra, "_stirling_row", lambda n: list(rows[n + 1]))
        for m in self.M_LIST:
            ctx = ra._margin_context.__wrapped__(m)  # a fresh context, not the cached one
            whole = ra._MarginContext(rows[m])
            w = len(ctx.P) - 1
            assert (w == m - 1) == (m <= 65) and (m <= 65 or w == 64), m
            assert (ctx.tail, ctx.tail_r) == (whole.tail, whole.tail_r), m
            lam_w = ctx._lam_min[-1]
            for lam in range(1, min(lam_w, 60) + 1):  # the prefix answers
                assert ctx.tail_start(lam) == whole.tail_start(lam), (m, lam)
            assert (ctx.P, ctx.Q) == (whole.P[:w + 1], whole.Q[:w + 1]), m
            levels = (1, min(ctx.tail, w), w)
            assert [ctx.level(j) for j in levels] == [whole.level(j) for j in levels]
            assert len(ctx.P) == w + 1  # nothing read past the prefix yet
            for lam in range(lam_w + 1, 61):
                # a bisect over the prefix alone would give w + 1 < m here
                assert whole.tail_start(lam) > w
                assert ctx.tail_start(lam) == whole.tail_start(lam), (m, lam)
                assert (ctx.P, ctx.Q, ctx.r[1:]) == (whole.P, whole.Q, whole.r[1:])
            assert [ctx.level(j) for j in (w, m - 2, m - 1)] == [whole.level(j) for j in (w, m - 2, m - 1)]
            assert (ctx.P, ctx.Q, ctx.r[1:]) == (whole.P, whole.Q, whole.r[1:])
            assert (ctx.tail, ctx.tail_r) == (whole.tail, whole.tail_r)

    @pytest.mark.parametrize("m, sigma, t, extends", [
        (300, F(-1, 3), F(1, 2), True),  # sigma < 0: the filter declines the point
        (300, F(1, 2), F(10) ** 306, True),  # filter_point overflows
        (300, F(1, 2), F(1, 2 ** 1060), True),  # t is subnormal
        (300, F(1, 2), F(10) ** 100, True),  # filter_finite fails
        (300, F(1, 2), F(1000), True),  # the argmin search reads K(lam) past w
        (1000, F(1, 3), F(500), True),
        (1000, F(1, 2), F(1, 3), False),
        (65, F(1, 3), F(1, 2), True),  # the whole row from the start
        (66, F(1, 3), F(1, 2), False),  # the first prefix context
        (66, F(-5, 4), F(2), True),
    ])
    def test_extension_paths_match_the_whole_row(self, m, sigma, t, extends, monkeypatch):
        built, fresh = [], ra._margin_context.__wrapped__
        monkeypatch.setattr(ra, "_margin_context", lambda m: built.append(fresh(m)) or built[-1])
        got = worpitzky_margin(m, (sigma, t))
        assert (len(built[0].P) == m) == extends
        monkeypatch.setattr(ra, "_margin_context", _whole_row_context)
        assert got == worpitzky_margin(m, (sigma, t))  # repr would exceed the int-to-str limit

    def test_strip_work_at_m1000_reads_no_whole_row(self, monkeypatch):
        # the seeded margins, the 9x9 scan and its band search at m = 1000
        # all read only the prefix: the perf property of the prefix context
        def refuse(n):
            if n == 999:
                raise AssertionError("the whole row 999 was built")
            return _stirling_row(n)

        ra._margin_context.cache_clear()
        monkeypatch.setattr(ra, "_stirling_row", refuse)
        T = half_sqrt_log_lower(1000)
        rng = random.Random(1000)
        t_max = math.floor(T * 64)
        for _ in range(16):
            sigma, t = F(rng.randint(1, 63), 64), F(rng.randint(-t_max, t_max), 64)
            assert worpitzky_margin(1000, (sigma, t)).passed
        rep = prop1_scan(1000, default_strip_grid(1000, 9, 9), bisect_band=True)
        assert rep.band_pass and rep.t_empirical > T
        assert len(ra._margin_context(1000).P) == 65


class TestContentFreeLevels:
    """The exact test runs on (P_k / g_k, Q_k / g_k), g_k = gcd(P_k, Q_k),
    built only for the levels it reads."""

    def test_scan_caches_few_levels(self):
        ra._margin_context.cache_clear()
        prop1_scan(300, default_strip_grid(300, 5, 5))
        ctx = ra._margin_context(300)
        assert 0 < len(ctx._levels) <= 8
        for k, (p, q, g) in ctx._levels.items():
            assert (p * g, q * g) == (ctx.P[k], ctx.Q[k])
            assert math.gcd(p, q) == 1 and g > 0

    @pytest.mark.parametrize("m, k_hi, n_strip", [(10, 8, 4), (100, 98, 4), (1000, 100, 1)])
    def test_reduced_pairs_match_the_unreduced_oracle(self, m, k_hi, n_strip):
        # the oracle reads the unreduced P and Q; _point_margin must return
        # the same verdict, argmin and integer pair. At m = 1000 the levels
        # stop at 100, where g_k still has 1736 of P_k's 8223 bits: the
        # oracle reduces a Fraction per level, about 2 s a point on all 998
        ctx, whole = ra._margin_context(m), _whole_row_context(m)
        points = [(p.re, p.im) for p in seeded_strip_points(m + 23, n_strip)]
        points += [(F(1, 3), F(10 ** 6)), (F(1, 2), F(3 ** 20, 7))]
        for sigma, t in points:
            found = ra._point_margin(ctx, sigma, t, 1, k_hi)
            assert found[:4] == _all_k_margin(whole, sigma, t, 1, k_hi)
            assert found[4] == F(found[2], found[3])


class TestProp1Scan:
    def test_m10_small_grid_all_pass(self):
        rep = prop1_scan(10, default_strip_grid(10, 11, 11), bisect_band=False)
        assert rep.all_pass
        assert rep.failing_points == ()
        assert rep.global_min_margin >= 0
        # the global argmin is the first point of least exact margin_sq
        least = min(p.margin_sq for p in rep.points)
        worst = next(p for p in rep.points if p.margin_sq == least)
        assert (rep.global_argmin, rep.global_min_margin) == ((worst.sigma, worst.t), worst.margin)

    def test_global_argmin_beyond_double_range(self):
        # every margin_sq exceeds the double range, so the points are
        # compared exactly; the least is at the smallest |t|
        g = RegionGrid(F(1, 3), F(2, 3), F(-10 ** 201), F(10 ** 200), 2, 3)
        rep = prop1_scan(6, g, bisect_band=False)
        assert all(p.margin_sq > 2 ** 1024 for p in rep.points)
        least = min(p.margin_sq for p in rep.points)
        worst = next(p for p in rep.points if p.margin_sq == least)
        assert rep.global_argmin == (worst.sigma, worst.t)
        assert abs(worst.t) < 10 ** 201

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
        # no convergent denominator B_k vanishes inside the band. B_k is the
        # product of the tail denominators of the fraction truncated at depth
        # k - 1, and eval_cf raises ZeroDenominatorError when any of them is
        # 0, so an evaluation that returns at every depth proves every
        # B_k != 0 (the converse fails: B_k can be nonzero with a zero tail
        # denominator, so this is at least as strong as checking B_k)
        from zetacf.approx_eval import euler_cf, eval_cf, g_expansion

        for m in (10, 20):
            T = half_sqrt_log_lower(m)
            cf = euler_cf(g_expansion(m))
            for sigma in (F(1, 4), F(1, 2), F(3, 4)):
                for t in (F(0), T / 2, -T / 2, T):
                    for k in range(cf.depth):
                        eval_cf(cf, QComplex(sigma, t), depth=k)


class TestRealLineSweep:
    def test_every_m_to_300_three_sigmas(self):
        assert real_line_margin_check(300, sigmas=(F(1, 2), F(1, 7), F(6, 7))) is None

    def test_every_m_to_1000(self):
        assert real_line_margin_check(1000) is None

    @pytest.mark.parametrize("sigma", [F(0), F(1), F(-1, 2)])
    def test_sigma_outside_strip_rejected(self, sigma):
        with pytest.raises(ValueError):
            real_line_margin_check(10, sigmas=(F(1, 2), sigma))

    @pytest.mark.parametrize("m_max, sigmas", [(2, (F(1, 2),)), (-5, (F(1, 2),)), (100, ())])
    def test_empty_sweep_rejected(self, m_max, sigmas):
        # no m or no sigma to check: None would read as "every m passed"
        with pytest.raises(ValueError, match="m_max >= 3 and one or more sigmas"):
            real_line_margin_check(m_max, sigmas=sigmas)

    def test_float_sigma_is_converted_exactly(self, monkeypatch):
        # 0.5 is the dyadic 1/2: the sweep sees the same Fraction; with no
        # tops, every row runs the element test at each sigma
        seen = []
        monkeypatch.setattr(ra, "_row_tops", lambda S: None)
        monkeypatch.setattr(ra, "_point_margin", lambda ctx, sigma, *a, **k: (
            seen.append(sigma) or (True, None)))
        assert real_line_margin_check(10, sigmas=(0.5,)) is None
        assert seen and all(type(s) is F and s == F(1, 2) for s in seen)
        monkeypatch.undo()
        assert real_line_margin_check(40, sigmas=(0.5, 0.125)) == real_line_margin_check(
            40, sigmas=(F(1, 2), F(1, 8)))

    @pytest.mark.parametrize("sigma", [complex(0.5, 1), (F(1, 2), F(1, 3))])
    def test_non_real_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="each sigma must be real"):
            real_line_margin_check(10, sigmas=(F(1, 2), sigma))

    def test_sigmas_from_an_iterator_are_swept(self, monkeypatch):
        # the check must not use up the sigmas before the sweep reads them
        seen = []
        monkeypatch.setattr(ra, "_row_tops", lambda S: None)
        monkeypatch.setattr(ra, "_point_margin", lambda ctx, sigma, *a, **k: (
            seen.append((ctx.m, sigma)) or (True, None)))
        assert real_line_margin_check(6, sigmas=iter([F(1, 3), F(1, 2)])) is None
        assert seen == [(m, s) for m in (3, 4, 5, 6) for s in (F(1, 3), F(1, 2))]

    SIGMAS = (F(1, 7), F(1, 2), F(6, 7), F(999, 1000))

    def test_tops_route_equals_the_exact_route(self, monkeypatch):
        # every row m <= 80 is proved log-concave by its tops, and the
        # element test passes there at every sigma, level by level
        for n, S in stirling_rows(79):
            if n < 2:
                continue
            tops = ra._row_tops(S)
            assert all(ra._tops_prove(tops, k, 1, 1) for k in range(1, n))
            ctx = ra._MarginContext(S)
            for sigma in self.SIGMAS:
                assert ra._point_margin(ctx, sigma, F(0), 1, n - 1, want_min=False)[:2] == (
                    True, None)
        got = [real_line_margin_check(m, self.SIGMAS) for m in range(3, 81)]
        monkeypatch.setattr(ra, "_row_tops", lambda S: None)
        assert got == [real_line_margin_check(m, self.SIGMAS) for m in range(3, 81)]

    @staticmethod
    def _rows_with(monkeypatch, crafted):
        """Patch ra.stirling_rows to stream the true rows, then `crafted` as
        the row n = len(crafted) - 1."""
        n_crafted = len(crafted) - 1

        def rows(m_max):
            for n, S in stirling_rows(min(m_max, n_crafted - 1)):
                yield n, S
            if m_max >= n_crafted:
                yield n_crafted, list(crafted)

        monkeypatch.setattr(ra, "stirling_rows", rows)

    @pytest.mark.parametrize("j", [1, 10, 19])
    def test_crafted_failing_row_gives_the_exact_witness(self, monkeypatch, j):
        # S_j = 1 in row 20 breaks log-concavity at j only, and |E_j| < 4:
        # v_j is tiny and v_{j+1} is not; the first level, a middle one and
        # the last (m = 21 tests k = 1..19)
        S = next(S for n, S in stirling_rows(20) if n == 20)
        S[j] = 1
        tops = ra._row_tops(S)
        assert [k for k in range(1, 20) if not ra._tops_prove(tops, k, 1, 1)] == [j]
        ctx = ra._MarginContext(S)
        ok, k, *_ = ra._point_margin(ctx, self.SIGMAS[0], F(0), 1, ctx.m - 2, want_min=False)
        assert (ok, k) == (False, j)
        self._rows_with(monkeypatch, S)
        assert real_line_margin_check(30, self.SIGMAS) == (21, self.SIGMAS[0], j)

    def test_crafted_short_row_gives_the_first_sigma(self, monkeypatch):
        # m = 4 fails at k = 1 for every sigma: the first (sigma, k) in sweep
        # order, as _point_margin finds them
        row = [100, 1, 100, 1]
        self._rows_with(monkeypatch, row)
        ctx = ra._MarginContext(row)
        expected = next((ctx.m, sigma, found[1]) for sigma in self.SIGMAS
                        if not (found := ra._point_margin(ctx, sigma, F(0), 1, 2,
                                                          want_min=False))[0])
        assert real_line_margin_check(10, self.SIGMAS) == expected == (4, F(1, 7), 1)

    def test_crafted_passing_row_returns_none(self, monkeypatch):
        # S_10 just below sqrt(S_9 S_11) misses log-concavity at 10 by a
        # little, so the tops cannot prove that level; the element test still
        # passes, as (k+1)(k+1+sigma) > (k+2)(k+sigma) for sigma < 1
        S = next(S for n, S in stirling_rows(20) if n == 20)
        S[10] = math.isqrt(S[9] * S[11]) - 1
        assert S[10] ** 2 < S[9] * S[11]
        assert not ra._tops_prove(ra._row_tops(S), 10, 1, 1)
        built = []
        context = ra._MarginContext
        monkeypatch.setattr(ra, "_MarginContext", lambda row: built.append(len(row)) or context(row))
        self._rows_with(monkeypatch, S)
        assert real_line_margin_check(21, self.SIGMAS) is None
        assert built == [21]  # only the crafted row ran the element test

    def test_no_context_at_one_half_to_1000(self, monkeypatch):
        # the tops prove every row log-concave: no row runs the element test
        def refuse(S):
            raise AssertionError(f"a context was built for m = {len(S)}")

        monkeypatch.setattr(ra, "_MarginContext", refuse)
        assert real_line_margin_check(1000) is None

    def test_log_concave_levels_pass_exactly(self):
        # the lemma, checked rather than assumed: at every level k with
        # S_k^2 >= S_{k-1} S_{k+1}, the exact |E_k|^2 at real sigma is >= 16,
        # on Stirling rows, geometric rows (equality at every level) and
        # seeded positive rows with mixed levels
        rng = random.Random(2025)
        rows = [S for n, S in stirling_rows(59) if n >= 2]
        rows += [[1] * 20, [3 ** i for i in range(20)], [5 ** (19 - i) for i in range(20)]]
        rows += [[rng.randint(1, 2 ** rng.choice((3, 20, 70))) for _ in range(rng.randint(3, 30))]
                 for _ in range(150)]
        concave = levels = 0
        for S in rows:
            ctx = ra._MarginContext(S)
            for _ in range(3):
                sigma = F(rng.randint(1, 999), 1000)
                for k, num, den in _exact_pairs(ctx, sigma, F(0), 1, ctx.m - 2):
                    levels += 1
                    if S[k] * S[k] >= S[k - 1] * S[k + 1]:
                        concave += 1
                        assert num >= 16 * den, (S, sigma, k)
        assert 5000 < concave < levels  # both kinds of level were met

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


def _ratio_bounds_row_reference(m, S, h):
    """The unfiltered ratio-bounds check: every level of the Newton loop
    compared on the full products."""
    hnum, hden = h.numerator, h.denominator
    j_max = 0
    j = 1
    while (j == 1 or 2 * j * hden <= hnum) and j <= m - 1:
        j_max = j
        if (hnum - hden) * S[j - 1] > j * hden * S[j]:
            return ra.RatioBoundsResult(
                m, False, j_max, f"lower bound fails at j={j}: (h-1)/j > a_j/a_(j-1)")
        if j * hden * S[j] > hnum * S[j - 1]:
            return ra.RatioBoundsResult(
                m, False, j_max, f"upper bound fails at j={j}: a_j/a_(j-1) > h/j")
        j += 1
    for j in range(1, m - 1):
        if j * S[j] * S[j] < (j + 1) * S[j + 1] * S[j - 1]:
            return ra.RatioBoundsResult(m, False, j_max, f"j*a_j/a_(j-1) increases at j={j}")
    return ra.RatioBoundsResult(m, True, j_max, None)


def _ratio_rows(m, S, h):
    return ra._ratio_bounds_row(m, S, h), _ratio_bounds_row_reference(m, S, h)


def _negative_pair_row():
    """A row failing 3 S_3^2 >= 4 S_2 S_4 with S_2 = S_4 < 0, where tops
    taken by shifting would prove it: S_2 >> e floors to -(2^61 + 1), so
    the 'upper end' (2^61)^2 2^(2e) of S_2 S_4 lies below the product."""
    T, e = 1 << 61, 200
    a = -((T + 1 << e) - 1)
    B = math.isqrt(4 * T * T // 3)
    while 3 * B * B < 4 * T * T:
        B += 1
    b = B << e  # an exact top with 3 b^2 >= 4 (2^61)^2 2^(2e)
    assert 3 * b * b < 4 * a * a
    return [6, 11, a, b, a]


class TestRatioBoundsReference:
    def test_every_row_to_150(self):
        for (n, S), h in zip(stirling_rows(149), harmonic_sums(149)):
            if n >= 1:
                got, ref = _ratio_rows(n + 1, S, h)
                assert got == ref and got.passed

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_crafted_row_missing_by_one(self, j):
        # S_i = 2^(300 - (2i-1)^2) clears j S_j^2 >= (j+1) S_{j-1} S_{j+1} by
        # a factor of at least 2^8 with S_0 = S_1, so h = 1 passes both bounds
        # at j = 1 and ends the bound loop. Then S_{j-1} gets all-ones low
        # bits, S_j keeps an exact top and S_{j+1} is the least integer failing.
        S = [1 << (300 - (2 * i - 1) ** 2) for i in range(9)]
        S[j - 1] |= (1 << (S[j - 1].bit_length() - 62)) - 1
        S[j + 1] = j * S[j] ** 2 // ((j + 1) * S[j - 1]) + 1
        got, ref = _ratio_rows(9, S, F(1))
        assert got == ref == ra.RatioBoundsResult(
            9, False, 1, f"j*a_j/a_(j-1) increases at j={j}")
        S[j + 1] -= 1
        got, ref = _ratio_rows(9, S, F(1))
        assert got == ref and got.witness != f"j*a_j/a_(j-1) increases at j={j}"

    @pytest.mark.parametrize("S, h, witness", [
        ([2, 3, 1], F(3), "lower bound fails at j=1: (h-1)/j > a_j/a_(j-1)"),
        ([2, 3, 1], F(1), "upper bound fails at j=1: a_j/a_(j-1) > h/j"),
        ([6, 7, 6, 1], F(7, 6), "j*a_j/a_(j-1) increases at j=1"),
    ])
    def test_failure_golden(self, S, h, witness):
        got, ref = _ratio_rows(len(S), S, h)
        assert got == ref == ra.RatioBoundsResult(len(S), False, 1, witness)

    @pytest.mark.parametrize("S, witness", [
        ([6, 11, 0, 1], "j*a_j/a_(j-1) increases at j=2"),
        ([6, 11, -6, 1], None),
        (_negative_pair_row(), "j*a_j/a_(j-1) increases at j=3"),
    ])
    def test_non_positive_entry_skips_the_tops(self, S, witness, monkeypatch):
        def no_tops(*args):
            raise AssertionError("a row with a non-positive entry reached the tops")

        monkeypatch.setattr(ra, "_tops_prove", no_tops)
        got, ref = _ratio_rows(len(S), S, F(11, 6))
        assert got == ref and got.witness == witness


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

    @pytest.mark.parametrize("per_edge", [0, -2])
    def test_initial_per_edge_below_one_rejected(self, per_edge):
        # with no edge samples the path is one point, and z^4 - 10^-6 would
        # read a certified winding of 0 around its four roots
        p = Poly([F(-1, 10**6), 0, 0, 0, 1])
        box = (F(-1), F(1), F(-1), F(1))
        with pytest.raises(ValueError, match="initial_per_edge"):
            zero_scan(p, box, initial_per_edge=per_edge)
        assert zero_scan(p, box).winding_number == 4

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


def reference_zero_scan(poly, rectangle, initial_per_edge=16):
    """The winding count by a float argument sum: the same walk as
    `zero_scan` on QComplex values, with the atan2 of every accepted step
    added in a float and the total rounded to whole turns. The reference
    for `zero_scan`, which decides and counts in integers."""
    s_lo, s_hi, t_lo, t_hi = (F(v) for v in rectangle)
    if not (s_lo < s_hi and t_lo < t_hi):
        raise ValueError("rectangle must have positive width and height")
    if initial_per_edge < 1:
        raise ValueError("initial_per_edge must be >= 1")
    corners = [QComplex(s_lo, t_lo), QComplex(s_hi, t_lo),
               QComplex(s_hi, t_hi), QComplex(s_lo, t_hi), QComplex(s_lo, t_lo)]

    def value(z):
        v = poly(z)
        if v.is_zero():
            raise UncertifiableError(f"polynomial vanishes exactly on the boundary at {z}")
        return v

    def atan2(y, x):
        a, b = y.numerator * x.denominator, x.numerator * y.denominator
        sh = max(abs(a).bit_length(), abs(b).bit_length()) - 52
        return math.atan2(a >> sh, b >> sh) if sh > 0 else math.atan2(a, b)

    pts = []
    for c0, c1 in zip(corners, corners[1:]):
        for i in range(initial_per_edge):
            lam = F(i, initial_per_edge)
            pts.append(QComplex(c0.re + lam * (c1.re - c0.re), c0.im + lam * (c1.im - c0.im)))
    pts.append(corners[0])
    vals = [value(p) for p in pts]
    total = 0.0
    samples, subdivisions = len(pts), 0
    min_sq = min(v.abs2() for v in vals)
    for i in range(len(pts) - 1):
        stack = [(pts[i], vals[i], pts[i + 1], vals[i + 1], 0)]
        while stack:
            p0, w0, p1, w1, depth = stack.pop()
            dot = w0.re * w1.re + w0.im * w1.im
            if dot > 0:
                total += atan2(w0.re * w1.im - w0.im * w1.re, dot)
                continue
            if depth > 60 or samples > ra._MAX_SAMPLES:
                raise UncertifiableError(
                    "boundary argument cannot be tracked: contour passes too "
                    "close to a zero at the subdivision budget")
            mid = QComplex((p0.re + p1.re) / 2, (p0.im + p1.im) / 2)
            wm = value(mid)
            samples += 1
            subdivisions += 1
            min_sq = min(min_sq, wm.abs2())
            stack.append((mid, wm, p1, w1, depth + 1))
            stack.append((p0, w0, mid, wm, depth + 1))
    turns = total / (2 * math.pi)
    winding = round(turns)
    if abs(turns - winding) > 0.25:
        raise UncertifiableError(f"argument sum {turns:.6f} turns is not close to an integer")
    return ra.ZeroScanResult((s_lo, s_hi, t_lo, t_hi), winding, ff.fraction_sqrt_float(min_sq),
                             min_sq, samples, subdivisions, True)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (UncertifiableError, ValueError) as exc:
        return type(exc), str(exc)


def _band(m):
    T = half_sqrt_log_lower(m)
    return (F(0), F(1), -T, T)


def _zn(n):
    return Poly([F(-1, 10**6)] + [0] * (n - 1) + [1])


_UNIT_SQUARE = (F(-1), F(1), F(-1), F(1))


def _reference_scans():
    """(id, poly, rectangle): the collapsed numerators over the strip band,
    z^n - 10^-6 around its roots, a box off the strip and a root box."""
    for m in (10, 50, 150):
        yield f"G{m}-band", numerator_poly(build_g(m)), _band(m)
        yield f"F{m}-band", numerator_poly(build_f(m)), _band(m)
    for n in (4, 8, 16, 32, 40, 48, 64):
        yield f"zn{n}", _zn(n), _UNIT_SQUARE
    yield "F20-box", numerator_poly(build_f(20)), (F(-3, 2), F(1, 3), F(-2, 5), F(7, 4))
    yield "G3-root-box", numerator_poly(build_g(3)), (F(-4), F(-2), F(1), F(2))


class TestZeroScanReference:
    """zero_scan against the float argument sum of `reference_zero_scan`, and
    against the same scan with Horner on QComplex values patched into
    `Poly.__call__`: every field of the result is equal, or both raise the
    same error."""

    @staticmethod
    def generic_call(poly, x):
        acc = x * 0
        for c in reversed(poly.coeffs):
            acc = acc * x + c
        return acc

    @pytest.mark.parametrize("poly, rect", [
        (numerator_poly(build_g(50)), _band(50)),
        (numerator_poly(build_f(20)), (F(-3, 2), F(1, 3), F(-2, 5), F(7, 4))),
        # z^n - 10^-6; at n = 40 both report the wrong certified winding 24
        *((_zn(n), _UNIT_SQUARE) for n in (8, 32, 40)),
    ], ids=["G50-band", "F20-box", "zn8", "zn32", "zn40"])
    def test_matches_qcomplex_horner(self, poly, rect, monkeypatch):
        got = zero_scan(poly, rect)
        monkeypatch.setattr(Poly, "__call__", self.generic_call)
        assert got == zero_scan(poly, rect)

    @pytest.mark.parametrize("per_edge", [1, 2, 16])
    def test_matches_float_argument_sum(self, per_edge):
        for name, poly, rect in _reference_scans():
            got = zero_scan(poly, rect, per_edge)
            assert got == reference_zero_scan(poly, rect, per_edge), name

    @pytest.mark.parametrize("per_edge", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_on_the_axes(self, n, per_edge):
        # z^n on the square: the edge midpoints, and for even n the corners,
        # map onto the axes; steps of exactly a quarter turn (dot = 0) are split
        p = Poly([0] * n + [1])
        got = zero_scan(p, _UNIT_SQUARE, per_edge)
        assert got == reference_zero_scan(p, _UNIT_SQUARE, per_edge)
        assert got.winding_number == n and got.boundary_min_modulus_sq == 1

    @pytest.mark.parametrize("rect, per_edge", [
        ((F(1, 2), F(1), F(0), F(1)), 16),  # a root on the boundary
        ((F(1), F(1), F(0), F(1)), 16),  # an empty rectangle
        (_UNIT_SQUARE, 0),
    ])
    def test_same_errors(self, rect, per_edge):
        p = Poly([F(-1, 2), 1])
        got = _outcome(zero_scan, p, rect, per_edge)
        assert isinstance(got, tuple)
        assert got == _outcome(reference_zero_scan, p, rect, per_edge)

    @pytest.mark.parametrize("e, budget", [(40, 40), (70, ra._MAX_SAMPLES)])
    def test_subdivision_budget_error(self, e, budget, monkeypatch):
        # conjugate roots 2^-e inside the right edge: at e = 40 the walk needs
        # more than 40 samples, at e = 70 more than 60 halvings of a step
        monkeypatch.setattr(ra, "_MAX_SAMPLES", budget)
        re0 = F(1, 2) - F(1, 2**e)
        p = Poly([re0 * re0 + F(1, 9), -2 * re0, 1])
        rect = (F(0), F(1, 2), F(-1, 2), F(1, 2))
        got = _outcome(zero_scan, p, rect, 4)
        assert got == _outcome(reference_zero_scan, p, rect, 4)
        assert got[0] is UncertifiableError and "subdivision budget" in got[1]

    def test_quadrant_index(self):
        # floor(arg / (pi/2)) with arg in [0, 2 pi): each half-axis opens a quadrant
        dirs = [(1, 0), (5, 3), (0, 1), (-2, 7), (-1, 0), (-4, -1), (0, -3), (6, -1)]
        assert [ra._quadrant(x, y) for x, y in dirs] == [0, 0, 1, 1, 2, 2, 3, 3]


def reference_monotonicity(seqs, m_from):
    """The c-ratio search on Fraction ratios c_k / c_{k-1}: the reference for
    `c_monotonicity_search`, which compares on the integer rows."""
    out = []
    for seq in seqs:
        if seq.m < m_from:
            continue
        ratios = [seq.c[k] / seq.c[k - 1] for k in range(1, len(seq.c))]
        plain = weighted = None
        for k in range(2, len(ratios) + 1):
            if plain is None and ratios[k - 1] > ratios[k - 2]:
                plain = (k, ratios[k - 1], ratios[k - 2])
            if weighted is None and k * ratios[k - 1] > (k - 1) * ratios[k - 2]:
                weighted = (k, k * ratios[k - 1], (k - 1) * ratios[k - 2])
        out.append(ra.MonotonicityFinding(seq.m, "c_ratio", *(plain or (None,))))
        out.append(ra.MonotonicityFinding(seq.m, "k_c_ratio", *(weighted or (None,))))
    return out


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# c-rows of about 200 bits where one unit decides: Cassini's
# F_{n-1} F_{n+1} - F_n^2 = (-1)^n for the plain ratio, and
# 2 n_0 n_2 - n_1^2 = +-1 for the weighted one
_X = 2**100 + 1
_CRAFTED = [
    (_fib(289), _fib(290), _fib(291)),  # plain rises by one unit (and weighted)
    (_fib(290), _fib(291), _fib(292)),  # plain falls by one unit; weighted rises
    (1, _X, (_X * _X + 1) // 2),  # weighted rises by one unit, plain falls
    (1, _X, (_X * _X - 1) // 2),  # weighted falls by one unit
    (240, 120, 40, 10, 2, 1),  # ratios 1/2, 1/3, 1/4, 1/5, 1/2: plain rises at k = 5
    (2, -1, 1),  # negative entry: -1 < -1/2, though p n_2 n_0 > q n_1^2
    (2, -1, -1),  # negative entries: 1 > -1/2, though p n_2 n_0 < q n_1^2
    (6, 4, 3, -1),  # a sign change late in the row
    (3, 1, 0),  # a zero last entry is only a numerator
]


class TestMonotonicityReference:
    def test_sweep_to_200(self):
        findings = c_monotonicity_search(2, 200)
        assert findings == reference_monotonicity(c_sequences(200), 2)
        assert sum(f.lhs is not None for f in findings) > 80  # many violations, with values

    @pytest.mark.parametrize("row", _CRAFTED)
    def test_crafted_rows(self, row, monkeypatch):
        # the same values over two denominators: den must cancel
        seqs = [CSequence(2, row, row[0]), CSequence(3, tuple(3 * v for v in row), 3 * row[0])]
        monkeypatch.setattr(ra, "c_sequences", lambda m: iter(seqs))
        assert c_monotonicity_search(2, 3) == reference_monotonicity(seqs, 2)

    def test_one_unit_rises_are_found(self, monkeypatch):
        seqs = [CSequence(m, row, row[0]) for m, row in enumerate(_CRAFTED[:4], 2)]
        monkeypatch.setattr(ra, "c_sequences", lambda m: iter(seqs))
        found = [(f.m, f.kind, f.first_violation_k) for f in c_monotonicity_search(2, 5)]
        assert found == [(2, "c_ratio", 2), (2, "k_c_ratio", 2), (3, "c_ratio", None),
                         (3, "k_c_ratio", 2), (4, "c_ratio", None), (4, "k_c_ratio", 2),
                         (5, "c_ratio", None), (5, "k_c_ratio", None)]

    @pytest.mark.parametrize("row", [(3, 0, 1), (1, 2, 0, 4)])
    def test_zero_entry_divides(self, row, monkeypatch):
        seqs = [CSequence(2, row, row[0])]
        monkeypatch.setattr(ra, "c_sequences", lambda m: iter(seqs))
        with pytest.raises(ZeroDivisionError):
            reference_monotonicity(seqs, 2)
        with pytest.raises(ZeroDivisionError):
            c_monotonicity_search(2, 2)


class TestMonotonicity:
    def test_golden_artifact(self):
        golden = json.loads((GOLDEN / "monotonicity.json").read_text())
        findings = c_monotonicity_search(2, 130)
        first = first_k_ratio_violation(findings)
        assert first is not None
        assert first.m == golden["first_violation_m"] == 116
        assert first.first_violation_k == golden["first_violation_k"] == 9
        # and the plain ratio stays non-increasing on the searched range
        assert all(f.decreasing for f in findings if f.kind == "c_ratio")

    def test_m2_trivially_decreasing(self):
        findings = c_monotonicity_search(2, 2)
        assert all(f.decreasing for f in findings)

    def test_violation_is_exact(self):
        findings = c_monotonicity_search(116, 116)
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
        for m_max in (14, 30):
            got = positivity_genfunc_matrix(m_max)
            want = c_genfunc_oracle(m_max)
            for m in range(m_max + 1):
                for t in range(len(want[m])):
                    assert got[m][t] == want[m][t], (m_max, m, t)


def _series_cf_by_levels(levels, order: int) -> PowerSeries:
    """The series continued fraction expanded bottom-up, one series inversion
    per level, truncated to y^order after each: the reference route."""
    acc = None
    for den_coeffs, num, shift in reversed(levels):
        den = PowerSeries(den_coeffs, order)
        if acc is not None:
            den = den - acc
        acc = PowerSeries((den.inverse() * num).shift(shift).coeffs[:order + 1], order)
    return acc


class TestSeriesCfErrors:
    """The one division of `_series_cf` inverts B_n, whose constant term is
    the product of the levels' den_k(0): crafted levels where it is no unit."""

    def test_vanishing_den0(self):
        levels = [([Poly([2]), Poly([1])], Poly([1]), 1),
                  ([Poly([0]), Poly([-1])], Poly([3, 1]), 2)]
        with pytest.raises(ZeroDivisionError, match="^inversion requires a nonzero constant term$"):
            ra._series_cf(levels, 6)

    def test_den0_depending_on_z(self):
        levels = [([Poly([2]), Poly([1])], Poly([1]), 1),
                  ([Poly([3, 1]), Poly([-1])], Poly([3, 1]), 2)]
        with pytest.raises(ZeroDivisionError,
                           match="^series inversion needs a constant leading coefficient$"):
            ra._series_cf(levels, 6)

    def test_unit_den0(self):
        # the same levels with den_2(0) = 3: the expansion exists
        levels = [([Poly([2]), Poly([1])], Poly([1]), 1),
                  ([Poly([3]), Poly([-1])], Poly([3, 1]), 2)]
        assert ra._series_cf(levels, 6) == _series_cf_by_levels(levels, 6)


class TestSeriesCfReference:
    """`_series_cf` (convergent recurrence, one division) against the
    per-level route. The reference runs once at the deepest order: level k
    changes the continued fraction only from y^(2k-1) on, so the levels
    each smaller order uses give the same coefficients through that order,
    and every smaller result must be a prefix of the deepest one."""

    @pytest.fixture(scope="class")
    def reference(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ra, "_series_cf", _series_cf_by_levels)
            return positivity_truncation_check(40), binomial_cf_check(30)

    def test_positivity_matches_reference(self, reference):
        ref = reference[0]
        assert ref.passed
        for m in range(2, 41):
            res = positivity_truncation_check(m)
            assert res.cf_coefficients == ref.cf_coefficients[:m + 1], m
            assert res.passed

    def test_binomial_matches_reference(self, reference):
        ref = reference[1]
        assert ref.passed
        for order in range(4, 31):
            res = binomial_cf_check(order)
            assert res.series == ref.series[:order + 1], order
            assert res.passed


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

    def test_rejects_infinite_term_count(self):
        # |Im s| = 1e400 rounds to an infinite float in the term count
        with mp.workprec(300):
            s = mp.mpc(mp.mpf(1) / 2, mp.mpf("1e400"))
        with pytest.raises(ReferenceAccuracyError, match="not finite"):
            zeta_reference(s, 128)


class TestConvergenceProbe:
    def test_s2_strictly_decreasing(self):
        probe = convergence_probe([F(2)], [4, 8, 16, 32, 64], 192)
        pt = probe.points[0]
        assert pt.strictly_decreasing
        # threshold from the pilot run of the reference comparison
        assert pt.rows[-1].error < 2e-3

    def test_classical_limit_value(self):
        probe = convergence_probe([F(2)], [64], 192)
        # F_64(2)/G_64(2) is within 2e-3 of pi^2/6
        with mp.workprec(200):
            assert probe.points[0].rows[0].error < 2e-3

    def test_diverges_near_first_zero(self):
        # Near t = 14 |Gamma(s-1)| is ~4e-11 and log 64 is only 4.16, so
        # the ratio drifts toward 1 and its error toward |1 - zeta(s)|.
        s = mp.mpc(mp.mpf(1) / 2, mp.mpf("14.13"))
        pt = convergence_probe([s], [4, 8, 16, 32, 64], 256).points[0]
        errors = [r.error for r in pt.rows]
        assert not pt.strictly_decreasing
        assert all(a < b for a, b in zip(errors, errors[1:]))
        with mp.workprec(280):
            gap = float(abs(1 - zeta_reference(s, 256).value))
        assert abs(errors[-1] - gap) < abs(errors[0] - gap)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            convergence_probe([F(1)], [4], 128)
        with pytest.raises(ValueError):
            convergence_probe([F(-2)], [4], 128)


class TestSeededPoints:
    def test_deterministic(self):
        a = seeded_strip_points(42, 10)
        b = seeded_strip_points(42, 10)
        assert a == b
        c = seeded_strip_points(43, 10)
        assert a != c
        for p in a:
            assert 0 < p.re < 1 and abs(p.im) <= 1
