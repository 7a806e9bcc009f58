from fractions import Fraction as F
from math import factorial, gcd, lcm

import mpmath as mp
import pytest

from zetacf.approx_eval import (
    CFLevel,
    ContinuedFraction,
    PartialFraction,
    PoleIndicator,
    _cf_backward,
    build_f,
    build_g,
    collapsed,
    euler_cf,
    eval_cf,
    eval_pf,
    eval_pf_precise,
    expansion_value,
    f_expansion,
    g_expansion,
    numerator_poly,
)
from zetacf.coeff_core import c_direct, coeff_table
from zetacf.errors import ZeroDenominatorError
from zetacf.qcomplex import QComplex
from zetacf.region_analysis import seeded_strip_points
from zetacf.series import Poly


def generic_horner(poly, x):
    """Horner on the ring value itself: Fraction, QComplex or mpc operations,
    each coefficient a Fraction operand."""
    acc = x * 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def reference_backward(levels, s):
    """The backward recurrence on Fraction, QComplex or mpc values, one
    reduced (or rounded) operation at a time."""
    acc = s * 0
    for idx in range(len(levels) - 1, -1, -1):
        den_v = generic_horner(levels[idx].den, s) + acc
        if not den_v:
            raise ZeroDenominatorError(idx)
        acc = generic_horner(levels[idx].num, s) / den_v
    return acc


def reference_forward(levels, s):
    """Convergents A_k/B_k and the B_k by the three-term recurrence."""
    A2, A1, B2, B1 = 1, 0, 0, 1
    convergents, denominators = [], []
    for lv in levels:
        a, b = generic_horner(lv.num, s), generic_horner(lv.den, s)
        A2, A1 = A1, b * A1 + a * A2
        B2, B1 = B1, b * B1 + a * B2
        convergents.append(A1 / B1)
        denominators.append(B1)
    return tuple(convergents), tuple(denominators)


def reference_mp(levels, z, precision):
    """eval_cf's mpmath value and cross width, from the reference recurrence
    with mpmath rounding each Fraction coefficient itself."""
    with mp.workprec(precision + 10):
        v = reference_backward(levels, mp.mpc(z))
    with mp.workprec(128):
        v128 = reference_backward(levels, mp.mpc(z))
    width = float(abs(v - v128))
    with mp.workprec(precision):
        return (+v.real)._mpf_, (+v.imag)._mpf_, width


def bits(ev):
    """Every bit of an eval_cf result: exact value, or mpmath parts and width."""
    if ev.cross_width is None:
        return ev.value, ev.levels_used
    return ev.value.real._mpf_, ev.value.imaginary._mpf_, ev.cross_width, ev.levels_used


# Levels with fractional coefficients for the integer-level transformation:
# the denominators 4 and 15 give c_1 = 60; 56 shares 4 with it, so
# c_2 = lcm(9, 56/4) = 126 depends on c_1; then a zero numerator with a
# degree-2 denominator, a constant denominator, a degree-2 numerator, and a
# numerator denominator (13) coprime to everything before it.
CRAFTED = (
    CFLevel(Poly([F(3, 4)]), Poly([F(1, 3), F(2, 5)])),
    CFLevel(Poly([F(5, 7), F(1, 8)]), Poly([F(2, 9)])),
    CFLevel(Poly([0]), Poly([F(1, 6), F(1, 10), F(1, 15)])),
    CFLevel(Poly([F(-7, 3)]), Poly([F(5, 2)])),
    CFLevel(Poly([F(1, 11), 0, F(-2, 3)]), Poly([F(7, 2), 1])),
    CFLevel(Poly([F(4, 13), F(-1, 13)]), Poly([3, F(1, 2)])),
)


class TestBuild:
    def test_g3_golden(self):
        g3 = build_g(3)
        assert g3.terms == ((1, F(1)), (0, F(-11, 6)), (-1, F(1)), (-2, F(-1, 6)))

    def test_g1(self):
        assert build_g(1).terms == ((1, F(1)), (0, F(-1)))

    def test_f3_golden(self):
        f3 = build_f(3)
        assert f3.terms == ((1, F(1)), (0, F(-11, 12)), (-1, F(1, 6)))

    def test_f1(self):
        assert build_f(1).terms == ((1, F(1)), (0, F(-1, 2)))

    def test_f_skips_even_negative_poles(self):
        # poles 1-j for odd j >= 3 are absent (B_j = 0)
        f9 = build_f(9)
        assert set(f9.poles) == {1, 0, -1, -3, -5, -7}


class TestCollapsed:
    def test_g3(self):
        scalar, poly, poles = collapsed(build_g(3))
        assert scalar == F(1, 3)
        assert poly == Poly([11, 6, 1])
        assert poles == (1, 0, -1, -2)

    def test_f3(self):
        scalar, poly, poles = collapsed(build_f(3))
        assert scalar == F(1, 12)
        assert poly == Poly([11, 10, 3])
        assert poles == (1, 0, -1)

    def test_g1_constant_numerator(self):
        assert numerator_poly(build_g(1)) == Poly([1])

    @pytest.mark.parametrize("m", [2, 3, 5, 9, 40, 100])
    @pytest.mark.parametrize("builder", [build_g, build_f])
    def test_two_route_evaluation_equality(self, m, builder):
        # partial-fraction evaluation == collapsed numerator / pole product
        pf = builder(m)
        scalar, poly, poles = collapsed(pf)
        for s in (F(5, 2), F(-13, 3), F(7, 5)):
            denom = F(1)
            for p in poles:
                denom *= s - p
            assert eval_pf(pf, s) == scalar * poly(s) / denom


class TestCollapsedReference:
    """`collapsed` in integers against the running product on Fraction
    polynomials."""

    @staticmethod
    def reference(pf):
        numer = Poly()
        prod = Poly([1])
        for p, r in pf.terms:
            lin = Poly.linear(-p, 1)
            numer = numer * lin + prod * r
            prod = prod * lin
        content, prim = numer.primitive()
        return content, prim, pf.poles

    @pytest.mark.parametrize("builder", [build_g, build_f])
    def test_matches_fraction_running_product(self, builder):
        for m in range(1, 41):
            pf = builder(m)
            got = collapsed(pf)
            assert got == self.reference(pf), m
            assert all(type(c) is F and c.denominator == 1 for c in got[1].coeffs)

    def test_rational_and_empty_inputs(self):
        pf = PartialFraction(((3, F(-5, 6)), (1, F(7, 10)), (-2, F(-1, 15))))
        assert collapsed(pf) == self.reference(pf)
        empty = PartialFraction(())
        assert collapsed(empty) == (F(0), Poly(), ())


class TestEvalPf:
    def test_g3_at_2(self):
        assert eval_pf(build_g(3), F(2)) == F(3, 8)

    def test_f3_at_2(self):
        assert eval_pf(build_f(3), F(2)) == F(43, 72)

    def test_pole_indicator(self):
        assert eval_pf(build_g(3), F(1)) == PoleIndicator(1)
        assert eval_pf(build_g(3), QComplex(F(-2), F(0))) == PoleIndicator(-2)

    def test_exact_complex(self):
        v = eval_pf(build_g(2), QComplex(F(1, 2), F(1)))
        # independent check against mpmath at high precision
        ref = eval_pf_precise(build_g(2), mp.mpc(0.5, 1.0), precision=128).value
        assert abs(complex(v) - complex(ref)) < 1e-15

    def test_precise_cross_width_tracked(self):
        r = eval_pf_precise(build_f(6), mp.mpc(2, 1), precision=256)
        assert r.precision == 256
        assert r.cross_width is not None and r.cross_width < 1e-30


class TestExpansions:
    def test_g_m1(self):
        assert g_expansion(1).terms == (F(1),)

    def test_g_m3(self):
        assert g_expansion(3).terms == (F(1), F(3), F(3))

    @pytest.mark.parametrize("m", range(1, 21))
    def test_g_leading_term_one(self, m):
        assert g_expansion(m).terms[0] == 1

    def test_f_m1(self):
        assert f_expansion(1).terms == (F(1), F(2))

    @pytest.mark.parametrize("m", range(1, 16))
    def test_f_t0_one(self, m):
        assert f_expansion(m).terms[0] == 1

    def test_f_terms_encode_c(self):
        m = 8
        c = c_direct(m).c
        T = f_expansion(m).terms
        for j in range(1, len(c)):
            assert T[j] == 2 ** (j - 1) * factorial(j - 1) * c[j]

    def test_f_identity_at_odd_points(self):
        # (m+1) s F_m(s) equals the series at s = 3, 5, 7 exactly
        m = 4
        exp = f_expansion(m)
        pf = build_f(m)
        for s in (F(3), F(5), F(7)):
            assert expansion_value(exp, s) == (m + 1) * s * eval_pf(pf, s)

    def test_identities_all_m_to_40(self):
        # five non-pole rational points, every m <= 40, both families
        points = (F(9, 4), F(31, 7), F(-15, 4), F(101, 13), F(13, 11))
        for m in range(1, 41):
            ge = g_expansion(m)
            gpf = build_g(m)
            fe = f_expansion(m)
            fpf = build_f(m)
            for s in points:
                assert expansion_value(ge, s) == m * s * (s - 1) * eval_pf(gpf, s)
                assert expansion_value(fe, s) == (m + 1) * s * eval_pf(fpf, s)


class TestEulerCf:
    def test_first_three_g_levels_verbatim(self):
        m = 6
        a = coeff_table(m - 1).a
        cf = euler_cf(g_expansion(m))
        s = Poly.x()
        expected = [
            (Poly([-2 * a[1]]), 2 * a[1] + a[0] * (s + 1)),
            (-3 * a[0] * a[2] * (s + 1), 3 * a[2] + a[1] * (s + 2)),
            (-4 * a[1] * a[3] * (s + 2), 4 * a[3] + a[2] * (s + 3)),
        ]
        for lv, (num, den) in zip(cf.levels[:3], expected):
            assert lv.num == num
            assert lv.den == den

    def test_first_three_f_levels_verbatim(self):
        m = 8
        c = c_direct(m).c
        cf = euler_cf(f_expansion(m))
        s = Poly.x()
        expected = [
            (Poly([-c[1]]), c[1] + c[0] * (s - 1)),
            (-2 * c[0] * c[2] * (s - 1), 2 * c[2] + c[1] * (s + 1)),
            (-4 * c[1] * c[3] * (s + 1), 4 * c[3] + c[2] * (s + 3)),
        ]
        for lv, (num, den) in zip(cf.levels[:3], expected):
            assert lv.num == num
            assert lv.den == den

    def test_depth_counts_levels(self):
        assert euler_cf(g_expansion(7)).depth == 6
        assert euler_cf(f_expansion(8)).depth == 8 // 2 + 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            euler_cf(g_expansion(1))

    @pytest.mark.parametrize("m", range(2, 21))
    def test_g_cf_equals_reciprocal_identity(self, m):
        cf = euler_cf(g_expansion(m))
        pf = build_g(m)
        for s in (F(1, 2), F(1, 3), F(3, 4)):
            got = eval_cf(cf, s).value
            want = 1 / (m * s * (s - 1) * eval_pf(pf, s)) - 1
            assert got == want

    @pytest.mark.parametrize("m", range(1, 21))
    def test_f_cf_equals_reciprocal_identity(self, m):
        cf = euler_cf(f_expansion(m))
        pf = build_f(m)
        for s in (F(1, 2), F(1, 3), F(3, 4)):
            got = eval_cf(cf, s).value
            want = 1 / ((m + 1) * s * eval_pf(pf, s)) - 1
            assert got == want


class TestEvalCf:
    def test_depth_zero_single_level(self):
        m = 5
        a = coeff_table(m - 1).a
        cf = euler_cf(g_expansion(m))
        s = F(1, 2)
        got = eval_cf(cf, s, depth=0).value
        assert got == -2 * a[1] / (2 * a[1] + a[0] * (s + 1))

    def test_complex_dual_route_m12(self):
        # both CFs against the partial-fraction route at s = 2+i, 256 bits
        s = mp.mpc(2, 1)
        m = 12
        for kind, exp_builder, pf_builder, norm in (
            ("G", g_expansion, build_g, lambda z, v: m * z * (z - 1) * v),
            ("F", f_expansion, build_f, lambda z, v: (m + 1) * z * v),
        ):
            cf = euler_cf(exp_builder(m))
            got = eval_cf(cf, s, precision=256).value.value
            with mp.workprec(300):
                pv = eval_pf_precise(pf_builder(m), s, precision=290).value
                want = 1 / norm(mp.mpc(s), pv) - 1
                rel = abs(got - want) / abs(want)
                assert rel < mp.mpf(2) ** -200, (kind, rel)

    def test_convergent_trace_exact(self):
        # the value at depth k is the (k+1)-th convergent A_{k+1}/B_{k+1}
        cf = euler_cf(g_expansion(9))
        values = tuple(eval_cf(cf, F(1, 2), depth=k).value for k in range(cf.depth))
        convergents, denominators = reference_forward(cf.levels, F(1, 2))
        assert values == convergents
        assert values[-1] == eval_cf(cf, F(1, 2)).value
        assert all(q != 0 for q in denominators)

    def test_convergents_converge_toward_full_depth(self):
        cf = euler_cf(g_expansion(15))
        values = [eval_cf(cf, F(1, 2), depth=k).value for k in range(cf.depth)]
        errs = [abs(c - values[-1]) for c in values[:-1]]
        # truncation error shrinks overall: last partial error far below first
        assert errs[-1] < errs[0] / 10**6

    def test_zero_denominator_is_reported(self):
        # a crafted level with den(s) = 0 at s = 1
        cf = ContinuedFraction(
            "G", 0, (CFLevel(Poly([1]), Poly([-1, 1])),)
        )
        with pytest.raises(ZeroDenominatorError) as exc:
            eval_cf(cf, F(1))
        assert exc.value.level == 0

    @staticmethod
    def _vanishing_at(z):
        """A linear den with den(z) = -1/z, so den(z) + 1/z = 0."""
        w = -1 / z
        a1 = w.im / z.im
        return Poly([w.re - a1 * z.re, a1])

    def test_zero_denominator_level_matches_reference(self):
        z = QComplex(F(1, 3), F(2, 7))
        top = CFLevel(Poly([F(5, 2)]), Poly([F(1, 2), 3]))
        inner = CFLevel(Poly([1]), Poly([0, 1]))  # 1/s
        cases = [
            ((CFLevel(Poly([1]), Poly([-1, 1])),), F(1), 0),               # den(1) = 0
            ((top, CFLevel(Poly([1]), Poly([0, 1])), inner), QComplex(F(0), F(1)), 1),
            ((top, CFLevel(Poly([F(-3, 4)]), self._vanishing_at(z)), inner), z, 1),
            ((CFLevel(Poly([1]), self._vanishing_at(z)), inner), z, 0),
            ((CFLevel(Poly([1]), Poly([0, 1])), inner), mp.mpc(0, 1), 0),  # i + 1/i
            ((*CRAFTED[:4], CFLevel(Poly([1]), self._vanishing_at(z)), inner), z, 4),
            ((*CRAFTED[:2], CFLevel(Poly([F(2, 3)]), Poly([F(-1, 2), F(1, 4)]))), F(2), 2),
            # a tail that is exactly 0 (level 1's numerator vanishes at 2) under a den(2) = 0
            ((CFLevel(Poly([1]), Poly([-2, 1])), CFLevel(Poly([-2, 1]), Poly([1])), inner), F(2), 0),
        ]
        for levels, s, level in cases:
            with pytest.raises(ZeroDenominatorError) as ref:
                reference_backward(levels, s)
            assert ref.value.level == level
            with pytest.raises(ZeroDenominatorError) as got:
                eval_cf(ContinuedFraction("G", 0, levels), s)
            assert got.value.level == level, (levels, s)

    def test_zero_denominator_on_integer_levels(self):
        # tails of the crafted levels (c_j > 1) that vanish at a deeper level
        z = QComplex(F(1, 3), F(2, 7))
        inner = CFLevel(Poly([1]), Poly([0, 1]))  # 1/s
        cases = [
            ((*CRAFTED[:2], CFLevel(Poly([F(2, 3)]), Poly([F(-1, 2), F(1, 4)]))), F(2), 2),
            ((*CRAFTED[:3], CFLevel(Poly([F(-3, 4)]), self._vanishing_at(z)), inner), z, 3),
            ((*CRAFTED, CFLevel(Poly([F(5, 3)]), Poly([F(-1, 2), F(1, 4)]))), F(2), 6),
        ]
        for levels, s, level in cases:
            with pytest.raises(ZeroDenominatorError) as ref:
                reference_backward(levels, s)
            assert ref.value.level == level
            with pytest.raises(ZeroDenominatorError) as got:
                eval_cf(ContinuedFraction("G", 0, levels), s)
            assert got.value.level == level, (levels, s)

    def test_depth_bounds_checked(self):
        cf = euler_cf(g_expansion(5))
        with pytest.raises(ValueError):
            eval_cf(cf, F(1, 2), depth=cf.depth)


def assert_lowest_terms(cf, s, depth):
    """The Gaussian backward recurrence's (p_re, p_im, q) has q > 0 and
    gcd 1, which eval_cf's Fractions would hide; returns its value."""
    p_re, p_im, q = _cf_backward(cf._integer_levels[:depth + 1],
                                 *QComplex.from_value(s).gaussian())
    assert q > 0 and gcd(p_re, p_im, q) == 1, (s, depth)
    return QComplex(F(p_re, q), F(p_im, q))


class TestEvalCfReference:
    """eval_cf's Gaussian-integer and pre-rounded mpmath recurrences against
    the backward recurrence on Fraction, QComplex and mpc values."""

    CASES = [(kind, m) for kind in ("G", "F") for m in (1, 2, 3, 12, 60)
             if (kind, m) != ("G", 1)]  # G_1 has one term: no continued fraction

    @staticmethod
    def points(m):
        return [*seeded_strip_points(m, 4), QComplex(F(7, 3), F(0)),
                QComplex(F(1, 3), F(-2, 7)), F(1, 3), F(-5, 2)]

    @pytest.mark.parametrize("kind, m", CASES)
    def test_exact_values_and_traces(self, kind, m):
        cf = euler_cf((g_expansion if kind == "G" else f_expansion)(m))
        depths = range(cf.depth) if m <= 12 else sorted({0, cf.depth // 2, cf.depth - 1})
        for s in self.points(m):
            values = []
            for depth in depths:
                levels = cf.levels[:depth + 1]
                want = reference_backward(levels, s)
                ev = eval_cf(cf, s, depth=depth)
                assert ev.value == want and type(ev.value) is type(want), (s, depth)
                assert ev.levels_used == depth + 1
                assert_lowest_terms(cf, s, depth)
                values.append(ev.value)
            if m <= 12:
                # the values at every depth are the convergents
                assert tuple(values) == reference_forward(cf.levels, s)[0], s

    @pytest.mark.parametrize("kind, m", CASES)
    @pytest.mark.parametrize("precision", [128, 266])
    def test_mp_values_bit_identical(self, kind, m, precision):
        cf = euler_cf((g_expansion if kind == "G" else f_expansion)(m))
        depths = range(cf.depth) if m <= 12 else [cf.depth - 1]
        for s in self.points(m)[:5]:
            z = mp.mpc(mp.mpf(s.re.numerator) / s.re.denominator,
                       mp.mpf(s.im.numerator) / s.im.denominator)
            for depth in depths:
                levels = cf.levels[:depth + 1]
                ev = eval_cf(cf, z, depth=depth, precision=precision)
                re, im, width = reference_mp(levels, z, precision)
                assert (ev.value.real._mpf_, ev.value.imaginary._mpf_) == (re, im), (z, depth)
                assert ev.cross_width == ev.value.cross_width == width

    @pytest.mark.parametrize("depth", range(len(CRAFTED)))
    def test_crafted_integer_levels(self, depth):
        cf = ContinuedFraction("G", 0, CRAFTED)
        levels = CRAFTED[:depth + 1]
        rows = cf._integer_levels[:depth + 1]
        assert all(type(c) is int for row in rows for poly in row for c in poly)
        # the transformation keeps every convergent
        int_levels = tuple(CFLevel(Poly(num), Poly(den)) for num, den in rows)
        for s in (*self.points(7), F(-2, 9), QComplex(F(5, 4), F(1, 9))):
            want = reference_backward(levels, s)
            got = eval_cf(cf, s, depth=depth)
            assert got.value == want and type(got.value) is type(want), (s, depth)
            assert reference_forward(int_levels, s)[0] == reference_forward(levels, s)[0]
            assert tuple(eval_cf(cf, s, depth=k).value for k in range(depth + 1)) == \
                reference_forward(levels, s)[0]
        for s in self.points(7)[:4]:
            z = mp.mpc(mp.mpf(s.re.numerator) / s.re.denominator,
                       mp.mpf(s.im.numerator) / s.im.denominator)
            ev = eval_cf(cf, z, depth=depth, precision=128)
            assert (ev.value.real._mpf_, ev.value.imaginary._mpf_, ev.cross_width) == \
                reference_mp(levels, z, 128)

    @pytest.mark.parametrize("s", [F(2), QComplex(F(1, 3), F(2, 7))])
    def test_tail_vanishes_mid_recurrence(self, s):
        # level 2's numerator vanishes at s, so the tail below level 2 is
        # exactly 0 (P = 0) with deeper levels beneath it and levels above
        z = QComplex.from_value(s)
        x, n2 = z.re, z.re * z.re + z.im * z.im
        vanishing = Poly([F(6, 5) * n2, F(-12, 5) * x, F(6, 5)])  # (6/5)(s - z)(s - conj z)
        assert not vanishing(s)
        levels = (*CRAFTED[:2], CFLevel(vanishing, Poly([F(7, 2), 1])), *CRAFTED[3:])
        cf = ContinuedFraction("G", 0, levels)
        for depth in range(len(levels)):
            want = reference_backward(levels[:depth + 1], s)
            got = eval_cf(cf, s, depth=depth).value
            assert got == want and type(got) is type(want), depth
            assert assert_lowest_terms(cf, s, depth) == QComplex.from_value(want)
        assert not reference_backward(levels[2:], s)

    @pytest.mark.parametrize("expansion", [g_expansion, f_expansion])
    def test_m120_against_reference(self, expansion):
        cf = euler_cf(expansion(120))
        for s in seeded_strip_points(120, 2):
            want = reference_backward(cf.levels, s)
            assert eval_cf(cf, s).value == want
            assert assert_lowest_terms(cf, s, cf.depth - 1) == want

    @pytest.mark.parametrize("build", [lambda: CRAFTED,
                                       lambda: euler_cf(g_expansion(20)).levels,
                                       lambda: euler_cf(f_expansion(20)).levels])
    def test_integer_levels_from_fractions(self, build):
        # the transformation per coefficient on the reduced Fractions, with
        # den the lcm of a level's coefficient denominators
        levels = build()
        rows, c_prev = [], 1
        for lv in levels:
            a_den = lcm(*(x.denominator for x in lv.num.coeffs))
            c = lcm(*(x.denominator for x in lv.den.coeffs), a_den // gcd(a_den, c_prev))
            rows.append((tuple(x.numerator * (c_prev * c // x.denominator) for x in lv.num.coeffs),
                         tuple(x.numerator * (c // x.denominator) for x in lv.den.coeffs)))
            c_prev = c
        assert ContinuedFraction("G", 0, levels)._integer_levels == tuple(rows)


class TestEvalCache:
    """The integer levels and the rounded coefficients are kept on the
    object; no order of calls may change a result."""

    Z = [mp.mpc(mp.mpf(43) / 64, mp.mpf(25) / 64), mp.mpc(2, -1)]

    @staticmethod
    def fresh(cf):
        return ContinuedFraction(cf.kind, cf.m, cf.levels)

    @pytest.mark.parametrize("expansion", [g_expansion, f_expansion])
    def test_precision_order(self, expansion):
        cf = euler_cf(expansion(12))
        for z in self.Z:
            for a, b in ((128, 256), (53, 290), (256, 128)):
                used = self.fresh(cf)
                got = [bits(eval_cf(used, z, precision=p)) for p in (a, b, a)]
                want = [bits(eval_cf(self.fresh(cf), z, precision=p)) for p in (a, b, a)]
                assert got == want, (cf.kind, z, a, b)

    @pytest.mark.parametrize("expansion", [g_expansion, f_expansion])
    def test_depth_order(self, expansion):
        cf = euler_cf(expansion(12))
        deep, shallow = cf.depth - 1, 2
        for s in (*self.Z, QComplex(F(5, 32), F(33, 64)), F(1, 3)):
            for order in ((deep, shallow, deep), (shallow, deep, shallow)):
                used = self.fresh(cf)
                got = [bits(eval_cf(used, s, depth=k)) for k in order]
                want = [bits(eval_cf(self.fresh(cf), s, depth=k)) for k in order]
                assert got == want, (cf.kind, s, order)

    def test_partial_fraction_precision_order(self):
        def parts(v):
            return v.real._mpf_, v.imaginary._mpf_, v.cross_width

        for pf in (build_g(12), build_f(12)):
            for a, b in ((128, 256), (53, 290)):
                used = PartialFraction(pf.terms, pf.kind, pf.m)
                got = [parts(eval_pf_precise(used, self.Z[0], precision=p)) for p in (a, b, a)]
                want = [parts(eval_pf_precise(PartialFraction(pf.terms, pf.kind, pf.m),
                                              self.Z[0], precision=p)) for p in (a, b, a)]
                assert got == want, (pf.kind, a, b)


def reference_pf_value(pf, s, prec):
    """The per-term expression: each residue rounded as mp.mpf(numerator) /
    denominator, then divided by s - pole in mpc arithmetic."""
    with mp.workprec(prec):
        z = mp.mpc(s)
        acc = mp.mpc(0)
        for p, r in pf.terms:
            acc += mp.mpf(r.numerator) / r.denominator / (z - p)
        return acc


class TestEvalPfPreciseReference:
    """eval_pf_precise's residues, rounded once per precision, against the
    per-term rounding at every call."""

    @pytest.mark.parametrize("builder", [build_g, build_f])
    @pytest.mark.parametrize("m", [1, 2, 12, 60])
    @pytest.mark.parametrize("precision", [53, 128, 256, 290])
    def test_bit_identical(self, builder, m, precision):
        pf = builder(m)
        zs = [mp.mpc(mp.mpf(q.re.numerator) / q.re.denominator,
                     mp.mpf(q.im.numerator) / q.im.denominator)
              for q in seeded_strip_points(m, 3)]
        for z in (*zs, mp.mpc(2, 1), mp.mpc(mp.mpf(7) / 3, 0)):
            got = eval_pf_precise(pf, z, precision=precision)
            v = reference_pf_value(pf, z, precision + 10)
            width = float(abs(v - reference_pf_value(pf, z, 128)))
            with mp.workprec(precision):
                want = ((+v.real)._mpf_, (+v.imag)._mpf_)
            assert (got.real._mpf_, got.imaginary._mpf_) == want, (m, z)
            assert got.cross_width == width
            assert got.precision == precision

    @pytest.mark.parametrize("builder, pole, s", [
        (build_g, 1, 1),
        (build_g, 1, mp.mpc(1, 0)),
        (build_g, -2, QComplex(F(-2), F(0))),
        (build_f, 0, F(0)),
        (build_f, -1, complex(-1, 0)),
        (build_f, -1, mp.mpf(-1)),
    ])
    def test_exact_pole_is_named(self, builder, pole, s):
        pf = builder(3)
        with pytest.raises(ValueError, match=f"is the pole {pole} of {pf.kind}_3$"):
            eval_pf_precise(pf, s)
        assert eval_pf(pf, F(pole)) == PoleIndicator(pole)

    def test_point_rounding_onto_a_pole_is_named(self):
        # 1 + 2^-299 is not a pole and is exact at 300 bits, but the 128-bit
        # cross re-evaluation rounds it to the pole 1
        with mp.workprec(300):
            s = mp.mpc(1 + mp.mpf(2) ** -299)
        pf = build_g(3)
        with pytest.raises(ValueError, match=r"rounded to 128 bits is the pole 1 of G_3$"):
            eval_pf_precise(pf, s, precision=290)
        # at 63 working bits the first evaluation already rounds it
        with pytest.raises(ValueError, match=r"rounded to 63 bits is the pole 1 of G_3$"):
            eval_pf_precise(pf, s, precision=53)

    def test_point_near_a_pole_still_evaluates(self):
        # 1 + 2^-100 survives rounding to 128 bits; the value is about
        # residue / 2^-100
        with mp.workprec(300):
            s = mp.mpc(1 + mp.mpf(2) ** -100)
        pf = build_g(3)
        got = eval_pf_precise(pf, s, precision=290)
        v = reference_pf_value(pf, s, 300)
        with mp.workprec(290):
            assert (got.real._mpf_, got.imaginary._mpf_) == ((+v.real)._mpf_, (+v.imag)._mpf_)
        assert abs(got.real) > 2 ** 99
