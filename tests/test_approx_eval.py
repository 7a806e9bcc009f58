from fractions import Fraction as F
from math import factorial

import mpmath as mp
import pytest

from zetacf.approx_eval import (
    CFLevel,
    ContinuedFraction,
    PoleIndicator,
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
from zetacf.series import Poly


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
        cf = euler_cf(g_expansion(9))
        ev = eval_cf(cf, F(1, 2), trace=True)
        assert len(ev.convergents) == cf.depth
        assert ev.convergents[-1] == ev.value
        assert all(q != 0 for q in ev.denominators)

    def test_convergents_converge_toward_full_depth(self):
        cf = euler_cf(g_expansion(15))
        ev = eval_cf(cf, F(1, 2), trace=True)
        errs = [abs(c - ev.value) for c in ev.convergents[:-1]]
        # truncation error shrinks overall: last partial error far below first
        assert errs[-1] < errs[0] / 10**6

    def test_zero_denominator_is_reported(self):
        # a crafted level with den(s) = 0 at s = 1
        cf = ContinuedFraction(
            "G", 0, (CFLevel(Poly([1]), Poly([-1, 1])),)
        )
        with pytest.raises(ZeroDenominatorError):
            eval_cf(cf, F(1))

    def test_depth_bounds_checked(self):
        cf = euler_cf(g_expansion(5))
        with pytest.raises(ValueError):
            eval_cf(cf, F(1, 2), depth=cf.depth)
