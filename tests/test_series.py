import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from conftest import reference_inverse
from zetacf.qcomplex import QComplex
from zetacf.region_analysis import binomial_cf_check, positivity_truncation_check
from zetacf.series import Poly, PowerSeries, _inverse_numerators


class TestPoly:
    def test_mul_and_eq(self):
        p = Poly([1, 1]) * Poly([-1, 1])  # (1+s)(-1+s) = s^2 - 1
        assert p == Poly([-1, 0, 1])
        assert Poly([3]) * Poly([0]) == Poly()

    def test_degree_and_zero(self):
        assert Poly().degree == -1
        assert Poly([0, 0, 0]).degree == -1
        assert Poly([2, 0, 0]).degree == 0
        assert not Poly()
        assert Poly([1])

    def test_eval_horner(self):
        p = Poly([11, 6, 1])  # 11 + 6s + s^2
        assert p(F(2)) == 27
        z = p(QComplex(F(0), F(1)))  # s = i: 11 + 6i - 1
        assert z == QComplex(F(10), F(6))

    def test_scalar_ops(self):
        p = Poly([1, 2])
        assert 2 * p == Poly([2, 4])
        assert p - 1 == Poly([0, 2])

    def test_primitive_content(self):
        c, prim = Poly([F(11, 12), F(10, 12), F(3, 12)]).primitive()
        assert c == F(1, 12)
        assert prim == Poly([11, 10, 3])
        c, prim = Poly([F(-2), F(-4)]).primitive()
        assert c == F(-2) and prim == Poly([1, 2])


def _rational_poly(rng, n):
    return [F(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 9, 10, 12])) for _ in range(n)]


def _canonical(p):
    """The integer-row normal form: a positive den free of the numerators'
    common content, trailing zeros stripped, zero as (0,) over 1."""
    return (p.den > 0 and gcd(p.den, *p.num) == 1 and all(type(x) is int for x in p.num)
            and (p.num[-1] != 0 or (p.num, p.den) == ((0,), 1)))


class TestIntegerRowPoly:
    """`Poly` as integer numerators over one positive denominator, against
    coefficient-wise Fraction arithmetic."""

    def test_equal_values_built_three_ways(self):
        built = [
            Poly([F(1, 2), F(2, 3)]),
            Poly([3, 4]) * F(1, 6),
            Poly([F(5, 6), F(2, 3), 1]) + Poly([F(-1, 3), 0, -1]),
        ]
        for p in built:
            assert (p.num, p.den) == ((3, 4), 6) and hash(p) == hash(built[0])
            assert p == built[0] and p.coeffs == (F(1, 2), F(2, 3))

    def test_ring_operations_keep_the_normal_form(self):
        rng = random.Random(20261019)
        for _ in range(40):
            a = _rational_poly(rng, rng.randint(1, 6))
            b = _rational_poly(rng, rng.randint(1, 6))
            k = F(rng.randint(-6, 6), rng.randint(1, 8))
            pa, pb = Poly(a), Poly(b)
            width = max(len(a), len(b))
            za, zb = a + [F(0)] * (width - len(a)), b + [F(0)] * (width - len(b))
            prod = [sum((a[i] * b[j - i] for i in range(len(a)) if 0 <= j - i < len(b)), F(0))
                    for j in range(len(a) + len(b) - 1)]
            cases = [
                (pa + pb, [x + y for x, y in zip(za, zb)]),
                (pa - pb, [x - y for x, y in zip(za, zb)]),
                (pa * pb, prod),
                (pa * k, [x * k for x in a]),
                (k * pa + k, [a[0] * k + k] + [x * k for x in a[1:]]),
                (-pa, [-x for x in a]),
            ]
            for got, want in cases:
                while len(want) > 1 and want[-1] == 0:
                    want.pop()
                assert _canonical(got), got
                assert got.coeffs == tuple(want) and got == Poly(want)

    def test_zero_polynomial(self):
        for z in (Poly(), Poly([0, 0]), Poly([F(0, 5)]), Poly([F(1, 3)]) - F(1, 3),
                  Poly([F(1, 2), 1]) * 0):
            assert (z.num, z.den) == ((0,), 1) and z.degree == -1 and not z
        re, im, den = Poly().gaussian_horner(3, -2, 7)
        assert (re, im) == (0, 0) and den != 0

    def test_rejects_inexact_coefficients(self):
        with pytest.raises(TypeError):
            Poly([1.5])
        with pytest.raises(TypeError):
            Poly([1, F(1, 2), 0.25])

    def test_views_keep_types(self):
        p = Poly([2, F(-3, 4), 0, 0])
        assert p.coeffs == (F(2), F(-3, 4)) and all(type(c) is F for c in p.coeffs)
        assert repr(p) == "Poly([Fraction(2, 1), Fraction(-3, 4)])"
        assert str(p) == "-3/4*s + 2"
        assert p.content() == F(1, 4) and p.primitive() == (F(-1, 4), Poly([-8, 3]))
        assert Poly().content() == 0 and p(F(2, 3)) == F(3, 2) and p(2) == F(1, 2)


def generic_horner(poly, x):
    """Horner on the ring value itself, one reduced operation per step: the
    evaluation `Poly.__call__` ran at a QComplex before it cleared
    denominators."""
    acc = x * 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _rational(rng, bits=40):
    return F(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))


class TestGaussianHorner:
    """`Poly.__call__` at a QComplex against Horner on QComplex values."""

    POINTS = (
        QComplex(F(0), F(0)),
        QComplex(F(7, 3), F(0)),              # im = 0
        QComplex(F(0), F(-5, 8)),
        QComplex(F(1, 3), F(2, 7)),           # coprime denominators
        QComplex(F(-5, 12), F(7, 18)),        # denominators sharing a factor
        QComplex(F(3), F(1, 64)),
        QComplex(F(-123456789, 1024), F(987654321, 3**20)),
    )

    @pytest.mark.parametrize("poly", [
        Poly(),                                   # zero polynomial
        Poly([F(-7, 3)]),                         # constant
        Poly([11, 6, 1]),                         # integers
        Poly([F(1, 2), F(-2, 3), F(5, 7), 0, F(-11, 13)]),
        Poly([0, 0, F(3, 4)]),
        Poly([F(-1, 10**6)] + [0] * 39 + [1]),    # z^40 - 10^-6
    ])
    def test_matches_generic_horner(self, poly):
        for z in self.POINTS:
            got = poly(z)
            assert got == generic_horner(poly, z), (poly, z)
            assert type(got.re) is F and type(got.im) is F

    def test_seeded_rational_polys(self):
        rng = random.Random(20261018)
        for _ in range(60):
            poly = Poly([_rational(rng) for _ in range(rng.randint(1, 12))])
            z = QComplex(_rational(rng, 20), _rational(rng, 20) if rng.random() < 0.8 else F(0))
            assert poly(z) == generic_horner(poly, z), (poly, z)

    def test_integers_before_reduction(self):
        # (re + i im)/den is the value, with den = L d^n unreduced
        poly = Poly([F(1, 2), F(1, 3), F(1, 4)])
        re, im, den = poly.gaussian_horner(1, 2, 5)  # at (1 + 2i)/5
        assert den == 12 * 5**2
        assert QComplex(F(re, den), F(im, den)) == generic_horner(poly, QComplex(F(1, 5), F(2, 5)))


class TestPowerSeries:
    def test_geometric_inverse(self):
        g = PowerSeries.geometric(12)
        one_minus = PowerSeries([1, -1], 12)
        assert g * one_minus == PowerSeries.constant(1, 12)
        assert one_minus.inverse() == g

    def test_inverse_roundtrip(self):
        a = PowerSeries([F(2), F(1, 3), F(-5), F(7, 2), F(0), F(1)], 5)
        assert (a * a.inverse()) == PowerSeries.constant(1, 5)

    def test_inverse_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries([0, 1], 3).inverse()

    def test_log_derivative_identity(self):
        # d/dy (-log(1-y)) = 1/(1-y)
        assert PowerSeries.neg_log1m(10).derivative() == PowerSeries.geometric(9)

    def test_shift(self):
        a = PowerSeries([1, 2, 3], 2)
        up = a.shift(2)
        assert up.coeffs == (F(0), F(0), F(1), F(2), F(3))
        assert up.shift(-2) == a
        with pytest.raises(ValueError):
            a.shift(-1)  # constant term nonzero

    def test_poly_coefficient_series(self):
        # series over Q[t]: (c0 + c1 y) * inverse works when c0 is a constant poly
        a = PowerSeries([Poly([2]), Poly([-1, 1])], 4)
        inv = a.inverse()
        assert (a * inv) == PowerSeries([Poly([1])], 4)


def _den_lcm(series):
    """The lcm of the reduced denominators of every coefficient: the one
    denominator an integer-row series must hold."""
    return lcm(*(d for c in series.coeffs
                 for d in ([x.denominator for x in c.coeffs] if isinstance(c, Poly)
                           else [c.denominator])))


class TestIntegerRows:
    """`PowerSeries` as integer numerators over one positive denominator,
    against coefficient-wise Fraction and Poly arithmetic."""

    A = [F(1, 2), F(-1, 3), F(5, 4), 0, F(7, 6)]
    B = [F(2, 5), 3, F(-3, 10), F(1, 7)]

    def test_sum_across_dens(self):
        a, b = PowerSeries(self.A, 4), PowerSeries(self.B, 3)
        assert (a.den, b.den) == (12, 70)
        got = a + b
        assert got.order == 3
        assert got.coeffs == tuple(F(x) + F(y) for x, y in zip(self.A, self.B))
        assert got.den == _den_lcm(got) and got - b == PowerSeries(self.A, 3)

    def test_product_across_dens(self):
        a, b = PowerSeries(self.A, 4), PowerSeries(self.B, 3)
        want = [sum((F(self.A[i]) * F(self.B[k - i]) for i in range(k + 1)), F(0))
                for k in range(4)]
        got = a * b
        assert got.coeffs == tuple(want) and got.den == _den_lcm(got)

    def test_scalars_fold_into_numerators_and_den(self):
        a = PowerSeries(self.A, 4)
        assert (a * F(6, 7)).coeffs == tuple(F(x) * F(6, 7) for x in self.A)
        assert (a + F(1, 6)).coeffs == (F(2, 3),) + a.coeffs[1:]
        assert (F(1, 6) - a).coeffs == (F(-1, 3),) + tuple(-x for x in a.coeffs[1:])

    def test_bivariate_sum_and_product_across_dens(self):
        p = [Poly([F(1, 2), F(1, 3)]), Poly([F(-2, 5)]), Poly([0, 0, F(3, 4)])]
        q = [Poly([F(1, 6)]), Poly([1, F(1, 9)]), Poly([F(5, 8), F(-1, 3)])]
        a, b = PowerSeries(p, 2), PowerSeries(q, 2)
        assert (a.den, b.den) == (60, 72)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(p, q))
        want = tuple(sum((p[i] * q[k - i] for i in range(k + 1)), Poly()) for k in range(3))
        assert (a * b).coeffs == want
        assert (a * Poly([F(1, 3), 1])).coeffs == tuple(x * Poly([F(1, 3), 1]) for x in p)

    @pytest.mark.parametrize("order", [3, 4])
    def test_inverse_of_negative_constant_term(self, order):
        # c0 = -3: c0^(order+1) is negative for order 4, positive for 3
        a = PowerSeries([F(-3, 2), F(1, 5), 2, F(-7, 3), F(1, 4)], order)
        inv = a.inverse()
        assert inv.den > 0 and inv.den == _den_lcm(inv)
        assert inv == reference_inverse(a)
        assert a * inv == PowerSeries.constant(1, order)

    def test_bivariate_inverse_of_negative_constant_term(self):
        a = PowerSeries([Poly([F(-2, 3)]), Poly([1, F(1, 2)]), Poly([0, F(-1, 5)])], 4)
        inv = a.inverse()
        assert inv.den > 0 and inv == reference_inverse(a)

    def test_derivative_and_shift_keep_den(self):
        a = PowerSeries([F(1, 3), F(1, 2), F(1, 4), F(5, 6)], 3)
        d = a.derivative()
        assert d.coeffs == (F(1, 2), F(1, 2), F(5, 2)) and d.den == 2
        up = a.shift(2)
        assert up.coeffs == (0, 0) + a.coeffs and up.den == a.den == 12
        assert up.shift(-2) == a
        assert PowerSeries([Poly([F(1, 2), 1]), Poly([0, F(1, 3)])], 1).derivative().coeffs == \
            (Poly([0, F(1, 3)]),)

    def test_equal_values_built_two_ways(self):
        a = PowerSeries(self.A, 4)
        pairs = [
            (PowerSeries([1, -1], 6).inverse(), PowerSeries.geometric(6)),
            (a * 2 * F(1, 2), a),
            ((a + PowerSeries(self.B, 4)) - PowerSeries(self.B, 4), a),
            (PowerSeries([F(3, 6), F(-2, 6), F(15, 12), F(0, 5), F(14, 12)], 4), a),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x.num, x.den) == (y.num, y.den)

    def test_coeffs_element_types(self):
        a = PowerSeries([2, F(1, 2)], 3)
        assert all(type(c) is F for c in a.coeffs)
        assert a.coeffs == (F(2), F(1, 2), F(0), F(0)) and a.coefficient(7) == 0
        b = PowerSeries([Poly([F(1, 2), 0, 0]), Poly(), Poly([3])], 3)
        assert all(type(c) is Poly and all(type(x) is F for x in c.coeffs) for c in b.coeffs)
        assert [c.coeffs for c in b.coeffs] == [(F(1, 2),), (F(0),), (F(3),), (F(0),)]
        assert type(b.coefficient(9)) is Poly and b.coefficient(9) == 0

    def test_rejects_inexact_coefficients(self):
        with pytest.raises(TypeError):
            PowerSeries([1.5, 1.0], 2)
        with pytest.raises(TypeError):
            PowerSeries([Poly([1.5])], 2)


class TestInverseReference:
    """The division-free inverse against the Fraction recurrence it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fraction_coefficients(self, seed):
        rng = random.Random(seed)
        order = rng.randint(0, 14)
        cs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        cs[0] = cs[0] or F(-3, 7)
        a = PowerSeries(cs, order)
        assert a.inverse() == reference_inverse(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_poly_coefficients(self, seed):
        rng = random.Random(100 + seed)
        order = rng.randint(1, 9)
        cs = [Poly([F(rng.choice([-7, -2, 1, 5]), rng.randint(1, 6))])]
        cs += [Poly([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))])
               for _ in range(order)]
        a = PowerSeries(cs, order)
        assert a.inverse() == reference_inverse(a)

    def test_integer_numerators(self):
        # e_k / c^(k+1) on an integer row is the Fraction inverse
        a = [6, -4, 9, 0, -1, 3, 2]
        e = _inverse_numerators(a, a[0])
        assert all(type(x) is int for x in e) and e[0] == 1
        ref = reference_inverse(PowerSeries(a, len(a) - 1))
        assert tuple(F(x, 6 ** (k + 1)) for k, x in enumerate(e)) == ref.coeffs

    @pytest.mark.parametrize("c0", [F(0), Poly([0]), Poly([1, 1])])
    def test_non_unit_constant_term(self, c0):
        a = PowerSeries([c0, c0 * 0 + 1], 3)
        with pytest.raises(ZeroDivisionError):
            reference_inverse(a)
        with pytest.raises(ZeroDivisionError):
            a.inverse()

    def test_unknown_coefficient_type(self):
        with pytest.raises(TypeError):
            PowerSeries([1.5, 1.0], 2).inverse()

    def test_series_continued_fractions(self, monkeypatch):
        # the one divide of both series continued fractions, by either route
        got = binomial_cf_check(12).series, positivity_truncation_check(20).cf_coefficients
        monkeypatch.setattr(PowerSeries, "inverse", reference_inverse)
        assert got == (binomial_cf_check(12).series,
                       positivity_truncation_check(20).cf_coefficients)
