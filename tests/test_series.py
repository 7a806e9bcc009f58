from fractions import Fraction as F

import pytest

from zetacf.qcomplex import QComplex
from zetacf.series import Poly, PowerSeries


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
