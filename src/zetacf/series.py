"""Exact dense polynomials and truncated power series over the rationals.

Everything in this module is exact and held as integers over one positive
denominator: a `Poly` is an integer row over its den, and a `PowerSeries`
holds integer numerators (integer `Poly`s, of den 1, for bivariate work)
over one den. Both keep the den free of the numerators' common content and
view their coefficients as reduced Fractions (or Polys of them). No
floating point enters any operation here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .qcomplex import QComplex

__all__ = ["Poly", "PowerSeries"]


def _inverse_numerators(a, c) -> list:
    """The division-free series inverse: for a_0 of nonzero scalar value c,
    1 / sum a_k x^k = sum e_k x^k / c^(k+1), k < len(a), with e_0 = 1 and
    e_k = -sum_{j=1..k} a_j c^(j-1) e_{k-j} (Geddes, Czapor & Labahn 1992,
    ch. 2). Horner in c: no step divides, and each product has one operand
    of about c's size."""
    e = [a[0] * 0 + 1]
    for k in range(1, len(a)):
        acc = 0
        for j in range(k, 0, -1):
            acc = acc * c + a[j] * e[k - j]
        e.append(-acc)
    return e


def _add_coeffs(a, b) -> list:
    """Coefficient-wise sum; the shorter sequence counts as zero past its end."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def _mul_coeffs(a, b, n: int, zero) -> list:
    """Coefficients 0..n of the product of the coefficient sequences a and b."""
    out = [zero] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if x:
            for j, y in enumerate(b[:n + 1 - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _scaled(num, k: int):
    return num if k == 1 else [x * k for x in num]


def _gaussian_horner(row, x: int, y: int, d: int) -> tuple[int, int, int]:
    """The polynomial with integer coefficients `row` (ascending) at
    (x + iy)/d, d > 0, as integers (re, im, d^n) with value (re + i im)/d^n,
    unreduced: Horner on the Gaussian integer x + iy with coefficient k
    scaled by d^(n-k), so no step divides."""
    re = im = 0
    scale = 1  # d^(n-k) for the coefficient k about to be added
    for c in reversed(row):
        re, im = re * x - im * y + c * scale, re * y + im * x
        scale *= d
    return re, im, scale // d


def _poly(num, den: int) -> "Poly":
    """The Poly sum num[k]/den s^k, num a nonempty integer row and den > 0,
    in canonical form: trailing zeros stripped and the content that den
    shares with every numerator divided out (zero is (0,) over 1)."""
    if not num[-1] and len(num) > 1:
        num = list(num)
        while len(num) > 1 and not num[-1]:
            num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
    out = object.__new__(Poly)
    out.num = tuple(num)
    out.den = den
    out._coeffs = None
    return out


class Poly:
    """Dense univariate polynomial over the rationals, ascending order.

    Coefficient k of s^k is num[k] / den: integers over one positive den
    that shares no factor with every numerator, trailing zeros stripped, so
    equal polynomials hold equal (num, den) (the primitive-part/content
    normal form of Geddes, Czapor & Labahn 1992, ch. 2). Arithmetic and
    evaluation run on the integers; `coeffs` is the reduced Fraction view,
    built once.
    """

    __slots__ = ("num", "den", "_coeffs")

    def __new__(cls, coeffs=(0,)):
        cleared = []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"polynomial coefficients are ints or Fractions, not {c!r}")
            cleared.append((c.numerator, c.denominator))
        den = lcm(*(d for _, d in cleared))
        return _poly([n * (den // d) for n, d in cleared] or [0], den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def linear(cls, const, slope) -> "Poly":
        """const + slope * x."""
        return cls([const, slope])

    # -- basic properties ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients num[k]/den as reduced Fractions."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(x, self.den) for x in self.num)
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.num) - 1 if self.num[-1] else -1

    def is_zero(self) -> bool:
        return not self.num[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (len(self.num) == 1 and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.num, self.den))

    def __bool__(self):
        return bool(self.num[-1])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if type(other) is Poly:
            b, b_den = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            b, b_den = (other.numerator,), other.denominator
        else:
            return NotImplemented
        if self.den == b_den:
            return _poly(_add_coeffs(self.num, b), b_den)
        den = lcm(self.den, b_den)
        return _poly(_add_coeffs(_scaled(self.num, den // self.den), _scaled(b, den // b_den)),
                     den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Poly:
            a, b = self.num, other.num
            return _poly(_mul_coeffs(a, b, len(a) + len(b) - 2, 0), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return _poly([x * c for x in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for any ring value (Fraction, complex, ...).

        At a QComplex, an int or a Fraction the value is computed in
        integers by `gaussian_horner` and reduced once at the end; other
        values run Horner on the numerators and divide by den once."""
        if isinstance(x, QComplex):
            re, im, den = self.gaussian_horner(*x.gaussian())
            return QComplex(Fraction(re, den), Fraction(im, den))
        if isinstance(x, (int, Fraction)):
            re, _, den = self.gaussian_horner(x.numerator, 0, x.denominator)
            return Fraction(re, den)
        acc = x * 0
        for c in reversed(self.num):
            acc = acc * x + c
        return acc / self.den

    def gaussian_horner(self, x: int, y: int, d: int) -> tuple[int, int, int]:
        """The value at (x + iy)/d, d > 0, as integers (re, im, den) with
        value (re + i im)/den, unreduced: `_gaussian_horner` on the
        numerators, so den = self.den d^n."""
        re, im, scale = _gaussian_horner(self.num, x, y, d)
        return re, im, self.den * scale

    # -- normalization ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of
        denominators, which is gcd(num) / den; 0 for the zero polynomial."""
        return Fraction(gcd(*self.num), self.den)

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """Split into (scalar, primitive) with integer coefficients and a
        positive leading coefficient, so self == scalar * primitive."""
        if self.is_zero():
            return Fraction(0), Poly()
        g = gcd(*self.num)
        if self.num[-1] < 0:
            g = -g
        return Fraction(g, self.den), _poly([x // g for x in self.num], 1)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree >= 0:
                continue
            mag = str(abs(c)) if i == 0 else (f"{abs(c)}*s" if i == 1 else f"{abs(c)}*s^{i}")
            if not parts:
                parts.append(mag if c >= 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c >= 0 else f"- {mag}")
        return " ".join(parts) if parts else "0"


def _clear(x) -> tuple:
    """(numerator, denominator) of a coefficient: an int over a positive int
    for an int or Fraction, an integer Poly over its den for a Poly."""
    if isinstance(x, Poly):
        return _poly(x.num, 1), x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"series coefficients are ints, Fractions or Polys of them, not {x!r}")


def _value(x, den: int):
    """The reduced coefficient num/den: a Fraction, or a Poly for an integer Poly."""
    if type(x) is Poly:
        return _poly(x.num, den)
    return Fraction(x, den)


class PowerSeries:
    """Truncated power series, exact through the stated order.

    Coefficient k of x^k, k = 0..order, is num[k] / den: the numerators are
    integers, or integer `Poly`s (of den 1) when the series lives over a
    polynomial coefficient ring (bivariate truncations), over one positive den that
    shares no factor with all of them. Arithmetic runs on the numerators and
    never rounds. `coeffs` is the reduced view, Fractions or Polys of them,
    built once.
    """

    __slots__ = ("order", "num", "den", "_coeffs")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cleared = [_clear(c) for c in list(coeffs)[:order + 1]]
        den = lcm(*(d for _, d in cleared))
        num = [n * (den // d) for n, d in cleared]
        num += [num[0] * 0 if num else 0] * (order + 1 - len(num))
        self._set(num, den, order)

    def _set(self, num, den: int, order: int) -> None:
        self.order = order
        self.num = tuple(num)
        self.den = den
        self._coeffs = None

    @classmethod
    def _of(cls, num, den: int, order: int) -> "PowerSeries":
        """The series sum num[k]/den x^k, den > 0, with the content that den
        shares with every numerator divided out."""
        g = den
        for x in num:
            if g == 1:
                break
            g = gcd(g, *x.num) if type(x) is Poly else gcd(g, x)
        if g != 1:
            num = [_poly([v // g for v in x.num], 1) if type(x) is Poly else x // g
                   for x in num]
            den //= g
        out = cls.__new__(cls)
        out._set(num, den, order)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, order: int) -> "PowerSeries":
        return cls([c], order)

    @classmethod
    def geometric(cls, order: int) -> "PowerSeries":
        """1/(1-x) = sum x^n."""
        return cls([1] * (order + 1), order)

    @classmethod
    def neg_log1m(cls, order: int) -> "PowerSeries":
        """-log(1-x) = sum x^n / n."""
        return cls([0] + [Fraction(1, n) for n in range(1, order + 1)], order)

    # -- helpers -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients num[k]/den reduced, as Fractions or Polys."""
        if self._coeffs is None:
            self._coeffs = tuple(_value(x, self.den) for x in self.num)
        return self._coeffs

    def _zero_elem(self):
        return self.coeffs[0] * 0

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k <= self.order else self._zero_elem()

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("PowerSeries", self.order, self.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.constant(other, self.order)
        n = min(self.order, other.order)
        den = lcm(self.den, other.den)
        return PowerSeries._of(_add_coeffs(_scaled(self.num[:n + 1], den // self.den),
                                           _scaled(other.num[:n + 1], den // other.den)), den, n)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries._of([-x for x in self.num], self.den, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            c, d = _clear(other)
            return PowerSeries._of([x * c for x in self.num], self.den * d, self.order)
        n = min(self.order, other.order)
        return PowerSeries._of(_mul_coeffs(self.num, other.num, n, self.num[0] * 0),
                               self.den * other.den, n)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a constant term of nonzero
        scalar value num[0] = c. With e_k from `_inverse_numerators` on the
        numerators, coefficient k is den e_k / c^(k+1), held as
        den e_k c^(order-k) over c^(order+1) with the sign of c^(order+1)
        moved to the numerators, so that den stays positive."""
        c = self.num[0]
        if type(c) is Poly:
            if len(c.num) > 1:
                raise ZeroDivisionError("series inversion needs a constant leading coefficient")
            c = c.num[0]
        if c == 0:
            raise ZeroDivisionError("inversion requires a nonzero constant term")
        e = _inverse_numerators(self.num, c)
        den = c ** (self.order + 1)
        scale = self.den if den > 0 else -self.den
        pows = [scale]  # scale c^j, j = 0..order
        for _ in range(self.order):
            pows.append(pows[-1] * c)
        return PowerSeries._of([x * pows[self.order - k] for k, x in enumerate(e)],
                               abs(den), self.order)

    def derivative(self) -> "PowerSeries":
        """Exact through one order lower than self."""
        if self.order == 0:
            return PowerSeries._of([self.num[0] * 0], 1, 0)
        return PowerSeries._of([k * self.num[k] for k in range(1, self.order + 1)],
                               self.den, self.order - 1)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x^k. Negative k divides by x^k and requires the low
        coefficients to vanish."""
        if k >= 0:
            return PowerSeries._of([self.num[0] * 0] * k + list(self.num), self.den, self.order + k)
        drop = -k
        for j in range(min(drop, self.order + 1)):
            if self.num[j]:
                raise ValueError(f"cannot divide by x^{drop}: coefficient {j} is nonzero")
        return PowerSeries._of(self.num[drop:], self.den, self.order - drop)

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[: min(6, len(self.coeffs))])
        tail = ", ..." if self.order > 5 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"
