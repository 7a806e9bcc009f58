"""Exact dense polynomials and truncated power series over the rationals.

Everything in this module is exact: `Poly` coefficients are
`fractions.Fraction`s, and a `PowerSeries` holds integer numerators (integer
z-rows for bivariate work) over one positive denominator, with its
coefficients viewed as Fractions or Polys. No floating point enters any
operation here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .qcomplex import QComplex

__all__ = ["Poly", "PowerSeries"]


def _as_coeff(x):
    """Coerce ints to Fraction; pass Fractions and Polys through."""
    if isinstance(x, int):
        return Fraction(x)
    return x


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


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = [_as_coeff(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

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
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree == -1

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(_add_coeffs(self.coeffs, (other,)))
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_add_coeffs(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        n = len(self.coeffs) + len(other.coeffs) - 2
        return Poly(_mul_coeffs(self.coeffs, other.coeffs, n, Fraction(0)))

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for any ring value (Fraction, complex, ...).

        At a QComplex the value is computed in integers by `gaussian_horner`,
        and each part is reduced once at the end."""
        if isinstance(x, QComplex):
            re, im, den = self.gaussian_horner(*x.gaussian())
            return QComplex(Fraction(re, den), Fraction(im, den))
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def gaussian_horner(self, x: int, y: int, d: int) -> tuple[int, int, int]:
        """The value at (x + iy)/d, d > 0, as integers (re, im, den) with
        value (re + i im)/den, unreduced.

        The coefficients are cleared to integers N_k over L = lcm of their
        denominators, and `_gaussian_horner` runs on them, so den = L d^n."""
        L = lcm(*(c.denominator for c in self.coeffs))
        re, im, den = _gaussian_horner([c.numerator * (L // c.denominator) for c in self.coeffs],
                                       x, y, d)
        return re, im, L * den

    # -- normalization ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """Split into (scalar, primitive) with integer coefficients and a
        positive leading coefficient, so self == scalar * primitive."""
        if self.is_zero():
            return Fraction(0), Poly()
        cont = self.content()
        if self.coeffs[-1] < 0:
            cont = -cont
        return cont, Poly([c / cont for c in self.coeffs])

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


class _ZRow(tuple):
    """A z-polynomial with integer coefficients, ascending and without
    trailing zeros (zero is the empty row): one numerator of a bivariate
    `PowerSeries`. Only the ring operations the series need."""

    __slots__ = ()

    @classmethod
    def stripped(cls, xs) -> "_ZRow":
        xs = list(xs)
        while xs and not xs[-1]:
            xs.pop()
        return cls(xs)

    def __add__(self, other):
        return _ZRow.stripped(_add_coeffs(self, (other,) if isinstance(other, int) else other))

    __radd__ = __add__

    def __neg__(self):
        return _ZRow(-x for x in self)

    def __mul__(self, other):
        if isinstance(other, int):
            return _ZRow(x * other for x in self) if other else _ZRow()
        if not self or not other:
            return _ZRow()
        return _ZRow(_mul_coeffs(self, other, len(self) + len(other) - 2, 0))

    __rmul__ = __mul__

    def __floordiv__(self, k: int):
        return _ZRow(x // k for x in self)


def _clear(x) -> tuple:
    """(numerator, denominator) of a coefficient: an int over a positive int
    for an int or Fraction, a `_ZRow` over the lcm of the denominators for a
    Poly."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, Poly) and all(isinstance(c, Fraction) for c in x.coeffs):
        L = lcm(*(c.denominator for c in x.coeffs))
        return _ZRow.stripped(c.numerator * (L // c.denominator) for c in x.coeffs), L
    raise TypeError(f"series coefficients are ints, Fractions or Polys of them, not {x!r}")


def _value(x, den: int):
    """The reduced coefficient num/den: a Fraction, or a Poly for a `_ZRow`."""
    if type(x) is _ZRow:
        return Poly([Fraction(v, den) for v in x])
    return Fraction(x, den)


def _scaled(num, k: int):
    return num if k == 1 else [x * k for x in num]


class PowerSeries:
    """Truncated power series, exact through the stated order.

    Coefficient k of x^k, k = 0..order, is num[k] / den: the numerators are
    integers, or `_ZRow`s of integers when the series lives over a polynomial
    coefficient ring (bivariate truncations), over one positive den that
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
            g = gcd(g, *x) if type(x) is _ZRow else gcd(g, x)
        if g != 1:
            num, den = [x // g for x in num], den // g
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
        if type(c) is _ZRow:
            if len(c) > 1:
                raise ZeroDivisionError("series inversion needs a constant leading coefficient")
            c = c[0] if c else 0
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
