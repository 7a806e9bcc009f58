"""Exact dense polynomials and truncated power series over the rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`
(or, for bivariate work, `Poly` values used as coefficients of an outer
series). No floating point enters any operation here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["Poly", "PowerSeries", "TruncationOrderError"]


class TruncationOrderError(ValueError):
    """Raised when a requested truncation order cannot give exact results."""


def _as_coeff(x):
    """Coerce ints to Fraction; pass Fractions and Polys through."""
    if isinstance(x, int):
        return Fraction(x)
    return x


def _invert_unit(x):
    """Multiplicative inverse of a series constant term.

    Supports Fraction and degree-0 Poly. Anything else has no unit inverse
    we can take exactly, so refuse.
    """
    if isinstance(x, Fraction):
        if x == 0:
            raise ZeroDivisionError("inversion requires a nonzero constant term")
        return 1 / x
    if isinstance(x, Poly):
        if x.degree > 0 or x.coeffs[0] == 0:
            raise ZeroDivisionError(
                "series inversion needs an invertible (nonzero constant) leading coefficient"
            )
        return Poly([1 / x.coeffs[0]])
    raise TypeError(f"cannot invert coefficient of type {type(x).__name__}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
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
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return Poly(cs)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return Poly(cs)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -_as_coeff(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return NotImplemented

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for any ring value (Fraction, complex, ...)."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly()
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

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


class PowerSeries:
    """Truncated power series, exact through the stated order.

    `coeffs[k]` is the coefficient of x^k for k = 0..order. Coefficients are
    Fractions, or Polys when the series lives over a polynomial coefficient
    ring (bivariate truncations). Arithmetic never rounds: results are exact
    through the common truncation order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        cs = [_as_coeff(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(cs) < order + 1:
            zero = cs[0] * 0 if cs else Fraction(0)
            cs = cs + [zero] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs[: order + 1])

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, order: int) -> "PowerSeries":
        z = _as_coeff(c) * 0
        return cls([_as_coeff(c)] + [z] * order, order)

    @classmethod
    def geometric(cls, order: int) -> "PowerSeries":
        """1/(1-x) = sum x^n."""
        return cls([Fraction(1)] * (order + 1), order)

    @classmethod
    def neg_log1m(cls, order: int) -> "PowerSeries":
        """-log(1-x) = sum x^n / n, obtained by integrating 1/(1-x)."""
        return cls.geometric(order - 1).integral() if order >= 1 else cls.constant(0, 0)

    # -- helpers -------------------------------------------------------------

    def _zero_elem(self):
        return self.coeffs[0] * 0

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k <= self.order else self._zero_elem()

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise TruncationOrderError(
                f"cannot extend truncation from {self.order} to {order} exactly"
            )
        return PowerSeries(self.coeffs[: order + 1], order)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(("PowerSeries", self.order, self.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def _common_order(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = self._common_order(other)
            return PowerSeries(
                [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
            )
        cs = list(self.coeffs)
        cs[0] = cs[0] + _as_coeff(other)
        return PowerSeries(cs, self.order)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self + (-_as_coeff(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            c = _as_coeff(other)
            return PowerSeries([x * c for x in self.coeffs], self.order)
        n = self._common_order(other)
        zero = self._zero_elem()
        out = [zero] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        inv0 = _invert_unit(self.coeffs[0])
        n = self.order
        zero = self._zero_elem()
        out = [zero] * (n + 1)
        out[0] = inv0
        for k in range(1, n + 1):
            acc = zero
            for j in range(1, k + 1):
                a = self.coeffs[j]
                if a:
                    acc = acc + a * out[k - j]
            out[k] = -(acc * inv0)
        return PowerSeries(out, n)

    def derivative(self) -> "PowerSeries":
        """Exact through one order lower than self."""
        if self.order == 0:
            return PowerSeries([self._zero_elem()], 0)
        return PowerSeries(
            [k * self.coeffs[k] for k in range(1, self.order + 1)], self.order - 1
        )

    def integral(self, const=0) -> "PowerSeries":
        cs = [_as_coeff(const)] + [
            self.coeffs[k] * Fraction(1, k + 1) for k in range(self.order + 1)
        ]
        return PowerSeries(cs, self.order + 1)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x^k. Negative k divides by x^k and requires the low
        coefficients to vanish."""
        if k >= 0:
            zero = self._zero_elem()
            return PowerSeries([zero] * k + list(self.coeffs), self.order + k)
        drop = -k
        for j in range(min(drop, self.order + 1)):
            if self.coeffs[j]:
                raise ValueError(f"cannot divide by x^{drop}: coefficient {j} is nonzero")
        return PowerSeries(list(self.coeffs[drop:]), self.order - drop)

    def compose_affine(self, const, slope) -> "PowerSeries":
        """Substitute x <- const + slope * t into the truncation polynomial.

        The substitution treats self as the polynomial sum_{k<=order} c_k x^k,
        so the result is exact for polynomial inputs (the only use this
        package makes of it). Returned series has the same order.
        """
        n = self.order
        a = _as_coeff(const)
        b = _as_coeff(slope)
        # Horner in (a + b t):  res = c_n; res = res*(a+bt) + c_k; ...
        res = [self.coeffs[n]]
        for k in range(n - 1, -1, -1):
            nxt = [self.coeffs[k] * 0] * (min(len(res) + 1, n + 1))
            for i, c in enumerate(res):
                if not c:
                    continue
                nxt[i] = nxt[i] + c * a
                if i + 1 <= n:
                    nxt[i + 1] = nxt[i + 1] + c * b
            nxt[0] = nxt[0] + self.coeffs[k]
            res = nxt
        return PowerSeries(res, n)

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[: min(6, len(self.coeffs))])
        tail = ", ..." if self.order > 5 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"
