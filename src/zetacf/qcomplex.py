"""Exact complex numbers with rational real and imaginary parts.

Grid scans and boundary walks stay on rational points so that every modulus
comparison reduces to an exact comparison of squared moduli. QComplex is the
value type for those paths; anything dyadic (Python floats, mpmath mpf) can
be converted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import mpmath as mp

__all__ = ["QComplex"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, mp.mpf)) and not mp.isfinite(x):
        raise ValueError(f"{x!r} is not a finite rational")
    if isinstance(x, (int, float)):
        return Fraction(x)  # exact: binary floats are dyadic rationals
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    raise TypeError(f"cannot represent {x!r} exactly as a rational")


@dataclass(frozen=True)
class QComplex:
    re: Fraction
    im: Fraction

    @classmethod
    def from_value(cls, z) -> "QComplex":
        """Exact conversion from QComplex, rational, dyadic float, complex,
        or an mpmath mpf or mpc."""
        if isinstance(z, QComplex):
            return z
        if isinstance(z, (complex, mp.mpc)):
            return cls(_frac(z.real), _frac(z.imag))
        return cls(_frac(z), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QComplex):
            return other
        if isinstance(other, (int, Fraction, float)):
            return QComplex(_frac(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return QComplex(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- queries -------------------------------------------------------------

    def gaussian(self) -> tuple[int, int, int]:
        """(x, y, d) with self == (x + iy)/d and d the lcm of the two
        denominators, so integer arithmetic can run on x + iy."""
        d = lcm(self.re.denominator, self.im.denominator)
        return (self.re.numerator * (d // self.re.denominator),
                self.im.numerator * (d // self.im.denominator), d)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return f"({self.re} + {self.im}i)"
