"""Reference values computed without zetacf.

The benchmark checks the program's outputs against these. Each routine
recomputes a quantity by its own arithmetic (integer rows, complex rationals
as pairs of Fractions, mpmath's Bernoulli numbers), so a defect in a zetacf
layer cannot hide by also corrupting the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import mpmath as mp

# CPython refuses decimal int<->str conversions longer than this many digits
# (sys.get_int_max_str_digits()); the limit is left as it is, so long
# numerals are parsed in chunks below it.
_CHUNK_DIGITS = 4000


def parse_big_int(text: str) -> int:
    """int(text) for decimal numerals of any length, in chunks."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    acc = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i:i + _CHUNK_DIGITS]
        acc = acc * 10 ** len(chunk) + int(chunk)
    return sign * acc


def parse_fraction(text: str) -> Fraction:
    """A report's "num/den" value as an exact Fraction."""
    num, _, den = text.partition("/")
    return Fraction(parse_big_int(num), parse_big_int(den) if den else 1)


# ---------------------------------------------------------------------------
# complex rationals as (re, im) pairs
# ---------------------------------------------------------------------------


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def abs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


# ---------------------------------------------------------------------------
# coefficient rows, Bernoulli numbers, partial fractions
# ---------------------------------------------------------------------------


def product_row(m: int) -> list[int]:
    """S with (1-t)(2-t)...(m-t) = sum_j (-1)^j S[j] t^j, so a_{m,j} = S[j]/m!."""
    row = [1]
    for i in range(1, m + 1):
        # multiply the unsigned row by (i + t)
        nxt = [0] * (len(row) + 1)
        for j, c in enumerate(row):
            nxt[j] += i * c
            nxt[j + 1] += c
        row = nxt
    return row


def bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} (B_1 = -1/2) from mpmath's exact bernfrac."""
    return [Fraction(*(int(x) for x in mp.bernfrac(n))) for n in range(n_max + 1)]


def normalized_cf_targets(m: int, s) -> tuple[tuple, tuple]:
    """1/(m s(s-1) G_m(s)) - 1 and 1/((m+1) s F_m(s)) - 1 at a complex
    rational s, exactly: the values the G and F continued fractions equal."""
    S = product_row(m)
    fm = factorial(m)
    B = bernoulli(m)
    g = (Fraction(0), Fraction(0))
    f = (Fraction(0), Fraction(0))
    for j in range(m + 1):
        a = Fraction(S[j], fm)
        inv = cdiv((Fraction(1), Fraction(0)), (s[0] + j - 1, s[1]))
        rg = a if j % 2 == 0 else -a
        g = (g[0] + rg * inv[0], g[1] + rg * inv[1])
        rf = a * B[j]
        f = (f[0] + rf * inv[0], f[1] + rf * inv[1])
    one = (Fraction(1), Fraction(0))
    s_sm1 = cmul(s, (s[0] - 1, s[1]))
    tg = cdiv(one, cmul((m * s_sm1[0], m * s_sm1[1]), g))
    tf = cdiv(one, cmul(((m + 1) * s[0], (m + 1) * s[1]), f))
    return (tg[0] - 1, tg[1]), (tf[0] - 1, tf[1])


# ---------------------------------------------------------------------------
# the element test at one k
# ---------------------------------------------------------------------------


def element_margin_sq(a: tuple[Fraction, ...], s, k: int) -> Fraction:
    """|E_k|^2 - 16 with E_k = (v_k + 1)(1 + 1/v_{k+1}) and
    v_k = (k+1) a_k / ((k+s) a_{k-1}), by complex rational arithmetic."""
    def v(j):
        r = (j + 1) * a[j] / a[j - 1]
        return cdiv((r, Fraction(0)), (s[0] + j, s[1]))

    vk, vk1 = v(k), v(k + 1)
    inv = cdiv((Fraction(1), Fraction(0)), vk1)
    e = cmul((vk[0] + 1, vk[1]), (1 + inv[0], inv[1]))
    return abs2(e) - 16


# ---------------------------------------------------------------------------
# the sinh-kernel coefficients, fraction-free
# ---------------------------------------------------------------------------


def sinh_coefficients(r_squared: Fraction, n_terms: int) -> list[Fraction]:
    """z-coefficients of 2 / H_N(1-z), H_N(u) = sum_{i<N} r^{2i} u^i/(2i+2)!.

    H_N(1-z) = B(z)/E with integer B_k over E = (2N)! q^(N-1) (r^2 = p/q);
    the inverse of B is C_k / B_0^(k+1) with the integer recurrence
    C_k = -sum_{j=1..k} B_j C_{k-j} B_0^(j-1), reduced only at the end.
    """
    p, q = r_squared.numerator, r_squared.denominator
    n = n_terms
    D = factorial(2 * n)
    A = [p ** i * q ** (n - 1 - i) * (D // factorial(2 * i + 2)) for i in range(n)]
    E = D * q ** (n - 1)
    Bz = [(-1) ** k * sum(A[i] * comb(i, k) for i in range(k, n)) for k in range(n)]
    b0 = Bz[0]
    C = [1]
    b0_pows = [1]
    for _ in range(n):
        b0_pows.append(b0_pows[-1] * b0)
    for k in range(1, n):
        C.append(-sum(Bz[j] * C[k - j] * b0_pows[j - 1] for j in range(1, k + 1)))
    return [Fraction(2 * E * C[k], b0_pows[k + 1]) for k in range(n)]
