"""Double-precision filter for the element test, with derived error bounds.

The element test asks whether q_k = |(v_k+1)(1+1/v_{k+1})|^2 >= 16, where
v_j = r_j/(j+s) and r_j = P_j/Q_j > 0 comes from an integer row. For
s = sigma + i t and j in [k_lo, k_hi + 1], with x_j = j + sigma and
d_j = x_j^2 + t^2,

    A_j = (1 + r_j x_j / d_j)^2 + (r_j t / d_j)^2  = |v_j + 1|^2
    B_j = (1 + x_j / r_j)^2 + (t / r_j)^2          = |1 + 1/v_j|^2

and q_k = A_k B_{k+1}. For sigma >= 0 every term is positive, so nothing
cancels, x_j >= 1 and A_j, B_j >= 1.

The bound. In the standard model each rounding multiplies a value by a
factor in [1-u, 1/(1-u)], u = 2^-53, an interval closed under products and
inverses, and a sum of positive terms keeps the worst factor of its terms.
Counting factors (one each for the roundings of sigma, t and r_j; per
product or quotient the operands' counts plus one; per sum of positive
terms their maximum plus one): x 2, t^2 3, d 6, 1 + r x/d 12, r t/d 10,
A 26, 1 + x/r 5, t/r 3, B 12, and q 26 + 12 + 1 = 39. A t-term (or r x/d,
x/r) that underflows carries an absolute error below 2^-1073 into a sum
that is at least 1, a relative error that beta = 2^-1000 covers for every
such sum in q. Hence q_hat/q lies in [L, 1/L] with L >= 1 - 39u - beta, and
|q_hat - q| <= FILTER_REL * q_hat. Overflow shows as an infinite d (checked
once per point, as d grows with j) or q_hat (checked per k); subnormal or
non-finite inputs are not filtered at all. (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., sections 2.2-3.1.)

The integers behind each verdict, argmin and margin stay in
`region_analysis`; this module only says when doubles suffice, where an
exact value can lie, and how far a reported float margin can lie from its
exact value. No float here orders anything.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import InternalConsistencyError

U = 2.0 ** -53  # unit roundoff of round-to-nearest doubles


def _float_up(x: Fraction) -> float:
    """The least double >= x, for x inside the double range."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def _float_down(x: Fraction) -> float:
    """The greatest double <= x, for x inside the double range."""
    f = float(x)
    return f if f <= x else math.nextafter(f, -math.inf)


def _zero_or_normal(v: float) -> bool:
    return v == 0 or sys.float_info.min <= abs(v) < math.inf


_LOSS = Fraction(39, 2 ** 53) + Fraction(1, 2 ** 1000)  # 39u + beta
FILTER_REL = _float_up(_LOSS / (1 - _LOSS))
PASS_AT = _float_up(16 / (1 - _LOSS))  # q_hat >= this proves q >= 16
FAIL_BELOW = _float_down(16 * (1 - _LOSS))  # q_hat < this proves q < 16
# q_hat * LOW_END <= q_hat (1 - FILTER_REL) and q_hat * HIGH_END >=
# q_hat (1 + FILTER_REL) hold before the product rounds
LOW_END = _float_down(1 - Fraction(FILTER_REL))
HIGH_END = _float_up(1 + Fraction(FILTER_REL))


def normal_ratio(p: int, q: int) -> float:
    """p/q correctly rounded, or NaN when that is not a normal double."""
    try:
        r = p / q
    except OverflowError:
        return math.nan
    return r if sys.float_info.min <= r < math.inf else math.nan


def filter_point(sigma: Fraction, t: Fraction, j_max: int) -> tuple[float, float] | None:
    """(sigma, |t|) as doubles where the filter models s = sigma + i t at
    every j <= j_max, else None: sigma >= 0, both zero or normal doubles,
    and (j_max + sigma)^2 + t^2 finite in doubles."""
    try:
        s, tt = float(sigma), float(abs(t))
    except OverflowError:
        return None
    x_top = j_max + s
    if sigma < 0 or not (_zero_or_normal(s) and _zero_or_normal(tt)) \
            or not math.isfinite(x_top * x_top + tt * tt):
        return None
    return s, tt


def filter_levels(r: list[float], point: tuple[float, float],
                  k_lo: int, k_hi: int) -> list[float]:
    """q_hat_k for k in [k_lo, k_hi], from r[k_lo .. k_hi + 1], at a point
    from `filter_point` with j_max >= k_hi + 1. Each q_hat_k depends on its
    own level only, so a split range gives the same values.

    Raises InternalConsistencyError when r ends before k_hi + 1: a shorter
    list would silently drop the last levels, and a level never filtered
    would never be tested."""
    if len(r) < k_hi + 2:
        raise InternalConsistencyError(
            f"filter_levels reads r[{k_hi + 1}], but r has {len(r)} entries")
    s, tt = point
    t2 = tt * tt
    A, B = [], []
    for rj, j in zip(r[k_lo:k_hi + 2], range(k_lo, k_hi + 2)):
        x = j + s
        d = x * x + t2
        a = 1.0 + rj * x / d
        b = rj * tt / d
        c = 1.0 + x / rj
        e = tt / rj
        A.append(a * a + b * b)
        B.append(c * c + e * e)
    return [a * b for a, b in zip(A, B[1:])]


def filter_values(r: list[float], sigma: Fraction, t: Fraction,
                  k_lo: int, k_hi: int) -> list[float]:
    """q_hat_k for k in [k_lo, k_hi], from r[k_lo .. k_hi + 1]:
    |q_hat_k - q_k| <= FILTER_REL * q_hat_k wherever q_hat_k is finite.
    NaN marks a k the filter cannot judge; that is every k when sigma < 0 or
    when sigma or t is not zero or a normal double."""
    point = filter_point(sigma, t, k_hi + 1)
    if point is None:
        return [math.nan] * (k_hi - k_lo + 1)
    return filter_levels(r, point, k_lo, k_hi)


def filter_finite(point: tuple[float, float], j_max: int, r_lo: float, r_hi: float) -> bool:
    """True when `filter_levels` at `point` (from `filter_point` with this
    j_max) is finite at every k whose r_k and r_{k+1} are normal doubles in
    [r_lo, r_hi].

    Each rounded operation is monotone in its operands, non-decreasing in
    all of them but a divisor. x_j = j + sigma <= x_top = j_max + sigma and
    d_j >= x_j^2 >= 1, so each of a, b, c, e at such a level is at most
    the same expression with x_top, t, d = 1 and r_hi (r_lo as a divisor),
    and so are A, B and q_hat: all finite where that bound is."""
    s, tt = point
    x_top = j_max + s
    a = 1.0 + r_hi * x_top
    b = r_hi * tt
    c = 1.0 + x_top / r_lo
    e = tt / r_lo
    return math.isfinite((a * a + b * b) * (c * c + e * e))


def int_ratio_float(a: int, b: int) -> float:
    """a/b as a float for positive ints of any size (reporting only)."""
    sh = max(a.bit_length(), b.bit_length()) - 53
    if sh > 0:
        a >>= sh
        b >>= sh
    return a / b if b else math.inf


def fraction_sqrt_float(q: Fraction) -> float:
    """sqrt(q) as a float for a nonnegative Fraction of any size; inf where
    it exceeds the double range. For q >= 1 it lies within
    SQRT_REL * sqrt(q) of sqrt(q)."""
    n, d = q.numerator, q.denominator
    if n == 0:
        return 0.0
    e = n.bit_length() - d.bit_length()
    e -= e % 2
    r = int_ratio_float(n, d << e) if e >= 0 else int_ratio_float(n << (-e), d)
    try:
        return math.ldexp(math.sqrt(r), e // 2)
    except OverflowError:
        return math.inf


def int_ratio_rel_error(kept: float) -> float:
    """Bound on |int_ratio_float(a, b) - a/b| / (a/b) for positive ints
    whose smaller operand keeps an integer >= kept after the shift (kept is
    inf when nothing is shifted out).

    Truncating both operands to integers A', B' moves the ratio by a factor
    within 1/min(A', B') of 1, and the division rounds once more."""
    return U + (1.0 + U) / kept if kept > 0 else math.inf


# fraction_sqrt_float divides operands whose lengths differ by at most one
# bit, so the smaller keeps an integer >= 2^51 after int_ratio_float's shift;
# the square root then rounds once, and scaling by 2^(e/2) is exact for q >= 1.
_R = Fraction(U) + (1 + Fraction(U)) / 2 ** 51  # int_ratio_rel_error(2^51), exactly
SQRT_REL = _float_up((1 + _R) * (1 + Fraction(U)) - 1)


def margin_error_bound(q: Fraction, num: int, den: int, margin: float) -> float:
    """Bound on |margin - (sqrt(q) - 4)| for q = num/den and margin =
    sqrt(ratio) - 4 in doubles, ratio = int_ratio_float(num, den): the
    error of ratio from the bits int_ratio_float keeps, then the roundings
    of the square root and of the subtraction.

    Where ratio is inf (q >= 2^52), margin = fraction_sqrt_float(q) - 4
    instead: that root r lies within SQRT_REL sqrt(q) of sqrt(q), and
    sqrt(q) <= r / (1 - SQRT_REL) with r <= (|margin| + 4)(1 + U); the
    factor 1 + 2^-40 covers those quotients and this arithmetic's own
    roundings."""
    ratio = int_ratio_float(num, den)
    if math.isinf(ratio):
        return ((abs(margin) + 4.0) * SQRT_REL + U * abs(margin)) * (1 + 2.0 ** -40)
    q_up = _float_up(q)  # q < 2^53: the shifted den is >= 1
    root = math.sqrt(ratio)
    if ratio == 0:  # the shifted num is 0
        spread = math.sqrt(q_up)
    else:
        sh = max(num.bit_length(), den.bit_length()) - 53
        kept = min(num, den) >> sh if sh > 0 else math.inf
        delta = q_up * int_ratio_rel_error(kept)  # bound on |ratio - q|
        spread = min(delta / root, math.sqrt(delta))  # |sqrt(ratio) - sqrt(q)|
    return (spread + U * (root + abs(margin))) * (1 + 2.0 ** -40)
