"""The rational approximants, their factorial series and continued fractions.

Two families are built here as exact objects:

  G_m(s) = sum_{j=0}^m (-1)^j a_{m,j} / (s + j - 1)
  F_m(s) = sum_{j=0}^m a_{m,j} B_j / (s + j - 1)

with a_{m,j} the coefficients of (1-t)(1-t/2)...(1-t/m) and B_j the
Bernoulli numbers (B_1 = -1/2). Both are stored as partial fractions with
integer poles and exact rational residues.

The normalized combinations m s(s-1) G_m(s) and (m+1) s F_m(s) expand into
finite factorial series whose terms divide, respectively, by
(s+1)(s+2)...(s+j) and by (s-1)(s+1)...(s+2j-3). Euler's continued-fraction
identity converts each series of partial products into a continued fraction
for 1/(normalized function) - 1; the levels come out linear in s with exact
rational coefficients. Each construction is verified against its defining
identity at rational sample points before being returned.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm

import mpmath as mp
from mpmath.libmp import (
    from_int,
    from_rational,
    fzero,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_is_nonzero,
    mpc_mpf_div,
    mpc_mul,
    mpc_sub_mpf,
    round_nearest,
)

from .coeff_core import bernoulli_table, c_direct, coeff_table
from .errors import InternalConsistencyError, ZeroDenominatorError
from .qcomplex import QComplex
from .series import Poly, _gaussian_horner, _poly

__all__ = [
    "PartialFraction",
    "PoleIndicator",
    "ComplexValue",
    "FactorialExpansion",
    "ContinuedFraction",
    "CFLevel",
    "CFEvaluation",
    "build_g",
    "build_f",
    "eval_pf",
    "eval_pf_precise",
    "g_expansion",
    "f_expansion",
    "expansion_value",
    "expansion_identity_holds",
    "euler_cf",
    "eval_cf",
    "numerator_poly",
    "collapsed",
]

_CHECK_POINTS = (Fraction(7, 3), Fraction(10, 3), Fraction(17, 5))

# The rounding of mpmath's arithmetic operators, which its context fixes; the
# mpmath paths below call the libmp functions those operators call, on raw
# values, so the bits are the same.
_RND = round_nearest


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialFraction:
    """sum of residue / (s - pole) terms, poles strictly decreasing."""

    terms: tuple[tuple[int, Fraction], ...]
    kind: str = ""
    m: int = 0
    # working precision -> the residues rounded at it (`_residues_at`)
    _rounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        poles = [p for p, _ in self.terms]
        if any(a <= b for a, b in zip(poles, poles[1:])):
            raise ValueError("poles must be strictly decreasing")

    @property
    def poles(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.terms)

    def _residues_at(self, prec: int) -> tuple:
        """The residues as raw mpf values, each rounded by
        `mp.mpf(r.numerator) / r.denominator` at `prec` bits, once per
        precision."""
        rounded = self._rounded.get(prec)
        if rounded is None:
            with mp.workprec(prec):
                rounded = tuple((mp.mpf(r.numerator) / r.denominator)._mpf_ for _, r in self.terms)
            self._rounded[prec] = rounded
        return rounded


@dataclass(frozen=True)
class PoleIndicator:
    """Returned when an evaluation point coincides with a pole. A normal
    return value, not an error: scans may legitimately land on poles."""

    pole: int


@dataclass(frozen=True)
class ComplexValue:
    """A complex evaluation at a recorded working precision.

    `cross_width` is the observed disagreement against an independent
    re-evaluation at 128 bits, making precision loss visible to callers.
    """

    real: mp.mpf
    imaginary: mp.mpf
    precision: int
    cross_width: float | None = None

    def __post_init__(self):
        if self.precision < 53:
            raise ValueError("precision must be at least 53 bits")

    @property
    def value(self) -> mp.mpc:
        # build at the recorded precision: mpc construction rounds at the
        # ambient working precision, which may be far lower
        with mp.workprec(self.precision):
            return mp.mpc(self.real, self.imaginary)


def build_g(m: int) -> PartialFraction:
    """G_m as an exact partial fraction: poles 1, 0, ..., 1-m with residues
    (-1)^j a_{m,j}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    table = coeff_table(m)
    terms = tuple(
        (1 - j, table.a[j] if j % 2 == 0 else -table.a[j]) for j in range(m + 1)
    )
    return PartialFraction(terms, kind="G", m=m)


def build_f(m: int) -> PartialFraction:
    """F_m as an exact partial fraction; poles whose residue a_{m,j} B_j
    vanishes (odd j >= 3) are omitted, so even poles <= -2 are absent."""
    if m < 1:
        raise ValueError("m must be >= 1")
    bern = bernoulli_table(m)
    table = coeff_table(m)
    terms = []
    for j in range(m + 1):
        r = table.a[j] * bern[j]
        if r != 0:
            terms.append((1 - j, r))
    return PartialFraction(tuple(terms), kind="F", m=m)


def eval_pf(pf: PartialFraction, s):
    """Exact evaluation at a rational or exact-complex point.

    Returns a Fraction (rational s), a QComplex (exact complex s), or a
    PoleIndicator when s hits a pole exactly.
    """
    if isinstance(s, int):
        s = Fraction(s)
    if isinstance(s, Fraction):
        for p, _ in pf.terms:
            if s == p:
                return PoleIndicator(p)
        return sum((r / (s - p) for p, r in pf.terms), Fraction(0))
    if isinstance(s, QComplex):
        if s.im == 0:
            return eval_pf(pf, s.re)
        acc = QComplex(Fraction(0), Fraction(0))
        for p, r in pf.terms:
            acc = acc + QComplex(r, Fraction(0)) / (s - p)
        return acc
    raise TypeError("eval_pf takes Fraction or QComplex; use eval_pf_precise for floats")


def _to_mpc(s) -> mp.mpc:
    if isinstance(s, QComplex):
        return mp.mpc(mp.mpf(s.re.numerator) / s.re.denominator,
                      mp.mpf(s.im.numerator) / s.im.denominator)
    if isinstance(s, Fraction):
        return mp.mpc(mp.mpf(s.numerator) / s.denominator)
    return mp.mpc(s)


def _pf_value_at_prec(pf: PartialFraction, s, prec: int) -> mp.mpc:
    """sum of residue / (s - pole) at `prec` bits: the operations of mpc
    arithmetic on the rounded residues, on raw values. Raises ValueError
    when s is a pole, or rounds onto one at `prec` bits."""
    with mp.workprec(prec):
        z = _to_mpc(s)
    pole = _pole_at(pf, z)
    if pole is not None:
        family = f"{pf.kind}_{pf.m}" if pf.kind else "the partial fraction"
        rounded = "" if _pole_at(pf, s) == pole else f" rounded to {prec} bits"
        raise ValueError(f"s = {s}{rounded} is the pole {pole} of {family}")
    z = z._mpc_
    acc = (fzero, fzero)
    for p, r in zip(pf.poles, pf._residues_at(prec)):
        acc = mpc_add(acc, mpc_mpf_div(r, mpc_sub_mpf(z, from_int(p), prec, _RND), prec, _RND),
                      prec, _RND)
    return mp.make_mpc(acc)


def _pole_at(pf: PartialFraction, s) -> int | None:
    """The pole that s equals exactly, compared as given (no rounding)."""
    re, im = (s.re, s.im) if isinstance(s, QComplex) else (s.real, s.imag)
    if im == 0:
        for p in pf.poles:
            if re == p:
                return p
    return None


def eval_pf_precise(pf: PartialFraction, s, precision: int = 256) -> ComplexValue:
    """Evaluate at complex s with `precision` working bits.

    The result is re-computed at 128 bits and the disagreement recorded, so
    precision loss is observable rather than assumed. Raises ValueError
    when s is a pole, or rounds onto one at either precision.
    """
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    v = _pf_value_at_prec(pf, s, precision + 10)
    width = float(abs(v - _pf_value_at_prec(pf, s, 128)))
    with mp.workprec(precision):
        return ComplexValue(+v.real, +v.imag, precision, width)


# ---------------------------------------------------------------------------
# factorial expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """What distinguishes the two factorial series: the shift sigma_j of the
    j-th denominator factor s + sigma_j, the weight w_j that scales the
    coefficients (T_j = w_j u_j), and the factor that turns the approximant
    into the series sum."""

    shift: Callable[[int], int]
    weight: Callable[[int], int]
    normalizer: Callable[[int, Fraction], Fraction]


_FAMILIES = {
    "G": _Family(shift=lambda j: j,
                 weight=lambda j: factorial(j + 1),
                 normalizer=lambda m, s: m * s * (s - 1)),
    "F": _Family(shift=lambda j: 2 * j - 3,
                 weight=lambda j: 2 ** (j - 1) * factorial(j - 1) if j else 1,
                 normalizer=lambda m, s: (m + 1) * s),
}


@dataclass(frozen=True)
class FactorialExpansion:
    """Finite factorial series for a normalized approximant.

    G form: m s(s-1) G_m(s)   = sum_j T_j / ((s+1)(s+2)...(s+j))
    F form: (m+1) s F_m(s)    = sum_j T_j / ((s-1)(s+1)...(s+2j-3))

    with T_j = (j+1)! a_{m-1,j} in the G form and T_0 = 1,
    T_j = 2^{j-1} (j-1)! c_{m,j} in the F form.
    """

    kind: str  # "G" or "F"
    m: int
    terms: tuple[Fraction, ...]

    @property
    def family(self) -> _Family:
        try:
            return _FAMILIES[self.kind]
        except KeyError:
            raise ValueError(f"unknown expansion kind {self.kind!r}") from None


def expansion_value(exp: FactorialExpansion, s: Fraction) -> Fraction:
    """Exact value of the factorial series at rational s (not at a pole)."""
    shift = exp.family.shift
    total = Fraction(0)
    denom = Fraction(1)
    for j, T in enumerate(exp.terms):
        if j > 0:
            denom *= s + shift(j)
        total += T / denom
    return total


def _normalized_value(exp: FactorialExpansion, s: Fraction, pf: PartialFraction) -> Fraction:
    g = eval_pf(pf, s)
    if isinstance(g, PoleIndicator):
        raise ValueError("identity check point hit a pole")
    return exp.family.normalizer(exp.m, s) * g


def expansion_identity_holds(exp: FactorialExpansion, pf: PartialFraction) -> bool:
    return all(
        expansion_value(exp, s) == _normalized_value(exp, s, pf)
        for s in _CHECK_POINTS
    )


def _expansion(kind: str, m: int, u, pf: PartialFraction) -> FactorialExpansion:
    """T_j = w_j u_j, verified exactly against the partial fraction."""
    weight = _FAMILIES[kind].weight
    exp = FactorialExpansion(kind, m, tuple(weight(j) * x for j, x in enumerate(u)))
    if not expansion_identity_holds(exp, pf):
        raise InternalConsistencyError(f"{kind} expansion identity failed for m={m}")
    return exp


def g_expansion(m: int) -> FactorialExpansion:
    """T_j = (j+1)! a_{m-1,j}, j = 0..m-1; the identity with m s(s-1) G_m(s)
    is verified exactly at three rational non-pole points on construction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _expansion("G", m, coeff_table(m - 1).a, build_g(m))


def f_expansion(m: int) -> FactorialExpansion:
    """T_0 = 1, T_j = 2^{j-1} (j-1)! c_{m,j}; identity with (m+1) s F_m(s)
    verified exactly at three rational non-pole points on construction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _expansion("F", m, c_direct(m).c, build_f(m))


# ---------------------------------------------------------------------------
# Euler continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFLevel:
    """One level: numerator and denominator are linear polynomials in s."""

    num: Poly
    den: Poly


@dataclass(frozen=True)
class ContinuedFraction:
    """value = num_1 / (den_1 + num_2 / (den_2 + ...)), numerator signs
    folded in so each level adds to the previous denominator."""

    kind: str
    m: int
    levels: tuple[CFLevel, ...]
    # working precision -> the levels' coefficients rounded at it (`_rounded_levels`)
    _rounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def depth(self) -> int:
        """Number of levels: one less than the number of expansion terms."""
        return len(self.levels)

    @cached_property
    def _integer_levels(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The levels as integer rows (num, den), ascending, by the
        equivalence transformation a_j -> c_{j-1} c_j a_j, b_j -> c_j b_j
        (Lorentzen & Waadeland, Continued Fractions with Applications, 1992,
        ch. 1) with c_0 = 1 and
        c_j = lcm(den b_j, den a_j / gcd(den a_j, c_{j-1})), den a level
        polynomial's `Poly.den` (the lcm of its coefficients' reduced
        denominators, since it is content-free). It keeps the value and every
        convergent, and multiplies the j-th tail denominator by c_j > 0, so
        a denominator vanishes at the same level."""
        rows = []
        c_prev = 1
        for lv in self.levels:
            a, b = lv.num, lv.den
            c = lcm(b.den, a.den // gcd(a.den, c_prev))
            a_scale = c_prev * c // a.den
            rows.append((tuple(x * a_scale for x in a.num), tuple(x * (c // b.den) for x in b.num)))
            c_prev = c
        return tuple(rows)

    def _rounded_levels(self, prec: int) -> tuple:
        """Per level (num, den), the coefficients as raw mpf values rounded
        by `from_rational` at `prec` bits, the rounding mpmath applies to a
        Fraction operand: it rounds the exact quotient, so num[k] over the
        Poly's den gives the bits of the reduced coefficient; once per
        precision."""
        rounded = self._rounded.get(prec)
        if rounded is None:
            rounded = self._rounded[prec] = tuple(
                tuple(tuple(from_rational(x, poly.den, prec) for x in poly.num)
                      for poly in (lv.num, lv.den))
                for lv in self.levels)
        return rounded


@dataclass(frozen=True)
class CFEvaluation:
    value: object
    levels_used: int
    cross_width: float | None = None


def euler_cf(exp: FactorialExpansion) -> ContinuedFraction:
    """Convert a factorial expansion into the continued fraction for
    1/(expansion sum) - 1 by Euler's identity on the term ratios.

    With partial quotients x_j = T_j / (T_{j-1} (s + sigma_j)), Euler's
    identity gives 1/S - 1 = -x_1/(1+x_1 - x_2/(1+x_2 - ...)); clearing
    denominators level by level (an equivalence transformation) produces
    levels linear in s. With u_j = T_j / w_j and rho_j = w_j / w_{j-1}:

        num_1 = -rho_1 u_1
        num_j = -rho_j u_{j-2} u_j (s + sigma_{j-1})      (j >= 2)
        den_j = rho_j u_j + u_{j-1} (s + sigma_j)

    One construction serves both families (Wall, Analytic Theory of
    Continued Fractions, 1948, ch. 1): sigma_j = j, w_j = (j+1)! (so u_j =
    a_{m-1,j}) for G, and sigma_j = 2j-3, w_j = 2^{j-1} (j-1)!, w_0 = 1
    (so u_j = c_{m,j}) for F.

    The construction is verified exactly against 1/S - 1 at a rational point.
    """
    T = exp.terms
    if len(T) < 2:
        raise ValueError("expansion must have at least 2 terms to form a continued fraction")
    family = exp.family
    w = [family.weight(j) for j in range(len(T))]
    u = [t / wj for t, wj in zip(T, w)]
    levels = []
    for j in range(1, len(T)):
        rho = Fraction(w[j], w[j - 1])
        if j == 1:
            num = Poly([-rho * u[1]])
        else:
            coef = -rho * u[j - 2] * u[j]
            num = Poly.linear(coef * family.shift(j - 1), coef)
        den = Poly.linear(rho * u[j] + family.shift(j) * u[j - 1], u[j - 1])
        levels.append(CFLevel(num, den))
    cf = ContinuedFraction(exp.kind, exp.m, tuple(levels))
    s0 = Fraction(7, 3)
    lhs = eval_cf(cf, s0).value
    rhs = 1 / expansion_value(exp, s0) - 1
    if lhs != rhs:
        raise InternalConsistencyError(
            f"{exp.kind} continued fraction disagrees with its expansion at s={s0}"
        )
    return cf


def _cf_backward(rows, x: int, y: int, d: int) -> tuple[int, int, int]:
    """The value at s = (x + iy)/d, d > 0, as integers (p_re, p_im, q) with
    value (p_re + i p_im)/q, by the backward recurrence on Gaussian integers
    over the integer levels (`ContinuedFraction._integer_levels`).

    The tail is held as a quotient P/Q of Gaussian integers, Q != 0. With
    num(s) = u/u_den and den(s) = v/v_den (`_gaussian_horner`, u_den and
    v_den powers of d), den(s) + P/Q = w/(v_den Q) with w = v Q + P v_den,
    so num(s)/(den(s) + P/Q) = (u v_den Q)/(u_den w). Each level divides the
    four integer parts by their content gcd(P_re, P_im, Q_re, Q_im), the
    fraction-free, content-reduced idiom of Geddes, Czapor & Labahn,
    Algorithms for Computer Algebra (1992), ch. 2: the numerator rows carry
    most of their size as integer content, and about half of it cancels at
    each level. Only after the last level does the value get a real
    denominator, p = P conj(Q) and q = |Q|^2, reduced once to lowest terms
    with q > 0.
    """
    P_re = P_im = Q_im = 0
    Q_re = 1
    for idx in range(len(rows) - 1, -1, -1):
        num, den = rows[idx]
        u_re, u_im, u_den = _gaussian_horner(num, x, y, d)
        v_re, v_im, v_den = _gaussian_horner(den, x, y, d)
        w_re = v_re * Q_re - v_im * Q_im + P_re * v_den
        w_im = v_re * Q_im + v_im * Q_re + P_im * v_den
        if not (w_re or w_im):
            raise ZeroDenominatorError(idx)
        t_re, t_im = u_re * v_den, u_im * v_den
        P_re, P_im = t_re * Q_re - t_im * Q_im, t_re * Q_im + t_im * Q_re
        Q_re, Q_im = u_den * w_re, u_den * w_im
        g = gcd(P_re, P_im, Q_re, Q_im)
        P_re, P_im, Q_re, Q_im = P_re // g, P_im // g, Q_re // g, Q_im // g
    p_re = P_re * Q_re + P_im * Q_im
    p_im = P_im * Q_re - P_re * Q_im
    q = Q_re * Q_re + Q_im * Q_im
    g = gcd(p_re, p_im, q)
    return p_re // g, p_im // g, q // g


def _mp_values(rounded, z: tuple, prec: int) -> list[tuple[tuple, tuple]]:
    """(num(z), den(z)) per level as raw mpc values at `prec` bits, by Horner
    from the leading rounded coefficient (`_rounded_levels`): the operations
    of mpc arithmetic with each coefficient a Fraction operand, so the same
    bits as Horner on the Fractions themselves."""

    def horner(coeffs):
        acc = (coeffs[-1], fzero)
        for c in coeffs[-2::-1]:
            acc = mpc_add_mpf(mpc_mul(acc, z, prec, _RND), c, prec, _RND)
        return acc

    return [(horner(num), horner(den)) for num, den in rounded]


def _mp_backward(values, prec: int) -> mp.mpc:
    acc = (fzero, fzero)
    for idx in range(len(values) - 1, -1, -1):
        num_v, den_v = values[idx]
        den_v = mpc_add(den_v, acc, prec, _RND)
        if not mpc_is_nonzero(den_v):
            raise ZeroDenominatorError(idx)
        acc = mpc_div(num_v, den_v, prec, _RND)
    return mp.make_mpc(acc)


def eval_cf(cf: ContinuedFraction, s, depth: int | None = None,
            precision: int = 256) -> CFEvaluation:
    """Evaluate by the backward recurrence from the deepest level.

    `depth` is the index of the deepest level included (0 means a single
    level); None uses all of them. The value at depth k is the (k+1)-th
    convergent A_{k+1}/B_{k+1}, and B_{k+1} is the product of the tail
    denominators met on the way up, so convergents are read as values at
    each depth. Exact when s is a Fraction or QComplex. The exact
    recurrence runs on the integer levels, with each tail a content-reduced
    quotient of Gaussian integers (`_cf_backward`), and the mpmath one on
    coefficients rounded once per precision; both are computed on first use
    and kept on `cf`.

    Raises ZeroDenominatorError when a denominator vanishes exactly (the
    blow-up event the element test is designed to exclude).
    """
    if depth is None:
        depth = cf.depth - 1
    if not (0 <= depth < cf.depth):
        raise ValueError(f"depth must be in [0, {cf.depth - 1}]")

    if isinstance(s, (int, Fraction, QComplex)):
        if not isinstance(s, QComplex):
            s = Fraction(s)
        p_re, p_im, q = _cf_backward(cf._integer_levels[: depth + 1],
                                     *QComplex.from_value(s).gaussian())
        value = (QComplex(Fraction(p_re, q), Fraction(p_im, q)) if isinstance(s, QComplex)
                 else Fraction(p_re, q))
        return CFEvaluation(value, depth + 1)

    def values_at(prec):
        with mp.workprec(prec):
            z = _to_mpc(s)._mpc_
        return _mp_values(cf._rounded_levels(prec)[: depth + 1], z, prec)

    prec = precision + 10
    v = _mp_backward(values_at(prec), prec)
    v128 = _mp_backward(values_at(128), 128)
    width = float(abs(v - v128))
    with mp.workprec(precision):
        cv = ComplexValue(+v.real, +v.imag, precision, width)
    return CFEvaluation(cv, depth + 1, width)


# ---------------------------------------------------------------------------
# collapsed (single-fraction) form
# ---------------------------------------------------------------------------


def collapsed(pf: PartialFraction) -> tuple[Fraction, Poly, tuple[int, ...]]:
    """Collapse to scalar * primitive_poly / prod(s - pole).

    The numerator over the monic pole product is content-normalized: integer
    coefficients, positive leading coefficient, with the rational content
    returned as the scalar. It is built in integers, from the residues over
    their common denominator L, by one running product of the poles.
    """
    L = lcm(*(r.denominator for _, r in pf.terms))
    numer: list[int] = []  # L * numerator so far, ascending, one shorter than prod
    prod = [1]  # prod(s - p) over the poles seen so far
    for p, r in pf.terms:
        R = r.numerator * (L // r.denominator)
        numer = [a + R * b for a, b in zip(_times_linear(numer, p), prod)]
        prod = _times_linear(prod, p)
    g = gcd(*numer)
    if g == 0:
        return Fraction(0), Poly(), pf.poles
    if next(c for c in reversed(numer) if c) < 0:
        g = -g
    return Fraction(g, L), _poly([c // g for c in numer], 1), pf.poles


def _times_linear(c: list[int], p: int) -> list[int]:
    """Coefficients of c(s) (s - p), ascending."""
    return [b - p * a for a, b in zip(c + [0], [0] + c)]


def numerator_poly(pf: PartialFraction) -> Poly:
    """Exact numerator over the monic pole product, content-normalized."""
    return collapsed(pf)[1]
