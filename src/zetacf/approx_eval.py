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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .coeff_core import bernoulli_table, c_direct, coeff_table
from .errors import InternalConsistencyError, ZeroDenominatorError
from .qcomplex import QComplex
from .series import Poly

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


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialFraction:
    """sum of residue / (s - pole) terms, poles strictly decreasing."""

    terms: tuple[tuple[int, Fraction], ...]
    kind: str = ""
    m: int = 0

    def __post_init__(self):
        poles = [p for p, _ in self.terms]
        if any(a <= b for a, b in zip(poles, poles[1:])):
            raise ValueError("poles must be strictly decreasing")

    @property
    def poles(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.terms)


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
    with mp.workprec(prec):
        z = _to_mpc(s)
        acc = mp.mpc(0)
        for p, r in pf.terms:
            acc += mp.mpf(r.numerator) / r.denominator / (z - p)
        return acc


def eval_pf_precise(pf: PartialFraction, s, precision: int = 256) -> ComplexValue:
    """Evaluate at complex s with `precision` working bits.

    The result is re-computed at 128 bits and the disagreement recorded, so
    precision loss is observable rather than assumed.
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


def expansion_identity_holds(exp: FactorialExpansion, pf: PartialFraction,
                             points=_CHECK_POINTS) -> bool:
    return all(
        expansion_value(exp, s) == _normalized_value(exp, s, pf)
        for s in points
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

    @property
    def depth(self) -> int:
        """Number of levels: one less than the number of expansion terms."""
        return len(self.levels)


@dataclass(frozen=True)
class CFEvaluation:
    value: object
    levels_used: int
    convergents: tuple | None = None
    denominators: tuple | None = None
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


def _cf_backward(levels, s, zero):
    acc = zero
    for idx in range(len(levels) - 1, -1, -1):
        den_v = levels[idx].den(s) + acc
        if _is_exact_zero(den_v):
            raise ZeroDenominatorError(idx)
        acc = levels[idx].num(s) / den_v
    return acc


def _is_exact_zero(v) -> bool:
    """Whether a Fraction, QComplex or mpc value is zero."""
    return v.is_zero() if isinstance(v, QComplex) else v == 0


def eval_cf(cf: ContinuedFraction, s, depth: int | None = None,
            precision: int = 256, trace: bool = False) -> CFEvaluation:
    """Evaluate by the backward recurrence from the deepest level.

    `depth` is the index of the deepest level included (0 means a single
    level); None uses all of them. Exact when s is a Fraction or QComplex.
    With trace=True the forward three-term recurrences are run as well and
    the convergent values plus their denominators q_n are returned, so
    truncation behavior is observable.

    Raises ZeroDenominatorError when a denominator vanishes exactly (the
    blow-up event the element test is designed to exclude).
    """
    if depth is None:
        depth = cf.depth - 1
    if not (0 <= depth < cf.depth):
        raise ValueError(f"depth must be in [0, {cf.depth - 1}]")
    levels = cf.levels[: depth + 1]

    exact = isinstance(s, (int, Fraction, QComplex))
    if isinstance(s, int):
        s = Fraction(s)
    if exact:
        zero = Fraction(0) if isinstance(s, Fraction) else QComplex(Fraction(0), Fraction(0))
        value = _cf_backward(levels, s, zero)
        convergents = denominators = None
        if trace:
            convergents, denominators = _cf_forward(levels, s)
            if convergents[-1] != value:
                raise InternalConsistencyError("forward and backward CF evaluations disagree")
        return CFEvaluation(value, depth + 1, convergents, denominators)

    with mp.workprec(precision + 10):
        v = _cf_backward(levels, _to_mpc(s), mp.mpc(0))
    with mp.workprec(128):
        v128 = _cf_backward(levels, _to_mpc(s), mp.mpc(0))
    width = float(abs(v - v128))
    with mp.workprec(precision):
        cv = ComplexValue(+v.real, +v.imag, precision, width)
    convergents = denominators = None
    if trace:
        with mp.workprec(precision + 10):
            convergents, denominators = _cf_forward(levels, _to_mpc(s))
    return CFEvaluation(cv, depth + 1, convergents, denominators, width)


def _cf_forward(levels, s):
    """Forward recurrence: A_n = den_n A_{n-1} + num_n A_{n-2}, same for B_n.
    Returns (convergent values, denominator values)."""
    A_prev2, A_prev = 1, 0 * s  # A_{-1}, A_0 (b_0 = 0)
    B_prev2, B_prev = 0 * s, 1
    convergents = []
    denominators = []
    for lv in levels:
        a = lv.num(s)
        b = lv.den(s)
        A = b * A_prev + a * A_prev2
        B = b * B_prev + a * B_prev2
        if _is_exact_zero(B):
            raise ZeroDenominatorError(len(convergents))
        convergents.append(A / B)
        denominators.append(B)
        A_prev2, A_prev = A_prev, A
        B_prev2, B_prev = B_prev, B
    return tuple(convergents), tuple(denominators)


# ---------------------------------------------------------------------------
# collapsed (single-fraction) form
# ---------------------------------------------------------------------------


def collapsed(pf: PartialFraction) -> tuple[Fraction, Poly, tuple[int, ...]]:
    """Collapse to scalar * primitive_poly / prod(s - pole).

    The numerator over the monic pole product is content-normalized: integer
    coefficients, positive leading coefficient, with the rational content
    returned as the scalar.
    """
    numer = Poly()
    prod = Poly([1])  # prod(s - p) over the poles seen so far
    for p, r in pf.terms:
        lin = Poly.linear(-p, 1)
        numer = numer * lin + prod * r
        prod = prod * lin
    content, prim = numer.primitive()
    return content, prim, pf.poles


def numerator_poly(pf: PartialFraction) -> Poly:
    """Exact numerator over the monic pole product, content-normalized."""
    return collapsed(pf)[1]
