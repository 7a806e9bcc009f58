"""Exact coefficient sequences for the rational zeta approximants.

The polynomial p_m(t) = (1 - t)(1 - t/2)...(1 - t/m) has coefficients
p_m(t) = sum_j (-1)^j a_{m,j} t^j. Everything downstream (the partial
fractions, the factorial-series coefficients c_{m,k}, the continued
fractions) is built from the a_{m,j}, the Bernoulli numbers and the harmonic
numbers, all held as exact rationals.

Internally the rows are carried as integers: m! * a_{m,j} is the unsigned
Stirling number of the first kind |s(m+1, j+1)|, and the row recurrence
S_m[j] = m*S_{m-1}[j] + S_{m-1}[j-1] stays in integer arithmetic, which keeps
the long exact sweeps free of gcd reduction costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm
from operator import add, rshift
from typing import Iterator

from .errors import InternalConsistencyError
from .series import PowerSeries, _inverse_numerators

__all__ = [
    "CoeffTable",
    "BernoulliTable",
    "CSequence",
    "SinhSeries",
    "coeff_table",
    "stirling_rows",
    "bernoulli_table",
    "harmonic",
    "harmonic_sums",
    "c_direct",
    "c_sequences",
    "c_residue_oracle",
    "c_genfunc_oracle",
    "sinh_series",
    "a_invariant_witness",
    "c_positivity_witness",
    "c1_identity_witness",
]


# ---------------------------------------------------------------------------
# coefficient tables a_{m,j}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffTable:
    """The exact coefficients a_{m,0..m}, with a_{m,j} stored in lowest terms."""

    m: int
    a: tuple[Fraction, ...]

    def validate(self) -> None:
        """Check the row invariants of `a_invariant_witness`, including that
        the polynomial vanishes at t = 1..m (an O(m^2) integer computation)."""
        m = self.m
        if len(self.a) != m + 1:
            raise InternalConsistencyError(f"table length {len(self.a)} != m+1 = {m + 1}")
        fm = factorial(m)
        S = [x * fm for x in self.a]
        if any(v.denominator != 1 for v in S):
            raise InternalConsistencyError("m! a[j] is not an integer for every j")
        witness = _row_witness(m, [v.numerator for v in S], fm, harmonic(m), deep_roots=True)
        if witness is not None:
            raise InternalConsistencyError(str(witness))


def stirling_rows(m_max: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (m, S_m) for m = 0..m_max where S_m[j] = m! * a_{m,j}.

    The yielded list is freshly allocated each step and safe to keep.
    """
    row = [1]
    yield 0, row
    for m in range(1, m_max + 1):
        prev = row
        row = [0] * (m + 1)
        row[0] = m * prev[0]
        for j in range(1, m):
            row[j] = m * prev[j] + prev[j - 1]
        row[m] = prev[m - 1]
        yield m, row


def _stirling_row(m: int) -> list[int]:
    for mm, row in stirling_rows(m):
        pass
    return row


def _stirling_prefix(n: int, w: int) -> list[int]:
    """S_n[0..w], the first w + 1 entries of row n (all of it when w >= n):
    the recurrence of `stirling_rows` kept to those entries, in place from
    high j to low, so O(n w) products instead of O(n^2)."""
    row = [1] + [0] * min(w, n)
    for m in range(1, n + 1):
        for j in range(min(m, w), 0, -1):
            row[j] = m * row[j] + row[j - 1]
        row[0] *= m
    return row


def _row_eval_at_int(S: list[int], k: int) -> int:
    """m! * p_m(k) via Horner on the signed integer row."""
    acc = 0
    for j in range(len(S) - 1, -1, -1):
        c = S[j] if j % 2 == 0 else -S[j]
        acc = acc * k + c
    return acc


def _first_nonroot(S: list[int]) -> int | None:
    """First k in 1..m at which m! * p_m(k) != 0, or None.

    The signed row is divided by (t - k) for k = 1, 2, ... by synthetic
    division, and each quotient carries on to the next k. While
    t = 1..k-1 are roots, p(t) = q(t) (t-1)...(t-k+1), so the remainder
    q(k) vanishes exactly when p(k) does."""
    c = [s if j % 2 == 0 else -s for j, s in enumerate(S)]
    for k in range(1, len(S)):
        acc = 0
        for j in range(len(c) - 1, -1, -1):
            acc = acc * k + c[j]
            c[j] = acc  # c[1:] becomes the quotient, c[0] the remainder
        if c[0]:
            return k
        del c[0]
    return None


def _deflates_to(S: list[int], prev: list[int]) -> bool:
    """True when m! p_m(t) = (m - t) (m-1)! p_{m-1}(t), m = len(S) - 1,
    for the rows S = m! a_{m,.} and prev = (m-1)! a_{m-1,.}: one synthetic
    division of the signed row by (t - m) leaves remainder 0 and a quotient
    equal to minus the signed prev.

    Then p_m vanishes at t = m and wherever p_{m-1} does, so a sweep that
    has proved p_{m-1} vanishes at t = 1..m-1 has proved p_m vanishes at
    t = 1..m; p_0 = 1 has no root to prove. O(m) small-by-big products."""
    m = len(S) - 1
    if len(prev) != m:
        return False
    q = 0  # (-1)^j times the division's running value at t^j
    for j in range(m, 0, -1):
        q = S[j] - m * q
        if q != prev[j - 1]:  # the quotient's t^(j-1) coefficient
            return False
    return S[0] == m * q  # the remainder vanishes


_TOP_BITS = 62


def _row_tops(S: list[int]) -> tuple[list[int], list[int], list[int]] | None:
    """Tops of a positive integer row: S[j] = (t_j + delta_j) 2^e_j with
    t_j = S[j] >> e_j below 2^62 and 0 <= delta_j < 1, delta_j = 0 when
    e_j = 0. Returns (t, u, e) with u_j = t_j + 1 when e_j > 0 and t_j when
    e_j = 0, so that t_j 2^e_j <= S[j] <= u_j 2^e_j.

    None when an entry is not positive: a shift floors a negative int, and
    squaring a negative lower end bounds nothing. The lists come from
    C-level maps over the row (bit lengths, shifts, the e_j > 0 carry)."""
    if min(S, default=1) <= 0:
        return None
    e = [b - _TOP_BITS if b > _TOP_BITS else 0 for b in map(int.bit_length, S)]
    t = list(map(rshift, S, e))
    return t, list(map(add, t, map(bool, e))), e


def _tops_prove(tops: tuple[list[int], list[int], list[int]], j: int,
                p: int, q: int) -> bool:
    """True when q S_j^2 >= p S_{j-1} S_{j+1} (p, q >= 0) follows from the
    row's tops: q t_j^2 2^(2e_j) <= q S_j^2 and
    p S_{j-1} S_{j+1} <= p u_{j-1} u_{j+1} 2^(e_{j-1}+e_{j+1}). An integer
    proof on numbers of about 130 bits; False means undecided."""
    t, u, e = tops
    lhs = q * t[j] * t[j]
    rhs = p * u[j - 1] * u[j + 1]
    d = 2 * e[j] - e[j - 1] - e[j + 1]
    if d >= 0:
        return lhs << d >= rhs
    return lhs >= rhs << -d


def coeff_table(m: int) -> CoeffTable:
    """Exact a_{m,j} by the row recurrence a_{m,j} = a_{m-1,j} + a_{m-1,j-1}/m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    S = _stirling_row(m)
    fm = factorial(m)
    return CoeffTable(m, tuple(Fraction(s, fm) for s in S))


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliTable:
    """B_0..B_{n_max} with the convention B_1 = -1/2."""

    n_max: int
    b: tuple[Fraction, ...]

    def __getitem__(self, j: int) -> Fraction:
        return self.b[j]


def _bernoulli_tangent(n_max: int) -> list[Fraction]:
    # The tangent numbers T_1..T_K, K = n_max/2, in place (Brent & Harvey,
    # "Fast computation of Bernoulli, Tangent and Secant numbers", 2013):
    # only small-by-big products. Then
    # B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and odd B_n = 0 for n >= 3.
    K = n_max // 2
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    out = [Fraction(1)] + [Fraction(0)] * n_max
    if n_max >= 1:
        out[1] = Fraction(-1, 2)
    for k in range(1, K + 1):
        f = 4 ** k
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * T[k], f * (f - 1))
    return out


# The tableau runs over E_k = L B_k, L = lcm(1..n_max+1): by von
# Staudt-Clausen every den B_k divides L, so it stays in integers.
def _bernoulli_akiyama_tanigawa(n_max: int) -> list[Fraction]:
    # The tableau natively produces B_1 = +1/2; flip it to the B_1 = -1/2
    # convention used throughout (even indices agree in both conventions).
    L = lcm(*range(1, n_max + 2))
    A = [0] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        A[m] = L // (m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(Fraction(A[0], L))
    if n_max >= 1:
        out[1] = -out[1]
    return out


_BERN: BernoulliTable | None = None  # the longest table computed so far


def bernoulli_table(n_max: int) -> BernoulliTable:
    """Exact Bernoulli numbers, computed from the tangent numbers and
    confirmed entry by entry against an Akiyama-Tanigawa tableau. The two
    routes must agree exactly.

    The longest table computed so far is kept; a request no longer than it
    is served as a prefix, and only a longer one computes (and checks) a
    new table."""
    global _BERN
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if _BERN is None or _BERN.n_max < n_max:
        B = _bernoulli_tangent(n_max)
        B2 = _bernoulli_akiyama_tanigawa(n_max)
        if B != B2:
            bad = next(i for i in range(n_max + 1) if B[i] != B2[i])
            raise InternalConsistencyError(
                f"Bernoulli cross-check failed at index {bad}: {B[bad]} vs {B2[bad]}"
            )
        _BERN = BernoulliTable(n_max, tuple(B))
    return BernoulliTable(n_max, _BERN.b[:n_max + 1])


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------


def harmonic(m: int) -> Fraction:
    """h_m = sum_{r<=m} 1/r, exactly; h_0 = 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    for h in harmonic_sums(m):
        pass
    return h


def harmonic_sums(m_max: int) -> Iterator[Fraction]:
    """Yield h_0, h_1, ..., h_{m_max} incrementally."""
    h = Fraction(0)
    yield h
    for m in range(1, m_max + 1):
        h += Fraction(1, m)
        yield h


# ---------------------------------------------------------------------------
# the c_{m,k} sequence and its oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CSequence:
    """c_{m,0..K} with K = floor(m/2) + 1, held as one integer row over one
    positive denominator: c[k] = num[k] / den, and num[0] = den (c[0] = 1)."""

    m: int
    num: tuple[int, ...]
    den: int

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)


def _t_weights(n: int) -> tuple[list[int], int]:
    """w_j = (1-2j) B_{2j} L, j = 0..n/2, as integers, with L the lcm of
    those den B_{2j}."""
    B = bernoulli_table(n)
    even = [B[2 * j] for j in range(n // 2 + 1)]
    L = lcm(*(b.denominator for b in even))
    return [(1 - 2 * j) * b.numerator * (L // b.denominator)
            for j, b in enumerate(even)], L


def _t_row(m: int, S: list[int]) -> tuple[list[int], int]:
    """T_j = a_{m,2j} (1-2j) B_{2j}, j = 0..m/2, as integers over one
    denominator D = m! lcm(den B_{2j}): T_j = row[j] / D. S is the integer
    row m! a_{m,.}."""
    w, L = _t_weights(m)
    return [S[2 * j] * wj for j, wj in enumerate(w)], factorial(m) * L


def _taylor_shift(a: list[int]) -> list[int]:
    """The coefficients of sum_j a_j (x+1)^j, that is sum_{j>=i} C(j, i) a_j
    at x^i, computed in place by J^2/2 additions and no binomials."""
    J = len(a) - 1
    for i in range(J):
        for j in range(J - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _c_row(m: int, T: list[int], D: int) -> CSequence:
    # D c_{m,k} = (m+1)(-1)^(k-1) sum_j T_j C(j, k-1): the T-row shifted by 1
    return CSequence(m, (D, *((m + 1) * (t if i % 2 == 0 else -t)
                              for i, t in enumerate(_taylor_shift(T)))), D)


def c_direct(m: int) -> CSequence:
    """c_{m,k} = (m+1)(-1)^{k-1} sum_{j<=m/2} a_{m,2j}(1-2j)B_{2j} C(j,k-1),
    with c_{m,0} = 1. Binomials with k-1 > j vanish, which terminates the sum."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _c_row(m, *_t_row(m, _stirling_row(m)))


def c_sequences(m_max: int) -> Iterator[CSequence]:
    """Yield c-sequences for m = 1..m_max, sharing one coefficient-row sweep
    and one set of weights.

    w and L come from `_t_weights(m_max)`, formed once. Row m needs the
    weights over L_m, the lcm of den B_{2j} for j <= m/2, which divides L:
    w_j // (L // L_m) is exact, and D = m! L_m, so every row equals
    `c_direct`'s."""
    w, L = _t_weights(m_max)
    B = bernoulli_table(m_max)
    Lm = fm = 1
    for m, S in stirling_rows(m_max):
        if m < 1:
            continue
        fm *= m
        if m % 2 == 0:
            Lm = lcm(Lm, B[m].denominator)
        r = L // Lm
        yield _c_row(m, [S[2 * j] * (w[j] // r) for j in range(m // 2 + 1)], fm * Lm)


def c_residue_oracle(m: int) -> CSequence:
    """Recover c_{m,k} from the poles of the normalized approximant.

    (m+1) s F_m(s) - 1 has residue (m+1) a_{m,2j} (1-2j) B_{2j} at s = 1-2j.
    Writing the factorial series in the basis
        phi_k(s) = 2^{k-1}(k-1)! / ((s-1)(s+1)...(s+2k-3)),
    the residue of phi_k at s = 1-2j is (-1)^j C(k-1, j), so matching
    residues gives an upper-triangular system with diagonal (-1)^j for the
    c_{m,k}. The diagonal is a unit, so the solve stays in integers over the
    residues' common denominator D, which is also c_direct's, and must
    reproduce c_direct's row entry by entry.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    T, D = _t_row(m, _stirling_row(m))
    J = len(T) - 1
    K = J + 1
    beta = [D] + [0] * K  # D c_{m,k}
    for j in range(J, -1, -1):
        sign = -1 if j % 2 else 1
        acc = sum(beta[k] * (sign * comb(k - 1, j)) for k in range(j + 2, K + 1))
        beta[j + 1] = ((m + 1) * T[j] - acc) * sign  # dividing by the diagonal
    return CSequence(m, tuple(beta), D)


def c_genfunc_oracle(m_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients of the bivariate generating function, via series arithmetic.

    Expands (log(1-y))^2 * d/dy [ sqrt(1-z) / ((1-y)^{sqrt(1-z)} - 1) ] using
    the even-index Bernoulli expansion: only even powers of sqrt(1-z)
    survive, so each y-degree carries a polynomial in z. Returns the matrix
    M[m][t] = coefficient of y^m z^t for m = 0..m_max, t = 0..m_max/2.

    The claim this oracle tests is M[m][k-1] == c_{m,k} / (m+1) for m >= 1,
    with M[0][0] == 1.

    Term i contributes scale_i y-series_i (1-z)^i; the matrix is summed as
    integers over L, the lcm of the terms' denominators, and each entry is
    reduced to a Fraction once.
    """
    k_max = m_max // 2 + 1
    order = m_max + 5
    bern = bernoulli_table(2 * (m_max // 2))
    inv1my = PowerSeries.geometric(order)
    neglog = PowerSeries.neg_log1m(order)
    terms = []  # (i, numerator, denominator, y-numerators) of scale_i y-series_i
    pw = PowerSeries.constant(1, order)  # (-log(1-y))^{2i}
    for i in range(m_max // 2 + 1):
        j = 2 * i
        if i > 0:
            pw = pw * neglog * neglog
        yser = inv1my * pw
        scale = Fraction(1 - j, factorial(j)) * bern[j]
        if scale:
            terms.append((i, scale.numerator, scale.denominator * yser.den, yser.num))
    L = lcm(*(d for _, _, d, _ in terms))
    rows = [[0] * k_max for _ in range(m_max + 1)]
    for i, a, d, ynum in terms:
        a *= L // d
        # (1-z)^i contributes C(i,t)(-1)^t to z^t
        zcol = [(-1) ** t * comb(i, t) * a for t in range(min(i, k_max - 1) + 1)]
        for row, ym in zip(rows, ynum):
            if ym:
                for t, zc in enumerate(zcol):
                    row[t] += ym * zc
    return tuple(tuple(Fraction(x, L) for x in r) for r in rows)


# ---------------------------------------------------------------------------
# the sinh-kernel family
# ---------------------------------------------------------------------------


def _coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, built without Fraction's own gcd (the
    constructor for coprime parts is private, and differs by Python version)."""
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on
        return Fraction._from_coprime_ints(n, d)
    return Fraction(n, d, _normalize=False)


@dataclass(frozen=True)
class SinhSeries:
    """Exact z-expansion coefficients of the truncated sinh kernel.

    The kernel r^2 u / sinh^2(r sqrt(u)/2) equals 2 / H(u) with
    H(u) = sum_{n>=1} r^{2n-2} u^{n-1} / (2n)!. The coefficients d[k] of
    2 / H_N(1-z), H_N the n_terms-term truncation of H, are held as one
    integer row over one positive denominator: d[k] = num[k] / den. d[0] is
    exactly 2 divided by the truncated sum at u = 1. The denominator is
    den = u^N, N = len(num), u = g_0 of the content-free z-row
    (`_sinh_z_row`), and u^(N-1-k) divides num[k].
    """

    r_squared: Fraction
    num: tuple[int, ...]
    den: int
    u: int

    @property
    def d(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, d[k] = x / u^(k+1) with
        x = num[k] / u^(N-1-k).

        Any common factor of x and u^(k+1) divides a power of u, so each of
        its primes divides g = gcd(x, u): dividing out g, then the part of g
        still common to both, until none is left, reduces the pair exactly,
        with gcds against u instead of all of u^(k+1)."""
        u = self.u
        powers = [1]  # u^0 .. u^N
        for _ in self.num:
            powers.append(powers[-1] * u)
        N = len(self.num)
        out = []
        for k, n in enumerate(self.num):
            x, den = n // powers[N - 1 - k], powers[k + 1]
            g = gcd(x % u, u)
            while g > 1:
                x //= g
                den //= g
                g = gcd(g, x % g, den % g)
            out.append(_coprime_fraction(x, den))
        return tuple(out)


def _sinh_z_row(r2: Fraction, N: int) -> tuple[list[int], int]:
    """The content-free integer z-row g of D H_N(1-z), and D, r^2 = p/q.

    The terms (2N)! q^(N-1) r^(2i) / (2i+2)! are integers; D is (2N)! q^(N-1)
    divided by their gcd c, so the terms h_i = D r^(2i) / (2i+2)! of D H_N(u)
    are integers with gcd 1 (c divides h_0 = (2N)! q^(N-1) / 2, so D is an
    integer). So are g_k = (-1)^k sum_{i>=k} C(i,k) h_i, the h-row shifted
    by 1 (`_taylor_shift`) with alternating signs; the shift is invertible
    over the integers, so gcd(g) = 1 too. g_0 = D H_N(1) > 0."""
    if r2 < 0:
        raise ValueError("r_squared must be >= 0")
    if N < 1:
        raise ValueError("n_terms must be >= 1")
    p, q = r2.numerator, r2.denominator
    f2N = factorial(2 * N)
    h = [f2N // factorial(2 * i + 2) * p**i * q ** (N - 1 - i) for i in range(N)]
    c = gcd(*h)
    h = [x // c for x in h]
    return ([x if k % 2 == 0 else -x for k, x in enumerate(_taylor_shift(h))],
            f2N * q ** (N - 1) // c)


def sinh_series(r_squared, n_terms: int) -> SinhSeries:
    """Expand the truncated kernel in z = 1 - u through degree n_terms - 1.

    With g and D from `_sinh_z_row`, the inverse of the z-row g is
    e_k / u^(k+1) with u = g_0 > 0, e_0 = 1 and
    e_k = -sum_{j=1..k} g_j u^(j-1) e_{k-j} (`_inverse_numerators`), so
    d_k = 2 D e_k / u^(k+1), kept over the shared denominator u^N.
    r_squared = 0 is the degenerate limit and yields the constant series 4.
    """
    r2 = Fraction(r_squared)
    g, D = _sinh_z_row(r2, n_terms)
    N = n_terms
    u = g[0]
    e = _inverse_numerators(g, u)
    num = [0] * N
    pw = 1  # u^(N-1-k), and u^N after the loop
    for k in range(N - 1, -1, -1):
        num[k] = 2 * D * e[k] * pw
        pw *= u
    return SinhSeries(r2, tuple(num), pw, u)


def _sinh_enclosure(g: list[int], bits: int) -> tuple[list[int], list[int], list[int]]:
    """Intervals around y_k = d_k / (2D), the inverse of the z-row g
    (`_sinh_z_row`): y_0 = 1/u and y_k = -(sum_{j=1..k} g_j y_{k-j}) / u
    with u = g_0 > 0. Returns (lo, hi, e) in `_row_tops`' shape, with
    lo_k 2^e_k <= y_k <= hi_k 2^e_k, so lo_k > 0 proves d_k > 0 and
    `_tops_prove(enclosure, k, 1, 1)` proves d_k^2 >= d_{k-1} d_{k+1} once
    lo_{k-1}, lo_k, lo_{k+1} > 0.

    Intervals [a 2^e, b 2^e] over Python ints (Moore, Kearfott & Cloud,
    2009): products with the integers g_j and the sums are exact, the
    division by u rounds outward, and each level is then cut outward to
    about `bits` bits."""
    u = g[0]
    ub = u.bit_length()
    lo, hi, ex = [], [], []
    for k in range(len(g)):
        # [a, b] 2^f holds -y_k u: -1 at k = 0, else sum_j g_j y_{k-j}
        a = b = -1
        f = 0
        if k:
            a = b = 0
            f = min(ex)
            for j in range(1, k + 1):
                c, sh = g[j], ex[k - j] - f
                x, y = c * lo[k - j] << sh, c * hi[k - j] << sh
                if c < 0:
                    x, y = y, x
                a += x
                b += y
        # y_k in [-b, -a] 2^f / u; scale up so the quotient keeps `bits` bits
        s = max(bits + ub + 1 - max(abs(a), abs(b)).bit_length(), 0)
        x, y = (-b << s) // u, -((a << s) // u)  # floor and ceil of -b/u, -a/u
        f -= s
        cut = max(max(abs(x), abs(y)).bit_length() - bits, 0)
        lo.append(x >> cut)
        hi.append(-(-y >> cut))
        ex.append(f + cut)
    return lo, hi, ex


# ---------------------------------------------------------------------------
# exact invariant sweeps (witness = None means the property held)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """First counterexample found by a sweep, with both sides exact."""

    check: str
    m: int
    index: int
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        return f"{self.check} fails at m={self.m}, index {self.index}: {self.lhs} vs {self.rhs}"


def a_invariant_witness(m_max: int, deep_roots: bool = True) -> Witness | None:
    """Exact sweep of the coefficient-table invariants for all m <= m_max.

    Covers: a_0 = 1, a_1 = h_m, a_m = 1/m!, positivity, vanishing of p_m at
    t = 1..m (when deep_roots), log-concavity a_j^2 >= a_{j-1} a_{j+1},
    Newton's binomial-normalized log-concavity, and the resulting
    non-increase of j a_j / a_{j-1}. All comparisons are integer-exact: a
    level is first proved from the row's 62-bit tops (`_tops_prove`), and
    only a level they leave undecided compares the full products. The roots
    are proved by induction over the sweep: each row deflates by (t - m) to
    the previous, already checked row (`_deflates_to`), and only a row that
    does not is divided root by root (`_first_nonroot`) to name its witness.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    fm = 1
    prev = None
    for (m, S), h in zip(stirling_rows(m_max), harmonic_sums(m_max)):
        if m >= 1:
            fm *= m
        witness = _row_witness(m, S, fm, h, deep_roots, prev)
        if witness is not None:
            return witness
        prev = S
    return None


def _row_witness(m: int, S: list[int], fm: int, h: Fraction,
                 deep_roots: bool, prev: list[int] | None = None) -> Witness | None:
    """The invariants of `a_invariant_witness` for one integer row
    S = m! a_{m,.}, with fm = m! and h = h_m. prev, when given, is the row
    m - 1, already proved to vanish at t = 1..m-1: if S deflates to it, the
    roots are proved without dividing root by root."""
    if S[0] != fm:
        return Witness("a0=1", m, 0, Fraction(S[0], fm), Fraction(1))
    if m >= 1:
        # a_1 = h_m  <=>  S[1] * den(h) == num(h) * m!
        if S[1] * h.denominator != h.numerator * fm:
            return Witness("a1=h_m", m, 1, Fraction(S[1], fm), h)
        if S[m] != 1:
            return Witness("am=1/m!", m, m, Fraction(S[m], fm), Fraction(1, fm))
    tops = _row_tops(S)
    if tops is None:
        j = next(j for j, s in enumerate(S) if s <= 0)
        return Witness("positivity", m, j, Fraction(S[j], fm), Fraction(0))
    if deep_roots and not (prev is not None and _deflates_to(S, prev)):
        k = _first_nonroot(S)
        if k is not None:
            return Witness("root-vanishing", m, k, Fraction(_row_eval_at_int(S, k), fm),
                           Fraction(0))
    for j in range(1, m):
        # Newton's inequality j(m-j) S_j^2 >= (j+1)(m-j+1) S_{j-1} S_{j+1}
        # implies the other two checks at j
        if _tops_prove(tops, j, (j + 1) * (m - j + 1), j * (m - j)):
            continue
        sq, ab = S[j] * S[j], S[j - 1] * S[j + 1]
        if sq < ab:
            return Witness("log-concavity", m, j, Fraction(sq), Fraction(ab))
        # j a_j / a_{j-1} non-increasing:  j S_j^2 >= (j+1) S_{j+1} S_{j-1}
        if j * sq < (j + 1) * ab:
            return Witness("newton-ratio", m, j, Fraction(j * sq), Fraction((j + 1) * ab))
        # binomial-normalized log-concavity (Newton's inequalities), with
        # C(m, j)^2 divided out: C(m,j-1) C(m,j+1) / C(m,j)^2 = j(m-j) / ((j+1)(m-j+1))
        if j * (m - j) * sq < (j + 1) * (m - j + 1) * ab:
            return Witness("newton-binomial", m, j,
                           Fraction(sq * comb(m, j - 1) * comb(m, j + 1)),
                           Fraction(ab * comb(m, j) ** 2))
    return None


def c_positivity_witness(m_max: int) -> Witness | None:
    """Every c_{m,k} must be strictly positive, for all m <= m_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    for seq in c_sequences(m_max):
        for k, v in enumerate(seq.num):  # den > 0: the signs of the c[k]
            if v <= 0:
                return Witness("c-positivity", seq.m, k, Fraction(v, seq.den), Fraction(0))
    return None


def _transposed_sums(x: list[int]) -> Iterator[tuple[int, list[int]]]:
    """Yield (m, F_m) for m = 0..n, n = len(x) - 1, where
    F_m[s] = sum_i S_m[i] x_{i+s} for s = 0..n-m and S_m is the integer row
    m! a_{m,.} (`stirling_rows`), so F_m[0] is the row's dot product with x.

    Transposing the row recurrence S_m[i] = m S_{m-1}[i] + S_{m-1}[i-1]
    gives F_m[s] = m F_{m-1}[s] + F_{m-1}[s+1], from F_0 = x: one
    small-by-big product per entry, updated in place, and the last entry,
    which would read x beyond x_n, is dropped. The yielded list is the one
    the next step updates."""
    F = list(x)
    yield 0, F
    for m in range(1, len(x)):
        for s in range(len(F) - 1):
            F[s] = m * F[s] + F[s + 1]
        F.pop()
        yield m, F


def c1_identity_witness(m_max: int) -> Witness | None:
    """Observed identity c_{m,1} = 2(m+1)/(m+2) h_{m+1}, checked exactly.

    Verified as a numerical observation, not assumed anywhere else.
    c_{m,1} = (m+1) sum_j T_j is one weighted sum of the row: with the
    weights w_j = (1-2j) B_{2j} L of the sweep's largest table, formed once,
    c_{m,1} = top / (m! L) with top = (m+1) sum_j S_m[2j] w_j. No row is
    built: with x_i = w_{i/2} for even i and 0 for odd i, the sum is
    sum_i S_m[i] x_i = F_m[0] of `_transposed_sums`, the Stirling recurrence
    transposed (Tellegen's principle; Bostan, Lecerf & Schost, ISSAC 2003),
    which carries F_m[s] = sum_i S_m[i] x_{i+s} from m - 1 to m with
    m_max - m small-by-big products instead of m/2 big-by-big ones. Each row
    is compared by cross-multiplication; only a witness reduces the Fraction.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    w, L = _t_weights(m_max)
    x = [0] * (m_max + 1)
    x[::2] = w
    hs = harmonic_sums(m_max + 1)
    next(hs)  # h_0
    next(hs)  # h_1
    fm = 1
    for m, F in _transposed_sums(x):
        if m < 1:
            continue
        fm *= m
        h_next = next(hs)  # h_{m+1}
        top = (m + 1) * F[0]
        expected = Fraction(2 * (m + 1), m + 2) * h_next
        if top * expected.denominator != expected.numerator * fm * L:
            return Witness("c1-identity", m, 1, Fraction(top, fm * L), expected)
    return None
