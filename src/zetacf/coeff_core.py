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
from math import comb, factorial, lcm, log
from typing import Iterator

from .errors import InternalConsistencyError
from .series import PowerSeries

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
    "growth_band_check",
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


def _row_eval_at_int(S: list[int], k: int) -> int:
    """m! * p_m(k) via Horner on the signed integer row."""
    acc = 0
    for j in range(len(S) - 1, -1, -1):
        c = S[j] if j % 2 == 0 else -S[j]
        acc = acc * k + c
    return acc


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


# Both routes run over E_k = L B_k, L = lcm(1..n_max+1): by von Staudt-Clausen
# every den B_k divides L, so both stay in integers and the recurrence's
# division by n+1 is exact.
def _bernoulli_recurrence(n_max: int) -> list[Fraction]:
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    L = lcm(*range(1, n_max + 2))
    E = [L]
    row = [1, 1]  # C(n, k), k = 0..n, carried as Pascal's row
    for n in range(1, n_max + 1):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n + 1)] + [1]
        E.append(-sum(row[k] * E[k] for k in range(n) if E[k]) // (n + 1))
    return [Fraction(e, L) for e in E]


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
    """Exact Bernoulli numbers, computed by the binomial recurrence and
    confirmed entry by entry against an Akiyama-Tanigawa tableau. The two
    routes must agree exactly.

    The longest table computed so far is kept; a request no longer than it
    is served as a prefix, and only a longer one computes (and checks) a
    new table."""
    global _BERN
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if _BERN is None or _BERN.n_max < n_max:
        B = _bernoulli_recurrence(n_max)
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
    """c_{m,0..K} with K = floor(m/2) + 1; c[0] = 1."""

    m: int
    c: tuple[Fraction, ...]

    @property
    def k_max(self) -> int:
        return len(self.c) - 1


def _t_row(m: int, S: list[int]) -> tuple[list[int], int]:
    """T_j = a_{m,2j} (1-2j) B_{2j}, j = 0..m/2, as integers over one
    denominator D = m! lcm(den B_{2j}): T_j = row[j] / D. S is the integer
    row m! a_{m,.}."""
    B = bernoulli_table(m)
    even = [B[2 * j] for j in range(m // 2 + 1)]
    L = lcm(*(b.denominator for b in even))
    row = [S[2 * j] * (1 - 2 * j) * b.numerator * (L // b.denominator)
           for j, b in enumerate(even)]
    return row, factorial(m) * L


def _c_from_int_row(m: int, S: list[int]) -> tuple[Fraction, ...]:
    T, D = _t_row(m, S)
    J = len(T) - 1
    out = [Fraction(1)]
    for k in range(1, J + 2):
        s = (m + 1) * sum(T[j] * comb(j, k - 1) for j in range(k - 1, J + 1))
        out.append(Fraction(s if k % 2 == 1 else -s, D))
    return tuple(out)


def c_direct(m: int) -> CSequence:
    """c_{m,k} = (m+1)(-1)^{k-1} sum_{j<=m/2} a_{m,2j}(1-2j)B_{2j} C(j,k-1),
    with c_{m,0} = 1. Binomials with k-1 > j vanish, which terminates the sum."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return CSequence(m, _c_from_int_row(m, _stirling_row(m)))


def c_sequences(m_max: int) -> Iterator[CSequence]:
    """Yield c-sequences for m = 1..m_max, sharing one coefficient-row sweep."""
    bernoulli_table(m_max)  # the sweep's largest table, once; each row reads a prefix
    for m, S in stirling_rows(m_max):
        if m >= 1:
            yield CSequence(m, _c_from_int_row(m, S))


def c_residue_oracle(m: int) -> CSequence:
    """Recover c_{m,k} from the poles of the normalized approximant.

    (m+1) s F_m(s) - 1 has residue (m+1) a_{m,2j} (1-2j) B_{2j} at s = 1-2j.
    Writing the factorial series in the basis
        phi_k(s) = 2^{k-1}(k-1)! / ((s-1)(s+1)...(s+2k-3)),
    the residue of phi_k at s = 1-2j is (-1)^j C(k-1, j), so matching
    residues gives an upper-triangular system with diagonal (-1)^j for the
    c_{m,k}. The diagonal is a unit, so the solve stays in integers over the
    residues' common denominator, and must reproduce c_direct entry by entry.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    T, D = _t_row(m, _stirling_row(m))
    J = len(T) - 1
    K = J + 1
    beta = [0] * (K + 1)  # D c_{m,k}
    for j in range(J, -1, -1):
        sign = -1 if j % 2 else 1
        acc = sum(beta[k] * (sign * comb(k - 1, j)) for k in range(j + 2, K + 1))
        beta[j + 1] = ((m + 1) * T[j] - acc) * sign  # dividing by the diagonal
    return CSequence(m, (Fraction(1), *(Fraction(b, D) for b in beta[1:])))


def c_genfunc_oracle(m_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients of the bivariate generating function, via series arithmetic.

    Expands (log(1-y))^2 * d/dy [ sqrt(1-z) / ((1-y)^{sqrt(1-z)} - 1) ] using
    the even-index Bernoulli expansion: only even powers of sqrt(1-z)
    survive, so each y-degree carries a polynomial in z. Returns the matrix
    M[m][t] = coefficient of y^m z^t for m = 0..m_max, t = 0..m_max/2.

    The claim this oracle tests is M[m][k-1] == c_{m,k} / (m+1) for m >= 1,
    with M[0][0] == 1.
    """
    k_max = m_max // 2 + 1
    order = m_max + 5
    bern = bernoulli_table(2 * (m_max // 2))
    inv1my = PowerSeries.geometric(order)
    neglog = PowerSeries.neg_log1m(order)
    rows = [[Fraction(0)] * k_max for _ in range(m_max + 1)]
    pw = PowerSeries.constant(1, order)  # (-log(1-y))^{2i}
    for i in range(m_max // 2 + 1):
        j = 2 * i
        if i > 0:
            pw = pw * neglog * neglog
        yser = inv1my * pw
        scale = Fraction(1 - j, factorial(j)) * bern[j]
        if scale == 0:
            continue
        # (1-z)^i contributes C(i,t)(-1)^t to z^t
        zcol = [Fraction((-1) ** t * comb(i, t)) for t in range(min(i, k_max - 1) + 1)]
        for mm in range(m_max + 1):
            ym = yser.coefficient(mm)
            if not ym:
                continue
            base = scale * ym
            for t, zc in enumerate(zcol):
                rows[mm][t] += base * zc
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# the sinh-kernel family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinhSeries:
    """Exact z-expansion coefficients of the truncated sinh kernel.

    The kernel r^2 u / sinh^2(r sqrt(u)/2) equals 2 / H(u) with
    H(u) = sum_{n>=1} r^{2n-2} u^{n-1} / (2n)!. The coefficients d[k] of
    2 / H_N(1-z), H_N the n_terms-term truncation of H, are held as one
    integer row over one positive denominator: d[k] = num[k] / den. d[0] is
    exactly 2 divided by the truncated sum at u = 1.
    """

    r_squared: Fraction
    num: tuple[int, ...]
    den: int

    @property
    def d(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)


def sinh_series(r_squared, n_terms: int) -> SinhSeries:
    """Expand the truncated kernel in z = 1 - u through degree n_terms - 1.

    With r^2 = p/q, N = n_terms and D = (2N)! q^(N-1), the terms
    h_i = D r^(2i) / (2i+2)! of D H_N(u) are integers, and so are the
    z-coefficients g_k = (-1)^k sum_{i>=k} C(i,k) h_i of D H_N(1-z). Their
    inverse is e_k / u^(k+1) with u = g_0 > 0, e_0 = 1 and
    e_k = -sum_{j=1..k} g_j u^(j-1) e_{k-j}, so d_k = 2 D e_k / u^(k+1),
    kept over the shared denominator u^N. r_squared = 0 is the degenerate
    limit and yields the constant series 4.
    """
    r2 = Fraction(r_squared)
    if r2 < 0:
        raise ValueError("r_squared must be >= 0")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    N = n_terms
    p, q = r2.numerator, r2.denominator
    f2N = factorial(2 * N)
    h = [f2N // factorial(2 * i + 2) * p**i * q ** (N - 1 - i) for i in range(N)]
    g = [sum(comb(i, k) * h[i] for i in range(k, N)) * (-1) ** k for k in range(N)]
    u = g[0]
    gu = [0] + [g[j] * u ** (j - 1) for j in range(1, N)]  # g_j u^(j-1)
    e = [1]
    for k in range(1, N):
        e.append(-sum(gu[j] * e[k - j] for j in range(1, k + 1)))
    two_D = 2 * f2N * q ** (N - 1)
    num = tuple(two_D * e[k] * u ** (N - 1 - k) for k in range(N))
    return SinhSeries(r2, num, u**N)


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
    non-increase of j a_j / a_{j-1}. All comparisons are integer-exact.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    fm = 1
    for (m, S), h in zip(stirling_rows(m_max), harmonic_sums(m_max)):
        if m >= 1:
            fm *= m
        witness = _row_witness(m, S, fm, h, deep_roots)
        if witness is not None:
            return witness
    return None


def _row_witness(m: int, S: list[int], fm: int, h: Fraction,
                 deep_roots: bool) -> Witness | None:
    """The invariants of `a_invariant_witness` for one integer row
    S = m! a_{m,.}, with fm = m! and h = h_m."""
    if S[0] != fm:
        return Witness("a0=1", m, 0, Fraction(S[0], fm), Fraction(1))
    if m >= 1:
        # a_1 = h_m  <=>  S[1] * den(h) == num(h) * m!
        if S[1] * h.denominator != h.numerator * fm:
            return Witness("a1=h_m", m, 1, Fraction(S[1], fm), h)
        if S[m] != 1:
            return Witness("am=1/m!", m, m, Fraction(S[m], fm), Fraction(1, fm))
    if any(s <= 0 for s in S):
        j = next(j for j, s in enumerate(S) if s <= 0)
        return Witness("positivity", m, j, Fraction(S[j], fm), Fraction(0))
    if deep_roots:
        for k in range(1, m + 1):
            v = _row_eval_at_int(S, k)
            if v != 0:
                return Witness("root-vanishing", m, k, Fraction(v, fm), Fraction(0))
    for j in range(1, m):
        if S[j] * S[j] < S[j - 1] * S[j + 1]:
            return Witness(
                "log-concavity", m, j, Fraction(S[j] ** 2), Fraction(S[j - 1] * S[j + 1])
            )
        # j a_j / a_{j-1} non-increasing:  j S_j^2 >= (j+1) S_{j+1} S_{j-1}
        if j * S[j] * S[j] < (j + 1) * S[j + 1] * S[j - 1]:
            return Witness(
                "newton-ratio", m, j,
                Fraction(j * S[j] ** 2), Fraction((j + 1) * S[j + 1] * S[j - 1]),
            )
        # binomial-normalized log-concavity (Newton's inequalities)
        lhs = S[j] * S[j] * comb(m, j - 1) * comb(m, j + 1)
        rhs = S[j - 1] * S[j + 1] * comb(m, j) ** 2
        if lhs < rhs:
            return Witness("newton-binomial", m, j, Fraction(lhs), Fraction(rhs))
    return None


def c_positivity_witness(m_max: int) -> Witness | None:
    """Every c_{m,k} must be strictly positive, for all m <= m_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    for seq in c_sequences(m_max):
        for k, v in enumerate(seq.c):
            if v <= 0:
                return Witness("c-positivity", seq.m, k, v, Fraction(0))
    return None


def c1_identity_witness(m_max: int) -> Witness | None:
    """Observed identity c_{m,1} = 2(m+1)/(m+2) h_{m+1}, checked exactly.

    Verified as a numerical observation, not assumed anywhere else.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    bernoulli_table(m_max)  # the sweep's largest table, once
    hs = harmonic_sums(m_max + 1)
    next(hs)  # h_0
    next(hs)  # h_1
    for m, S in stirling_rows(m_max):
        if m < 1:
            continue
        h_next = next(hs)  # h_{m+1}
        row, D = _t_row(m, S)
        c1 = Fraction((m + 1) * sum(row), D)
        expected = Fraction(2 * (m + 1), m + 2) * h_next
        if c1 != expected:
            return Witness("c1-identity", m, 1, c1, expected)
    return None


def growth_band_check() -> bool:
    """Sanity band: at m = 1000, a_{m,j} / ((log m)^j / j!) stays within
    [1/3, 3] for j = 1..3.

    A float check by design; the growth statement has no exact constants.
    """
    m = 1000
    table = coeff_table(m)
    for j in range(1, 4):
        ratio = float(table.a[j]) / (log(m) ** j / factorial(j))
        if not (1 / 3 <= ratio <= 3.0):
            return False
    return True
