import random
import re
from fractions import Fraction as F
from math import comb, factorial, gcd, lcm

import pytest

from conftest import reference_inverse
from zetacf import coeff_core
from zetacf.coeff_core import (
    CoeffTable,
    CSequence,
    Witness,
    _bernoulli_akiyama_tanigawa,
    _bernoulli_tangent,
    a_invariant_witness,
    bernoulli_table,
    c1_identity_witness,
    c_direct,
    c_genfunc_oracle,
    c_positivity_witness,
    c_residue_oracle,
    c_sequences,
    coeff_table,
    harmonic,
    harmonic_sums,
    sinh_series,
)
from zetacf.errors import InternalConsistencyError
from zetacf.series import Poly, PowerSeries


def product_poly_coeffs(m: int) -> list[F]:
    """Independent oracle for a_{m,j}: expand (1-t)(1-t/2)...(1-t/m) as an
    explicit polynomial product and strip the signs."""
    p = Poly([1])
    for k in range(1, m + 1):
        p = p * Poly([1, F(-1, k)])
    return [c if j % 2 == 0 else -c for j, c in enumerate(p.coeffs)]


class TestCoeffTable:
    def test_m0_is_empty_product(self):
        assert coeff_table(0).a == (F(1),)

    def test_m3_golden(self):
        assert coeff_table(3).a == (F(1), F(11, 6), F(1), F(1, 6))

    def test_m5_a1_is_harmonic(self):
        # oracle: direct summation
        h5 = sum(F(1, r) for r in range(1, 6))
        assert coeff_table(5).a[1] == h5 == F(137, 60)

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 12, 19])
    def test_against_product_expansion(self, m):
        assert list(coeff_table(m).a) == product_poly_coeffs(m)

    def test_validate_deep(self):
        for m in (0, 1, 5, 17, 30):
            coeff_table(m).validate()

    @pytest.mark.parametrize("j, delta, check", [
        (0, F(1, 720), "a0=1"),
        (1, F(1, 720), "a1=h_m"),
        (6, F(1, 720), "am=1/m!"),
        (3, F(1, 720), "root-vanishing"),
        (3, F(1, 1440), "is not an integer"),
    ])
    def test_validate_names_failed_check(self, j, delta, check):
        a = list(coeff_table(6).a)
        a[j] += delta
        with pytest.raises(InternalConsistencyError, match=re.escape(check)):
            CoeffTable(6, tuple(a)).validate()

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            coeff_table(-1)


class TestBernoulli:
    def test_goldens(self):
        b = bernoulli_table(12)
        assert b[1] == F(-1, 2)
        assert b[2] == F(1, 6)
        assert b[3] == 0
        assert b[10] == F(5, 66)
        assert b[12] == F(-691, 2730)

    def test_odd_vanish(self):
        b = bernoulli_table(41)
        assert all(b[j] == 0 for j in range(3, 42, 2))

    def test_dual_method_agreement_200(self):
        # both routes, computed afresh: a cached table would prove nothing
        assert _bernoulli_tangent(200) == _bernoulli_akiyama_tanigawa(200)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 61, 200])
    def test_tangent_route_equals_tableau(self, n):
        assert _bernoulli_tangent(n) == _bernoulli_akiyama_tanigawa(n)

    def test_disagreement_raises(self, monkeypatch):
        def perturbed(n_max):
            B = _bernoulli_akiyama_tanigawa(n_max)
            B[6] += F(1, 10**9)
            return B

        monkeypatch.setattr(coeff_core, "_BERN", None)
        monkeypatch.setattr(coeff_core, "_bernoulli_akiyama_tanigawa", perturbed)
        with pytest.raises(InternalConsistencyError, match="index 6"):
            bernoulli_table(10)

    def test_prefix_of_cached_table_equals_fresh(self, monkeypatch):
        monkeypatch.setattr(coeff_core, "_BERN", None)
        fresh = bernoulli_table(24)
        monkeypatch.setattr(coeff_core, "_BERN", None)
        bernoulli_table(60)
        served = bernoulli_table(24)
        assert coeff_core._BERN.n_max == 60
        assert served == fresh
        assert list(served.b) == _bernoulli_tangent(24)

    def test_f3_pole_terms(self):
        # the displayed F_3 terms force the sign convention:
        # a_{3,1} B_1 = -11/12 and a_{3,2} B_2 = 1/6
        b = bernoulli_table(3)
        a = coeff_table(3).a
        assert a[1] * b[1] == F(-11, 12)
        assert a[2] * b[2] == F(1, 6)


class TestHarmonic:
    def test_goldens(self):
        assert harmonic(0) == 0
        assert harmonic(3) == F(11, 6)
        assert harmonic(10) == sum(F(1, r) for r in range(1, 11)) == F(7381, 2520)

    def test_incremental_matches(self):
        for m, h in enumerate(harmonic_sums(25)):
            assert h == sum(F(1, r) for r in range(1, m + 1))
            assert harmonic(m) == h


def c_bruteforce(m: int, bern) -> list[F]:
    """Independent oracle: the defining alternating Bernoulli sum, computed
    from the product-expansion coefficients rather than the row recurrence."""
    a = product_poly_coeffs(m)
    K = m // 2 + 1
    out = [F(1)]
    for k in range(1, K + 1):
        s = F(0)
        for j in range(m // 2 + 1):
            s += a[2 * j] * (1 - 2 * j) * bern[2 * j] * comb(j, k - 1)
        out.append((m + 1) * (-1) ** (k - 1) * s)
    return out


class TestCSequence:
    def test_m1_golden(self, bern520):
        assert list(c_direct(1).c) == c_bruteforce(1, bern520) == [F(1), F(2)]

    def test_m2_golden(self):
        seq = c_direct(2)
        assert seq.c[1] == F(11, 4)
        assert seq.c[1] == 2 * F(3, 4) * harmonic(3)

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 11, 16, 20])
    def test_matches_bruteforce(self, m, bern520):
        assert list(c_direct(m).c) == c_bruteforce(m, bern520)

    def test_c0_always_one(self):
        for seq in c_sequences(40):
            assert seq.c[0] == 1
            assert len(seq.c) == seq.m // 2 + 2

    def test_sweep_matches_single(self):
        singles = {m: c_direct(m).c for m in range(1, 21)}
        for seq in c_sequences(20):
            assert seq.c == singles[seq.m]

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_integer_row_over_one_denominator(self, m, bern520):
        seq = c_direct(m)
        assert seq.num[0] == seq.den > 0
        assert all(type(v) is int for v in seq.num)
        assert seq.c == tuple(F(v, seq.den) for v in seq.num) == tuple(c_bruteforce(m, bern520))
        assert seq.c is seq.c  # built once

    @pytest.mark.parametrize("m_max", [1, 2, 7, 61, 200])
    def test_shared_weights_give_each_rows_own_denominator(self, m_max):
        # the sweep rescales the weights of its largest table per row; every
        # row must equal the one built from that row's own table
        want = [coeff_core._c_row(m, *coeff_core._t_row(m, S))
                for m, S in coeff_core.stirling_rows(m_max) if m >= 1]
        assert list(c_sequences(m_max)) == want

    def test_taylor_shift_is_the_binomial_sum(self):
        a = [5, -3, 0, 7, 2, -11, 4]
        want = [sum(comb(j, i) * a[j] for j in range(i, len(a))) for i in range(len(a))]
        assert coeff_core._taylor_shift(list(a)) == want
        assert coeff_core._taylor_shift([9]) == [9]

    def test_positivity_witness_reads_the_row(self, monkeypatch):
        # a zero or negative numerator is the witness, reduced over den
        rows = [CSequence(1, (4, 6), 4), CSequence(2, (6, 3, -4), 6)]
        monkeypatch.setattr(coeff_core, "c_sequences", lambda m: iter(rows))
        w = c_positivity_witness(2)
        assert (w.m, w.index, w.lhs, w.rhs) == (2, 2, F(-2, 3), 0)


class TestResidueOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 13, 20])
    def test_matches_direct(self, m):
        assert c_residue_oracle(m).c == c_direct(m).c

    def test_m1(self):
        assert c_residue_oracle(1).c == (F(1), F(2))

    @pytest.mark.parametrize("m", [1, 4, 9, 24])
    def test_same_row_over_the_same_denominator(self, m):
        direct, oracle = c_direct(m), c_residue_oracle(m)
        assert (oracle.num, oracle.den) == (direct.num, direct.den)

    def test_length_terminates(self):
        # finitely many poles: exactly floor(m/2)+2 entries including c_0
        assert len(c_residue_oracle(2).c) == 3


class TestGenfuncOracle:
    def test_constant_term(self):
        assert c_genfunc_oracle(4)[0][0] == 1

    def test_m1_entry(self):
        M = c_genfunc_oracle(4)
        assert M[1][0] == c_direct(1).c[1] / 2 == 1

    def test_m3_row_is_scaled_c(self):
        M = c_genfunc_oracle(6)
        c3 = c_direct(3).c
        for k in range(1, len(c3)):
            assert M[3][k - 1] == c3[k] / 4

    def test_full_match_to_12(self):
        M = c_genfunc_oracle(12)
        for seq in c_sequences(12):
            for k in range(1, len(seq.c)):
                assert M[seq.m][k - 1] == seq.c[k] / (seq.m + 1)
            for t in range(len(seq.c) - 1, len(M[seq.m])):
                assert M[seq.m][t] == 0


class TestSinhSeries:
    def test_degenerate_limit_is_four(self):
        d = sinh_series(0, 8).d
        assert d[0] == 4 and all(x == 0 for x in d[1:])

    def test_d0_matches_summation_oracle(self):
        # d[0] must equal 2 / (truncated denominator sum at u = 1)
        for r2, n in ((F(1), 2), (F(1), 9), (F(1, 4), 12), (F(100), 7)):
            direct = F(2) / sum(r2**i / factorial(2 * i + 2) for i in range(n))
            assert sinh_series(r2, n).d[0] == direct
        assert sinh_series(F(1), 2).d[0] == F(48, 13)

    @pytest.mark.parametrize("r2", [F(1, 4), F(1), F(100), F(10000)])
    def test_positive_and_log_concave(self, r2):
        d = sinh_series(r2, 30).d
        assert all(x > 0 for x in d)
        assert all(d[k] * d[k] >= d[k - 1] * d[k + 1] for k in range(1, len(d) - 1))

    @pytest.mark.parametrize("r2", [F(0), F(1, 4), F(1), F(3, 7), F(100)])
    @pytest.mark.parametrize("n", [1, 2, 8, 30])
    def test_matches_fraction_inverse(self, r2, n):
        # reference: H_N(1-z) by the binomial sum, inverted by the Fraction
        # recurrence (independent of the shared Taylor shift and inverse)
        h = [r2**i / factorial(2 * i + 2) for i in range(n)]
        Hz = PowerSeries([(-1) ** k * sum(comb(i, k) * h[i] for i in range(k, n))
                          for k in range(n)], n - 1)
        s = sinh_series(r2, n)
        assert s.d == (reference_inverse(Hz) * 2).coeffs
        assert s.den > 0 and len(s.num) == n

    @pytest.mark.parametrize("r2", [F(0), F(1, 4), F(1), F(3, 7), F(100), F(10000),
                                    F(10**9, 7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 60])
    def test_matches_power_sum_recurrence(self, r2, n):
        # reference: the inverse recurrence as a sum over the powers g_j u^(j-1),
        # on the h-row and 2D divided by their content gcd(h) (the normal form)
        p, q = r2.numerator, r2.denominator
        f2N = factorial(2 * n)
        h = [f2N // factorial(2 * i + 2) * p**i * q ** (n - 1 - i) for i in range(n)]

        def inverse(h):
            g = [sum(comb(i, k) * h[i] for i in range(k, n)) * (-1) ** k for k in range(n)]
            u = g[0]
            gu = [0] + [g[j] * u ** (j - 1) for j in range(1, n)]
            e = [1]
            for k in range(1, n):
                e.append(-sum(gu[j] * e[k - j] for j in range(1, k + 1)))
            return g, e, u

        two_D = 2 * f2N * q ** (n - 1)
        c = gcd(*h)
        g, e, u = inverse([x // c for x in h])
        s = sinh_series(r2, n)
        assert s.num == tuple(two_D // c * e[k] * u ** (n - 1 - k) for k in range(n))
        assert s.den == u**n
        assert coeff_core._sinh_z_row(r2, n) == (g, two_D // c // 2)
        assert gcd(*g) == 1
        # d_k = 2D e_k / u^(k+1) on the un-reduced row too (the same row when
        # c = 1), compared by cross-multiplication
        _, e, u = inverse(h) if c > 1 else (g, e, u)
        assert all(x.numerator * u ** (k + 1) == two_D * e[k] * x.denominator
                   for k, x in enumerate(s.d))

    @pytest.mark.parametrize("r2", [F(0), F(1, 4), F(1), F(3, 7), F(100), F(10000),
                                    F(10**9, 7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 60])
    def test_d_reduced_against_powers_of_u(self, r2, n):
        # d[k], reduced against u^(k+1), is num[k] / den: a Fraction is in
        # lowest terms, so equal cross products make it F(num[k], den)
        s = sinh_series(r2, n)
        assert s.den == s.u**n
        d = s.d
        assert len(d) == n and all(type(x) is F for x in d)
        assert all(x.numerator * s.den == y * x.denominator for x, y in zip(d, s.num))

    @pytest.mark.parametrize("r2", [F(0), F(1, 4), F(3, 7), F(100), F(10**9, 7)])
    def test_d_in_lowest_terms(self, r2):
        # d[k] is built from coprime parts without Fraction's gcd: its parts
        # must be those of the normalised F(num[k], den)
        s = sinh_series(r2, 40)
        for x, n in zip(s.d, s.num):
            y = F(n, s.den)
            assert (x.numerator, x.denominator) == (y.numerator, y.denominator)

    def test_d_divides_out_repeated_factors(self):
        # u = 12 = 2^2 3: x = num[k] / u^(N-1-k) shares 2^a 3^b with u^(k+1)
        # in powers above those of u, so the reduction takes several rounds
        u, N = 12, 4
        xs = [2 ** 7 * 3 * 5, -(3 ** 6) * 7, 0, 2 ** 9 * 3 ** 9 * 11]
        num = tuple(x * u ** (N - 1 - k) for k, x in enumerate(xs))
        s = coeff_core.SinhSeries(F(1), num, u ** N, u)
        for k, (x, d) in enumerate(zip(xs, s.d)):
            y = F(x, u ** (k + 1))
            assert (d.numerator, d.denominator) == (y.numerator, y.denominator)

    @pytest.mark.parametrize("r2", [F(0), F(1, 4), F(1), F(100), F(10000), *(
        F(rng.randint(1, 10**6), rng.randint(1, 10**3))
        for rng in [random.Random(2101)] for _ in range(3))])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 60])
    def test_enclosure_contains_the_exact_row(self, r2, n):
        # y_k = d_k / (2D) = num[k] / (2D den) must lie in
        # [lo_k 2^e_k, hi_k 2^e_k] at two precisions below the CLI's ladder
        # and at each rung it climbs (128 bits, doubled up to
        # N bit_length(u) / 4 while a level is open), and every level the
        # enclosure proves must hold on the exact row
        g, D = coeff_core._sinh_z_row(r2, n)
        s = sinh_series(r2, n)
        scale = 2 * D * s.den
        bits = 8
        while bits <= max(n * g[0].bit_length() // 4, 64):
            enc = lo, hi, ex = coeff_core._sinh_enclosure(g, bits)
            for x, a, b, e in zip(s.num, lo, hi, ex):
                # the cut keeps `bits` bits; rounding up can carry one more
                assert a <= b and max(abs(a), abs(b)).bit_length() <= bits + 1
                # a 2^e <= x / scale <= b 2^e, as integers
                if e >= 0:
                    assert a * scale << e <= x <= b * scale << e
                else:
                    assert a * scale <= x << -e <= b * scale
            signs = [k for k in range(n) if lo[k] > 0]
            pairs = [k for k in range(1, n - 1) if min(lo[k - 1:k + 2]) > 0
                     and coeff_core._tops_prove(enc, k, 1, 1)]
            assert all(s.num[k] > 0 for k in signs)
            assert all(s.num[k] ** 2 >= s.num[k - 1] * s.num[k + 1] for k in pairs)
            if bits >= 128 and len(signs) + len(pairs) == max(2 * n - 2, 1):
                break  # every level decided: the ladder stops here
            bits = 8 * bits if bits < 64 else 2 * bits

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sinh_series(-1, 5)
        with pytest.raises(ValueError):
            sinh_series(1, 0)


class TestInvariantSweeps:
    def test_a_invariants_to_100(self):
        assert a_invariant_witness(100) is None

    def test_c_positivity_to_60(self):
        assert c_positivity_witness(60) is None

    def test_c1_identity_to_100(self):
        assert c1_identity_witness(100) is None


def _c1_identity_reference(m_max):
    """The c1 sweep on reduced Fractions: the whole T-row of every m over its
    own lcm, c_{m,1} reduced, and compared with the expected value."""
    hs = coeff_core.harmonic_sums(m_max + 1)
    next(hs)
    next(hs)
    for m, S in coeff_core.stirling_rows(m_max):
        if m < 1:
            continue
        h_next = next(hs)
        B = bernoulli_table(m)
        even = [B[2 * j] for j in range(m // 2 + 1)]
        L = lcm(*(b.denominator for b in even))
        row = [S[2 * j] * (1 - 2 * j) * b.numerator * (L // b.denominator)
               for j, b in enumerate(even)]
        c1 = F((m + 1) * sum(row), factorial(m) * L)
        expected = F(2 * (m + 1), m + 2) * h_next
        if c1 != expected:
            return Witness("c1-identity", m, 1, c1, expected)
    return None


def _row_tops_reference(S):
    """The per-entry loop: one entry at a time, None at the first entry
    that is not positive."""
    t, u, e = [], [], []
    for s in S:
        if s <= 0:
            return None
        ej = max(s.bit_length() - 62, 0)
        t.append(s >> ej)
        u.append((s >> ej) + 1 if ej else s >> ej)
        e.append(ej)
    return t, u, e


def test_stirling_prefix_is_the_row_prefix():
    # the recurrence kept to S_0..S_w, against the whole streamed row; no w,
    # or one past the row, gives all of it
    for n, S in coeff_core.stirling_rows(300):
        assert coeff_core._stirling_row(n) == S, n
        for w in (0, 1, 2, 5, n + 3):
            assert coeff_core._stirling_row(n, w) == S[:w + 1], (n, w)


class TestRowTops:
    def test_stirling_rows_equal_the_loop(self):
        for m, S in coeff_core.stirling_rows(200):
            assert coeff_core._row_tops(S) == _row_tops_reference(S)

    @pytest.mark.parametrize("S", [
        [1],
        [1, 2 ** 60 + 5, 2 ** 61 - 1, 2 ** 61, 2 ** 62 - 1, 2 ** 62, 2 ** 63 - 1, 7],
        [2 ** 62 + 1, 1, 2 ** 63 - 1, 3 ** 40, 2 ** 200 + 3],
        [],
    ])
    def test_crafted_rows_equal_the_loop(self, S):
        # entries of 1, 61, 62 and 63 bits (and more): e_j = 0 up to 62 bits
        got = coeff_core._row_tops(S)
        assert got == _row_tops_reference(S)
        assert all(type(v) is int for part in got for v in part)
        assert all(t * 2 ** e <= s <= u * 2 ** e for s, t, u, e in zip(S, *got))

    @pytest.mark.parametrize("S", [[6, 11, 0, 1], [6, 11, -6, 1], [0], [-2 ** 70, 5]])
    def test_entry_not_positive_gives_none(self, S):
        assert coeff_core._row_tops(S) is None is _row_tops_reference(S)


class TestTransposedSweep:
    def test_carried_sums_equal_the_rows_dot_products(self):
        n = 150
        w, _ = coeff_core._t_weights(n)
        x = [0] * (n + 1)
        x[::2] = w
        sums = coeff_core._transposed_sums(x)
        for (m, S), (m2, F_m) in zip(coeff_core.stirling_rows(n), sums):
            assert m2 == m
            assert F_m[0] == sum(S[2 * j] * w[j] for j in range(m // 2 + 1))
            # the whole carried vector, shifted dot products of the row
            assert F_m == [sum(S[i] * x[i + s] for i in range(m + 1)) for s in range(n - m + 1)]
        assert next(sums, None) is None


class TestC1IdentityReference:
    def test_both_pass_to_60(self):
        for m_max in range(1, 61):  # L, the weights' lcm, grows with m_max
            assert c1_identity_witness(m_max) is None
            assert _c1_identity_reference(m_max) is None

    def test_witness_equals_reference(self, monkeypatch):
        sums = coeff_core.harmonic_sums

        def perturbed(m_max):
            for i, h in enumerate(sums(m_max)):
                yield h + F(1, 10**9) if i == 18 else h

        monkeypatch.setattr(coeff_core, "harmonic_sums", perturbed)
        got, ref = c1_identity_witness(40), _c1_identity_reference(40)
        assert got is not None and (got.check, got.m, got.index) == ("c1-identity", 17, 1)
        assert (got.check, got.m, got.index, got.lhs, got.rhs) == (
            ref.check, ref.m, ref.index, ref.lhs, ref.rhs)
        assert str(got) == str(ref)


def _row_witness_reference(m, S, fm, h, deep_roots):
    """The unfiltered row check: every level compared on the full products,
    Newton's inequality with its binomials, and Horner at every root."""
    if S[0] != fm:
        return Witness("a0=1", m, 0, F(S[0], fm), F(1))
    if m >= 1:
        if S[1] * h.denominator != h.numerator * fm:
            return Witness("a1=h_m", m, 1, F(S[1], fm), h)
        if S[m] != 1:
            return Witness("am=1/m!", m, m, F(S[m], fm), F(1, fm))
    if any(s <= 0 for s in S):
        j = next(j for j, s in enumerate(S) if s <= 0)
        return Witness("positivity", m, j, F(S[j], fm), F(0))
    if deep_roots:
        for k in range(1, m + 1):
            v = coeff_core._row_eval_at_int(S, k)
            if v != 0:
                return Witness("root-vanishing", m, k, F(v, fm), F(0))
    for j in range(1, m):
        if S[j] * S[j] < S[j - 1] * S[j + 1]:
            return Witness("log-concavity", m, j, F(S[j] ** 2), F(S[j - 1] * S[j + 1]))
        if j * S[j] * S[j] < (j + 1) * S[j + 1] * S[j - 1]:
            return Witness("newton-ratio", m, j,
                           F(j * S[j] ** 2), F((j + 1) * S[j + 1] * S[j - 1]))
        lhs = S[j] * S[j] * comb(m, j - 1) * comb(m, j + 1)
        rhs = S[j - 1] * S[j + 1] * comb(m, j) ** 2
        if lhs < rhs:
            return Witness("newton-binomial", m, j, F(lhs), F(rhs))
    return None


def _row_check(S, deep_roots=False):
    """Both row checks on S, read as m! a_{m,.} with fm = S[0], h = S[1]/S[0]."""
    m, fm, h = len(S) - 1, S[0], F(S[1], S[0])
    return (coeff_core._row_witness(m, S, fm, h, deep_roots),
            _row_witness_reference(m, S, fm, h, deep_roots))


def _crafted_row(j, p, q):
    """A row m = 8 of 200-bit entries failing q S_j^2 >= p S_{j-1} S_{j+1}
    at j by one unit of S_{j+1}, and passing every check at the levels
    before j.

    S_i = 2^(225 - (2i-1)^2) clears Newton's inequalities by a factor of at
    least 2^8 at every level, with S_0 = S_1 and S_8 = 1. Then S_{j-1} gets
    all-ones low bits (its top loses almost one unit), S_j keeps an exact
    top, and S_{j+1} becomes the least integer that fails: one less holds."""
    S = [1 << (225 - (2 * i - 1) ** 2) for i in range(9)]
    S[j - 1] |= (1 << (S[j - 1].bit_length() - 62)) - 1
    S[j + 1] = q * S[j] ** 2 // (p * S[j - 1]) + 1
    assert p * S[j - 1] * (S[j + 1] - 1) <= q * S[j] ** 2 < p * S[j - 1] * S[j + 1]
    return S


class TestRowWitnessReference:
    @pytest.mark.parametrize("deep_roots", [True, False])
    def test_every_row_to_150(self, deep_roots):
        fm = 1
        for (m, S), h in zip(coeff_core.stirling_rows(150), harmonic_sums(150)):
            fm *= max(m, 1)
            assert (coeff_core._row_witness(m, S, fm, h, deep_roots)
                    == _row_witness_reference(m, S, fm, h, deep_roots) is None)

    @pytest.mark.parametrize("check, j, p, q", [
        ("log-concavity", 3, 1, 1),
        ("newton-ratio", 3, 4, 3),
        ("newton-ratio", 5, 6, 5),
        ("newton-binomial", 3, 4 * 6, 3 * 5),
        ("newton-binomial", 4, 5 * 5, 4 * 4),
    ])
    def test_crafted_row_missing_by_one(self, check, j, p, q):
        S = _crafted_row(j, p, q)
        tops = coeff_core._row_tops(S)
        assert all(coeff_core._tops_prove(tops, i, (i + 1) * (9 - i), i * (8 - i))
                   for i in range(1, j))  # the levels before j never reach the fallback
        got, ref = _row_check(S)
        assert got == ref and (got.check, got.m, got.index) == (check, 8, j)
        assert str(got) == str(ref)
        # one unit inside, this inequality holds; a stronger one may still fail
        S[j + 1] -= 1
        got, ref = _row_check(S)
        assert got == ref and (got is None or (got.index, got.check) != (j, check))

    @pytest.mark.parametrize("S, text", [
        ([6, 11, 0, 1], "positivity fails at m=3, index 2: 0 vs 0"),
        ([6, 11, -6, 1], "positivity fails at m=3, index 2: -1 vs 0"),
        ([6, 5, 6, 1], "log-concavity fails at m=3, index 1: 25 vs 36"),
        ([6, 7, 6, 1], "newton-ratio fails at m=3, index 1: 49 vs 72"),
        ([6, 10, 6, 1], "newton-binomial fails at m=3, index 1: 300 vs 324"),
    ])
    def test_witness_golden(self, S, text):
        got, ref = _row_check(S)
        assert str(got) == str(ref) == text

    def test_root_vanishing_past_the_first_root(self):
        # m! p(t) = (1-t)(2-t)(3-t)(4-t)(6-t): roots 1..4, not 5
        p = Poly([1])
        for r in (1, 2, 3, 4, 6):
            p = p * Poly([r, -1])
        S = [int(x) if j % 2 == 0 else -int(x) for j, x in enumerate(p.coeffs)]
        got, ref = _row_check(S, deep_roots=True)
        assert got == ref
        assert str(got) == "root-vanishing fails at m=5, index 5: 1/6 vs 0"
        assert got.lhs == F(coeff_core._row_eval_at_int(S, 5), S[0]) == F(24, 144)


def _sweep_reference(m_max, deep_roots):
    """`a_invariant_witness` with every row checked by the reference."""
    fm = 1
    for (m, S), h in zip(coeff_core.stirling_rows(m_max), harmonic_sums(m_max)):
        fm *= max(m, 1)
        witness = _row_witness_reference(m, S, fm, h, deep_roots)
        if witness is not None:
            return witness
    return None


def _add_signed(S, roots, low):
    """S plus the signed row of t^low prod (r - t) over roots: m! p(t) gains
    a polynomial vanishing at t = 0 to order low and at each root."""
    p = Poly([0] * low + [1])
    for r in roots:
        p = p * Poly([r, -1])
    return [s + (int(x) if j % 2 == 0 else -int(x))
            for j, (s, x) in enumerate(zip(S, p.coeffs + (0,) * len(S)))]


class TestDeflation:
    def test_every_stirling_row_to_150(self):
        prev = None
        for m, S in coeff_core.stirling_rows(150):
            if prev is not None:
                assert coeff_core._deflates_to(S, prev)
            prev = S

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_refuses_a_perturbed_row(self, m):
        prev, S = coeff_core._stirling_row(m - 1), coeff_core._stirling_row(m)
        for j in range(m + 1):
            for d in (-1, 1):
                bad = list(S)
                bad[j] += d
                assert not coeff_core._deflates_to(bad, prev)
        assert not coeff_core._deflates_to([2 * s for s in S], prev)

    @pytest.mark.parametrize("corrupt, k", [
        # roots 1..4 kept, t^0 and t^1 untouched: the first non-root is 5
        (lambda S: _add_signed(S, (1, 2, 3, 4), 2), 5),
        # one middle entry off by one: p(1) = +-1/m!
        (lambda S: S[:7] + [S[7] + 1] + S[8:], 1),
    ])
    def test_corrupted_row_mid_sweep(self, monkeypatch, corrupt, k):
        rows = coeff_core.stirling_rows

        def corrupted(m_max):
            for m, S in rows(m_max):
                yield m, corrupt(S) if m == 20 else S

        monkeypatch.setattr(coeff_core, "stirling_rows", corrupted)
        got = a_invariant_witness(40, deep_roots=True)
        ref = _sweep_reference(40, deep_roots=True)
        assert got == ref and (got.check, got.m, got.index) == ("root-vanishing", 20, k)
        assert str(got) == str(ref)
