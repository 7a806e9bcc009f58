import re
from fractions import Fraction as F
from math import comb, factorial

import pytest

from zetacf import coeff_core
from zetacf.coeff_core import (
    CoeffTable,
    _bernoulli_akiyama_tanigawa,
    _bernoulli_recurrence,
    a_invariant_witness,
    bernoulli_table,
    c1_identity_witness,
    c_direct,
    c_genfunc_oracle,
    c_positivity_witness,
    c_residue_oracle,
    c_sequences,
    coeff_table,
    growth_band_check,
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
        assert _bernoulli_recurrence(200) == _bernoulli_akiyama_tanigawa(200)

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
        assert list(served.b) == _bernoulli_recurrence(24)

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
            assert seq.k_max == seq.m // 2 + 1

    def test_sweep_matches_single(self):
        singles = {m: c_direct(m).c for m in range(1, 21)}
        for seq in c_sequences(20):
            assert seq.c == singles[seq.m]


class TestResidueOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 13, 20])
    def test_matches_direct(self, m):
        assert c_residue_oracle(m).c == c_direct(m).c

    def test_m1(self):
        assert c_residue_oracle(1).c == (F(1), F(2))

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
        # reference: H_N(1-z) by the binomial sum, inverted as a Fraction series
        h = [r2**i / factorial(2 * i + 2) for i in range(n)]
        Hz = PowerSeries([(-1) ** k * sum(comb(i, k) * h[i] for i in range(k, n))
                          for k in range(n)], n - 1)
        s = sinh_series(r2, n)
        assert s.d == (Hz.inverse() * 2).coeffs
        assert s.den > 0 and len(s.num) == n

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

    def test_growth_band_at_1000(self):
        assert growth_band_check()
