#!/usr/bin/env python3
"""Tour of the exact coefficient machinery.

Walks through the product-polynomial tables, the Bernoulli and harmonic
numbers, the factorial-series coefficients with their three independent
computation routes, and the sinh-kernel family. Everything printed here is
an exact rational; decimals are labeled approximations.

Run:  python demos/coefficient_tables.py
"""

from fractions import Fraction as F

from zetacf import (
    bernoulli_table,
    c_direct,
    c_genfunc_oracle,
    c_residue_oracle,
    coeff_table,
    harmonic,
    sinh_series,
)
from zetacf.serialize import decimal30, dump_csv, dump_json, frac_str, table_payload


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Coefficient tables a_{m,j} of (1-t)(1-t/2)...(1-t/m)")
for m in (0, 3, 5):
    t = coeff_table(m)
    print(f"m={m}: " + ", ".join(frac_str(x) for x in t.a))
print("a_{m,1} is the harmonic number: a_{5,1} =", coeff_table(5).a[1],
      "= h_5 =", harmonic(5).h)

show("Structural facts, checked exactly on the way")
t = coeff_table(12)
t.validate()  # raises if any identity fails
print("m=12 table validates: a_0=1, a_1=h_12, a_12=1/12!, vanishing at t=1..12")
ratios = [t.a[j] / t.a[j - 1] for j in range(1, 13)]
print("ratios a_j/a_{j-1} decrease:",
      all(a >= b for a, b in zip(ratios, ratios[1:])))

show("Bernoulli numbers (B_1 = -1/2 convention), two routes compared exactly")
b = bernoulli_table(12)
print("B_0..B_12:", ", ".join(frac_str(x) for x in b.b))

show("The factorial-series coefficients c_{m,k} and their oracles")
for m in (1, 2, 6):
    direct = c_direct(m)
    residue = c_residue_oracle(m)
    print(f"m={m}: c = [" + ", ".join(frac_str(x) for x in direct.c) + "]",
          "| residue route agrees:", direct.c == residue.c)
matrix = c_genfunc_oracle(6)
c3 = c_direct(3)
print("generating-function route, row m=3 times (m+1):",
      [frac_str(x * 4) for x in matrix[3][: len(c3.c) - 1]],
      "| matches direct:", all(matrix[3][k - 1] * 4 == c3.c[k] for k in range(1, len(c3.c))))

show("The sinh-kernel family: positive and log-concave coefficient sequences")
for r2 in (F(1, 4), F(1), F(100)):
    d = sinh_series(r2, 20).d
    lc = all(d[k] * d[k] >= d[k - 1] * d[k + 1] for k in range(1, 19))
    print(f"r^2={frac_str(r2)}: d_0={decimal30(d[0])[:12]}..., all positive:",
          all(x > 0 for x in d), "log-concave:", lc)
print("degenerate r^2=0 limit:", [frac_str(x) for x in sinh_series(0, 4).d])

show("Serialization: exact num/den strings plus labeled decimal approximations")
payload = table_payload("coeffs_a", "j", coeff_table(3).a, {"m": 3})
print(dump_json(payload).rstrip())
rows = [(i, v.numerator, v.denominator, decimal30(v)) for i, v in enumerate(coeff_table(3).a)]
print(dump_csv(("index", "numerator", "denominator", "decimal30"), rows).rstrip())
