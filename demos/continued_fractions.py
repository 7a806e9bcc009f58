#!/usr/bin/env python3
"""From partial fractions to factorial series to continued fractions.

Builds the two rational approximants for a few m, collapses them to single
fractions, expands the normalized forms into their finite factorial series,
converts those to continued fractions, and demonstrates that every route
gives exactly the same values (rational arithmetic) or agrees to hundreds of
bits (complex arithmetic).

Run:  python demos/continued_fractions.py
"""

from fractions import Fraction as F

import mpmath as mp

from zetacf import (
    build_f,
    build_g,
    collapsed,
    euler_cf,
    eval_cf,
    eval_pf,
    eval_pf_precise,
    f_expansion,
    g_expansion,
)
from zetacf.serialize import dump_csv, frac_str


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("The m=3 approximants, collapsed to single fractions")
for name, pf in (("first kind", build_f(3)), ("second kind", build_g(3))):
    scalar, poly, poles = collapsed(pf)
    prod = "".join(f"(s{-p:+d})" if p else "(s)" for p in poles).replace("+-", "-")
    print(f"{name}: {frac_str(scalar)} * ({poly}) / {prod}")
print("values at s=2:", eval_pf(build_g(3), F(2)), "and", eval_pf(build_f(3), F(2)))

show("Factorial expansions of the normalized forms")
ge = g_expansion(3)
fe = f_expansion(3)
print("3 s(s-1) G_3(s)  has terms", [frac_str(t) for t in ge.terms],
      "over (s+1)...(s+j)")
print("4 s F_3(s)       has terms", [frac_str(t) for t in fe.terms],
      "over (s-1)(s+1)...(s+2j-3)")

show("Euler continued fractions (levels are linear in s)")
cf_g = euler_cf(ge)
for i, lv in enumerate(cf_g.levels, 1):
    print(f"  level {i}: num = {lv.num}   den = {lv.den}")

show("Exact equality of the two evaluation routes at rational points")
m = 12
cf = euler_cf(g_expansion(m))
pf = build_g(m)
for s in (F(1, 2), F(1, 3), F(3, 4)):
    lhs = eval_cf(cf, s).value
    rhs = 1 / (m * s * (s - 1) * eval_pf(pf, s)) - 1
    print(f"s={s}: continued fraction == 1/(m s(s-1)G_m) - 1 exactly:", lhs == rhs)

show("Complex evaluation with tracked precision")
s = mp.mpc(2, 1)
got = eval_cf(cf, s, precision=256).value
pv = eval_pf_precise(pf, s, precision=256)
with mp.workprec(280):
    want = 1 / (m * mp.mpc(s) * (mp.mpc(s) - 1) * pv.value) - 1
    print("s = 2+i, m=12, 256 bits; |cf - pf route| =", mp.nstr(abs(got.value - want), 5))
print("cross-check width against a 128-bit rerun:", got.cross_width)

show("Convergent trace (the truncation behavior is observable)")
# the value at depth k is the (k+1)-th convergent
values = [complex(eval_cf(cf, F(1, 2), depth=k).value) for k in range(cf.depth)]
rows = [(k, z.real, z.imag, abs(z - values[-1])) for k, z in enumerate(values)]
print(dump_csv(("depth", "re", "im", "abs_error_vs_full_depth"), rows).rstrip())
