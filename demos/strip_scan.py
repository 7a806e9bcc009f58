#!/usr/bin/env python3
"""Strip scans and the numerical experiments.

Exercises the element test over rational grids (exact verdicts via squared
moduli: a float filter with a derived error bound settles the clear cases,
exact integers every close one), the empirical t-band search, the certified
winding-number zero scan, the ratio-monotonicity experiment, and the
convergence probe against the independent accelerated-series reference.

Run:  python demos/strip_scan.py      (about half a minute)
"""

from fractions import Fraction as F

from zetacf import (
    build_f,
    build_g,
    c_monotonicity_search,
    convergence_probe,
    half_sqrt_log_lower,
    numerator_poly,
    prop1_scan,
    worpitzky_margin,
    zero_scan,
)
from zetacf.qcomplex import QComplex
from zetacf.region_analysis import default_strip_grid, first_k_ratio_violation


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Element-test margins at single points (exact pass/fail)")
for m, t in ((10, F(0)), (10, F(1, 2)), (10, F(10)), (100, F(1))):
    r = worpitzky_margin(m, QComplex(F(1, 2), t))
    print(f"m={m:4d}, s=1/2+{t}i: margin={r.margin:+.4f}  pass={r.passed}")

show("Grid scan inside the certified band (41x41 rational points)")
m = 100
report = prop1_scan(m, default_strip_grid(m), bisect_band=True)
print(f"m={m}: guaranteed |t| <= {float(report.t_guaranteed):.4f}, "
      f"all {len(report.points)} points pass: {report.all_pass}")
print(f"smallest margin {report.global_min_margin:.4f} at sigma={report.global_argmin[0]}, "
      f"t={report.global_argmin[1]}")
print(f"empirical band at sigma=1/2 extends to |t| ~ {float(report.t_empirical):.4f} "
      f"(resolution {float(report.t_resolution):.2e})")

show("Certified zero scans of the collapsed numerators")
for m in (10, 50):
    T = half_sqrt_log_lower(m)
    for kind, pf in (("G", build_g(m)), ("F", build_f(m))):
        res = zero_scan(numerator_poly(pf), (F(0), F(1), -T, T))
        print(f"m={m:3d} {kind}-numerator on [0,1] x [-{float(T):.3f}, {float(T):.3f}]: "
              f"winding={res.winding_number} (certified={res.certified}, "
              f"boundary samples={res.samples})")

show("Ratio monotonicity: the weighted ratio eventually fails to decrease")
findings = c_monotonicity_search(2, 130)
first = first_k_ratio_violation(findings)
plain_ok = all(f.decreasing for f in findings if f.kind == "c_ratio")
print("c_k/c_{k-1} non-increasing for every m <= 130:", plain_ok)
print(f"first m where k c_k/c_{{k-1}} is not non-increasing: m={first.m} (at k={first.first_violation_k})")

show("Convergence against the independent reference (accelerated eta series)")
probe = convergence_probe([F(2)], [4, 8, 16, 32, 64], precision=192)
pt = probe.points[0]
print("s = 2, reference =", pt.zeta_str[:34], "...")
for row in pt.rows:
    print(f"  m={row.m:3d}  |error| = {row.error:.6e}")
print("strictly decreasing:", pt.strictly_decreasing)
