from __future__ import annotations

import pytest

from zetacf.coeff_core import bernoulli_table
from zetacf.series import Poly, PowerSeries


@pytest.fixture(scope="session")
def bern520():
    """One shared dual-checked Bernoulli table for the heavier sweeps."""
    return bernoulli_table(520)


def reference_inverse(a):
    """The inverse of a truncated series by the recurrence
    out_0 = 1/a_0, out_k = -(sum_{j=1..k} a_j out_{k-j}) / a_0, on Fraction
    or degree-0 Poly constant terms: an independent reference for
    `PowerSeries.inverse`, which runs the division-free recurrence."""
    c0 = a.coeffs[0]
    if isinstance(c0, Poly):
        if c0.degree > 0 or c0.coeffs[0] == 0:
            raise ZeroDivisionError("the constant term is not a unit")
        inv0 = Poly([1 / c0.coeffs[0]])
    else:
        inv0 = 1 / c0
    out = [inv0]
    for k in range(1, a.order + 1):
        acc = c0 * 0
        for j in range(1, k + 1):
            acc = acc + a.coeffs[j] * out[k - j]
        out.append(-(acc * inv0))
    return PowerSeries(out, a.order)
