"""Strip scans, element tests, zero counting and the numerical experiments.

The element test behind the blow-up criterion: with a_k = a_{m-1,k} and
v_k = (k+1) a_k / ((k+s) a_{k-1}), every level of the reciprocal continued
fraction is safe when |(v_k+1)(1+1/v_{k+1})| >= 4. At rational s = sn/sd +
i tn/td the squared modulus of that expression is rational, so the test
reduces to exact integer comparisons; no tolerance enters any verdict in
this module's scans. A double-precision filter with a derived error bound
settles each level whose squared modulus is clearly above or below 16, and
the exact integer comparison settles every level it cannot. Floats only
filter: the argmin is chosen by exact comparison among the levels the filter
cannot rule out, and the squared margin is exact. One routine runs that
test for single points, strip scans, the band search and the rows of the
real-line sweep that row log-concavity does not settle, all in one process.
Otherwise floating
point appears only in reported margin values (with a derived error bound)
and in the convergence probe, whose reference is an independently computed
accelerated alternating series.

The tail bound, Worpitzky's disc argument on a constant chain (Lorentzen &
Waadeland, Continued Fractions with Applications, 1992, ch. 3): with
v_j = r_j / (j+s), r_j = P_j / Q_j > 0 and sigma = Re s >= 0, |j+s| >= j, so
|v_j| <= r_j / j. Where lam P_j <= j Q_j for an integer lam >= 6 at j = k
and j = k+1, |v_k| and |v_{k+1}| are at most 1/lam, and

    |E_k| >= (1 - |v_k|)(1/|v_{k+1}| - 1) >= (1 - 1/lam)(lam - 1)
          = lam - 2 + 1/lam > 4,

so level k passes and |E_k|^2 > (lam - 2)^2. Per row, lam_j = floor(j Q_j /
P_j) for j = 1..m-1 and the suffix minima min_{j >= K} lam_j give K(lam),
the least K at which that minimum is at least lam: every level k >= K(lam)
(so both j = k, k+1 >= K(lam)) satisfies the bound. A row with an entry
that is not positive has no tail (K = m). `_point_margin` filters only the
levels below K(6), plus those below K(lam) for the lam its argmin needs.

On the Stirling rows that tail follows from a short prefix of the row.
Row n = m-1 holds the coefficients S_j of (x+1)(x+2)...(x+n), whose roots
are all real, so Newton's inequality j(n-j) S_j^2 >= (j+1)(n-j+1)
S_{j-1} S_{j+1} (Hardy, Littlewood & Polya, Inequalities, 2.22) makes
rho_j = j S_j / S_{j-1} non-increasing. Then lam_j = floor(j^2 / ((j+1)
rho_j)) is non-decreasing: the suffix minima are lam_j itself and K(lam)
is the first j with lam_j >= lam. So `_margin_context(m)` builds the one context class,
`_MarginContext`, from the entries S_0..S_w, w = 64, 128, ... until
lam_w >= 6, with O(m w) products instead of the O(m^2) of the whole row
(`_stirling_row(m - 1, w)`), and the context swaps the whole row in only
where a point reads past w: one the filter declines, whose levels are all
tested exactly, or one whose argmin search needs K(lam) for a lam >
lam_w. A context of an explicit whole row is the same class and never
swaps.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .approx_eval import _pf_value_at_prec, _to_mpc, build_f, build_g
from .coeff_core import (
    _row_tops,
    _stirling_row,
    _tops_prove,
    bernoulli_table,
    c_sequences,
    harmonic,
    harmonic_sums,
    stirling_rows,
)
from .errors import ReferenceAccuracyError, UncertifiableError
from .float_filter import (
    FAIL_BELOW,
    HIGH_END,
    LOW_END,
    PASS_AT,
    filter_levels,
    filter_point,
    fraction_sqrt_float,
    int_ratio_float,
    margin_error_bound,
    normal_ratio,
)
from .qcomplex import QComplex, _frac
from .series import Poly, PowerSeries

__all__ = [
    "RegionGrid",
    "MarginResult",
    "PointMargin",
    "WorpitzkyReport",
    "RatioBoundsResult",
    "ZeroScanResult",
    "MonotonicityFinding",
    "BinomialCfResult",
    "PositivityResult",
    "ZetaReference",
    "ConvergencePoint",
    "ConvergenceProbe",
    "half_sqrt_log_lower",
    "default_strip_grid",
    "seeded_strip_points",
    "worpitzky_margin",
    "prop1_scan",
    "real_line_margin_check",
    "ratio_bounds_check",
    "ratio_bounds_sweep",
    "zero_scan",
    "c_monotonicity_search",
    "first_k_ratio_violation",
    "binomial_cf_check",
    "positivity_truncation_check",
    "positivity_genfunc_matrix",
    "zeta_reference",
    "convergence_probe",
]


# ---------------------------------------------------------------------------
# grids and rational enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionGrid:
    """Rational grid over a rectangle in the s-plane."""

    sigma_min: Fraction
    sigma_max: Fraction
    t_min: Fraction
    t_max: Fraction
    n_sigma: int
    n_t: int

    def __post_init__(self):
        if self.n_sigma < 1 or self.n_t < 1:
            raise ValueError("grid needs at least one point per axis")
        if self.sigma_min > self.sigma_max or self.t_min > self.t_max:
            raise ValueError("empty grid rectangle")

    def require_strip(self) -> None:
        if not (0 < self.sigma_min <= self.sigma_max < 1):
            raise ValueError("strip scans need 0 < sigma_min <= sigma_max < 1")

    def sigma_values(self) -> list[Fraction]:
        return _axis(self.sigma_min, self.sigma_max, self.n_sigma)

    def t_values(self) -> list[Fraction]:
        return _axis(self.t_min, self.t_max, self.n_t)


def _axis(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def half_sqrt_log_lower(m: int) -> Fraction:
    """Certified rational lower bound for (1/2) sqrt(log m).

    Uses validated interval arithmetic for the enclosure, then rounds down to
    a multiple of 2^-16, a small denominator that keeps grid coordinates
    cheap.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    iv = mp.iv
    old = iv.prec
    iv.prec = 80
    try:
        val = iv.sqrt(iv.log(m)) / 2
    finally:
        iv.prec = old
    with mp.workprec(80):  # the endpoint has 80 bits: converting it is exact
        lower = _frac(mp.mpf(val.a))  # certified lower endpoint
    q = 1 << 16
    return Fraction(math.floor(lower * q), q)


# ---------------------------------------------------------------------------
# the element test: a float filter, exact integers for every close call
# ---------------------------------------------------------------------------


class _MarginContext:
    """Per-m tables for the element test, from the integer row
    S = (m-1)! a_{m-1,.}: the whole row (m = len(S)), or, from
    `_margin_context` only, a prefix S_0..S_w of Stirling row m-1 with
    lam_w >= 6. The test at s = sn/sd + i tn/td is

        N_k N_{k+1} >= 16 sd^2 td^2 W_k (Q_k P_{k+1})^2

    where P_k = (k+1) S_k, Q_k = S_{k-1},
    R_k = sd P_k + (k sd + sn) Q_k,  N_k = R_k^2 td^2 + tn^2 sd^2 Q_k^2,
    and W_k = (k sd + sn)^2 td^2 + tn^2 sd^2. All quantities are integers,
    so every comparison is exact; only the k the float filter cannot decide,
    and the argmin candidates, ever compute them. The filter reads
    r_k = P_k / Q_k, rounded once to the nearest double (NaN where that is
    not a normal double, which sends those k to the exact test).

    Both sides are homogeneous of degree 2 in each pair (P_j, Q_j), so the
    exact test runs on the content-free pairs (P_j / g_j, Q_j / g_j),
    g_j = gcd(P_j, Q_j) (`level`), which have the same |E_k|^2 and cut the
    common factor (g_k g_{k+1})^2 out of every product.

    For the tail bound (module docstring) the context keeps the suffix
    minima of lam_j = floor(j Q_j / P_j) over the j it holds (all read as 0
    when an entry of S is not positive) and the start `tail` = K(6). A
    whole row takes nothing from Newton's inequalities, as a crafted row
    need not be real-rooted. On a Stirling prefix they make lam_j
    non-decreasing: the prefix's suffix minima are lam_j itself, so K(lam)
    is the whole row's wherever lam <= lam_w. `level`, `ratios` and
    `tail_start` swap in the whole row before they read past the prefix, so
    the context answers as the whole row's does.

    Refuses a row with a zero among S_0..S_{m-2}: v_k is undefined where
    S_{k-1} = 0.
    """

    def __init__(self, S: list[int], m: int | None = None):
        self.m = m = len(S) if m is None else m
        if m < 3:
            raise ValueError("the element test needs m >= 3 (k range 1..m-2)")
        if 0 in S[:m - 1]:
            j = S.index(0)
            raise ValueError(f"S_{j} = 0: v_{j + 1} is undefined")
        self._levels: dict[int, tuple[int, int, int]] = {}  # filled on demand
        self._set_row(S)
        self.tail = self.tail_start(6)

    def _set_row(self, S: list[int]) -> None:
        """P, Q, r and the suffix minima of lam at j = 1..len(S)-1, from the
        entries S_0..S_{len(S)-1}."""
        self.P = [0] + [(k + 1) * S[k] for k in range(1, len(S))]  # P[k] = (k+1) S_k
        self.Q = [0] + S[:-1]  # Q[k] = S[k-1]
        self.r = [math.nan] + [normal_ratio(p, q) for p, q in zip(self.P[1:], self.Q[1:])]
        if min(S) > 0:
            lam = [j * q // p for j, p, q in zip(itertools.count(1), self.P[1:], self.Q[1:])]
        else:
            lam = [0] * (len(S) - 1)
        # _lam_min[K-1] = min of lam_j over j >= K, non-decreasing in K
        self._lam_min = list(itertools.accumulate(reversed(lam), min))[::-1]

    def _reach(self, j: int) -> None:
        """Swap in the whole Stirling row before a read of index j past the
        prefix (the entries the prefix holds are unchanged)."""
        if j >= len(self.P):
            self._set_row(_stirling_row(self.m - 1))

    def level(self, j: int) -> tuple[int, int, int]:
        """(P_j / g_j, Q_j / g_j, g_j) with g_j = gcd(P_j, Q_j), built once."""
        lv = self._levels.get(j)
        if lv is None:
            self._reach(j)
            g = math.gcd(self.P[j], self.Q[j])
            lv = self._levels[j] = (self.P[j] // g, self.Q[j] // g, g)
        return lv

    def ratios(self, j: int) -> list[float]:
        """r, for a reader of its entries up to index j."""
        self._reach(j)
        return self.r

    def tail_start(self, lam: int) -> int:
        """K(lam), the least K with lam P_j <= j Q_j at every j in [K, m-1];
        m when there is none."""
        if lam > self._lam_min[-1]:
            self._reach(self.m - 1)
        return 1 + bisect.bisect_left(self._lam_min, lam)


@functools.lru_cache(maxsize=4)
def _margin_context(m: int) -> _MarginContext:
    """The context of row m-1, from its shortest prefix S_0..S_w, w = 64,
    128, ..., with lam_w >= 6, or from the whole row once w reaches m-1."""
    n, w = m - 1, 64
    while True:
        S = _stirling_row(n, w)
        if w >= n or w * S[w - 1] >= 6 * (w + 1) * S[w]:  # the whole row, or lam_w >= 6
            return _MarginContext(S, m)
        w *= 2


@dataclass(frozen=True)
class MarginResult:
    m: int
    sigma: Fraction
    t: Fraction
    k_lo: int
    k_hi: int
    margin: float
    margin_sq: Fraction
    argmin_k: int
    passed: bool
    pole_adjacent: tuple[int, ...]
    float_error_bound: float
    exact_fallbacks: int  # k-levels the exact test decided (below K(6) where the filter runs)


def _rationalize_point(s) -> tuple[Fraction, Fraction]:
    if isinstance(s, tuple):
        return Fraction(s[0]), Fraction(s[1])
    z = QComplex.from_value(s)
    return z.re, z.im


def _point_margin(ctx: _MarginContext, sigma: Fraction, t: Fraction,
                  k_lo: int, k_hi: int, want_min: bool = True):
    """Element test at one point over k in [k_lo, k_hi].

    Each k is decided by its filtered q_hat_k when |q_hat_k - 16| clears the
    filter bound, and otherwise by the exact integer comparison (an exact
    fallback). The argmin is the first k of least exact |E_k|^2: floats only
    rule out the k that cannot hold it, and the rest are compared exactly.

    Where the filter models the point (so sigma >= 0), the tail bound
    decides every k >= K(6) = ctx.tail: |E_k|^2 > 16 there, so those k pass
    and none is an exact fallback. Only the k < K(6) are filtered. For the
    argmin, `cut` from those levels bounds the least |E_k|^2 from above;
    with lam = 2 + ceil(sqrt(ceil(cut))), every k >= K(lam) has |E_k|^2 >
    (lam - 2)^2 >= cut, so it cannot hold the first least value, and the k
    in [K(6), K(lam) - 1] are filtered as well. Elsewhere every k in
    [k_lo, k_hi] is filtered, or sent to the exact test where the filter
    declines the point.

    Returns (all_pass, argmin_k, num, den, sq, pole_adjacent,
    exact_fallbacks) where num/den is |E_{argmin}|^2 as the exact integer
    pair of P and Q and sq is its value as a Fraction. Every comparison runs
    on the content-free levels (`_MarginContext.level`); only the argmin's
    pair is scaled back by (g_k g_{k+1})^2. When want_min is False, stops at
    the first failing k and reports that k instead, and num, den and sq are
    None; when every k passes argmin_k is None too.
    """
    sn, sd = sigma.numerator, sigma.denominator
    tn, td = t.numerator, t.denominator
    sd2td2 = sd * sd * td * td
    td2 = td * td
    tnsd2 = (tn * sd) ** 2
    level = ctx.level

    def N_of(k: int, p: int, q: int) -> int:
        R = sd * p + (k * sd + sn) * q
        return R * R * td2 + tnsd2 * q * q

    def W_of(k: int) -> int:
        return (k * sd + sn) ** 2 * td2 + tnsd2

    def pair(k: int) -> tuple[int, int]:
        (p0, q0, _), (p1, q1, _) = level(k), level(k + 1)
        return 16 * N_of(k, p0, q0) * N_of(k + 1, p1, q1), 16 * sd2td2 * W_of(k) * (q0 * p1) ** 2

    poles = ()
    k = round(-sigma)  # the only k that can lie within 2^-20 of -s
    if k_lo <= k <= k_hi:
        W = W_of(k)
        if W == 0:
            raise ValueError(f"s coincides with the pole at k={k}")
        if W * (1 << 40) < sd2td2:  # |k+s|^2 < 2^-40
            poles = (k,)

    point = filter_point(sigma, t, k_hi + 1)
    end = k_hi  # the last k filtered so far
    if point is None:
        q = [math.nan] * (k_hi - k_lo + 1)
    else:
        if ctx.tail <= k_hi:
            end = max(ctx.tail, k_lo) - 1
        q = filter_levels(ctx.ratios(end + 1), point, k_lo, end)
    exact: dict[int, tuple[int, int]] = {}
    all_pass = True
    for k, q_hat in enumerate(q, k_lo):
        if PASS_AT <= q_hat < math.inf:
            continue
        if q_hat < FAIL_BELOW:
            failed = True
        else:
            exact[k] = pair(k)
            failed = exact[k][0] < 16 * exact[k][1]
        if failed:
            all_pass = False
            if not want_min:
                return False, k, None, None, None, poles, len(exact)
    if not want_min:
        return True, None, None, None, None, poles, len(exact)

    # Each finite q_hat_k is within FILTER_REL q_hat_k of |E_k|^2, so `cut`,
    # the least upper end q_hat (1 + FILTER_REL) rounded up, is at least the
    # least |E_k|^2. The argmin is among the k decided exactly, the k past
    # K(6) whose q_hat is not finite, and the k whose lower end q_hat (1 -
    # FILTER_REL) is <= cut; q_hat * LOW_END is <= cut in doubles for each
    # of the last, as rounding is monotone.
    q_min = min((q_hat for q_hat in q if q_hat < math.inf), default=math.inf)
    cut = math.nextafter(q_min * HIGH_END, math.inf)
    if end < k_hi:  # the levels past K(6) pass: filter those before K(lam)
        if cut < math.inf:
            root = math.isqrt(math.ceil(cut) - 1) + 1  # ceil(sqrt(ceil(cut))): q_hat >= 1
            stop = min(k_hi, ctx.tail_start(2 + root) - 1)
        else:
            stop = k_hi
        if stop > end:
            q += filter_levels(ctx.ratios(stop + 1), point, end + 1, stop)
    best = None
    for k in [k for k, q_hat in enumerate(q, k_lo) if not cut < q_hat * LOW_END < math.inf or k in exact]:
        num, den = exact.get(k) or pair(k)
        if best is None or num * best[2] < best[1] * den:
            best = k, num, den
    k, num, den = best
    c = (level(k)[2] * level(k + 1)[2]) ** 2
    return all_pass, k, num * c, den * c, Fraction(num, den), poles, len(exact)


def worpitzky_margin(m: int, s) -> MarginResult:
    """Minimum over k in [1, m-2] of |(v_k+1)(1+1/v_{k+1})| - 4 at s, with an
    exact verdict.

    Any dyadic or rational s is converted exactly, so the pass/fail decision
    and the reported squared margin are exact. The float margin comes from
    the exact pair through `int_ratio_float` and a square root, or, where
    that ratio overflows, from margin_sq itself; `float_error_bound` bounds
    its distance from sqrt(margin_sq + 16) - 4.
    """
    ctx = _margin_context(m)
    sigma, t = _rationalize_point(s)
    k_lo, k_hi = 1, m - 2
    found = _point_margin(ctx, sigma, t, k_lo, k_hi)
    margin, margin_sq, k_min, passed = _margin_fields(found)
    _, _, num, den, _, poles, fallbacks = found
    return MarginResult(
        m=m, sigma=sigma, t=t, k_lo=k_lo, k_hi=k_hi,
        margin=margin, margin_sq=margin_sq, argmin_k=k_min, passed=passed,
        pole_adjacent=poles,
        float_error_bound=margin_error_bound(margin_sq + 16, num, den, margin),
        exact_fallbacks=fallbacks,
    )


def _margin_fields(found) -> tuple[float, Fraction, int, bool]:
    """(margin, margin_sq, argmin_k, passed) from the tuple of `_point_margin`.

    Where the pair's int_ratio_float value is inf (|E_k|^2 >= 2^52), the
    root is taken from the exact |E_k|^2 instead."""
    all_pass, k_min, num, den, q, *_ = found
    ratio = int_ratio_float(num, den)
    root = fraction_sqrt_float(q) if math.isinf(ratio) else math.sqrt(max(ratio, 0.0))
    return root - 4.0, q - 16, k_min, all_pass


@dataclass(frozen=True)
class PointMargin:
    sigma: Fraction
    t: Fraction
    margin: float
    margin_sq: Fraction
    argmin_k: int
    passed: bool


@dataclass(frozen=True)
class WorpitzkyReport:
    m: int
    grid: RegionGrid
    points: tuple[PointMargin, ...]
    global_min_margin: float
    global_argmin: tuple[Fraction, Fraction]
    all_pass: bool
    band_pass: bool  # every point with |t| <= t_guaranteed passed
    failing_points: tuple[tuple[Fraction, Fraction], ...]
    t_guaranteed: Fraction
    t_empirical: Fraction | None
    t_resolution: Fraction | None
    k_levels: int  # k-levels tested, band search included
    exact_fallbacks: int  # of those, the ones the exact test decided


def default_strip_grid(m: int, n_sigma: int = 41, n_t: int = 41,
                       t_max: Fraction | None = None) -> RegionGrid:
    """Grid strictly inside the strip with |t| up to the certified enclosure
    of (1/2) sqrt(log m) (or a caller-supplied bound)."""
    T = half_sqrt_log_lower(m) if t_max is None else Fraction(t_max)
    den = n_sigma + 1
    return RegionGrid(Fraction(1, den), Fraction(n_sigma, den), -T, T, n_sigma, n_t)


def _rounded(x: Fraction) -> float:
    """x >= -16 correctly rounded to a double, inf beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def prop1_scan(m: int, grid: RegionGrid | None = None,
               bisect_band: bool = True, progress=None) -> WorpitzkyReport:
    """Element-test scan of a strip grid, every verdict exact.

    Margins at (sigma, -t) and (sigma, t) coincide (t enters all formulas
    squared), so only distinct |t| values are evaluated and results are
    mirrored onto the full grid. Optionally locates, by stepped search plus
    20 bisection steps at sigma = 1/2, the largest verified |t| band.
    """
    if grid is None:
        grid = default_strip_grid(m)
    grid.require_strip()
    ctx = _margin_context(m)
    k_lo, k_hi = 1, m - 2
    T = half_sqrt_log_lower(m)

    sigmas = grid.sigma_values()
    ts = grid.t_values()
    unique_ts = sorted({abs(t) for t in ts})
    cache: dict[tuple[Fraction, Fraction], PointMargin] = {}
    work = [(sig, t) for sig in sigmas for t in unique_ts]
    fallbacks = 0
    for i, (sig, t) in enumerate(work):
        found = _point_margin(ctx, sig, t, k_lo, k_hi)
        cache[(sig, t)] = PointMargin(sig, t, *_margin_fields(found))
        fallbacks += found[-1]
        if progress is not None and ((i + 1) % 64 == 0 or i + 1 == len(work)):
            progress(i + 1, len(work))

    points = []
    for sig in sigmas:
        for t in ts:
            base = cache[(sig, abs(t))]
            points.append(
                base if t == abs(t) else PointMargin(
                    sig, t, base.margin, base.margin_sq, base.argmin_k, base.passed
                )
            )
    # float(margin_sq) rounds correctly, so it is monotone: the first point of
    # least exact margin_sq is among those of least rounded value
    rounded = [_rounded(p.margin_sq) for p in points]
    least = min(rounded)
    worst = min((p for p, r in zip(points, rounded) if r == least), key=lambda p: p.margin_sq)
    failing = tuple((p.sigma, p.t) for p in points if not p.passed)
    band_pass = all(p.passed for p in points if abs(p.t) <= T)

    t_emp = t_res = None
    probes = 0
    if bisect_band:
        t_emp, t_res, probes, band_fallbacks = _empirical_t_band(ctx, T, k_lo, k_hi)
        fallbacks += band_fallbacks

    return WorpitzkyReport(
        m=m, grid=grid, points=tuple(points),
        global_min_margin=worst.margin,
        global_argmin=(worst.sigma, worst.t),
        all_pass=not failing,
        band_pass=band_pass,
        failing_points=failing,
        t_guaranteed=T,
        t_empirical=t_emp,
        t_resolution=t_res,
        k_levels=(len(work) + probes) * (k_hi - k_lo + 1),
        exact_fallbacks=fallbacks,
    )


def _empirical_t_band(ctx, T: Fraction, k_lo: int, k_hi: int
                      ) -> tuple[Fraction, Fraction | None, int, int]:
    """Largest verified |t| at sigma = 1/2: step up from the guaranteed bound
    to bracket the first failure, then bisect 20 times. The condition holds
    again for very large |t|, so the upward search uses fixed steps rather
    than doubling (a doubling search could leap over the failing band).

    Returns (t_empirical, t_resolution, points tested, exact fallbacks)."""
    half = Fraction(1, 2)
    probes = fallbacks = 0

    def passes(t: Fraction) -> bool:
        nonlocal probes, fallbacks
        ok, *_, n_exact = _point_margin(ctx, half, t, k_lo, k_hi, want_min=False)
        probes += 1
        fallbacks += n_exact
        return ok

    if not passes(T):
        # cannot happen inside the proven region; report degenerate band
        return Fraction(0), None, probes, fallbacks
    step = T / 8 if T > 0 else Fraction(1, 8)
    t_lo = T
    t_hi = None
    t = T
    for _ in range(64):
        t = t + step
        if passes(t):
            t_lo = t
        else:
            t_hi = t
            break
    if t_hi is None:
        return t_lo, None, probes, fallbacks
    for _ in range(20):
        mid = (t_lo + t_hi) / 2
        if passes(mid):
            t_lo = mid
        else:
            t_hi = mid
    return t_lo, t_hi - t_lo, probes, fallbacks


def real_line_margin_check(m_max: int, sigmas=(Fraction(1, 2),)) -> tuple[int, Fraction, int] | None:
    """Exact sweep: at real s = sigma in (0,1) the element test holds for
    every k and every 3 <= m <= m_max. Returns the first failure (m, sigma,
    k) or None.

    The test for m reads row n = m - 1, S = n! a_{n,.}, at the levels
    k = 1..n-1: v_k = (k+1) S_k / ((k+sigma) S_{k-1}). Where the row is
    positive and log-concave, S_k^2 >= S_{k-1} S_{k+1}, every level passes
    at every real sigma in (0, 1]:

        v_k / v_{k+1} = (k+1)(k+1+sigma) S_k^2 / ((k+2)(k+sigma) S_{k-1} S_{k+1}) >= 1,

    since (k+1)(k+1+sigma) - (k+2)(k+sigma) = 1 - sigma >= 0, and then, by
    AM-GM on v_k + 1/v_{k+1} (Hardy, Littlewood & Polya, Inequalities,
    2.22), (1+v_k)(1+1/v_{k+1}) >= (1 + sqrt(v_k/v_{k+1}))^2 >= 4.

    So each row first asks its 62-bit tops (`_tops_prove(tops, k, 1, 1)`)
    for log-concavity at every level, once for all sigmas. A row with an
    entry that is not positive, or a level the tops leave undecided, runs
    the filtered element test at t = 0 for each sigma in order, with the
    exact integer comparison for every level the filter cannot decide, over
    a context built from the streamed row (so the cached strip contexts stay
    put). A row the tops prove has no failure, so the first failure is the
    one that sweep finds. No pole check is lost: round(-sigma) is 0 or -1,
    never a level in 1..m-2.
    """
    # converted exactly, as a point is for `worpitzky_margin`, and kept: the
    # sigmas are read twice, checked here and swept per m below
    points = [_rationalize_point(sigma) for sigma in sigmas]
    if any(t for _, t in points):
        raise ValueError("each sigma must be real")
    sigmas = tuple(sigma for sigma, _ in points)
    if m_max < 3 or not sigmas or not all(0 < sigma < 1 for sigma in sigmas):
        raise ValueError("need m_max >= 3 and one or more sigmas, each in (0, 1)")
    for n, S in stirling_rows(m_max - 1):
        if n < 2:
            continue
        tops = _row_tops(S)
        if tops is not None and all(_tops_prove(tops, k, 1, 1) for k in range(1, n)):
            continue
        ctx = _MarginContext(S)  # the element test for m = n + 1 reads row n
        for sigma in sigmas:
            ok, k, *_ = _point_margin(ctx, sigma, Fraction(0), 1, ctx.m - 2, want_min=False)
            if not ok:
                return ctx.m, sigma, k
    return None


# ---------------------------------------------------------------------------
# ratio bounds (the two-sided harmonic bound and the Newton consequence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioBoundsResult:
    m: int
    passed: bool
    lemma_j_max: int
    witness: str | None


def _ratio_bounds_row(m: int, S: list[int], h: Fraction) -> RatioBoundsResult:
    """Check row m-1 (S = integer row of a_{m-1,.}, h = h_{m-1}).

    j = 1 is always checked (both bounds hold trivially there); beyond that
    the range is the strict j <= h_{m-1}/2.
    """
    hnum, hden = h.numerator, h.denominator
    j_max = 0
    j = 1
    while (j == 1 or 2 * j * hden <= hnum) and j <= m - 1:
        j_max = j
        # (h-1)/j <= S_j/S_{j-1}  and  S_j/S_{j-1} <= h/j
        if (hnum - hden) * S[j - 1] > j * hden * S[j]:
            return RatioBoundsResult(
                m, False, j_max,
                f"lower bound fails at j={j}: (h-1)/j > a_j/a_(j-1)")
        if j * hden * S[j] > hnum * S[j - 1]:
            return RatioBoundsResult(
                m, False, j_max,
                f"upper bound fails at j={j}: a_j/a_(j-1) > h/j")
        j += 1
    tops = _row_tops(S)  # None when an entry is not positive: every level exact
    for j in range(1, m - 1):
        if tops is not None and _tops_prove(tops, j, j + 1, j):
            continue
        if j * S[j] * S[j] < (j + 1) * S[j + 1] * S[j - 1]:
            return RatioBoundsResult(
                m, False, j_max, f"j*a_j/a_(j-1) increases at j={j}")
    return RatioBoundsResult(m, True, j_max, None)


def ratio_bounds_check(m: int) -> RatioBoundsResult:
    """Exact verification, for the row of index m-1, that
    (h-1)/j <= a_j/a_{j-1} <= h/j holds for 1 <= j <= h/2 (h = h_{m-1})
    and that j a_j/a_{j-1} never increases over the full range."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return _ratio_bounds_row(m, _stirling_row(m - 1), harmonic(m - 1))


def ratio_bounds_sweep(m_max: int) -> RatioBoundsResult | None:
    """First failing m <= m_max, or None when every check passes."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    for (n, S), h in zip(stirling_rows(m_max - 1), harmonic_sums(m_max - 1)):
        if n + 1 < 2:
            continue
        res = _ratio_bounds_row(n + 1, S, h)
        if not res.passed:
            return res
    return None


# ---------------------------------------------------------------------------
# winding-number zero scan (exact boundary evaluation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroScanResult:
    rectangle: tuple[Fraction, Fraction, Fraction, Fraction]
    winding_number: int
    boundary_min_modulus: float
    boundary_min_modulus_sq: Fraction
    samples: int
    subdivisions: int
    certified: bool


def _quadrant(x: int, y: int) -> int:
    """floor(arg(x + iy) / (pi/2)) for x + iy != 0 and arg in [0, 2 pi):
    each half-axis belongs to the quadrant it opens."""
    if y < 0 or (y == 0 and x < 0):
        return 3 if x >= 0 else 2
    return 0 if x > 0 else 1


_MAX_SAMPLES = 200_000  # the subdivision budget of `zero_scan`


def zero_scan(poly: Poly, rectangle, initial_per_edge: int = 16) -> ZeroScanResult:
    """Winding number of `poly` around a rational rectangle.

    Boundary points are rational, so each value is an exact integer pair
    (x, y) over a positive scale. A step between successive values with
    x0 x1 + y0 y1 > 0 turns by less than pi/2; any other step is split at
    its midpoint. The quadrant index floor(arg/(pi/2)) then moves by -1, 0
    or 1 per step, and these moves sum to exactly 4 * winding. Nothing yet
    certifies the value between two samples (see the README, "Zero counts").

    Raises UncertifiableError when the boundary passes too close to a zero
    for the subdivision budget, or exactly through one, and ValueError for an
    empty rectangle or initial_per_edge < 1 (no closed path to walk).
    """
    s_lo, s_hi, t_lo, t_hi = (Fraction(v) for v in rectangle)
    if not (s_lo < s_hi and t_lo < t_hi):
        raise ValueError("rectangle must have positive width and height")
    if initial_per_edge < 1:
        raise ValueError("initial_per_edge must be >= 1")
    corners = [
        QComplex(s_lo, t_lo), QComplex(s_hi, t_lo),
        QComplex(s_hi, t_hi), QComplex(s_lo, t_hi), QComplex(s_lo, t_lo),
    ]
    min_num, min_den = 1, 0  # the least |v|^2 as min_num/min_den; 1/0 before any

    def value(z: QComplex) -> tuple[int, int, int]:
        nonlocal min_num, min_den
        x, y, d = poly(z).gaussian()
        if not (x or y):
            raise UncertifiableError(f"polynomial vanishes exactly on the boundary at {z}")
        num, den = x * x + y * y, d * d
        if num * min_den < min_num * den:
            min_num, min_den = num, den
        return x, y, _quadrant(x, y)

    # initial closed path
    pts: list[QComplex] = []
    for c0, c1 in zip(corners, corners[1:]):
        for i in range(initial_per_edge):
            lam = Fraction(i, initial_per_edge)
            pts.append(QComplex(c0.re + lam * (c1.re - c0.re),
                                c0.im + lam * (c1.im - c0.im)))
    pts.append(corners[0])
    vals = [value(p) for p in pts]

    quarter_turns = 0
    samples = len(pts)
    subdivisions = 0
    # walk segments with an explicit stack so subdivision depth is budgeted
    for i in range(len(pts) - 1):
        stack = [(pts[i], vals[i], pts[i + 1], vals[i + 1], 0)]
        while stack:
            p0, w0, p1, w1, depth = stack.pop()
            if w0[0] * w1[0] + w0[1] * w1[1] > 0:
                quarter_turns += (w1[2] - w0[2] + 1) % 4 - 1
                continue
            if depth > 60 or samples > _MAX_SAMPLES:
                raise UncertifiableError(
                    "boundary argument cannot be tracked: contour passes too "
                    "close to a zero at the subdivision budget"
                )
            mid = QComplex((p0.re + p1.re) / 2, (p0.im + p1.im) / 2)
            wm = value(mid)
            samples += 1
            subdivisions += 1
            stack.append((mid, wm, p1, w1, depth + 1))
            stack.append((p0, w0, mid, wm, depth + 1))

    min_sq = Fraction(min_num, min_den)
    return ZeroScanResult(
        rectangle=(s_lo, s_hi, t_lo, t_hi),
        winding_number=quarter_turns // 4,  # the path ends where it starts
        boundary_min_modulus=fraction_sqrt_float(min_sq),
        boundary_min_modulus_sq=min_sq,
        samples=samples,
        subdivisions=subdivisions,
        certified=True,
    )


# ---------------------------------------------------------------------------
# monotonicity experiments on the c-ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityFinding:
    m: int
    kind: str  # "c_ratio" for c_k/c_{k-1}, "k_c_ratio" for k c_k/c_{k-1}
    first_violation_k: int | None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    @property
    def decreasing(self) -> bool:
        return self.first_violation_k is None


def _ratio_rise(num: tuple[int, ...], k: int, p: int, q: int) -> tuple | None:
    """(k, lhs, rhs) when p c_k/c_{k-1} > q c_{k-1}/c_{k-2}, c = num/den, else
    None: the difference times (n_{k-1} n_{k-2})^2 is the integer
    (p n_k n_{k-2} - q n_{k-1}^2) n_{k-1} n_{k-2}, in which den cancels."""
    a, b, c = num[k], num[k - 1], num[k - 2]
    diff = p * a * c - q * b * b
    if diff and (diff > 0) == ((b > 0) == (c > 0)):
        return k, Fraction(p * a, b), Fraction(q * b, c)
    return None


def c_monotonicity_search(m_from: int, m_to: int) -> list[MonotonicityFinding]:
    """Exact check, for each m in [m_from, m_to], of whether c_k/c_{k-1} and
    k c_k/c_{k-1} are non-increasing in k. Two findings per m; a violation
    records the first offending k with both compared values exact. A zero
    c_k below the last raises ZeroDivisionError, as its ratio would."""
    if m_from < 2:
        raise ValueError("m_from must be >= 2")
    if m_to < m_from:
        raise ValueError("m_to must be >= m_from")
    out: list[MonotonicityFinding] = []
    for seq in c_sequences(m_to):
        if seq.m < m_from:
            continue
        num = seq.num
        if 0 in num[:-1]:
            raise ZeroDivisionError(f"c_{{{seq.m},{num.index(0)}}} = 0 divides a ratio")
        plain = weighted = None
        for k in range(2, len(num)):
            plain = plain or _ratio_rise(num, k, 1, 1)
            weighted = weighted or _ratio_rise(num, k, k, k - 1)
            if plain and weighted:
                break
        out.append(MonotonicityFinding(seq.m, "c_ratio", *(plain or (None,))))
        out.append(MonotonicityFinding(seq.m, "k_c_ratio", *(weighted or (None,))))
    return out


def first_k_ratio_violation(findings: list[MonotonicityFinding]) -> MonotonicityFinding | None:
    """Smallest m whose k c_k/c_{k-1} sequence is not non-increasing."""
    for f in findings:
        if f.kind == "k_c_ratio" and f.first_violation_k is not None:
            return f
    return None


# ---------------------------------------------------------------------------
# the binomial continued fraction and the positivity truncation argument
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinomialCfResult:
    order: int
    passed: bool
    first_mismatch: int | None
    series: tuple[Poly, ...] = ()  # y-coefficients as polynomials in t


def _convergents(pairs):
    """Yield (A_k, B_k), k = 1, 2, ..., for a_1/(b_1 + a_2/(b_2 + ...)) given
    its (a_k, b_k) from the top as truncated series, by the three-term
    recurrence A_k = b_k A_{k-1} + a_k A_{k-2} (the same for B_k) from
    A_{-1} = 1, A_0 = 0, B_{-1} = 0, B_0 = 1."""
    A_prev2, A_prev, B_prev2, B_prev = 1, 0, 0, 1
    for a, b in pairs:
        A_prev2, A_prev = A_prev, b * A_prev + a * A_prev2
        B_prev2, B_prev = B_prev, b * B_prev + a * B_prev2
        yield A_prev, B_prev


def _series_cf(levels, order: int) -> PowerSeries:
    """Expansion, through y^order, of the continued fraction

        num_1 y^e_1 / (den_1(y) - num_2 y^e_2 / (den_2(y) - ...))

    given as levels (den_coeffs, num, e) listed from the top. Coefficients
    are polynomials in a second variable. The convergent recurrence runs on
    series truncated at y^order, then B_n is inverted once: truncation is a
    ring homomorphism and B_n(0), the product of the den_k(0), is a unit, so
    every coefficient is exact."""
    pairs = [(PowerSeries([num * 0] * e + [num if k == 0 else -num], order),
              PowerSeries(den_coeffs, order))
             for k, (den_coeffs, num, e) in enumerate(levels)]
    *_, (A, B) = _convergents(pairs)
    return A * B.inverse()


def _two_minus_y(k: int) -> list[Poly]:
    """(2k+1)(2-y), the denominator shared by both continued fractions."""
    return [Poly([2 * (2 * k + 1)]), Poly([-(2 * k + 1)])]


def binomial_cf_check(order: int) -> BinomialCfResult:
    """Expand ((1-y)^t - 1)/t both ways and compare exactly to y^order.

    Continued fraction (t kept symbolic, coefficients are polynomials in t):

        -2y / (2 - y + t y - (1-t^2) y^2 / (3(2-y) - (4-t^2) y^2 / (5(2-y) - ...)))

    The leading sign makes the t = 1 specialization equal -y, matching the
    binomial series sum_{n>=1} (-1)^n/n! prod_{i<n} (t-i) y^n. Level k
    contributes the partial numerator (k^2 - t^2) y^2 over (2k+1)(2-y).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    N = order
    top = ([Poly([2]), Poly([-1, 1])], Poly([-2]), 1)  # -2y / (2 - y + t y - ...)
    cf = _series_cf(
        [top] + [(_two_minus_y(k), Poly([k * k, 0, -1]), 2)  # k^2 - t^2
                 for k in range(1, order // 2 + 3)],
        N,
    )

    series = cf.coeffs
    prod = Poly([1])
    for n in range(1, N + 1):
        if n > 1:
            prod = prod * Poly([-(n - 1), 1])  # 't - (n-1)'
        direct = prod * Fraction((-1) ** n, factorial(n))
        if series[n] != direct:
            return BinomialCfResult(order, False, n, series)
    if series[0] != Poly([0]):
        return BinomialCfResult(order, False, 0, series)
    return BinomialCfResult(order, True, None, series)


@dataclass(frozen=True)
class PositivityResult:
    m_max: int
    passed: bool
    first_negative: tuple[int, int] | None  # (y-degree, z-degree)
    cf_coefficients: tuple[tuple[Fraction, ...], ...]


def _positivity_cf_series(m_max: int, order: int) -> PowerSeries:
    """The z-form continued fraction  z y / (3(2-y) - (3+z) y^2 / (5(2-y) - ...)),
    expanded with floor(m_max/2)+1 levels as a series in y with z-polynomial
    coefficients."""
    top = (_two_minus_y(1), Poly([0, 1]), 1)  # z y / (3(2-y) - ...)
    return _series_cf(
        [top] + [(_two_minus_y(k), Poly([k * k - 1, 1]), 2)  # (k^2 - 1) + z
                 for k in range(2, m_max // 2 + 2)],
        order,
    )


def positivity_truncation_check(m_max: int) -> PositivityResult:
    """Expand the derivative construction's continued fraction through y^m_max
    and assert every y-coefficient is a z-polynomial with nonnegative
    coefficients (the bottom-up truncation argument; differentiating in y and
    adding the positive 2/y^2 term preserves nonnegativity)."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    rows = tuple(c.coeffs for c in _positivity_cf_series(m_max, m_max).coeffs)
    first_neg = next(((mdeg, zdeg) for mdeg, row in enumerate(rows)
                      for zdeg, v in enumerate(row) if v < 0), None)
    return PositivityResult(m_max, first_neg is None, first_neg, rows)


def positivity_genfunc_matrix(m_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Assemble (log(1-y))^2 d/dy [ sqrt(1-z)/((1-y)^{sqrt(1-z)} - 1) ] from
    the continued-fraction route:

        (log(1-y)/y)^2 * (1 + (y^2/2) d/dy CF(y,z))

    and return the same matrix shape as the generating-function oracle, for
    exact cross-route comparison."""
    order = m_max + 4
    ell = PowerSeries.neg_log1m(order)
    ell_over_y = ell.shift(-1)
    A = ell_over_y * ell_over_y
    cf = _positivity_cf_series(m_max, order)
    B = cf.derivative().shift(2) * Fraction(1, 2) + 1
    R = A * B
    k_max = m_max // 2 + 1
    rows = []
    for mdeg in range(m_max + 1):
        c = R.coefficient(mdeg)
        coeffs = list(c.coeffs) + [Fraction(0)] * (k_max - len(c.coeffs))
        rows.append(tuple(coeffs[:k_max]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# independent zeta reference and the convergence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaReference:
    value: mp.mpc
    precision: int
    terms: int
    agreement_width: float


def _cvz_alternating(a, n: int) -> mp.mpc:
    """Accelerated alternating sum sum_{k>=0} (-1)^k a(k) using the
    Chebyshev-weight scheme; error decays like (3+sqrt(8))^-n for weights
    coming from a measure on [0,1], with a growth factor for complex ones."""
    d = (3 + 2 * mp.sqrt(2)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    s = mp.mpc(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b = b * (k + n) * (k - n) / ((k + mp.mpf(1) / 2) * (k + 1))
    return s / d


_MAX_ETA_TERMS = 20_000  # about 0.3 ms per term at 256 bits


def zeta_reference(s, precision: int = 256) -> ZetaReference:
    """zeta(s) by the eta-series route with convergence acceleration.

    Independent of every object built elsewhere in this package: the only
    inputs are the alternating series eta(s) = sum (-1)^{k-1} k^{-s} and the
    factor 1/(1 - 2^{1-s}). Runs the accelerated sum at two depths; if the
    two disagree beyond the requested precision, raises rather than report.
    """
    with mp.workprec(precision + 30):
        z = _to_mpc(s)
        if z == 1:
            raise ValueError("zeta reference undefined at s = 1")
        tail = abs(mp.im(z)) * mp.pi / 2
        count = (precision * math.log(2) + float(tail) + 25) / math.log(3 + math.sqrt(8))
        if not math.isfinite(count):
            raise ReferenceAccuracyError("|Im s| too large for the eta series: "
                                         "its term count is not finite")
        n = int(count) + 10
        if n + 16 > _MAX_ETA_TERMS:
            raise ReferenceAccuracyError(f"{n + 16} eta-series terms exceed the term limit")
        conv = 1 - mp.power(2, 1 - z)
        if abs(conv) < mp.mpf(2) ** (-precision // 2):
            raise ReferenceAccuracyError("eta-to-zeta conversion factor too small at this s")
        a = lambda k: mp.power(k + 1, -z)
        v1 = _cvz_alternating(a, n) / conv
        v2 = _cvz_alternating(a, n + 16) / conv
        width = abs(v1 - v2)
        tol = mp.mpf(2) ** (8 - precision) * (1 + abs(v2))
        if width > tol:
            raise ReferenceAccuracyError(
                f"reference did not converge at {precision} bits "
                f"(agreement width {mp.nstr(width, 5)})"
            )
    with mp.workprec(precision):
        return ZetaReference(+v2, precision, n + 16, float(width))


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    error: float
    error_str: str  # 30 significant digits


@dataclass(frozen=True)
class ConvergencePoint:
    s_str: str
    zeta_str: str
    rows: tuple[ConvergenceRow, ...]
    strictly_decreasing: bool


@dataclass(frozen=True)
class ConvergenceProbe:
    precision: int
    points: tuple[ConvergencePoint, ...]


def convergence_probe(s_points, m_list, precision: int = 256) -> ConvergenceProbe:
    """|F_m(s)/((s-1) G_m(s)) - zeta_ref(s)| for each s and m, with a flag for
    strict decrease along m_list. Every s must have Re s > 0 and s != 1.

    At reachable m the error is only expected to fall where |Im s| is small
    against log m, for example inside the band |Im s| <= (1/2) sqrt(log m)."""
    s_points, m_list = list(s_points), list(m_list)
    for name, given in (("s_points", s_points), ("m_list", m_list)):
        if not given:
            raise ValueError(f"{name} must not be empty")
    bernoulli_table(max(m_list))  # the largest table, once, before the m loop
    pts = []
    for s in s_points:
        with mp.workprec(precision + 20):
            z = _to_mpc(s)
            if not (mp.re(z) > 0) or z == 1:
                raise ValueError("probe points need Re s > 0 and s != 1")
            ref = zeta_reference(s, precision).value
            rows = []
            for m in m_list:
                fv = _pf_value_at_prec(build_f(m), z, precision + 20)
                gv = _pf_value_at_prec(build_g(m), z, precision + 20)
                ratio = fv / ((z - 1) * gv)
                err = abs(ratio - ref)
                rows.append(ConvergenceRow(m, float(err), mp.nstr(err, 30)))
            dec = all(rows[i].error > rows[i + 1].error for i in range(len(rows) - 1))
            pts.append(ConvergencePoint(mp.nstr(z, 20), mp.nstr(ref, 30), tuple(rows), dec))
    return ConvergenceProbe(precision, tuple(pts))


def seeded_strip_points(seed: int, count: int) -> list[QComplex]:
    """Deterministic pseudo-random rational points with 0 < sigma < 1 and
    |t| <= 1 on the 1/64 lattice, reproducible from the recorded seed."""
    import random

    rng = random.Random(seed)
    denom = 64
    pts = []
    for _ in range(count):
        sigma = Fraction(rng.randint(1, denom - 1), denom)
        t = Fraction(rng.randint(-denom, denom), denom)
        pts.append(QComplex(sigma, t))
    return pts
