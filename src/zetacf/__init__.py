"""zetacf: exact rational approximants to zeta, their continued fractions,
and a verification harness for the structural facts behind them.

The package is organized in four layers:

* `coeff_core`   exact coefficient sequences (product-polynomial tables,
                 Bernoulli and harmonic numbers, the factorial-series
                 coefficients and their independent oracles, the sinh-kernel
                 family) plus the truncated-power-series engine.
* `approx_eval`  the approximants as partial fractions, their factorial
                 expansions, the Euler continued fractions, and evaluation
                 (exact at rational points, precision-tracked otherwise).
* `region_analysis`  strip scans of the element test, ratio-bound checks,
                 certified winding-number zero scans, the monotonicity and
                 positivity experiments, and the convergence probe against an
                 independent reference. Its element test settles clear
                 cases with the double-precision filter of `float_filter`,
                 whose error bounds are derived there.
* `cli`          a batch front end with deterministic machine-readable output.
"""

from .coeff_core import (
    BernoulliTable,
    CoeffTable,
    CSequence,
    SinhSeries,
    bernoulli_table,
    c_direct,
    c_genfunc_oracle,
    c_residue_oracle,
    c_sequences,
    coeff_table,
    harmonic,
    sinh_series,
)
from .approx_eval import (
    ComplexValue,
    ContinuedFraction,
    FactorialExpansion,
    PartialFraction,
    PoleIndicator,
    build_f,
    build_g,
    collapsed,
    euler_cf,
    eval_cf,
    eval_pf,
    eval_pf_precise,
    expansion_value,
    f_expansion,
    g_expansion,
    numerator_poly,
)
from .errors import (
    InternalConsistencyError,
    ReferenceAccuracyError,
    UncertifiableError,
    ZeroDenominatorError,
)
from .qcomplex import QComplex
from .region_analysis import (
    MonotonicityFinding,
    RegionGrid,
    WorpitzkyReport,
    ZeroScanResult,
    binomial_cf_check,
    c_monotonicity_search,
    convergence_probe,
    half_sqrt_log_lower,
    positivity_truncation_check,
    prop1_scan,
    ratio_bounds_check,
    worpitzky_margin,
    zero_scan,
    zeta_reference,
)
from .series import Poly, PowerSeries, TruncationOrderError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BernoulliTable", "CoeffTable", "CSequence", "SinhSeries",
    "bernoulli_table", "c_direct", "c_genfunc_oracle", "c_residue_oracle",
    "c_sequences", "coeff_table", "harmonic", "sinh_series",
    "ComplexValue", "ContinuedFraction", "FactorialExpansion", "PartialFraction",
    "PoleIndicator", "build_f", "build_g", "collapsed", "euler_cf", "eval_cf",
    "eval_pf", "eval_pf_precise", "expansion_value", "f_expansion", "g_expansion",
    "numerator_poly",
    "InternalConsistencyError", "ReferenceAccuracyError", "UncertifiableError",
    "ZeroDenominatorError",
    "QComplex",
    "MonotonicityFinding", "RegionGrid", "WorpitzkyReport", "ZeroScanResult",
    "binomial_cf_check", "c_monotonicity_search", "convergence_probe",
    "half_sqrt_log_lower", "positivity_truncation_check", "prop1_scan",
    "ratio_bounds_check", "worpitzky_margin", "zero_scan", "zeta_reference",
    "Poly", "PowerSeries", "TruncationOrderError",
]
