"""Span recording around zetacf's public functions, and per-layer metrics.

`instrument` wraps, from outside the program, every public function in the
`__all__` of each zetacf module, plus `PowerSeries.inverse`/`__mul__` and
`Poly.__mul__`/`__call__`, and rebinds the wrapped names wherever the
package bound them (the defining module and every module that imported
them by name). A span is (name, op, start, end, parent); spans of one op
share its index. The generators `stirling_rows` and `c_sequences` get one
span per `next()` call.

Spans inside `--jobs 2` pool workers are not collected: the workers are
forked copies whose recorders are discarded with them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from fractions import Fraction
from time import perf_counter

MODULES = ("series", "qcomplex", "coeff_core", "approx_eval", "region_analysis",
           "serialize", "cli")
POOL_NOTE = "spans inside --jobs 2 pool workers are not collected"


class Recorder:
    """In-memory spans; records only while `active`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, start, end, parent]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.zero_scans: list[tuple[int, int, int]] = []  # samples, subdivisions, initial

    def open(self, name: str) -> int | None:
        if not self.active:
            return None
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self.spans.append([name, self.op, 0.0, 0.0, parent])
        self.spans[idx][2] = perf_counter()
        return idx

    def close(self, idx: int | None) -> None:
        if idx is None:
            return
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "zero_scans": self.zero_scans, "note": POOL_NOTE}


def _wrap_function(rec: Recorder, name: str, fn, namer=None, on_return=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name if namer is None else namer(args, kwargs)
        idx = rec.open(span) if span is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_return is not None and idx is not None:
            on_return(args, kwargs, result)
        return result
    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                yield item
        finally:
            it.close()
    return wrapper


def instrument(rec: Recorder) -> None:
    """Install the wrappers, recording into `rec`."""
    mods = {n: importlib.import_module(f"zetacf.{n}") for n in MODULES}
    series, qcomplex, region = mods["series"], mods["qcomplex"], mods["region_analysis"]
    exact_types = (int, Fraction, qcomplex.QComplex)

    def eval_cf_namer(args, kwargs):
        s = args[1] if len(args) > 1 else kwargs["s"]
        return "approx_eval.eval_cf[exact]" if isinstance(s, exact_types) else "approx_eval.eval_cf[mp]"

    zero_scan_sig = inspect.signature(region.zero_scan)

    def on_zero_scan(args, kwargs, result):
        bound = zero_scan_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        initial = 4 * bound.arguments["initial_per_edge"] + 1
        rec.zero_scans.append((result.samples, result.subdivisions, initial))

    special = {
        "approx_eval.eval_cf": {"namer": eval_cf_namer},
        "region_analysis.zero_scan": {"on_return": on_zero_scan},
    }
    replaced = {}
    for modname, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            span = f"{modname}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replaced[fn] = _wrap_generator(rec, span, fn)
            else:
                replaced[fn] = _wrap_function(rec, span, fn, **special.get(span, {}))
    package = importlib.import_module("zetacf")
    for mod in (package, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])

    def horner_namer(args, kwargs):
        return "qcomplex.horner" if isinstance(args[1], qcomplex.QComplex) else None

    methods = (
        (series.Poly, "__mul__", "series.Poly.__mul__", None),
        (series.Poly, "__call__", None, horner_namer),
        (series.PowerSeries, "__mul__", "series.PowerSeries.__mul__", None),
        (series.PowerSeries, "inverse", "series.PowerSeries.inverse", None),
    )
    for cls, attr, span, namer in methods:
        fn = vars(cls)[attr]
        wrapped = _wrap_function(rec, span, fn, namer=namer)
        for alias, value in list(vars(cls).items()):
            if value is fn:  # __rmul__ = __mul__ aliases the same function
                setattr(cls, alias, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# span name -> metric whose value is the spans' summed self time
SELF_TIME = {
    "region_analysis.prop1_scan": "prop1_scan_s",
    "region_analysis.real_line_margin_check": "real_line_margin_check_s",
    "region_analysis.ratio_bounds_sweep": "ratio_bounds_sweep_s",
    "region_analysis.zero_scan": "zero_scan_s",
    "region_analysis.c_monotonicity_search": "c_monotonicity_search_s",
    "region_analysis.positivity_truncation_check": "positivity_truncation_check_s",
    "region_analysis.zeta_reference": "zeta_reference_s",
    "region_analysis.convergence_probe": "convergence_probe_s",
    "series.PowerSeries.inverse": "PowerSeries.inverse_s",
    "series.PowerSeries.__mul__": "PowerSeries.mul_s",
    "series.Poly.__mul__": "Poly.mul_s",
    "qcomplex.horner": "horner_s",
    "coeff_core.stirling_rows": "stirling_rows_s",
    "coeff_core.bernoulli_table": "bernoulli_table_s",
    "coeff_core.c1_identity_witness": "c1_identity_witness_s",
    "coeff_core.a_invariant_witness": "a_invariant_witness_s",
    "coeff_core.c_residue_oracle": "c_residue_oracle_s",
    "coeff_core.c_sequences": "c_sequences_s",
    "coeff_core.sinh_series": "sinh_series_s",
    "approx_eval.numerator_poly": "numerator_poly_s",
    "approx_eval.collapsed": "numerator_poly_s",
    "approx_eval.build_f": "build_f_s",
    "approx_eval.g_expansion": "expansion_s",
    "approx_eval.f_expansion": "expansion_s",
    "approx_eval.expansion_value": "expansion_s",
    "approx_eval.expansion_identity_holds": "expansion_s",
    "approx_eval.euler_cf": "euler_cf_s",
    "approx_eval.eval_cf[exact]": "eval_cf_exact_s",
    "approx_eval.eval_cf[mp]": "eval_cf_mp_s",
    "approx_eval.eval_pf_precise": "eval_pf_precise_s",
    "serialize.dump_json": "dump_s",
    "serialize.dump_csv": "dump_s",
}
# every other serialize function turns results into report values
PAYLOAD_METRIC = "payload_s"
WORPITZKY = "region_analysis.worpitzky_margin"
ZERO_SCAN = "region_analysis.zero_scan"
HORNER = "qcomplex.horner"

SPAN_METRICS = sorted({*SELF_TIME.values(), PAYLOAD_METRIC, "worpitzky_margin_s",
                       "margin_context_s", "zero_scan_per_sample_s", "zero_scan_samples",
                       "zero_scan_subdivisions", "zero_scan_useful_ratio", "horner_n"})


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover. Spans
    come from one thread, so a span's children never overlap."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_metrics(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    zero_scan_total = 0.0
    margin_calls = []
    for span, own in zip(spans, self_times(spans)):
        name, _, start, end, _ = span
        metric = SELF_TIME.get(name)
        if metric is None and name.startswith("serialize."):
            metric = PAYLOAD_METRIC
        if metric is not None:
            out[metric] += own
        if name == WORPITZKY:
            margin_calls.append(end - start)
        elif name == ZERO_SCAN:
            zero_scan_total += end - start
        elif name == HORNER:
            out["horner_n"] += 1
    if len(margin_calls) > 1:
        warm = statistics.median(margin_calls[1:])
        out["worpitzky_margin_s"] = warm
        out["margin_context_s"] = margin_calls[0] - warm
    scans = trace["zero_scans"]
    samples = sum(s for s, _, _ in scans)
    if samples:
        out["zero_scan_samples"] = samples
        out["zero_scan_subdivisions"] = sum(d for _, d, _ in scans)
        out["zero_scan_useful_ratio"] = sum(i for _, _, i in scans) / samples
        out["zero_scan_per_sample_s"] = zero_scan_total / samples
    return out
