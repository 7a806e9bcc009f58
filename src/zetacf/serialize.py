"""JSON and CSV serialization with exactness preserved at the boundary.

Rationals cross the boundary as "num/den" strings; decimal columns are
30-significant-digit approximations and are labeled as such. All emitters
are deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import re
from fractions import Fraction

SCHEMA = "zetacf/v1"

__all__ = [
    "SCHEMA",
    "frac_str",
    "parse_frac",
    "decimal30",
    "table_payload",
    "worpitzky_rows",
    "worpitzky_payload",
    "zero_scan_payload",
    "monotonicity_payload",
    "convergence_payload",
    "dump_json",
    "dump_csv",
]


def _int_str(n: int) -> str:
    """Decimal digits of n. Unlike str(n), not capped by the interpreter's
    int-to-str digit limit (4300 digits by default), which exact report
    values exceed at large m."""
    return str(decimal.Decimal(n))


_INT_LITERAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_int(text: str) -> int:
    """Inverse of _int_str: a decimal integer literal of any length."""
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError(f"invalid integer literal: {text!r}")
    return int(decimal.Decimal(text))


def _finite(x: float) -> float | None:
    """x, or None (JSON null) where x is infinite or NaN, which strict JSON
    cannot hold."""
    return x if math.isfinite(x) else None


def frac_str(q: Fraction) -> str:
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def parse_frac(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(_parse_int(num), _parse_int(den) if den else 1)


_DECIMAL30 = decimal.Context(prec=30)


def decimal30(q: Fraction) -> str:
    """30-significant-digit decimal approximation (explicitly approximate)."""
    return str(_DECIMAL30.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))


def _table_row(index: int, q: Fraction) -> dict:
    """frac_str(q) and decimal30(q) from one Decimal conversion of the
    numerator and the denominator."""
    num, den = decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)
    return {"index": index, "value": f"{num!s}/{den!s}", "decimal": str(_DECIMAL30.divide(num, den))}


def table_payload(kind: str, index_name: str, values, extra: dict | None = None) -> dict:
    rows = [_table_row(i, v) for i, v in enumerate(values)]
    payload = {"schema": SCHEMA, "kind": kind, "index": index_name, "rows": rows}
    if extra:
        payload.update(extra)
    return payload


def worpitzky_rows(report):
    """CSV rows: sigma_num, sigma_den, t_num, t_den, margin_sq_num,
    margin_sq_den, pass. Sorted by (sigma, t) for determinism."""
    pts = sorted(report.points, key=lambda p: (p.sigma, p.t))
    for p in pts:
        yield (
            p.sigma.numerator, p.sigma.denominator,
            p.t.numerator, p.t.denominator,
            p.margin_sq.numerator, p.margin_sq.denominator,
            int(p.passed),
        )


def worpitzky_payload(report) -> dict:
    # mirrored points (sigma, -t) share the margin_sq object of (sigma, t),
    # so each distinct one is formatted once
    sq_strs: dict[int, str] = {}

    def sq_str(q: Fraction) -> str:
        s = sq_strs.get(id(q))
        if s is None:
            s = sq_strs[id(q)] = frac_str(q)
        return s

    return {
        "schema": SCHEMA,
        "kind": "worpitzky_scan",
        "m": report.m,
        "grid": {
            "sigma_min": frac_str(report.grid.sigma_min),
            "sigma_max": frac_str(report.grid.sigma_max),
            "t_min": frac_str(report.grid.t_min),
            "t_max": frac_str(report.grid.t_max),
            "n_sigma": report.grid.n_sigma,
            "n_t": report.grid.n_t,
        },
        "t_guaranteed": frac_str(report.t_guaranteed),
        "t_empirical": frac_str(report.t_empirical) if report.t_empirical is not None else None,
        "t_resolution": frac_str(report.t_resolution) if report.t_resolution is not None else None,
        "all_pass": report.all_pass,
        "band_pass": report.band_pass,
        "global_min_margin": _finite(report.global_min_margin),
        "global_argmin": [frac_str(report.global_argmin[0]), frac_str(report.global_argmin[1])],
        "failing_points": [
            [frac_str(a), frac_str(b)] for a, b in report.failing_points
        ],
        "points": [
            {
                "sigma": frac_str(p.sigma),
                "t": frac_str(p.t),
                "margin": _finite(p.margin),
                "margin_sq": sq_str(p.margin_sq),
                "argmin_k": p.argmin_k,
                "pass": p.passed,
            }
            for p in sorted(report.points, key=lambda p: (p.sigma, p.t))
        ],
    }


def zero_scan_payload(result) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "zero_scan",
        "rectangle": [frac_str(v) for v in result.rectangle],
        "winding_number": result.winding_number,
        "boundary_min_modulus": _finite(result.boundary_min_modulus),
        "boundary_min_modulus_sq": frac_str(result.boundary_min_modulus_sq),
        "samples": result.samples,
        "subdivisions": result.subdivisions,
        "certified": result.certified,
    }


def monotonicity_payload(findings) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "monotonicity_search",
        "findings": [
            {
                "m": f.m,
                "sequence": f.kind,
                "first_violation_k": f.first_violation_k,
                "lhs": frac_str(f.lhs) if f.lhs is not None else None,
                "rhs": frac_str(f.rhs) if f.rhs is not None else None,
            }
            for f in findings
        ],
    }


def convergence_payload(probe) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "convergence_probe",
        "precision": probe.precision,
        "points": [
            {
                "s": p.s_str,
                "zeta_reference": p.zeta_str,
                "strictly_decreasing": p.strictly_decreasing,
                "rows": [{"m": r.m, "abs_error": r.error_str} for r in p.rows],
            }
            for p in probe.points
        ],
    }


def dump_json(payload: dict, header: dict | None = None) -> str:
    doc = dict(payload)
    if header:
        doc = {**{"schema": payload.get("schema", SCHEMA)}, "run": header,
               **{k: v for k, v in payload.items() if k != "schema"}}
    return json.dumps(doc, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def dump_csv(columns, rows, header_lines=()) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_int_str(c) if type(c) is int else c for c in r])
    return buf.getvalue()
