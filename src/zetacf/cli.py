"""Batch command-line front end with deterministic machine-readable output.

Subcommands wrap the library's tables, verification sweeps and scans. Output
files are byte-identical across runs for identical (arguments, seed,
precision); progress and timing go to standard error only.

Exit codes: 0 pass, 1 claim or assertion failure, 2 usage error,
3 uncertifiable scan result or a zeta reference that cannot be computed
to the requested precision.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coeff_core import (
    _row_tops,
    _sinh_enclosure,
    _sinh_z_row,
    _tops_prove,
    a_invariant_witness,
    bernoulli_table,
    c1_identity_witness,
    c_direct,
    c_genfunc_oracle,
    c_positivity_witness,
    c_residue_oracle,
    c_sequences,
    coeff_table,
    sinh_series,
)
from .approx_eval import build_f, build_g, numerator_poly
from .errors import ReferenceAccuracyError, UncertifiableError
from .region_analysis import (
    binomial_cf_check,
    c_monotonicity_search,
    convergence_probe,
    default_strip_grid,
    first_k_ratio_violation,
    half_sqrt_log_lower,
    prop1_scan,
    ratio_bounds_sweep,
    zero_scan,
)
from .serialize import (
    SCHEMA,
    convergence_payload,
    dump_csv,
    dump_json,
    frac_str,
    monotonicity_payload,
    table_payload,
    worpitzky_payload,
    worpitzky_rows,
    zero_scan_payload,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIABLE = 3

CONFIG_PATH = "zetacf.json"

_SINH_R2 = (Fraction(1, 4), Fraction(1), Fraction(100), Fraction(10000))


@dataclass
class RunConfig:
    precision: int = 256
    format: str = "json"
    out: str = "-"
    seed: int = 1
    jobs: int = 1

    def __post_init__(self):
        for name in ("precision", "seed", "jobs"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.precision < 53:
            raise ValueError("precision must be >= 53 bits")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    def header(self, command: str, arguments: list[str]) -> dict:
        return {
            "tool_version": __version__,
            "command": command,
            "arguments": arguments,
            "seed": self.seed,
            "precision": self.precision,
        }


def _load_config() -> dict:
    """Run defaults from the config file, if there is one. An unreadable or
    malformed file raises ValueError, which main reports as a usage error."""
    p = Path(CONFIG_PATH)
    if not p.is_file():
        return {}
    try:
        data = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {CONFIG_PATH}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{CONFIG_PATH} must hold a JSON object")
    return {k: data[k] for k in ("precision", "format", "seed", "jobs") if k in data}


def _resolve_config(args) -> RunConfig:
    """The explicit flags over the config file over `RunConfig`'s defaults."""
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return RunConfig(**(_load_config() | {k: v for k, v in flags.items() if v is not None}))


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(cfg: RunConfig, command: str, arguments: list[str],
          payload: dict, csv_data: tuple | None) -> None:
    header = cfg.header(command, arguments)
    if cfg.format == "json" or csv_data is None:
        _write(dump_json(payload, header), cfg.out)
    else:
        columns, rows = csv_data
        lines = [f"{k}: {v}" for k, v in header.items()]
        _write(dump_csv(columns, rows, lines), cfg.out)


@contextmanager
def _usage_errors(parser):
    """Report a ValueError raised inside the block as a usage error: the
    library raises it for argument values outside its range."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _parse_complex_token(tok: str):
    """Parse '2', '1/2+14.13i', '3/4-2i', '1/2-1e-3i' into (sigma, t)
    Fractions. The parts split at the last sign that is not an exponent's."""
    tok = tok.strip().replace(" ", "")
    if tok.endswith("i"):
        body = tok[:-1]
        split = next((k for k in range(len(body) - 1, 0, -1)
                      if body[k] in "+-" and body[k - 1] not in "eE"), 0)
        if split <= 0:
            return Fraction(0), _rational(body if body not in ("", "+", "-") else body + "1")
        re_part = body[:split]
        im_part = body[split:]
        if im_part in ("+", "-"):
            im_part += "1"
        return _rational(re_part), _rational(im_part)
    return _rational(tok), Fraction(0)


# ---------------------------------------------------------------------------
# subcommand: coeffs
# ---------------------------------------------------------------------------


def _cmd_coeffs(args, cfg: RunConfig, argv: list[str], parser) -> int:
    kind = args.kind
    if kind == "sinh" and args.r_squared is None:
        parser.error("--r-squared is required when kind is sinh")
    if kind != "sinh" and (args.r_squared is not None or args.n is not None):
        parser.error("--r-squared and --n only apply to kind sinh")
    if kind == "sinh" and args.m != 0:
        parser.error("kind sinh takes m = 0")
    with _usage_errors(parser):
        if kind == "a":
            values = coeff_table(args.m).a
            extra = {"m": args.m}
        elif kind == "c":
            values = c_direct(args.m).c
            extra = {"m": args.m}
        elif kind == "bernoulli":
            values = bernoulli_table(args.m).b
            extra = {"n_max": args.m}
        else:
            n = args.n if args.n is not None else 60
            values = sinh_series(args.r_squared, n).d
            extra = {"r_squared": frac_str(args.r_squared), "n_terms": n}
    payload = table_payload(f"coeffs_{kind}", "index", values, extra)
    csv_data = None
    if cfg.format == "csv":
        # each value's decimal was computed once, for the payload
        rows = [(r["index"], v.numerator, v.denominator, r["decimal"])
                for r, v in zip(payload["rows"], values)]
        csv_data = (("index", "numerator", "denominator", "decimal30"), rows)
    _emit(cfg, "coeffs", argv, payload, csv_data)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------


def _verify_lemma1(m_max: int) -> str | None:
    res = ratio_bounds_sweep(m_max)
    return None if res is None else f"m={res.m}: {res.witness}"


def _verify_oracle3(m_max: int) -> str | None:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    for seq in c_sequences(m_max):
        other = c_residue_oracle(seq.m)
        if seq.num != other.num:  # both rows are over the same D
            k = next(k for k, (a, b) in enumerate(zip(seq.num, other.num)) if a != b)
            return (f"residue oracle mismatch at m={seq.m}, k={k}: "
                    f"{frac_str(seq.c[k])} vs {frac_str(other.c[k])}")
    return _verify_genfunc(min(m_max, 30))


def _verify_genfunc(m_max: int) -> str | None:
    matrix = c_genfunc_oracle(m_max)
    if matrix[0][0] != 1:
        return f"constant term is {frac_str(matrix[0][0])}, not 1"
    for seq in c_sequences(m_max):
        m = seq.m
        for k in range(1, len(seq.c)):
            want = seq.c[k] / (m + 1)
            got = matrix[m][k - 1] if k - 1 < len(matrix[m]) else Fraction(0)
            if want != got:
                return (f"generating function mismatch at m={m}, k={k}: "
                        f"{frac_str(got)} vs c/(m+1) = {frac_str(want)}")
    return None


def _verify_binomial_cf(m_max: int) -> str | None:
    res = binomial_cf_check(m_max)
    return None if res.passed else f"first mismatch at y^{res.first_mismatch}"


def _sinh_open_levels(g: list[int]) -> tuple[int, list[int], list[int]]:
    """The sign levels k (d_k > 0) and log-concavity levels k
    (d_k^2 >= d_{k-1} d_{k+1}) that interval enclosures of the inverse of the
    z-row g leave open, tried at 128 bits and doubled while the precision
    stays within a quarter of the exact row's size, N bit_length(u) / 4.
    Returns (the last precision tried or 0, open signs, open log-concavity
    levels); an enclosure only ever proves a level."""
    N = len(g)
    signs, pairs = list(range(N)), list(range(1, N - 1))
    tried, bits = 0, 128
    while bits <= N * g[0].bit_length() // 4 and (signs or pairs):
        enc = _sinh_enclosure(g, bits)
        lo = enc[0]
        signs = [k for k in range(N) if lo[k] <= 0]
        pairs = [k for k in range(1, N - 1)
                 if min(lo[k - 1:k + 2]) <= 0 or not _tops_prove(enc, k, 1, 1)]
        tried, bits = bits, 2 * bits
    return tried, signs, pairs


def _verify_sinh(n_terms: int) -> str | None:
    # d[k] = num[k] / den with den > 0, so signs and log-concavity are
    # decided on integers; Fractions are built only for a witness. A level is
    # first proved from an enclosure of the row, and only the levels it
    # leaves open are decided on the exact row: from its 62-bit tops, and
    # then, if they too leave a level undecided, by the full products.
    for r2 in _SINH_R2:
        g, _ = _sinh_z_row(r2, n_terms)
        bits, signs, pairs = _sinh_open_levels(g)
        sys.stderr.write(f"verify logconcave-sinh: r^2={frac_str(r2)} enclosure at "
                         f"{bits} bits, {len(signs) + len(pairs)} levels left to the "
                         "exact row\n")
        if not (signs or pairs):
            continue
        s = sinh_series(r2, n_terms)
        row = s.num
        for k in signs:
            if row[k] <= 0:
                return f"d[{k}] <= 0 at r^2={frac_str(r2)}: {frac_str(s.d[k])}"
        tops = _row_tops(row)  # not None: every entry is positive
        for k in pairs:
            if _tops_prove(tops, k, 1, 1):
                continue
            if row[k] * row[k] < row[k - 1] * row[k + 1]:
                d = s.d
                return (f"log-concavity fails at r^2={frac_str(r2)}, k={k}: "
                        f"{frac_str(d[k] * d[k])} < {frac_str(d[k - 1] * d[k + 1])}")
    return None


# claim -> (default m_max, check returning None or the first counterexample,
# whose str is the witness text). The library sweeps are looked up by name
# when called, so a sweep patched into this module (a tracer, a test) runs.
_CLAIMS = {
    "lemma1": (500, _verify_lemma1),
    "newton": (200, lambda m: a_invariant_witness(m, deep_roots=False)),
    "positivity": (100, lambda m: c_positivity_witness(m)),
    "oracle3": (60, _verify_oracle3),
    "genfunc": (30, _verify_genfunc),
    "binomial-cf": (12, _verify_binomial_cf),
    "c1-identity": (500, lambda m: c1_identity_witness(m)),
    "logconcave-sinh": (60, _verify_sinh),
}


def _cmd_verify(args, cfg: RunConfig, argv: list[str], parser) -> int:
    claim = args.claim
    m_default, check = _CLAIMS[claim]
    m_max = args.m_max if args.m_max is not None else m_default
    with _usage_errors(parser):
        found = check(m_max)
    passed = found is None
    witness = None if passed else str(found)
    payload = {
        "schema": SCHEMA,
        "kind": "verify",
        "claim": claim,
        "m_max": m_max,
        "pass": passed,
        "witness": witness,
    }
    rows = [(claim, m_max, int(passed), witness or "")]
    _emit(cfg, "verify", argv, payload, (("claim", "m_max", "pass", "witness"), rows))
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommand: scan
# ---------------------------------------------------------------------------


def _cmd_scan_worpitzky(args, cfg: RunConfig, argv: list[str], parser) -> int:
    m = args.m
    if m < 3:
        parser.error("worpitzky scan needs m >= 3")
    n_sigma, n_t = args.grid
    with _usage_errors(parser):
        grid = default_strip_grid(m, n_sigma, n_t, args.t_max)
        report = prop1_scan(m, grid, bisect_band=not args.no_band, progress=_progress)
    sys.stderr.write(f"scan worpitzky: {len(report.points)} points, {report.k_levels} "
                     f"k-levels, {report.exact_fallbacks} exact fallbacks\n")
    payload = worpitzky_payload(report)
    csv_data = None
    if cfg.format == "csv":
        cols = ("sigma_num", "sigma_den", "t_num", "t_den",
                "margin_sq_num", "margin_sq_den", "pass")
        csv_data = (cols, list(worpitzky_rows(report)))
    _emit(cfg, "scan worpitzky", argv, payload, csv_data)
    return EXIT_PASS if report.all_pass else EXIT_FAIL


def _cmd_scan_zero(args, cfg: RunConfig, argv: list[str], parser) -> int:
    m = args.m
    which = {"g": ["G"], "f": ["F"], "both": ["G", "F"]}[args.which]
    results = {}
    with _usage_errors(parser):
        rect = args.rect
        if rect is None:
            T = half_sqrt_log_lower(m)
            rect = (Fraction(0), Fraction(1), -T, T)
        for kind in which:
            pf = build_g(m) if kind == "G" else build_f(m)
            results[kind] = zero_scan(numerator_poly(pf), rect)
    winding_zero = all(res.winding_number == 0 for res in results.values())
    payload = {
        "schema": SCHEMA,
        "kind": "zero_scan",
        "m": m,
        "results": {k: zero_scan_payload(v) for k, v in results.items()},
    }
    rows = [
        (k, v.winding_number, v.boundary_min_modulus, v.samples, int(v.certified))
        for k, v in sorted(results.items())
    ]
    _emit(cfg, "scan zero", argv, payload,
          (("numerator", "winding", "boundary_min_modulus", "samples", "certified"), rows))
    return EXIT_PASS if winding_zero else EXIT_FAIL


def _cmd_scan_convergence(args, cfg: RunConfig, argv: list[str], parser) -> int:
    import mpmath as mp

    points = []
    for sigma, t in args.s:
        with mp.workprec(cfg.precision + 20):
            points.append(mp.mpc(mp.mpf(sigma.numerator) / sigma.denominator,
                                 mp.mpf(t.numerator) / t.denominator))
    with _usage_errors(parser):
        probe = convergence_probe(points, args.m_list, cfg.precision)
    payload = convergence_payload(probe)
    rows = []
    for pt in probe.points:
        for r in pt.rows:
            rows.append((pt.s_str, r.m, r.error_str, int(pt.strictly_decreasing)))
    _emit(cfg, "scan convergence", argv, payload,
          (("s", "m", "abs_error", "strictly_decreasing"), rows))
    return EXIT_PASS if all(p.strictly_decreasing for p in probe.points) else EXIT_FAIL


def _cmd_scan_monotonicity(args, cfg: RunConfig, argv: list[str], parser) -> int:
    with _usage_errors(parser):
        findings = c_monotonicity_search(*args.m_range)
    first = first_k_ratio_violation(findings)
    payload = monotonicity_payload(findings)
    payload["first_k_ratio_violation_m"] = first.m if first else None
    rows = [
        (f.m, f.kind, f.first_violation_k if f.first_violation_k is not None else "")
        for f in findings
    ]
    _emit(cfg, "scan monotonicity", argv, payload,
          (("m", "sequence", "first_violation_k"), rows))
    return EXIT_PASS


def _progress(done: int, total: int) -> None:
    """Points done so far: one line per call, redrawn in place on a terminal."""
    if sys.stderr.isatty():
        sys.stderr.write(f"\r{done}/{total} points" + ("\n" if done >= total else ""))
    else:
        sys.stderr.write(f"{done}/{total} points\n")
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like 41x41") from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _rect_arg(text: str) -> tuple[Fraction, ...]:
    parts = tuple(_rational(x) for x in text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("rect needs four comma-separated rationals")
    return parts


def _t_max_arg(text: str) -> Fraction | None:
    return None if text == "auto" else _rational(text)


def _points_arg(text: str) -> list[tuple[Fraction, Fraction]]:
    return [_parse_complex_token(tok) for tok in text.split(",")]


def _int_list_arg(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("m-list needs comma-separated integers") from None


def _m_range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (2, int(lo))
    except ValueError:
        raise argparse.ArgumentTypeError("range must look like M or LO..HI") from None


def _add_run_options(parser: argparse.ArgumentParser, trailing: bool) -> None:
    """The shared run options, accepted both before and after the subcommand.

    Trailing copies default to SUPPRESS so an absent flag never clobbers a
    value parsed at the front.
    """
    default = argparse.SUPPRESS if trailing else None
    parser.add_argument("--precision", type=int, default=default,
                        help="working precision in bits (>= 53)")
    parser.add_argument("--format", choices=("json", "csv"), default=default)
    parser.add_argument("--out", default=default, help="output path ('-' for stdout)")
    parser.add_argument("--seed", type=int, default=default,
                        help="seed recorded in output headers")
    parser.add_argument("--jobs", type=int, default=default,
                        help="accepted and validated (>= 1); scans run in one process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacf",
        description="Exact tables, verification sweeps and strip scans for the "
                    "rational zeta approximants.",
    )
    _add_run_options(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(sp, name, **kw):
        p = sp.add_parser(name, **kw)
        _add_run_options(p, trailing=True)
        return p

    p_coeffs = leaf(sub, "coeffs", help="emit an exact coefficient table")
    p_coeffs.add_argument("m", type=int, help="m (n_max for bernoulli, 0 for sinh)")
    p_coeffs.add_argument("--kind", choices=("a", "c", "bernoulli", "sinh"), required=True)
    p_coeffs.add_argument("--r-squared", type=_rational, default=None,
                          help="rational r^2 (sinh only)")
    p_coeffs.add_argument("--n", type=int, default=None, help="number of terms (sinh only)")

    p_verify = leaf(sub, "verify", help="run an exact verification sweep")
    p_verify.add_argument("claim", choices=tuple(_CLAIMS))
    p_verify.add_argument("m_max", type=int, nargs="?", default=None)

    p_scan = sub.add_parser("scan", help="strip / zero / convergence / monotonicity scans")
    scan_sub = p_scan.add_subparsers(dest="scan_kind", required=True)

    p_w = leaf(scan_sub, "worpitzky", help="element-test margins over a strip grid")
    p_w.add_argument("m", type=int)
    p_w.add_argument("--grid", type=_grid_arg, default=(41, 41))
    p_w.add_argument("--t-max", type=_t_max_arg, default="auto")
    p_w.add_argument("--no-band", action="store_true", help="skip the empirical t-band search")

    p_z = leaf(scan_sub, "zero", help="winding numbers of the collapsed numerators")
    p_z.add_argument("m", type=int)
    p_z.add_argument("--which", choices=("g", "f", "both"), default="both")
    p_z.add_argument("--rect", type=_rect_arg, default=None,
                     help="sigma_lo,sigma_hi,t_lo,t_hi (rationals)")

    p_c = leaf(scan_sub, "convergence", help="approximant error against the reference")
    p_c.add_argument("--s", type=_points_arg, default="2",
                     help="comma-separated points, e.g. '2,1/2+14.13i'")
    p_c.add_argument("--m-list", type=_int_list_arg, default="4,8,16,32,64")

    p_m = leaf(scan_sub, "monotonicity", help="c-ratio monotonicity search")
    p_m.add_argument("m_range", type=_m_range_arg, help="M or LO..HI")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    started = time.monotonic()
    try:
        if args.command == "coeffs":
            code = _cmd_coeffs(args, cfg, argv, parser)
        elif args.command == "verify":
            code = _cmd_verify(args, cfg, argv, parser)
        else:
            handler = {
                "worpitzky": _cmd_scan_worpitzky,
                "zero": _cmd_scan_zero,
                "convergence": _cmd_scan_convergence,
                "monotonicity": _cmd_scan_monotonicity,
            }[args.scan_kind]
            code = handler(args, cfg, argv, parser)
    except UncertifiableError as exc:
        sys.stderr.write(f"uncertifiable: {exc}\n")
        return EXIT_UNCERTIFIABLE
    except ReferenceAccuracyError as exc:
        sys.stderr.write(f"reference: {exc}\n")
        return EXIT_UNCERTIFIABLE
    elapsed = time.monotonic() - started
    sys.stderr.write(f"done in {elapsed * 1000:.0f} ms\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
