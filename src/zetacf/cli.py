"""Batch command-line front end with deterministic machine-readable output.

Subcommands wrap the library's tables, verification sweeps and scans. Output
files are byte-identical across runs for identical (arguments, seed,
precision); progress and timing go to standard error only.

Exit codes: 0 pass, 1 claim or assertion failure, 2 usage error,
3 uncertifiable scan result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coeff_core import (
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
from .errors import UncertifiableError
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
    decimal30,
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

_CLAIMS = (
    "lemma1",
    "newton",
    "positivity",
    "oracle3",
    "genfunc",
    "binomial-cf",
    "c1-identity",
    "logconcave-sinh",
)

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


def _load_config(path: str = CONFIG_PATH) -> dict:
    """Run defaults from the config file, if there is one. An unreadable or
    malformed file raises ValueError, which main reports as a usage error."""
    p = Path(path)
    if not p.is_file():
        return {}
    try:
        data = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return {k: data[k] for k in ("precision", "format", "seed", "jobs") if k in data}


def _resolve_config(args) -> RunConfig:
    cfg = _load_config()
    return RunConfig(
        precision=args.precision if args.precision is not None else cfg.get("precision", 256),
        format=args.format if args.format is not None else cfg.get("format", "json"),
        out=args.out if args.out is not None else "-",
        seed=args.seed if args.seed is not None else cfg.get("seed", 1),
        jobs=args.jobs if args.jobs is not None else cfg.get("jobs", 1),
    )


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
    """Parse '2', '1/2+14.13i', '3/4-2i' into (sigma, t) Fractions."""
    tok = tok.strip().replace(" ", "")
    if tok.endswith("i"):
        body = tok[:-1]
        split = max(body.rfind("+", 1), body.rfind("-", 1))
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
    if kind != "sinh" and args.r_squared is not None:
        parser.error("--r-squared only applies to kind sinh")
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
    rows = [
        (i, v.numerator, v.denominator, decimal30(v)) for i, v in enumerate(values)
    ]
    _emit(cfg, "coeffs", argv, payload, (("index", "numerator", "denominator", "decimal30"), rows))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------


def _verify_oracle3(m_max: int) -> tuple[bool, str | None]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    for seq in c_sequences(m_max):
        other = c_residue_oracle(seq.m)
        if seq.c != other.c:
            k = next(k for k in range(len(seq.c)) if seq.c[k] != other.c[k])
            return False, (f"residue oracle mismatch at m={seq.m}, k={k}: "
                           f"{frac_str(seq.c[k])} vs {frac_str(other.c[k])}")
    ok, witness = _verify_genfunc(min(m_max, 30))
    return ok, witness


def _verify_genfunc(m_max: int) -> tuple[bool, str | None]:
    matrix = c_genfunc_oracle(m_max)
    if matrix[0][0] != 1:
        return False, f"constant term is {frac_str(matrix[0][0])}, not 1"
    for seq in c_sequences(m_max):
        m = seq.m
        for k in range(1, len(seq.c)):
            want = seq.c[k] / (m + 1)
            got = matrix[m][k - 1] if k - 1 < len(matrix[m]) else Fraction(0)
            if want != got:
                return False, (f"generating function mismatch at m={m}, k={k}: "
                               f"{frac_str(got)} vs c/(m+1) = {frac_str(want)}")
    return True, None


def _verify_sinh(n_terms: int) -> tuple[bool, str | None]:
    # d[k] = num[k] / den with den > 0, so signs and log-concavity are
    # decided on the integer row; Fractions are built only for a witness
    for r2 in _SINH_R2:
        s = sinh_series(r2, n_terms)
        row = s.num
        for k, v in enumerate(row):
            if v <= 0:
                return False, f"d[{k}] <= 0 at r^2={frac_str(r2)}: {frac_str(s.d[k])}"
        for k in range(1, len(row) - 1):
            if row[k] * row[k] < row[k - 1] * row[k + 1]:
                d = s.d
                return False, (f"log-concavity fails at r^2={frac_str(r2)}, k={k}: "
                               f"{frac_str(d[k] * d[k])} < {frac_str(d[k - 1] * d[k + 1])}")
    return True, None


def _cmd_verify(args, cfg: RunConfig, argv: list[str], parser) -> int:
    claim = args.claim
    m_default = {
        "lemma1": 500, "newton": 200, "positivity": 100, "oracle3": 60,
        "genfunc": 30, "binomial-cf": 12, "c1-identity": 500, "logconcave-sinh": 60,
    }[claim]
    m_max = args.m_max if args.m_max is not None else m_default
    witness = None
    with _usage_errors(parser):
        if claim == "lemma1":
            res = ratio_bounds_sweep(m_max)
            passed = res is None
            if res is not None:
                witness = f"m={res.m}: {res.witness}"
        elif claim == "newton":
            w = a_invariant_witness(m_max, deep_roots=False)
            passed = w is None
            witness = str(w) if w else None
        elif claim == "positivity":
            w = c_positivity_witness(m_max)
            passed = w is None
            witness = str(w) if w else None
        elif claim == "oracle3":
            passed, witness = _verify_oracle3(m_max)
        elif claim == "genfunc":
            passed, witness = _verify_genfunc(m_max)
        elif claim == "binomial-cf":
            res = binomial_cf_check(m_max)
            passed = res.passed
            witness = None if passed else f"first mismatch at y^{res.first_mismatch}"
        elif claim == "c1-identity":
            w = c1_identity_witness(m_max)
            passed = w is None
            witness = str(w) if w else None
        else:  # logconcave-sinh
            passed, witness = _verify_sinh(m_max)
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
    cols = ("sigma_num", "sigma_den", "t_num", "t_den",
            "margin_sq_num", "margin_sq_den", "pass")
    _emit(cfg, "scan worpitzky", argv, payload, (cols, list(worpitzky_rows(report))))
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
    p_coeffs.add_argument("m", type=int)
    p_coeffs.add_argument("--kind", choices=("a", "c", "bernoulli", "sinh"), required=True)
    p_coeffs.add_argument("--r-squared", type=_rational, default=None,
                          help="rational r^2 (sinh only)")
    p_coeffs.add_argument("--n", type=int, default=None, help="number of terms (sinh only)")

    p_verify = leaf(sub, "verify", help="run an exact verification sweep")
    p_verify.add_argument("claim", choices=_CLAIMS)
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
    elapsed = time.monotonic() - started
    sys.stderr.write(f"done in {elapsed * 1000:.0f} ms\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
