"""One pass over a workload's op list, in a fresh interpreter.

    python3 bench/worker.py --src SRC --workload W --seed N --trace 0|1 --out FILE

Imports zetacf from SRC, runs the ops one after another in this process (a
closed loop with one client), then checks each output, and writes a JSON
result to FILE. The working directory receives the CLI reports. With
`--trace 1` the spans are written next to FILE as FILE.spans.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _raised(exc: BaseException) -> str:
    """'raised <Type> in <innermost function>: <message>'."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = frames[-1].name if frames else "?"
    return f"raised {type(exc).__name__} in {where}: {exc}"


def import_zetacf(src: Path) -> SimpleNamespace:
    """The zetacf modules from `src`, refusing any other installed copy."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("zetacf")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"zetacf was imported from {origin}, not from {src}")
    names = ("cli", "coeff_core", "approx_eval", "region_analysis", "series", "qcomplex")
    return SimpleNamespace(**{n: importlib.import_module(f"zetacf.{n}") for n in names})


def run_ops(ops, recorder=None) -> dict:
    """Run the ops (timed), then check their outputs (untimed)."""
    results = []
    outputs = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
            recorder.active = True
        t0 = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs.append((None, _raised(exc)))
        finally:
            if recorder is not None:
                recorder.active = False
        results.append({"name": op.name, "wall_s": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report_bytes = 0
    for op, (out, error), res in zip(ops, outputs, results):
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check {_raised(exc)}"
        res["error"] = error
        if op.is_cli and out is not None and out.path.exists():
            report_bytes += out.path.stat().st_size
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024,
            "report_bytes": report_bytes, "ops": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    Z = import_zetacf(args.src)
    ops = workloads.build_ops(args.workload, args.seed, Z)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.instrument(recorder)
    result = run_ops(ops, recorder)
    result["int_max_str_digits"] = sys.get_int_max_str_digits()
    if recorder is not None:
        spans_path = args.out.with_name(args.out.name + ".spans.json")
        spans_path.write_text(json.dumps(recorder.dump()))
        result["spans_file"] = str(spans_path)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
