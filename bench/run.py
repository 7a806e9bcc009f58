"""Time-to-verdict benchmark for zetacf.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and
zetacf is imported from its `src/`. Workloads: strip_scan, many_m_sweep,
exact_series, cf_contour (see BENCHMARK.json for why each was chosen).

With `--trace 0` the run measures set-up (a fresh interpreter importing
zetacf and building the CLI parser, several times), then passes over the
workload's op list, each in a fresh worker process, for as long as another
pass fits in S seconds, and prints the end-to-end metrics as medians over
those. With `--trace 1` it runs one untraced pass and one traced pass and
prints the per-layer metrics: self times from spans recorded around
zetacf's public functions, counts, the untraced time of each CLI op, and
the tracing overhead.

Every op's output is checked against a reference. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`correct` is false when any op fails other than as listed in
`workloads.SEED_DEFECTS`; every failed op is counted in `failed` and named
above that line. Exits 2, printing no result, when the checkout holds no
zetacf source, and 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
SETUP_CODE = ("import time, mpmath, zetacf, zetacf.cli; zetacf.cli.build_parser(); "
              "print(time.monotonic()); print(zetacf.__file__)")
CLI_OPS = [op.name for w in workloads.WORKLOADS
           for op in workloads.build_ops(w, 0, None) if op.is_cli]


class BenchError(RuntimeError):
    pass


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _run_child(cmd, cwd: Path, env: dict, deadline: float) -> str:
    """Run a child process in its own session; kill its whole group at the
    deadline. Returns its standard output."""
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1]} exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{err[-3000:]}")
    return out


def measure_setup(src: Path, work: Path, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    zetacf (with mpmath) and built the CLI parser. CLOCK_MONOTONIC is
    system-wide, so the child's reading compares with ours."""
    start = time.monotonic()
    out = _run_child([sys.executable, "-c", SETUP_CODE], work, _child_env(src), deadline)
    done, origin = out.split("\n")[:2]
    if src.resolve() not in Path(origin).resolve().parents:
        raise BenchError(f"set-up imported zetacf from {origin}, not from {src}")
    return float(done) - start


def run_pass(src: Path, work: Path, workload: str, seed: int, trace: int,
             deadline: float) -> dict:
    """One pass in a fresh worker process, in a fresh working directory."""
    pass_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        out = pass_dir / "result.json"
        _run_child([sys.executable, str(HERE / "worker.py"), "--src", str(src),
                    "--workload", workload, "--seed", str(seed), "--trace", str(trace),
                    "--out", str(out)], pass_dir, _child_env(src), deadline)
        result = json.loads(out.read_text())
        if trace:
            kept = work / f"spans-{workload}.json"
            shutil.move(result["spans_file"], kept)
            result["trace"] = json.loads(kept.read_text())
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_start": os.getloadavg(),
    }


def timed_run(args, src, work, deadline) -> tuple[dict, list[dict]]:
    setups = [measure_setup(src, work, deadline) for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(src, work, args.workload, args.seed, 0, deadline))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > args.seconds:
            break
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {"setup_s": statistics.median(setups), "wall_s": med("wall_s"),
               "cpu_s": med("cpu_s"), "peak_rss_mb": med("peak_rss_mb")}
    return metrics, passes


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from an untraced and a traced pass of one workload."""
    metrics = tracing.span_metrics(traced["trace"])
    op_wall = {op["name"]: op["wall_s"] for op in plain["ops"]}
    for name in CLI_OPS:
        metrics[f"{name}_s"] = op_wall.get(name, 0.0)
    j1, j2 = op_wall.get("cli_worpitzky_300_j1"), op_wall.get("cli_worpitzky_300_j2")
    metrics["jobs2_speedup"] = j1 / j2 if j1 and j2 else 0.0
    metrics["report_bytes"] = plain["report_bytes"]
    metrics["trace_overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return metrics


def traced_run(args, src, work, deadline) -> tuple[dict, list[dict]]:
    plain = run_pass(src, work, args.workload, args.seed, 0, deadline)
    traced = run_pass(src, work, args.workload, args.seed, 1, deadline)
    return per_layer_metrics(plain, traced), [plain, traced]


def tally(passes: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, one line per failed op). `correct` holds
    while every failure is a listed seed defect failing as recorded."""
    attempted = failed = 0
    correct = True
    lines = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            error = op["error"]
            if error is None:
                continue
            failed += 1
            known = workloads.SEED_DEFECTS.get(op["name"])
            is_known = known is not None and error.startswith(known)
            correct = correct and is_known
            lines.append(f"FAILED {op['name']}{' (seed defect)' if is_known else ''}: {error}")
    return attempted, failed, correct, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "zetacf" / "__init__.py").is_file():
        print(f"bench: no zetacf source under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    record = run_record(args)
    try:
        if args.trace:
            metrics, passes = traced_run(args, src, work, deadline)
        else:
            metrics, passes = timed_run(args, src, work, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"bench: measured {sorted(set(metrics) ^ set(units))} out of step with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    record["int_max_str_digits"] = passes[0]["int_max_str_digits"]
    record["passes"] = len(passes)
    if args.trace:
        record["note"] = tracing.POOL_NOTE

    attempted, failed, correct, failures = tally(passes)
    print(f"run record: {json.dumps(record)}")
    print(f"{'op':24s} " + " ".join(f"{'pass ' + str(i + 1):>9s}" for i in range(len(passes))))
    for i, op in enumerate(passes[0]["ops"]):
        print(f"{op['name']:24s} " + " ".join(f"{p['ops'][i]['wall_s']:8.3f}s" for p in passes))
    for line in failures:
        print(line)
    print(f"ops_failed_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
