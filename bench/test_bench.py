"""Self-test of the benchmark harness, at tiny sizes.

    python3 -m pytest bench/test_bench.py

Runs every workload's op list small, shows that each op's check flags a
deliberately corrupted output, that a raising op counts as failed, and that
the metric names agree with BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

Z = worker.import_zetacf(HERE.parent / "src")
SEED = 3


@pytest.fixture(autouse=True)
def _reports_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the CLI ops write their reports here


def tiny_ops(workload):
    return workloads.build_ops(workload, SEED, Z, workloads.TINY)


def run_tiny(workload):
    ops = tiny_ops(workload)
    outputs = [op.run() for op in ops]
    return ops, outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_op_lists_match_their_references(workload):
    result = worker.run_ops(tiny_ops(workload))
    assert [op["error"] for op in result["ops"]] == [None] * len(result["ops"])
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["peak_rss_mb"] > 0


# -- corruptions, one per op ------------------------------------------------


def _edit_report(edit):
    def corrupt(out):
        doc = json.loads(out.path.read_text())
        edit(doc)
        out.path.write_text(json.dumps(doc))
        return out
    return corrupt


def _set(**changes):
    return _edit_report(lambda doc: doc.update(changes))


def _first_point_fails(doc):
    doc["points"][0]["pass"] = False


def _second_row_changes(doc):
    doc["rows"][1]["value"] = "1/7"


def _winding(doc):
    doc["results"]["G"]["winding_number"] = 1


def _zeta_digit(doc):
    pt = doc["points"][0]
    pt["zeta_reference"] = pt["zeta_reference"].replace("1.64", "1.65", 1)


def _replace_first(**changes):
    def corrupt(results):
        return [dataclasses.replace(results[0], **changes), *results[1:]]
    return corrupt


def _margin_off_by_a_little(results):
    return _replace_first(margin_sq=results[0].margin_sq + Fraction(1, 10**9))(results)


def _cf_exact(out):
    kind, pt, exact, approx, pf_value = out[0]
    return [(kind, pt, exact + Fraction(1, 10**30), approx, pf_value), *out[1:]]


CORRUPT = {
    "margin_m1000_seeded": _margin_off_by_a_little,
    "prop1_m1000": lambda rep: dataclasses.replace(rep, band_pass=False),
    "cli_worpitzky_100": _edit_report(_first_point_fails),
    "cli_worpitzky_300_j1": _set(all_pass=False),
    "cli_worpitzky_300_j2": _edit_report(_first_point_fails),
    "cli_worpitzky_1000": _set(band_pass=False),
    "cli_lemma1_500": _set(**{"pass": False}),
    "cli_newton_200": _set(witness="newton-ratio fails at m=7"),
    "a_invariant_200_deep": lambda out: "log-concavity fails at m=9",
    "real_line_600": lambda out: (7, Fraction(1, 2), 3),
    "cli_c1_identity_500": _set(**{"pass": False}),
    "cli_bernoulli_520": _edit_report(_second_row_changes),
    "cli_oracle3_60": _set(**{"pass": False}),
    "cli_sinh_verify_60": _set(**{"pass": False}),
    "cli_monotonicity_200": _set(first_k_ratio_violation_m=11),
    "positivity_trunc_30": lambda out: (dataclasses.replace(out[0], passed=False), out[1]),
    "cli_sinh_coeffs_100": _edit_report(_second_row_changes),
    "cli_zero_50": _edit_report(_winding),
    "cli_zero_150": _edit_report(_winding),
    "zero_zn": _replace_first(winding_number=0),
    "cf_m60": _cf_exact,
    "cf_m120": _cf_exact,
    "cli_convergence_256": _edit_report(_zeta_digit),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_check_flags_a_corrupted_output(workload):
    ops, outputs = run_tiny(workload)
    for op, out in zip(ops, outputs):
        assert op.check(out) is None, op.name
        assert op.check(CORRUPT[op.name](out)) is not None, op.name


def test_every_op_has_a_corruption():
    names = {op.name for w in workloads.WORKLOADS for op in workloads.build_ops(w, 0, None)}
    assert names == set(CORRUPT)


def test_exit_code_is_not_a_verdict():
    (op,) = [op for op in tiny_ops("many_m_sweep") if op.name == "cli_lemma1_500"]
    out = op.run()
    assert op.check(workloads.CliOutput(1, out.path)) is not None


def test_pinned_sha_flags_changed_bytes(monkeypatch):
    (op,) = [op for op in tiny_ops("many_m_sweep") if op.name == "cli_newton_200"]
    out = op.run()
    monkeypatch.setitem(workloads.REPORT_SHA256, op.name,
                        hashlib.sha256(out.path.read_bytes()).hexdigest())
    check = workloads._cli_check(op.name, workloads._expect_verify, pin=True)
    assert check(out) is None
    out.path.write_text(out.path.read_text() + " ")
    assert "sha256" in check(out)


def test_raising_op_counts_as_failed():
    def boom():
        raise ZeroDivisionError("no")

    ops = [workloads.Op("fine", lambda: None, lambda out: None),
           workloads.Op("boom", boom, lambda out: None)]
    result = worker.run_ops(ops)
    assert result["ops"][1]["error"] == "raised ZeroDivisionError in boom: no"
    attempted, failed, correct, lines = run.tally([result])
    assert (attempted, failed, correct) == (2, 1, False)
    assert lines == ["FAILED boom: raised ZeroDivisionError in boom: no"]


def test_seed_defects_keep_correct_only_while_unchanged():
    sig = workloads.SEED_DEFECTS["zero_zn"]
    same = {"ops": [{"name": "zero_zn", "error": sig}]}
    other = {"ops": [{"name": "zero_zn", "error": "n=32: certified winding 16, expected 32"}]}
    assert run.tally([same])[1:3] == (1, True)
    assert run.tally([other])[1:3] == (1, False)


# -- references -------------------------------------------------------------


def test_references_agree_with_zetacf_on_small_cases():
    cc, ra, QC = Z.coeff_core, Z.region_analysis, Z.qcomplex.QComplex
    for r2, n in ((Fraction(1, 4), 10), (Fraction(100), 12), (Fraction(3, 7), 7)):
        assert reference.sinh_coefficients(r2, n) == list(cc.sinh_series(r2, n).d)
    assert reference.bernoulli(30) == list(cc.bernoulli_table(30).b)
    m = 40
    a = cc.coeff_table(m - 1).a
    for s in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(5, 7), Fraction(-2, 3))):
        r = ra.worpitzky_margin(m, QC(*s))
        assert reference.element_margin_sq(a, s, r.argmin_k) == r.margin_sq


def test_big_numerals_parse_below_the_int_str_limit():
    assert reference.parse_big_int("1" + "0" * 9999) == 10 ** 9999
    assert reference.parse_fraction("-3/" + "0" * 5000 + "7") == Fraction(-3, 7)


# -- tracing and metric names -----------------------------------------------


@pytest.fixture(scope="module")
def recorder():
    rec = tracing.Recorder()
    tracing.instrument(rec)
    return rec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_gives_every_per_layer_metric(workload, recorder):
    recorder.spans.clear()
    recorder.zero_scans.clear()
    ops = tiny_ops(workload)
    plain = worker.run_ops(ops)
    traced = worker.run_ops(ops, recorder)
    assert [op["error"] for op in traced["ops"]] == [None] * len(ops)
    assert all(end >= start for _, _, start, end, _ in recorder.spans)
    traced["trace"] = recorder.dump()
    metrics = run.per_layer_metrics(plain, traced)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    busy = {"strip_scan": "prop1_scan_s", "many_m_sweep": "stirling_rows_s",
            "exact_series": "PowerSeries.inverse_s", "cf_contour": "horner_s"}[workload]
    assert metrics[busy] > 0


def test_self_time_subtracts_children():
    spans = [["a", 0, 0.0, 10.0, -1], ["b", 0, 1.0, 4.0, 0], ["c", 0, 2.0, 3.0, 1],
             ["d", 0, 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_end_to_end_names_and_bare_directory(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cf_contour",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
