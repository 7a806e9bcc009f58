import json
import math
from fractions import Fraction as F

import pytest

from zetacf.coeff_core import coeff_table
from zetacf.serialize import (
    SCHEMA,
    decimal30,
    dump_csv,
    dump_json,
    frac_str,
    parse_frac,
    table_payload,
    zero_scan_payload,
)
from zetacf.region_analysis import ZeroScanResult


def test_frac_roundtrip():
    for q in (F(0), F(1), F(-11, 6), F(7381, 2520)):
        assert parse_frac(frac_str(q)) == q
    assert parse_frac("5") == F(5)


def test_frac_roundtrip_beyond_int_str_limit():
    # exact report values at large m run past the interpreter's default
    # 4300-digit int-to-str limit
    q = F(10**9999 + 7, 2**40)
    text = frac_str(-q)
    assert text == "-1" + "0" * 9998 + "7/1099511627776"
    assert parse_frac(text) == -q
    with pytest.raises(ValueError):
        parse_frac("1.5/2")


def test_decimal30():
    assert decimal30(F(1)) == "1"
    assert decimal30(F(1, 3)).startswith("0.333333333333333333333333333333")
    assert decimal30(F(-11, 6)).startswith("-1.8333333333333333333333333333")
    # 30 significant digits
    assert len(decimal30(F(1, 3)).replace("0.", "")) == 30


def test_table_payload_shape():
    p = table_payload("coeffs_a", "j", coeff_table(3).a, {"m": 3})
    assert p["schema"] == SCHEMA
    assert p["m"] == 3
    assert p["rows"][1] == {"index": 1, "value": "11/6", "decimal": decimal30(F(11, 6))}


def test_table_rows_match_frac_str_and_decimal30():
    # each row converts num and den to Decimal once; the strings must be the
    # ones frac_str and decimal30 give, past the 4300-digit int-to-str limit too
    values = [F(0), F(-3), F(7), F(-11, 6), F(2, 3), F(-(10**4400 + 3), 7 * 10**4350 + 1)]
    rows = table_payload("t", "i", values)["rows"]
    assert rows == [{"index": i, "value": frac_str(v), "decimal": decimal30(v)}
                    for i, v in enumerate(values)]
    assert rows[0]["value"] == "0/1" and rows[1]["decimal"] == "-3"


def test_dump_json_deterministic_with_header():
    payload = {"schema": SCHEMA, "x": 1}
    h = {"tool_version": "0.1.0", "command": "t", "arguments": ["a"], "seed": 1, "precision": 256}
    out1 = dump_json(payload, h)
    out2 = dump_json(payload, h)
    assert out1 == out2
    assert out1.endswith("\n")
    assert '"run"' in out1


def test_dump_json_is_strict():
    # a non-finite float modulus is written as null; no other non-finite
    # value may reach the JSON encoder
    res = ZeroScanResult((F(0), F(1), F(-1), F(1)), 0, math.inf, F(10) ** 700, 64, 0, True)
    doc = json.loads(dump_json(zero_scan_payload(res)))
    assert doc["boundary_min_modulus"] is None
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})


def test_dump_csv_format():
    text = dump_csv(("a", "b"), [(1, 2), (3, 4)], ["k: v"])
    assert text == "# k: v\na,b\n1,2\n3,4\n"
