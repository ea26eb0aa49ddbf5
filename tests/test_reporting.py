"""Report rows through csv.writer and per-column formatters against the earlier rendering.

`reference_csv_bytes` keeps the earlier serializer as the oracle: one dict
per row written by `csv.DictWriter` from `dataclasses.fields(row)`, each cell
formatted by `reference_cell`'s `isinstance` dispatch on the value. The
library resolves the columns once, picks each column's formatter once from
the field's type and writes the cells in CSV_COLUMNS order, so the bytes are
equal.
"""

import csv
import io
import json
import math
from dataclasses import fields

from wavebounds.reporting import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    VerificationRow,
    fmt17,
    rows_to_csv_bytes,
    rows_to_json_bytes,
)


def reference_cell(value) -> str:
    """A report cell: a string as it is, the flag tuple joined by ';', a number by fmt17."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(value)
    return fmt17(value)


def reference_record(row: VerificationRow) -> dict[str, str]:
    return {"schema_version": SCHEMA_VERSION} | {
        f.name: reference_cell(getattr(row, f.name)) for f in fields(row)
    }


def reference_csv_bytes(rows: list[VerificationRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(reference_record(row))
    return buf.getvalue().encode("utf-8")


ROWS = [
    VerificationRow(check="theorem1", status="pass", m=3, k=1, p=1.5, value=0.1, abs_error=2e-13,
                    lower_bound=-math.inf, upper_bound=math.inf, margin=None,
                    vacuous_flags=("lower", "upper"), decay_c=1.25, decay_c_tilde=3.0),
    VerificationRow(check="bernstein", status="fail", m=2, k=1, p=2.0, j=-3, nu=-8,
                    value=1 / 3, abs_error=0.0, upper_bound=-0.0, margin=-1e-300),
    VerificationRow(check="theorem2", status="vacuous", m=1, k=1, p=4.0, value=5e-324,
                    slack=0.5, vacuous_flags=("log_m_zero",),
                    note='lower bound, "slackened", carries the factor'),
    VerificationRow(check="corollary1", status="error", note="ValueError: p, q and \"r\" are bad\nagain"),
    VerificationRow(check="corollary3", status="pass", m=20, k=20, p=3.0, value=1e300,
                    lower_bound=0, upper_bound=12345678901234567890),
    # nan, -inf in margin, ints in float columns and empty flags.
    VerificationRow(check="bernstein", status="fail", m=2, k=1, p=2, j=0, nu=0, value=math.nan,
                    abs_error=math.nan, upper_bound=1, margin=-math.inf, vacuous_flags=(),
                    slack=1, decay_c=-0.0, decay_c_tilde=math.inf),
]


def test_csv_matches_the_dictwriter_rendering():
    assert rows_to_csv_bytes(ROWS) == reference_csv_bytes(ROWS)
    assert rows_to_csv_bytes([]) == reference_csv_bytes([])
    assert b'"lower bound, ""slackened"", carries the factor"' in rows_to_csv_bytes(ROWS)


def test_json_rows_match_the_earlier_records():
    payload = json.loads(rows_to_json_bytes(ROWS))
    assert payload["rows"] == [reference_record(row) for row in ROWS]
    assert payload["rows"][0]["lower_bound"] == "-inf" and payload["rows"][0]["margin"] == ""
    last = payload["rows"][-1]
    assert (last["value"], last["margin"], last["p"], last["vacuous_flags"]) == ("nan", "-inf", "2", "")
