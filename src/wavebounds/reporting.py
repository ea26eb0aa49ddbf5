"""Verification report rows and their deterministic CSV/JSON serializations.

Every float is rendered with 17 significant digits so repeated runs with the
same configuration produce byte-identical files (schema version v1).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields

SCHEMA_VERSION = "v1"

STATUSES = ("pass", "fail", "vacuous", "error")


@dataclass(frozen=True, kw_only=True)
class VerificationRow:
    """One verified case: the numeric value, its bound interval, and the verdict.

    The fields, in order, are the v1 report columns after schema_version.
    """

    check: str
    m: int | None = None
    k: int | None = None
    p: float | None = None
    j: int | None = None
    nu: int | None = None
    value: float | None = None
    abs_error: float | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    margin: float | None = None
    status: str
    vacuous_flags: tuple[str, ...] = ()
    slack: float | None = None
    decay_c: float | None = None
    decay_c_tilde: float | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


CSV_COLUMNS = ["schema_version", *(f.name for f in fields(VerificationRow))]


def fmt17(x: float | int | None) -> str:
    """17-significant-digit rendering; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _cell(value) -> str:
    """A report cell: a string as it is, the flag tuple joined by ';', a number by fmt17."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(value)
    return fmt17(value)


def _row_record(row: VerificationRow) -> dict[str, str]:
    return {"schema_version": SCHEMA_VERSION} | {
        f.name: _cell(getattr(row, f.name)) for f in fields(row)
    }


def summarize(rows: list[VerificationRow]) -> dict[str, int]:
    counts = {status: 0 for status in STATUSES}
    for row in rows:
        counts[row.status] += 1
    counts["total"] = len(rows)
    return counts


def exit_code(rows: list[VerificationRow]) -> int:
    """0 when every row passed or was vacuous; 1 on any failure or error."""
    return 1 if any(r.status in ("fail", "error") for r in rows) else 0


def rows_to_csv_bytes(rows: list[VerificationRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_row_record(row))
    return buf.getvalue().encode("utf-8")


def rows_to_json_bytes(rows: list[VerificationRow]) -> bytes:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "summary": summarize(rows),
        "rows": [_row_record(row) for row in rows],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
