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
from operator import attrgetter
from typing import get_type_hints

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


_ROW_FIELDS = tuple(f.name for f in fields(VerificationRow))
CSV_COLUMNS = ["schema_version", *_ROW_FIELDS]


def fmt17(x: float | int | None) -> str:
    """17-significant-digit rendering; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


# Each column's cell formatter, picked once from its field's type: a string
# as it is, the flag tuple joined by ';', a number by fmt17.
_FORMATTERS = tuple(
    {str: str, tuple[str, ...]: ";".join}.get(hint, fmt17)
    for hint in map(get_type_hints(VerificationRow).get, _ROW_FIELDS)
)
_ROW_VALUES = attrgetter(*_ROW_FIELDS)


def _row_cells(row: VerificationRow) -> list[str]:
    """The row's report cells in CSV_COLUMNS order."""
    cells = [fmt(value) for fmt, value in zip(_FORMATTERS, _ROW_VALUES(row))]
    cells.insert(0, SCHEMA_VERSION)
    return cells


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
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_row_cells, rows))
    return buf.getvalue().encode("utf-8")


def rows_to_json_bytes(rows: list[VerificationRow]) -> bytes:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "summary": summarize(rows),
        "rows": [dict(zip(CSV_COLUMNS, _row_cells(row))) for row in rows],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
