"""Deterministic CSV/JSON emission.

All files are strict SI with units in the header row.  Floats are printed
with 17 significant digits so that re-ingestion is bit-exact; identical
inputs produce identical bytes.
"""

import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
_FMT = "%.17g"


def format_column(values: np.ndarray) -> list[str]:
    """The cells as ``write_table`` prints them, for a column tables share."""
    values = np.asarray(values, dtype=float)
    return ((_FMT + "\n") * values.size % tuple(values.tolist())).split("\n")[:-1]


def write_table(path: Path, header: list[str], columns: list[np.ndarray | list[str]],
                comment: str | None = None, fmt: str = "csv") -> None:
    """Write named columns, each floats or ``format_column`` text, as CSV (or a
    JSON object of arrays)."""
    path = Path(path)
    n = max(len(c) for c in columns)
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION}
        for name, col in zip(header, columns):
            payload[name] = [float(v) for v in col]
        if comment:
            payload["comment"] = comment
        write_json(path.with_suffix(".json"), payload)
        return
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(header))
    # shorter columns are padded with NaN, which both formats print as "nan";
    # one format over the whole table is faster, and holds less memory, than
    # formatting row by row
    table = np.full((n, len(columns)), np.nan, dtype=object)
    for j, col in enumerate(columns):
        table[:len(col), j] = col
    row_fmt = ",".join("%s" if len(c) and isinstance(c[0], str) else _FMT
                       for c in columns) + "\n"
    body = (row_fmt * n) % tuple(table.ravel().tolist())
    path.write_text("\n".join(lines) + "\n" + body)


def write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
