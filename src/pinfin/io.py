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


def _run_text(col) -> np.ndarray | None:
    """A float column's cells as text, formatted once per run of bit-identical
    values, when at most half the cells start a run; otherwise ``None``.  Runs
    are found on the int64 bits, so 0.0 and -0.0 stay apart and NaN runs hold."""
    values = np.asarray(col, dtype=float)
    bits = values.view(np.int64)
    heads = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    if 2 * heads.size > values.size:
        return None
    text = np.array(format_column(values[heads]), dtype=object)
    return np.repeat(text, np.diff(np.append(heads, values.size)))


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
    # formatting row by row; a column of few runs (a two-level density, a
    # radius at a0 past its switch) prints as text formatted once per run
    table = np.full((n, len(columns)), np.nan, dtype=object)
    fmts = []
    for j, col in enumerate(columns):
        text = col if len(col) and isinstance(col[0], str) else _run_text(col)
        table[:len(col), j] = col if text is None else text
        fmts.append(_FMT if text is None else "%s")
    body = ((",".join(fmts) + "\n") * n) % tuple(table.ravel().tolist())
    with path.open("w") as f:   # the body is written as built, not copied behind the header
        f.write("\n".join(lines) + "\n")
        f.write(body)


def write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
