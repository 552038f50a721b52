"""Deterministic CSV/JSON emission and profile round-tripping.

All files are strict SI with units in the header row.  Floats are printed
with 17 significant digits so that re-ingestion is bit-exact; identical
inputs produce identical bytes.
"""

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1
_FMT = "%.17g"


def format_float(v: float) -> str:
    return _FMT % float(v)


def write_table(path: Path, header: list[str], columns: list[np.ndarray],
                comment: str | None = None, fmt: str = "csv") -> None:
    """Write named columns as CSV (or a JSON object of arrays)."""
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
    # shorter columns are padded with NaN, which the format prints as "nan";
    # one format over the whole table is faster, and holds less memory, than
    # formatting row by row
    table = np.full((n, len(columns)), np.nan)
    for j, col in enumerate(columns):
        table[:len(col), j] = col
    row_fmt = ",".join([_FMT] * len(columns)) + "\n"
    body = (row_fmt * n) % tuple(table.ravel().tolist())
    path.write_text("\n".join(lines) + "\n" + body)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Read a CSV written by ``write_table``, dropping its trailing padding.

    Only the ``nan`` cells that end a column shorter than the longest one are
    padding; any other NaN would shift the rows after it, so it is rejected.
    """
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: empty table")
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {}
    for j, name in enumerate(names):
        vals = np.array([float(r[j]) for r in rows])
        filled = np.flatnonzero(~np.isnan(vals))
        length = int(filled[-1]) + 1 if filled.size else 0
        if filled.size < length:
            raise ConfigError(f"{path}: NaN inside column {name!r}")
        cols[name] = vals[:length]
    if rows and max(len(v) for v in cols.values()) < len(rows):
        raise ConfigError(f"{path}: last row is NaN in every column")
    return cols


def write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
