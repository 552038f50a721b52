"""Reading back the CSV tables the CLI writes; used by the tests only."""

from pathlib import Path

import numpy as np

from pinfin.errors import ConfigError


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
