import numpy as np
import pytest

from pinfin.errors import ConfigError
from pinfin.io import write_table
from table_io import read_table


def test_read_table_drops_only_the_trailing_padding(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.arange(4.0), np.array([1.0, 2.0])])
    back = read_table(path)
    assert np.array_equal(back["x"], np.arange(4.0))
    assert np.array_equal(back["y"], [1.0, 2.0])


def test_read_table_rejects_a_nan_inside_a_column(tmp_path):
    # dropping it would shift the later rows of that column out of line
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.arange(3.0), np.array([1.0, np.nan, 3.0])])
    with pytest.raises(ConfigError, match="NaN inside column 'y'"):
        read_table(path)


def test_read_table_rejects_a_row_of_nan(tmp_path):
    # write_table pads only columns shorter than the longest one
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.array([1.0, np.nan]), np.array([2.0, np.nan])])
    with pytest.raises(ConfigError, match="NaN in every column"):
        read_table(path)
