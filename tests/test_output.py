import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tricentre._output import csv_text

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           1e300, -1e300, 1.0 / 3.0, 2.0 ** 53 + 2.0, 123456789.0]


def _csv_writer_text(header, rows) -> str:
    """The earlier CSV path: csv.writer with every value as f"{v:.17g}"."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue()


class TestCsvText:
    def test_special_values(self):
        cols = [np.array(SPECIAL), np.array(SPECIAL[::-1])]
        want = _csv_writer_text(["a", "b"], zip(SPECIAL, SPECIAL[::-1]))
        assert csv_text(["a", "b"], cols) == want

    def test_numpy_float64_rows(self):
        cols = [np.array(SPECIAL), np.linspace(-1.0, 1.0, len(SPECIAL))]
        rows = zip(*cols)  # numpy float64 scalars, as trajectories gave
        assert isinstance(next(zip(*cols))[0], np.float64)
        assert csv_text(["u", "v"], cols) == _csv_writer_text(["u", "v"], rows)

    def test_empty_row_set(self):
        cols = [np.zeros(0), np.zeros(0), np.zeros(0)]
        assert csv_text(["tau", "x", "y"], cols) == "tau,x,y\r\n"
        assert csv_text(["tau", "x", "y"], cols) == \
            _csv_writer_text(["tau", "x", "y"], [])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.tuples(st.floats(), st.floats(), st.floats()),
                           max_size=20))
    def test_matches_csv_writer(self, values):
        cols = [np.array([v[k] for v in values], dtype=float)
                for k in range(3)]
        assert csv_text(["p", "q", "r"], cols) == \
            _csv_writer_text(["p", "q", "r"], values)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(st.tuples(st.floats(), st.floats(), st.floats()),
                           max_size=20),
           formatted=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_formatted_columns_are_written_as_they_are(self, values,
                                                       formatted):
        # a column of str, formatted "%.17g" once by a caller that writes
        # it to several files, gives the bytes of the numbers themselves
        cols = [[v[k] for v in values] for k in range(3)]
        mixed = [["%.17g" % x for x in c] if f else c
                 for c, f in zip(cols, formatted)]
        assert csv_text(["p", "q", "r"], mixed) == \
            _csv_writer_text(["p", "q", "r"], values)
