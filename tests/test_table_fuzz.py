"""A malformed measurement table ends ``tune`` with a run or a message,
never a traceback.

Each example changes one cell of the demo table (header included) to a
blank, a word, a non-finite, negative, out-of-range or fractional number
or a level name, or drops or duplicates one of its lines, in a temporary
copy. It then runs ``tune`` on the demo spec with random search at a
budget that charges every configuration of the table's space, so every
row the oracle holds is read. The command must return 0, 1 or 2 and
raise nothing.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from admmo.cli import main

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
LINES = (DEMO_DATA / "measurements.csv").read_text().splitlines(keepends=True)
FIRST = next(i for i, line in enumerate(LINES) if not line.startswith("#"))  # the header
COLUMNS = LINES[FIRST].count(",") + 1
VALUES = ("", "x", "nan", "inf", "-1", "99", "1.5", "fast", "best")

cell_changes = st.tuples(
    st.just("cell"),
    st.integers(FIRST, len(LINES) - 1),
    st.integers(0, COLUMNS - 1),
    st.sampled_from(VALUES),
)
line_changes = st.tuples(
    st.sampled_from(("drop", "duplicate")), st.integers(FIRST, len(LINES) - 1), st.just(0), st.just("")
)


def changed_table(change, line, column, value):
    lines = list(LINES)
    if change == "cell":
        cells = lines[line].rstrip("\n").split(",")
        cells[column] = value
        lines[line] = ",".join(cells) + "\n"
    elif change == "drop":
        del lines[line]
    else:
        lines.insert(line, lines[line])
    return "".join(lines)


@settings(max_examples=60, deadline=None)
@given(st.one_of(cell_changes, line_changes))
def test_no_one_cell_or_one_line_change_of_the_demo_table_escapes_main(change):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(DEMO_DATA / "demo-spec.yaml", tmp)
        (Path(tmp) / "measurements.csv").write_text(changed_table(*change))
        argv = [
            "tune", str(Path(tmp) / "demo-spec.yaml"), "--optimizer", "rs", "--budget", "16",
            "--out", str(Path(tmp) / "out"),
        ]
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
