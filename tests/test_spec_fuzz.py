"""A malformed run-spec ends a command with a message, never a traceback.

Each example replaces one value of the demo spec (a mapping's value or a
list's entry, at any depth) by a wrong one and runs ``tune`` on it, which
loads every case of the spec. The command must return 1 or 2 with
``error:`` on stderr and raise nothing.
"""

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path

import yaml

from admmo.cli import main

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

# small values and one size that no index reaches; none is a size that
# would allocate
WRONG = (None, [], {}, "x", -1, 1.5, 10**30)

# the values of WRONG that still make a valid spec where they stand; a case
# id takes any value
VALID = {
    ("output_dir",): ("x",),
    ("seed",): (-1, 10**30),
    ("repeats",): (10**30,),
    ("budgets", 0): (10**30,),
    ("budgets", 1): (10**30,),
    ("cases", 0, "id"): WRONG,
    ("cases", 1, "id"): WRONG,
    ("cases", 1, "oracle", "seed"): (10**30,),
    ("optimizers", 2, "fixed_w"): (1.5,),
}


def paths(node, path=()):
    """The path of every value below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*path, key))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_no_one_value_mutation_of_the_demo_spec_escapes_main(tmp_path):
    shutil.copy(DEMO_DATA / "measurements.csv", tmp_path)
    demo = yaml.safe_load((DEMO_DATA / "demo-spec.yaml").read_text())
    spec = tmp_path / "spec.json"
    failures = []
    for path in paths(demo):
        for value in WRONG:
            if value in VALID.get(path, ()):
                continue
            spec.write_text(json.dumps(replaced(demo, path, value)))
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(["tune", str(spec), "--out", str(tmp_path / "out"), "--force"])
            except Exception as exc:  # noqa: BLE001 - every escape is a failure here
                failures.append((path, value, f"raised {type(exc).__name__}: {exc}"))
                continue
            if code not in (1, 2) or not err.getvalue().startswith("error: "):
                failures.append((path, value, f"returned {code}, stderr {err.getvalue()!r}"))
    assert not failures, "\n".join(map(str, failures))
