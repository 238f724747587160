"""CLI tests: run-spec parsing, tune/bench/report round trips, provenance."""

import codecs
import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import admmo
from admmo import cli
from admmo.cli import main
from admmo.runspec import RunSpecError, load_runspec

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

TABLE = """\
# sixteen measured configurations
a,b,c,d,runtime,cpu
0,0,0,0,14.0,3.0
0,0,0,1,11.0,2.0
0,0,1,0,13.0,8.0
0,0,1,1,9.0,6.0
0,1,0,0,12.0,1.0
0,1,0,1,7.0,5.0
0,1,1,0,10.0,4.0
0,1,1,1,5.0,9.0
1,0,0,0,15.0,2.5
1,0,0,1,8.0,7.5
1,0,1,0,6.0,0.5
1,0,1,1,4.0,1.5
1,1,0,0,16.0,6.5
1,1,0,1,3.0,4.5
1,1,1,0,2.0,8.5
1,1,1,1,1.0,5.5
"""

SPEC = """\
id: demo-system
space:
  options:
    - {{name: a, kind: binary}}
    - {{name: b, kind: binary}}
    - {{name: c, kind: binary}}
    - {{name: d, kind: binary}}
oracle:
  kind: table
  path: table.csv
  target_column: runtime
  auxiliary_column: cpu
optimizers:
  - {{kind: rs}}
  - {{kind: admmo}}
budgets: [{budgets}]
repeats: {repeats}
seed: 1
p: 0.3
population_size: 4
output_dir: {outdir}
"""


def files_of(directory):
    """Every file under ``directory`` by relative path, with its bytes."""
    return {
        path.relative_to(directory): path.read_bytes()
        for path in directory.rglob("*")
        if path.is_file()
    }


@pytest.fixture
def spec_dir(tmp_path):
    (tmp_path / "table.csv").write_text(TABLE)
    spec = SPEC.format(budgets="8, 12", repeats="3", outdir="campaign")
    (tmp_path / "spec.yaml").write_text(spec)
    return tmp_path


class TestRunSpec:
    def test_loads_and_validates(self, spec_dir):
        with pytest.raises(ValueError):  # YAML that is no JSON
            json.loads((spec_dir / "spec.yaml").read_text())
        spec = load_runspec(spec_dir / "spec.yaml")
        assert spec.cases[0].case_id == "demo-system"
        assert [o.label for o in spec.optimizers] == ["rs", "admmo"]
        assert spec.budgets == (8, 12)
        assert len(spec.digest) == 64

    def test_missing_table_named(self, tmp_path):
        spec = SPEC.format(budgets="8", repeats="1", outdir="out")
        (tmp_path / "spec.yaml").write_text(spec)
        with pytest.raises(RunSpecError, match="table.csv"):
            load_runspec(tmp_path / "spec.yaml")

    def test_budget_below_population_rejected(self, tmp_path):
        (tmp_path / "table.csv").write_text(TABLE)
        spec = SPEC.format(budgets="2", repeats="1", outdir="out")
        (tmp_path / "spec.yaml").write_text(spec)
        with pytest.raises(RunSpecError, match="population"):
            load_runspec(tmp_path / "spec.yaml")

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("budgets", 100, "'budgets'"),
            ("budgets", [10, "ten"], "'budgets'"),
            ("repeats", [1], "'repeats'"),
            ("optimizers", [7], "optimizer #0"),
            ("optimizers", "admmo", "'optimizers'"),
            ("optimizers", [{"kind": "pmo", "trigger_mode": "constant"}], "optimizer #0"),
            ("optimizers", [{"kind": "mmo_fixed", "fixed_w": float("nan")}], "fixed_w"),
            ("optimizers", [{"kind": "mmo_fixed", "fixed_w": "heavy"}], "'fixed_w'"),
            ("population_size", "abc", "'population_size'"),
            ("seed", "x", "'seed'"),
            ("p", "high", "'p'"),
            ("cases", [7], "'cases[0]'"),
            ("oracle", 7, "'oracle'"),
            ("space", 7, "'space'"),
            ("space", {"options": 7}, "'options'"),
            (
                "oracle",
                {"kind": "synthetic", "n_options": 4, "domain_sizes": [2, "x", 2, 2], "k": 2,
                 "seed": 3},
                "'oracle.domain_sizes'",
            ),
            ("budgets", [20.7], "'budgets'"),
            ("repeats", 1.5, "'repeats'"),
            ("population_size", 4.9, "'population_size'"),
            (
                "oracle",
                {"kind": "synthetic", "n_options": 4, "domain_sizes": 2.9, "k": 2, "seed": 3},
                "'oracle.domain_sizes'",
            ),
            ("population_size", 1, "'population_size' must be at least 2"),
            ("p", 1.5, "p must lie in (0, 1]"),
            ("repeats", 0, "repeats must be positive"),
            ("budgets", [3], "every budget must be at least the population size"),
            (
                "oracle",
                {"kind": "table", "path": "table.csv", "target_column": "runtime",
                 "auxiliary_column": "cpu", "delimiter": ""},
                "'oracle.delimiter' must be a nonempty string, got ''",
            ),
            ("budgets", [10, 10], "'budgets' must be distinct"),
            ("id", "../escaped", "'id' must not contain '/'"),
            ("id", "..\\escaped", "'id' must not contain '/'"),
        ],
    )
    def test_malformed_entry_exits_2_naming_the_key(self, spec_dir, capsys, key, value, named):
        path = spec_dir / "spec.yaml"
        doc = yaml.safe_load(path.read_text())
        doc[key] = value
        path.write_text(yaml.safe_dump(doc))
        assert main(["bench", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize(
        "command, flags, key, value",
        [
            ("tune", ["--p", "1.5"], "p", 1.5),
            ("bench", ["--p", "1.5"], "p", 1.5),
            ("bench", ["--repeats", "0"], "repeats", 0),
            ("tune", ["--budget", "3"], "budgets", [3]),
            ("tune", ["--optimizer", "rs", "--budget", "3"], "budgets", [3]),
            ("bench", ["--budget", "3"], "budgets", [3]),
        ],
    )
    def test_bad_flag_fails_as_its_file_value(self, spec_dir, capsys, command, flags, key, value):
        path = spec_dir / "spec.yaml"
        assert main([command, str(path), *flags]) == 2
        from_flag = capsys.readouterr().err
        doc = yaml.safe_load(path.read_text())
        doc[key] = value
        path.write_text(yaml.safe_dump(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith("error: ") and flags[-2].lstrip("-") in from_flag
        assert not (spec_dir / "campaign").exists()

    def test_json_spec_equals_its_yaml_twin(self, spec_dir):
        doc = yaml.safe_load((spec_dir / "spec.yaml").read_text())
        doc = {
            "cases": [
                {key: doc.pop(key) for key in ("id", "space", "oracle")},
                {"id": "nk", "oracle": {"kind": "synthetic", "n_options": 5,
                                        "domain_sizes": [2, 3, 2, 2, 4], "k": 2, "seed": 3}},
            ],
            **doc,
        }
        (spec_dir / "twin.yaml").write_text(yaml.safe_dump(doc))
        (spec_dir / "twin.json").write_text(json.dumps(doc, indent=2))
        from_yaml = load_runspec(spec_dir / "twin.yaml")
        from_json = load_runspec(spec_dir / "twin.json")
        assert from_json.digest != from_yaml.digest
        assert dataclasses.replace(from_json, digest="") == dataclasses.replace(from_yaml, digest="")

    @pytest.mark.parametrize("text", ["budgets: [8, 12\n", '{"budgets": [8,\n', "a: b: c\n"])
    def test_broken_spec_is_not_valid_yaml(self, tmp_path, text):
        (tmp_path / "spec.yaml").write_text(text)
        with pytest.raises(RunSpecError, match="spec.yaml: not valid YAML"):
            load_runspec(tmp_path / "spec.yaml")

    def test_bad_table_exits_1(self, spec_dir, capsys):
        # a table error is a ValueError but no RunSpecError
        (spec_dir / "table.csv").write_text(TABLE + "1,1,1,1,fast,1.0\n")
        assert main(["bench", str(spec_dir / "spec.yaml")]) == 1
        assert capsys.readouterr().err.startswith("error: line 19: non-numeric objective value")

    def test_table_that_is_not_utf8_exits_1_naming_the_line(self, spec_dir, capsys):
        (spec_dir / "table.csv").write_bytes(TABLE.encode() + b"1,1,1,1,1.0,\xe92.0\n")
        assert main(["tune", str(spec_dir / "spec.yaml")]) == 1
        assert capsys.readouterr().err == "error: line 19: not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["tune", "bench"])
    def test_table_without_rows_exits_1_before_any_run(self, spec_dir, capsys, command):
        # the comment and the header of the table, no row
        (spec_dir / "table.csv").write_text("".join(TABLE.splitlines(keepends=True)[:2]))
        assert main([command, str(spec_dir / "spec.yaml")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("table.csv: no data rows after the header\n")
        assert not (spec_dir / "campaign").exists()

    def test_synthetic_oracle_builds_its_space(self, tmp_path):
        (tmp_path / "spec.yaml").write_text(
            "oracle: {kind: synthetic, n_options: 6, domain_sizes: 2, k: 2, seed: 3}\n"
            "optimizers: [{kind: admmo}]\n"
            "budgets: [20]\n"
        )
        spec = load_runspec(tmp_path / "spec.yaml")
        assert spec.cases[0].space.n_options == 6

    def test_synthetic_oracle_number_named_on_error(self, tmp_path):
        (tmp_path / "spec.yaml").write_text(
            "oracle: {kind: synthetic, n_options: six, domain_sizes: 2, k: 2, seed: 3}\n"
            "optimizers: [{kind: admmo}]\n"
            "budgets: [20]\n"
        )
        with pytest.raises(RunSpecError, match="oracle.n_options"):
            load_runspec(tmp_path / "spec.yaml")


class TestTune:
    def test_random_search_finds_min_of_charged(self, spec_dir, capsys):
        code = main(
            ["tune", str(spec_dir / "spec.yaml"), "--optimizer", "rs", "--budget", "10"]
        )
        assert code == 0
        out_dir = spec_dir / "campaign" / "tune"
        best = json.loads((out_dir / "best.json").read_text())
        convergence = (out_dir / "convergence").glob("*.csv")
        lines = [
            line for path in convergence
            for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("run_id")
        ]
        assert len(lines) == 10
        final = float(lines[-1].split(",")[-1])
        assert best["best_f_t"] == final
        assert best["measurements_used"] == 10

    def test_missing_spec_file_fails_with_path(self, tmp_path, capsys):
        code = main(["tune", str(tmp_path / "absent.yaml")])
        assert code != 0
        assert "absent.yaml" in capsys.readouterr().err

    def test_same_seed_gives_identical_files(self, spec_dir):
        out_a = spec_dir / "a"
        out_b = spec_dir / "b"
        for out in (out_a, out_b):
            code = main(
                [
                    "tune",
                    str(spec_dir / "spec.yaml"),
                    "--optimizer",
                    "admmo",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_flags_equal_an_edited_spec(self, spec_dir):
        path = spec_dir / "spec.yaml"
        flags = ["--p", "0.5", "--budget", "16", "--optimizer", "admmo", "--seed", "7"]
        assert main(["tune", str(path), *flags, "--out", str(spec_dir / "flags")]) == 0
        doc = yaml.safe_load(path.read_text())
        doc.update(p=0.5, budgets=[16], optimizers=[{"kind": "admmo"}], seed=7)
        (spec_dir / "edited.yaml").write_text(yaml.safe_dump(doc))
        assert main(["tune", str(spec_dir / "edited.yaml"), "--out", str(spec_dir / "edited")]) == 0
        from_flags = json.loads((spec_dir / "flags" / "best.json").read_text())
        from_file = json.loads((spec_dir / "edited" / "best.json").read_text())
        assert from_flags.pop("spec_digest") != from_file.pop("spec_digest")
        assert from_flags == from_file
        assert from_flags["run_id"] == "demo-system__admmo__b16__s7"
        for sub in ("trajectories", "convergence"):
            # the files differ only in their spec_digest provenance line
            name = f"{sub}/demo-system__admmo__b16__s7.csv"
            a, b = ((spec_dir / d / name).read_text().splitlines() for d in ("flags", "edited"))
            assert [line for line in a if "spec_digest" not in line] == [
                line for line in b if "spec_digest" not in line
            ]

    def test_second_tune_into_one_out_exits_2(self, spec_dir, capsys):
        spec, out = str(spec_dir / "spec.yaml"), spec_dir / "out"
        assert main(["tune", spec, "--seed", "1", "--out", str(out)]) == 0
        before = files_of(out)
        capsys.readouterr()
        assert main(["tune", spec, "--seed", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output directory {out} is not empty; pass --force to overwrite\n"
        )
        assert files_of(out) == before

    def test_force_leaves_only_the_second_run(self, spec_dir):
        spec, out, fresh = str(spec_dir / "spec.yaml"), spec_dir / "out", spec_dir / "fresh"
        assert main(["tune", spec, "--seed", "1", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        assert main(["tune", spec, "--seed", "2", "--out", str(out), "--force"]) == 0
        assert main(["tune", spec, "--seed", "2", "--out", str(fresh)]) == 0
        (fresh / "notes.txt").write_text("kept\n")
        assert files_of(out) == files_of(fresh)

    @pytest.mark.parametrize("command", ["tune", "bench"])
    def test_incomplete_table_exits_2_before_any_run(self, spec_dir, capsys, command):
        # a comment, the header and four of the sixteen rows: (0, 0, 0, 0) to
        # (0, 0, 1, 1), so (0, 1, 0, 0) is the first without one in enumeration
        # order, and (1, 0, 0, 0) would be with the first option fastest
        table = spec_dir / "table.csv"
        table.write_text("".join(TABLE.splitlines(keepends=True)[:6]))
        assert main([command, str(spec_dir / "spec.yaml")]) == 2
        assert capsys.readouterr().err == (
            f"error: measurement table {table} has 4 rows for a space of 16 configurations;"
            " the first without a row is (0, 1, 0, 0)\n"
        )
        assert not (spec_dir / "campaign").exists()

    def test_unknown_optimizer_label_fails(self, spec_dir, capsys):
        code = main(["tune", str(spec_dir / "spec.yaml"), "--optimizer", "smac"])
        assert code != 0
        assert "smac" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optimizers, asked, chosen",
        [
            # an exact label wins over an earlier entry of the same kind
            (
                [{"kind": "admmo", "duplicates_mode": "remove_all"}, {"kind": "admmo"}],
                "admmo",
                "admmo",
            ),
            # with no such label, the first entry of that kind
            ([{"kind": "rs"}, {"kind": "admmo", "trigger_mode": "constant"}], "admmo", "admmo_c"),
        ],
    )
    def test_optimizer_label_before_kind(self, spec_dir, optimizers, asked, chosen):
        path = spec_dir / "spec.yaml"
        doc = yaml.safe_load(path.read_text())
        doc["optimizers"] = optimizers
        path.write_text(yaml.safe_dump(doc))
        out = spec_dir / "picked"
        assert main(["tune", str(path), "--optimizer", asked, "--out", str(out)]) == 0
        assert json.loads((out / "best.json").read_text())["optimizer"] == chosen


class TestBench:
    def test_cardinality_and_summary(self, spec_dir, capsys):
        code = main(["bench", str(spec_dir / "spec.yaml")])
        assert code == 0
        out = spec_dir / "campaign"
        trajectories = list((out / "trajectories").glob("*.csv"))
        assert len(trajectories) == 2 * 2 * 3  # optimizers x budgets x repeats
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["cases"]["demo-system"]
        pairs = {c["pair"] for c in entry["comparisons"]}
        assert pairs == {"rs__vs__admmo"}
        assert len(entry["comparisons"]) == 2  # one per budget
        assert "speedup" in entry and "rs" in entry["speedup"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, spec_dir, capsys, jobs):
        assert main(["bench", str(spec_dir / "spec.yaml"), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (spec_dir / "campaign").exists()

    # rs at budget 16 measures all sixteen rows of the demo table, so every
    # run of that case ends at the same best; the NK case does not tie
    @pytest.mark.filterwarnings("ignore:case storage-runtime. all runs reached the same best")
    def test_flags_equal_an_edited_spec(self, tmp_path):
        for name in ("demo-spec.yaml", "measurements.csv"):
            shutil.copy(DEMO_DATA / name, tmp_path / name)
        path = tmp_path / "demo-spec.yaml"
        flags = ["--p", "0.5", "--repeats", "2", "--budget", "16", "--optimizer", "rs"]
        assert main(["bench", str(path), *flags, "--out", str(tmp_path / "flags")]) == 0
        doc = yaml.safe_load(path.read_text())
        doc.update(p=0.5, repeats=2, budgets=[16], optimizers=[{"kind": "rs"}])
        (tmp_path / "edited.yaml").write_text(yaml.safe_dump(doc))
        assert main(["bench", str(tmp_path / "edited.yaml"), "--out", str(tmp_path / "edited")]) == 0
        from_flags = json.loads((tmp_path / "flags" / "summary.json").read_text())
        from_file = json.loads((tmp_path / "edited" / "summary.json").read_text())
        assert from_flags.pop("spec_digest") != from_file.pop("spec_digest")
        assert from_flags == from_file
        assert (from_flags["p"], from_flags["repeats"], from_flags["budgets"]) == (0.5, 2, [16])
        assert [entry["optimizers"] for entry in from_flags["cases"].values()] == [["rs"]] * 2

    def test_refuses_to_overwrite_without_force(self, spec_dir, capsys):
        assert main(["bench", str(spec_dir / "spec.yaml")]) == 0
        assert main(["bench", str(spec_dir / "spec.yaml")]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["bench", str(spec_dir / "spec.yaml"), "--force"]) == 0

    def test_force_replaces_the_previous_campaign(self, spec_dir, capsys):
        spec = str(spec_dir / "spec.yaml")
        out = spec_dir / "campaign"
        assert main(["bench", spec]) == 0
        assert main(["report", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        assert main(["bench", spec, "--force", "--optimizer", "rs"]) == 0
        assert main(["report", str(out)]) == 0
        for sub in ("trajectories", "convergence"):
            names = [path.name for path in (out / sub).glob("*.csv")]
            assert len(names) == 2 * 3 and all("__rs__" in name for name in names)
        series = out / "report" / "weight_series.csv"
        rows = series.read_text().splitlines()[1:] if series.exists() else []
        assert not [row for row in rows if "__admmo__" in row]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_provenance_headers_present(self, spec_dir):
        main(["bench", str(spec_dir / "spec.yaml")])
        sample = next((spec_dir / "campaign" / "trajectories").glob("*.csv"))
        head = sample.read_text().splitlines()[:3]
        assert head[0].startswith("# artifact_version:")
        assert head[1].startswith("# spec_digest: sha256:")
        assert head[2].startswith("# seed:")

    @pytest.mark.parametrize("form", ["yaml", "json", "bom-crlf"])
    def test_spec_digest_is_the_sha256_of_the_spec_bytes(self, spec_dir, form):
        text = (spec_dir / "spec.yaml").read_text()
        raw = {
            "yaml": text.encode(),
            "json": json.dumps(yaml.safe_load(text)).encode(),
            "bom-crlf": codecs.BOM_UTF8 + text.replace("\n", "\r\n").encode(),
        }[form]
        path = spec_dir / f"{form}.spec"
        path.write_bytes(raw)
        digest = hashlib.sha256(raw).hexdigest()
        assert load_runspec(path).digest == digest
        assert main(["bench", str(path)]) == 0
        campaign = spec_dir / "campaign"
        summary = json.loads((campaign / "summary.json").read_text())
        assert summary["spec_digest"] == f"sha256:{digest}"
        samples = list(campaign.glob("*/*.csv"))
        assert len(samples) == 2 * (2 * 2 * 3)  # trajectories and convergence of every run
        for sample in samples:
            assert sample.read_text().splitlines()[1] == f"# spec_digest: sha256:{digest}"


class TestReport:
    def test_renders_tables_and_series(self, spec_dir, capsys):
        main(["bench", str(spec_dir / "spec.yaml")])
        code = main(["report", str(spec_dir / "campaign")])
        assert code == 0
        report = spec_dir / "campaign" / "report"
        assert (report / "performance.csv").exists()
        assert (report / "speedup.csv").exists()
        assert (report / "weight_series.csv").exists()
        text = (report / "performance.csv").read_text()
        assert "demo-system" in text and "admmo" in text
        # the best cell per budget carries the marker
        assert "*" in text

    def test_not_achieved_marker(self, tmp_path, capsys):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        summary = {
            "budgets": [10],
            "cases": {
                "c": {
                    "budgets": [10],
                    "repeats": 1,
                    "optimizers": ["admmo", "rs"],
                    "normalized_mean": {"admmo": {"10": 0.0}, "rs": {"10": 1.0}},
                    "comparisons": [],
                    "speedup_reference": "admmo",
                    "speedup": {"rs": None},
                }
            },
        }
        (campaign / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(campaign)]) == 0
        text = (campaign / "report" / "speedup.csv").read_text(encoding="utf-8")
        assert "✗" in text

    def test_speedup_header_names_the_recorded_reference(self, spec_dir, tmp_path, capsys):
        main(["bench", str(spec_dir / "spec.yaml")])
        capsys.readouterr()
        assert main(["report", str(spec_dir / "campaign")]) == 0
        assert "speedup vs admmo (✗ = not achieved):" in capsys.readouterr().out
        summary = {
            "budgets": [10],
            "cases": {
                "c": {
                    "budgets": [10],
                    "repeats": 1,
                    "optimizers": ["ga", "rs"],
                    "normalized_mean": {"ga": {"10": 0.0}, "rs": {"10": 1.0}},
                    "comparisons": [],
                    "speedup_reference": "ga",
                    "speedup": {"rs": 2.0},
                }
            },
        }
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(tmp_path)]) == 0
        assert "speedup vs ga (✗ = not achieved):" in capsys.readouterr().out

    @pytest.mark.parametrize("key", cli.CASE_KEYS)
    def test_case_entry_lacking_a_key_exits_2(self, tmp_path, capsys, key):
        entry = {"budgets": [10], "optimizers": ["rs"], "repeats": 1,
                 "normalized_mean": {"rs": {"10": 0.5}}}
        del entry[key]
        summary = {"budgets": [10], "cases": {"ok": {"error": "boom"}, "c": entry}}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: case 'c' in {tmp_path / 'summary.json'} lacks {key!r}\n"
        )
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("change, message", [
        ({"budgets": [10, 16, 99]}, "lists budget 99 in 'budgets' but not in 'normalized_mean.rs'"),
        ({"repeats": "5"}, "has 'repeats' '5', not an integer"),
        ({"normalized_mean": 5}, "has 'normalized_mean' 5, not a mapping"),
        ({"budgets": 7}, "has 'budgets' 7, not a list"),
        ({"normalized_mean": {"a": {"10": [1], "16": 0.5}}},
         "has 'normalized_mean.a.10' [1], not a number"),
        ({"optimizers": 3}, "has 'optimizers' 3, not a list"),
        ({"speedup": [1]}, "has 'speedup' [1], not a mapping"),
        ({"normalized_mean": {}}, "has an empty 'normalized_mean'"),
        ({"budgets": [10]}, "lists budgets [10], but the summary lists [10, 16]"),
    ])
    def test_case_entry_of_the_wrong_shape_exits_2(self, tmp_path, capsys, change, message):
        entry = {"budgets": [10, 16], "optimizers": ["rs"], "repeats": 1,
                 "normalized_mean": {"rs": {"10": 0.5, "16": 0.25}}}
        summary = {"budgets": [10, 16], "cases": {"c": {**entry, **change}}}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: case 'c' in {tmp_path / 'summary.json'} {message}\n"
        )
        assert not (tmp_path / "report").exists()

    def test_summary_without_budgets_names_the_missing_key(self, tmp_path, capsys):
        entry = {"budgets": [8], "optimizers": ["rs"], "repeats": 1,
                 "normalized_mean": {"rs": {"8": 0.5}}}
        (tmp_path / "summary.json").write_text(json.dumps({"cases": {"t": entry}}))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: case 't' in {tmp_path / 'summary.json'} lists budgets [8],"
            " but the summary has no 'budgets'\n"
        )
        assert not (tmp_path / "report").exists()

    def test_every_case_failed_exits_1(self, tmp_path, capsys):
        # as bench exits 1 when every case of the campaign failed
        (tmp_path / "summary.json").write_text(json.dumps({"cases": {"t": {"error": "boom"}}}))
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "case t failed: boom\n"
        assert not (tmp_path / "report").exists()

    def test_failed_cases_are_named_beside_the_others(self, tmp_path, capsys):
        entry = {"budgets": [10], "optimizers": ["rs"], "repeats": 1,
                 "normalized_mean": {"rs": {"10": 0.5}}}
        summary = {"budgets": [10], "cases": {"t": {"error": "boom"}, "c": entry,
                                              "s": {"error": "run s: OracleDown"}}}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "case s failed: run s: OracleDown\ncase t failed: boom\n"
        rows = (tmp_path / "report" / "performance.csv").read_text().splitlines()
        assert rows == ["case,optimizer,S10", "c,rs,0.5000*"]

    @pytest.mark.parametrize("edit, problem", [
        (lambda summary: [1, 2], "is [1, 2], not a mapping"),
        (lambda summary: {"cases": "x"}, "has 'cases' 'x', not a mapping"),
        (lambda summary: {**summary, "budgets": -1}, "has 'budgets' -1, not a list"),
    ], ids=["list", "cases-string", "budgets-integer"])
    def test_summary_of_the_wrong_shape_exits_2(self, spec_dir, capsys, edit, problem):
        campaign = spec_dir / "campaign"
        assert main(["bench", str(spec_dir / "spec.yaml")]) == 0
        path = campaign / "summary.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["report", str(campaign)]) == 2
        assert capsys.readouterr().err == f"error: {path} {problem}\n"
        assert not (campaign / "report").exists()

    def test_unrelated_key_error_is_not_swallowed(self, spec_dir, monkeypatch):
        assert main(["bench", str(spec_dir / "spec.yaml")]) == 0

        def broken(campaign_dir, cases):
            raise KeyError("unrelated")

        monkeypatch.setattr(cli, "_collect_weight_series", broken)
        with pytest.raises(KeyError, match="unrelated"):
            main(["report", str(spec_dir / "campaign")])

    def test_empty_campaign_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert "summary" in capsys.readouterr().err

    def test_report_is_reproducible(self, spec_dir):
        main(["bench", str(spec_dir / "spec.yaml")])
        main(["report", str(spec_dir / "campaign"), "--out", str(spec_dir / "r1")])
        main(["report", str(spec_dir / "campaign"), "--out", str(spec_dir / "r2")])
        for name in ("performance.csv", "speedup.csv"):
            assert (spec_dir / "r1" / name).read_bytes() == (spec_dir / "r2" / name).read_bytes()

    def test_reads_only_the_runs_the_summary_lists(self, spec_dir):
        campaign = spec_dir / "campaign"
        main(["bench", str(spec_dir / "spec.yaml")])
        main(["report", str(campaign), "--out", str(spec_dir / "r1")])
        trajectories = campaign / "trajectories"
        listed = trajectories / "demo-system__admmo__b12__r0.csv"
        stray = listed.read_text().replace("demo-system__admmo__b12__r0", "stray__admmo__b12__r0")
        (trajectories / "stray__admmo__b12__r0.csv").write_text(stray)
        main(["report", str(campaign), "--out", str(spec_dir / "r2")])
        series = (spec_dir / "r2" / "weight_series.csv").read_text()
        assert "demo-system__admmo__b12__r0" in series
        assert "stray" not in series
        assert series == (spec_dir / "r1" / "weight_series.csv").read_text()

    def test_reads_no_run_beyond_the_listed_ones(self, spec_dir):
        campaign = spec_dir / "campaign"
        main(["bench", str(spec_dir / "spec.yaml")])
        main(["report", str(campaign), "--out", str(spec_dir / "r1")])
        trajectories = campaign / "trajectories"
        listed = (trajectories / "demo-system__admmo__b12__r0.csv").read_text()
        # a repeat past "repeats", a repeat not written as run_id writes it,
        # an unlisted budget and an unlisted optimizer
        for rid in ("demo-system__admmo__b12__r3", "demo-system__admmo__b12__r01",
                    "demo-system__admmo__b99__r0", "demo-system__ga__b12__r0"):
            (trajectories / f"{rid}.csv").write_text(
                listed.replace("demo-system__admmo__b12__r0", rid)
            )
        main(["report", str(campaign), "--out", str(spec_dir / "r2")])
        series = (spec_dir / "r2" / "weight_series.csv").read_text()
        assert series == (spec_dir / "r1" / "weight_series.csv").read_text()

    def test_huge_repeats_reads_only_the_files_that_exist(self, spec_dir):
        campaign = spec_dir / "campaign"
        main(["bench", str(spec_dir / "spec.yaml")])
        main(["report", str(campaign), "--out", str(spec_dir / "r1")])
        path = campaign / "summary.json"
        summary = json.loads(path.read_text())
        summary["cases"]["demo-system"]["repeats"] = 10**30
        path.write_text(json.dumps(summary))
        assert main(["report", str(campaign), "--out", str(spec_dir / "r2")]) == 0
        series = (spec_dir / "r2" / "weight_series.csv").read_text()
        assert series == (spec_dir / "r1" / "weight_series.csv").read_text()


class TestImports:
    # numpy is for NK landscapes, yaml for run-specs that are not JSON and
    # concurrent.futures.process for --jobs above 1: importing any of them at
    # module level costs every campaign process their load time. _hashlib is
    # OpenSSL, which no command needs: an NK case loads it anyway through
    # numpy.random, so only table specs check it
    WATCHED = {"numpy", "yaml", "concurrent.futures.process", "_hashlib"}

    def run_python(self, cwd, code: str) -> str:
        """The last line ``code`` prints in a fresh interpreter."""
        src = str(Path(admmo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env,
            capture_output=True, text=True, check=True,
        )
        return done.stdout.splitlines()[-1]

    def loaded_after(self, cwd, *args) -> set[str]:
        """Which admmo submodules and WATCHED modules a fresh interpreter
        holds after importing ``admmo.cli`` and, given ``args``, running
        ``main(args)``."""
        code = (
            "import json, sys\n"
            "from admmo import cli\n"
            f"assert not {list(args)!r} or cli.main({list(args)!r}) == 0\n"
            f"print(json.dumps([m for m in sys.modules if m in {sorted(self.WATCHED)!r} "
            "or m.startswith('admmo.')]))\n"
        )
        return set(json.loads(self.run_python(cwd, code)))

    def test_table_commands_leave_numpy_unloaded(self, spec_dir):
        assert self.loaded_after(spec_dir) == {"admmo.cli"}
        loaded = self.loaded_after(spec_dir, "bench", "spec.yaml")
        assert "yaml" in loaded and not loaded & {"numpy", "_hashlib"}
        assert self.loaded_after(spec_dir, "report", "campaign") == {"admmo.cli"}

    @pytest.mark.parametrize("form", ["yaml", "json"])
    def test_table_bench_with_a_pool_loads_no_openssl(self, spec_dir, form):
        # at --jobs 1 the tests beside this one check both forms
        if form == "json":
            doc = yaml.safe_load((spec_dir / "spec.yaml").read_text())
            (spec_dir / "spec.json").write_text(json.dumps(doc))
        loaded = self.loaded_after(spec_dir, "bench", f"spec.{form}", "--jobs", "2")
        assert "concurrent.futures.process" in loaded and "_hashlib" not in loaded

    def test_json_spec_is_read_without_yaml(self, spec_dir):
        doc = yaml.safe_load((spec_dir / "spec.yaml").read_text())
        (spec_dir / "spec.json").write_text(json.dumps(doc))
        loaded = self.loaded_after(spec_dir, "bench", "spec.json")
        assert "admmo.runspec" in loaded
        assert not loaded & self.WATCHED

    def test_tune_starts_no_pool_machinery(self, spec_dir):
        loaded = self.loaded_after(spec_dir, "tune", "spec.yaml")
        assert {"admmo.tuner", "yaml"} <= loaded
        assert not loaded & {"admmo.harness", "concurrent.futures.process", "numpy", "_hashlib"}

    def test_import_admmo_loads_no_submodule(self, tmp_path):
        code = "import sys, admmo\nprint(sorted(m for m in sys.modules if m.startswith('admmo.')))"
        assert self.run_python(tmp_path, code) == "[]"

    def test_hooks_resolve_by_name(self, tmp_path):
        # perfbench's tracer looks these up, then swaps them, by name
        code = (
            "import concurrent.futures\n"
            "from admmo import cli, harness, runspec\n"
            "print([\n"
            "    cli.load_runspec is runspec.load_runspec,\n"
            "    cli.run_campaign is harness.run_campaign,\n"
            "    cli.campaign_summary is harness.campaign_summary,\n"
            "    harness.run_id is cli.run_id,\n"
            "    harness.BenchCase is runspec.BenchCase,\n"
            "    harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor,\n"
            "])"
        )
        assert self.run_python(tmp_path, code) == str([True] * 6)

    def test_every_public_name_is_its_submodules_object(self):
        assert len(set(admmo.__all__)) == len(admmo.__all__)
        assert set(admmo.__all__) <= set(dir(admmo))
        for name in admmo.__all__:
            value = getattr(admmo, name)
            assert value is getattr(importlib.import_module(value.__module__), name), name
        with pytest.raises(AttributeError):
            admmo.no_such_name
