"""Golden outputs: seeded runs and the demo campaign are pinned by digest.

Seeded runs are bit-for-bit deterministic, so a refactor that keeps
behaviour keeps every digest here. A change that means to alter the
output must update the digests and say so.
"""

import hashlib
from pathlib import Path

import pytest

from admmo import OptimizerSpec, TunerParams, run_optimizer, synthetic_landscape
from admmo.cli import main

DEMO_SPEC = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo-spec.yaml"

SPECS = {
    "admmo": OptimizerSpec("admmo"),
    "admmo_i": OptimizerSpec("admmo", duplicates_mode="indistinct"),
    "admmo_r": OptimizerSpec("admmo", duplicates_mode="remove_all"),
    "admmo_c": OptimizerSpec("admmo", trigger_mode="constant"),
    "mmo_fixed": OptimizerSpec("mmo_fixed"),
    "pmo": OptimizerSpec("pmo"),
    "ga": OptimizerSpec("ga"),
    "rs": OptimizerSpec("rs"),
}

# sha256 over trajectory, best_by_measurement and best_config of the runs
# at seeds (1, 2) x p (0.3, 1.0), budget 100, on NK(12, k=4, seed 101)
RUN_DIGESTS = {
    "admmo": "f5e68de1c298ac7e59a1fe267ac9fdc8a9b0b200cc5c74f5e3869208b6d43b34",
    "admmo_i": "639aafcefc8f9631b955c1bb989727535c417d760eccc9dfe0e3f278d5f43cef",
    "admmo_r": "519dd33005efe0a166c80e03f1c40a9361766539ed2da102fe28c677885dc7fa",
    "admmo_c": "d9c5855219edbc3819226fb9873bf812bfa15be747cdd32ccc1efc2954435148",
    "mmo_fixed": "eff7727f72e164527ceba7300cac4d0e2d7644bf2f2facaa2125bd78b1c9398a",
    "pmo": "d8130921d5b7118259eaa6c6bccd34ec41f1ee0a788ec96e132f6f53405843e9",
    "ga": "997de5f8a5e0468b5d676e9d48081cf037d51b573a0c5145296225abdcba66c0",
    "rs": "41b5b8186704e8ad267acd201b552a77102225371152ddf2d6b24afc1fb5fd2a",
}

DEMO_SUMMARY_DIGEST = "d91697420015a8c7184a4101f2504145db86b0d4e10c2205f55820f5871215ee"

# sha256 over the relative path and bytes of every file that bench then
# report write for the demo spec, and of the files tune writes for it
DEMO_CAMPAIGN_FILES_DIGEST = "01016f4a882e9b334306bc470a6c26f26cf95f5713eb275c294ad40692b5f825"
DEMO_TUNE_FILES_DIGEST = "425aa15f5b278045936d3c6fa024761414d13feecc4407c258e2980f01458d87"


def runs_digest(label: str) -> str:
    oracle = synthetic_landscape(12, 2, 4, seed=101)
    digest = hashlib.sha256()
    for seed in (1, 2):
        for p in (0.3, 1.0):
            params = TunerParams(budget=100, target_proportion=p)
            run = run_optimizer(SPECS[label], oracle.space, oracle, params, seed)
            assert run.optimizer == label
            digest.update(repr((run.trajectory, run.best_by_measurement, run.best_config)).encode())
    return digest.hexdigest()


def files_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(SPECS))
def test_seeded_runs_match_their_golden_digest(label):
    assert runs_digest(label) == RUN_DIGESTS[label]


@pytest.mark.parametrize("jobs", [1, 2])
def test_demo_campaign_summary_matches_its_golden_digest(tmp_path, jobs):
    out = tmp_path / "campaign"
    assert main(["bench", str(DEMO_SPEC), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == DEMO_SUMMARY_DIGEST
    assert main(["report", str(out)]) == 0
    assert files_digest(out) == DEMO_CAMPAIGN_FILES_DIGEST


def test_demo_tune_files_match_their_golden_digest(tmp_path):
    out = tmp_path / "tune"
    assert main(["tune", str(DEMO_SPEC), "--out", str(out)]) == 0
    assert files_digest(out) == DEMO_TUNE_FILES_DIGEST
