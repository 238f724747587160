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


@pytest.mark.parametrize("label", sorted(SPECS))
def test_seeded_runs_match_their_golden_digest(label):
    assert runs_digest(label) == RUN_DIGESTS[label]


@pytest.mark.parametrize("jobs", [1, 2])
def test_demo_campaign_summary_matches_its_golden_digest(tmp_path, jobs):
    out = tmp_path / "campaign"
    assert main(["bench", str(DEMO_SPEC), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == DEMO_SUMMARY_DIGEST
