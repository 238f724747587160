"""Seeded inputs for the workloads, and the reference values behind the checks.

Everything here is computed apart from the program: the NK brute force
reads only the landscape's lookup tables, and the measurement table is
generated from a value function defined in this file, so f* and f_max are
known before the program sees a single row.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NK_OPTIONS = 12
NK_K = 4
# The problem instances (landscapes, table) form a fixed suite; the workload
# seed draws the tuners' seeds. Instance difficulty varies far more than run
# outcomes on one instance, so a per-seed instance draw would swamp the
# quality metrics with which instances happened to be drawn.
SUITE_SEED = 2404


def derive_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` independent 31-bit seeds for one purpose of one workload seed."""
    stream = np.random.default_rng([seed, _tag_number(tag)])
    return [int(s) for s in stream.integers(0, 2**31 - 1, size=count)]


def _tag_number(tag: str) -> int:
    return int.from_bytes(tag.encode("utf-8"), "little") % (2**31)


def nk_bits() -> np.ndarray:
    """Every configuration of the 12 binary options, in enumeration order."""
    return np.array(list(itertools.product((0, 1), repeat=NK_OPTIONS)), dtype=np.intp)


def nk_values(tables, bits: np.ndarray, k: int) -> np.ndarray:
    """NK objective of each row of ``bits``: the mean over positions i of
    ``tables[i][x_i, x_(i+1), ..., x_(i+k)]``, indices taken circularly.

    Contributions are summed in position order, one float add per
    position, so each value is bit-identical to a scalar left-to-right sum.
    """
    n = bits.shape[1]
    total = np.zeros(bits.shape[0])
    for i, table in enumerate(tables):
        index = tuple(bits[:, (i + j) % n] for j in range(k + 1))
        total = total + table[index]
    return total / n


# --- the campaign-table input ---------------------------------------------

TABLE_BINARY = 7
TABLE_THREADS = (1, 8)
TABLE_CODECS = ("none", "lz4", "zstd")
TABLE_SCHEDULERS = ("fifo", "rr", "cfs", "batch")
TABLE_PAIRS = 10


def table_options() -> list[dict]:
    options = [{"name": f"flag{i}", "kind": "binary"} for i in range(TABLE_BINARY)]
    options.append(
        {"name": "threads", "kind": "integer", "lo": TABLE_THREADS[0], "hi": TABLE_THREADS[1]}
    )
    options.append({"name": "codec", "kind": "categorical", "levels": list(TABLE_CODECS)})
    options.append({"name": "sched", "kind": "categorical", "levels": list(TABLE_SCHEDULERS)})
    return options


def _domains() -> list[tuple]:
    lo, hi = TABLE_THREADS
    return [(0, 1)] * TABLE_BINARY + [
        tuple(range(lo, hi + 1)),
        TABLE_CODECS,
        TABLE_SCHEDULERS,
    ]


@dataclass(frozen=True)
class GeneratedTable:
    """An exhaustive measurement table and what the benchmark knows about it.

    ``runtime`` is the minimized target, ``throughput`` the maximized
    auxiliary; both keyed by the option values as the program parses them.
    """

    rows: dict[tuple, tuple[float, float]]
    f_star: float
    f_max: float

    @property
    def space_size(self) -> int:
        return len(self.rows)


def generate_table(seed: int) -> GeneratedTable:
    """Runtime = base + main effects + a few pairwise interactions, and a
    throughput that trades off against it, rounded to the 4 decimals a
    measurement file would carry. Values are what ``float`` parses back."""
    rng = np.random.default_rng([seed, _tag_number("table")])
    domains = _domains()
    sizes = [len(d) for d in domains]
    n = len(domains)
    main_t = [rng.uniform(0.0, 3.0, size=s) for s in sizes]
    main_a = [rng.uniform(0.0, 40.0, size=s) for s in sizes]
    pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(TABLE_PAIRS)]
    inter = [rng.uniform(-1.5, 1.5, size=(sizes[i], sizes[j])) for i, j in pairs]

    index = np.array(list(itertools.product(*(range(s) for s in sizes))), dtype=np.intp)
    runtime = np.full(index.shape[0], 20.0)
    throughput = np.full(index.shape[0], 400.0)
    for i in range(n):
        runtime = runtime + main_t[i][index[:, i]]
        throughput = throughput + main_a[i][index[:, i]]
    for (i, j), table in zip(pairs, inter):
        runtime = runtime + table[index[:, i], index[:, j]]
    throughput = throughput - 8.0 * runtime
    runtime_text = [f"{v:.4f}" for v in runtime]
    throughput_text = [f"{v:.4f}" for v in throughput]
    rows = {}
    for idx, rt, tp in zip(index.tolist(), runtime_text, throughput_text):
        values = tuple(domains[i][level] for i, level in enumerate(idx))
        rows[values] = (float(rt), float(tp))
    runtimes = [v[0] for v in rows.values()]
    return GeneratedTable(rows=rows, f_star=min(runtimes), f_max=max(runtimes))


def write_campaign_inputs(
    directory: Path,
    table: GeneratedTable,
    seed: int,
    repeats: int,
    budgets: tuple[int, ...],
    campaigns: int = 1,
) -> list[Path]:
    """Write the table (rows in a seeded shuffled order) and ``campaigns``
    run-specs around it that differ only in their base seed; returns the
    spec paths."""
    directory.mkdir(parents=True, exist_ok=True)
    names = [o["name"] for o in table_options()]
    order = np.random.default_rng([seed, _tag_number("order")]).permutation(len(table.rows))
    items = list(table.rows.items())
    lines = ["# generated exhaustive measurement table", ",".join(names + ["runtime", "throughput"])]
    for i in order:
        values, (rt, tp) = items[i]
        lines.append(",".join([str(v) for v in values] + [f"{rt:.4f}", f"{tp:.4f}"]))
    (directory / "measurements.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    base = {
        "cases": [
            {
                "id": "gen-table",
                "space": {"options": table_options()},
                "oracle": {
                    "kind": "table",
                    "path": "measurements.csv",
                    "target_column": "runtime",
                    "auxiliary_column": "throughput",
                    "maximize_target": False,
                    "maximize_auxiliary": True,
                },
            }
        ],
        "optimizers": [{"kind": k} for k in ("admmo", "mmo_fixed", "pmo", "rs", "ga")],
        "budgets": list(budgets),
        "repeats": repeats,
        "p": 0.3,
        "population_size": 10,
        "output_dir": "campaign-out",
    }
    paths = []
    for i, base_seed in enumerate(derive_seeds(seed, "campaign", campaigns)):
        path = directory / f"spec{i}.json"
        path.write_text(json.dumps(dict(base, seed=base_seed % 100_000), indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
