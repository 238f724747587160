"""Declarative run specifications for the command-line tools.

A run-spec is a single YAML (or JSON) document describing the space, the
measurement source, the optimizers to compare, and the campaign axes.
See the README for the full schema and an annotated example.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .harness import BenchCase
from .oracles import ObjectiveOrientation, load_table, synthetic_landscape
from .space import ConfigSpace, OptionSpec
from .tuner import OptimizerSpec


class RunSpecError(ValueError):
    """Raised for unparsable or inconsistent run specifications."""


@dataclass(frozen=True)
class RunSpec:
    """Parsed and validated campaign description."""

    cases: tuple[BenchCase, ...]
    optimizers: tuple[OptimizerSpec, ...]
    budgets: tuple[int, ...]
    repeats: int
    seed: int
    p: float
    population_size: int
    output_dir: Path
    digest: str


def _number(value, key: str, kind: type[int] | type[float]):
    """``value`` as an int or a float, or a RunSpecError that names ``key``.

    A fractional number is no int: it is rejected, not truncated.
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        expected = "an integer" if kind is int else "a number"
        raise RunSpecError(f"{key!r} must be {expected}, got {value!r}")
    return number


def _mapping(value, key: str) -> dict:
    """``value`` if it is a mapping, or a RunSpecError that names ``key``."""
    if not isinstance(value, dict):
        raise RunSpecError(f"{key!r} must be a mapping, got {value!r}")
    return value


def _parse_option(entry: dict, index: int) -> OptionSpec:
    try:
        name = entry["name"]
        kind = entry["kind"]
    except (KeyError, TypeError):
        raise RunSpecError(f"space option #{index}: needs 'name' and 'kind'") from None
    try:
        if kind == "binary":
            return OptionSpec.binary(name)
        if kind == "integer":
            return OptionSpec.integer(
                name, _number(entry["lo"], "lo", int), _number(entry["hi"], "hi", int)
            )
        if kind == "categorical":
            return OptionSpec.categorical(name, [str(v) for v in entry["levels"]])
    except (KeyError, ValueError) as exc:
        raise RunSpecError(f"space option {name!r}: {exc}") from None
    raise RunSpecError(f"space option {name!r}: unknown kind {kind!r}")


def _parse_space(doc: dict) -> ConfigSpace:
    options = _mapping(doc, "space").get("options")
    if not isinstance(options, list) or not options:
        raise RunSpecError("space needs a nonempty 'options' list")
    return ConfigSpace(tuple(_parse_option(o, i) for i, o in enumerate(options)))


def _parse_oracle(doc: dict, base_dir: Path, space: ConfigSpace | None):
    kind = _mapping(doc, "oracle").get("kind")
    if kind == "table":
        if space is None:
            raise RunSpecError("a table oracle needs an explicit 'space' section")
        for key in ("path", "target_column", "auxiliary_column"):
            if key not in doc:
                raise RunSpecError(f"table oracle needs {key!r}")
        path = Path(doc["path"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise RunSpecError(f"measurement table not found: {path}")
        orientation = ObjectiveOrientation(
            t_maximize=bool(doc.get("maximize_target", False)),
            a_maximize=bool(doc.get("maximize_auxiliary", False)),
        )
        table = load_table(
            path,
            space,
            target_column=doc["target_column"],
            auxiliary_column=doc["auxiliary_column"],
            orientation=orientation,
            delimiter=doc.get("delimiter", ","),
        )
        return table.space, table
    if kind == "synthetic":
        for key in ("n_options", "domain_sizes", "k", "seed"):
            if key not in doc:
                raise RunSpecError(f"synthetic oracle needs {key!r}")
        sizes = doc["domain_sizes"]
        if isinstance(sizes, list):
            sizes = [_number(s, "oracle.domain_sizes", int) for s in sizes]
        else:
            sizes = _number(sizes, "oracle.domain_sizes", int)
        landscape = synthetic_landscape(
            n_options=_number(doc["n_options"], "oracle.n_options", int),
            domain_sizes=sizes,
            k=_number(doc["k"], "oracle.k", int),
            seed=_number(doc["seed"], "oracle.seed", int),
            correlation=_number(doc.get("correlation", 0.0), "oracle.correlation", float),
        )
        if space is not None and space != landscape.space:
            raise RunSpecError("synthetic oracle defines its own space; drop the 'space' section")
        return landscape.space, landscape
    raise RunSpecError(f"oracle kind must be 'table' or 'synthetic', got {kind!r}")


def _parse_case(doc: dict, base_dir: Path, default_id: str) -> BenchCase:
    space = _parse_space(doc["space"]) if "space" in doc else None
    if "oracle" not in doc:
        raise RunSpecError(f"case {default_id!r}: missing 'oracle' section")
    space, oracle = _parse_oracle(doc["oracle"], base_dir, space)
    return BenchCase(case_id=str(doc.get("id", default_id)), space=space, oracle=oracle)


def _parse_optimizer(entry: dict | str, index: int) -> OptimizerSpec:
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict):
        raise RunSpecError(f"optimizer #{index}: expected a kind name or a mapping, got {entry!r}")
    try:
        return OptimizerSpec(
            kind=entry["kind"],
            duplicates_mode=entry.get("duplicates_mode", "partial"),
            trigger_mode=entry.get("trigger_mode", "progressive"),
            fixed_w=_number(entry.get("fixed_w", 1.0), "fixed_w", float),
        )
    except (KeyError, ValueError) as exc:
        raise RunSpecError(f"optimizer #{index}: {exc}") from None


def load_runspec(path: str | Path) -> RunSpec:
    """Parse, validate, and resolve a run-spec file."""
    import yaml

    path = Path(path)
    if not path.exists():
        raise RunSpecError(f"run-spec file not found: {path}")
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise RunSpecError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise RunSpecError(f"{path}: expected a mapping at the top level")

    base_dir = path.parent
    if "cases" in doc:
        case_docs = doc["cases"]
        if not isinstance(case_docs, list) or not case_docs:
            raise RunSpecError("'cases' must be a nonempty list")
        cases = tuple(
            _parse_case(_mapping(c, f"cases[{i}]"), base_dir, default_id=f"case{i}")
            for i, c in enumerate(case_docs)
        )
    else:
        cases = (_parse_case(doc, base_dir, default_id=str(doc.get("id", "case0"))),)
    if len({c.case_id for c in cases}) != len(cases):
        raise RunSpecError("case ids must be unique")

    optimizer_docs = doc.get("optimizers")
    if not isinstance(optimizer_docs, list) or not optimizer_docs:
        raise RunSpecError("run-spec needs a nonempty 'optimizers' list")
    optimizers = tuple(_parse_optimizer(o, i) for i, o in enumerate(optimizer_docs))
    if len({o.label for o in optimizers}) != len(optimizers):
        raise RunSpecError("optimizer entries must have distinct labels")

    budgets = doc.get("budgets")
    if not isinstance(budgets, list) or not budgets:
        raise RunSpecError("run-spec needs a nonempty 'budgets' list")
    budgets = tuple(_number(b, "budgets", int) for b in budgets)
    population_size = _number(doc.get("population_size", 10), "population_size", int)
    if any(b < population_size for b in budgets):
        raise RunSpecError("every budget must be at least the population size")

    repeats = _number(doc.get("repeats", 1), "repeats", int)
    if repeats < 1:
        raise RunSpecError("repeats must be positive")
    p = _number(doc.get("p", 0.3), "p", float)
    if not 0 < p <= 1:
        raise RunSpecError("p must lie in (0, 1]")

    output_dir = Path(doc.get("output_dir", "out"))
    if not output_dir.is_absolute():
        output_dir = base_dir / output_dir

    return RunSpec(
        cases=cases,
        optimizers=optimizers,
        budgets=budgets,
        repeats=repeats,
        seed=_number(doc.get("seed", 0), "seed", int),
        p=p,
        population_size=population_size,
        output_dir=output_dir,
        digest=digest,
    )
