"""Declarative run specifications for the command-line tools.

A run-spec is a single YAML (or JSON) document describing the space, the
measurement source, the optimizers to compare, and the campaign axes.
See the README for the full schema and an annotated example.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# hashlib loads OpenSSL, which a table campaign needs for nothing else; as
# random.py does for SHA-512 ("hashlib is pretty heavy to load, try lean
# internal module first"), take the interpreter's own SHA-256 when it has one
try:  # 3.12 and later
    from _sha2 import sha256
except ImportError:
    try:  # 3.10 and 3.11
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .oracles import MeasurementOracle, ObjectiveOrientation, load_table, synthetic_landscape
from .space import ConfigSpace, OptionSpec
from .tuner import OptimizerSpec, TunerParams


class RunSpecError(ValueError):
    """Raised for unparsable or inconsistent run specifications."""


@dataclass(frozen=True)
class BenchCase:
    """One system-objective pair: a space plus its measurement source."""

    case_id: str
    space: ConfigSpace
    oracle: MeasurementOracle


@dataclass(frozen=True)
class Campaign:
    """Every optimizer on every case at every budget, ``repeats`` times;
    repeat r runs at seed ``seed + r``. Building one checks every rule of
    the grid, so neither the run-spec parser nor the runner does."""

    cases: tuple[BenchCase, ...]
    optimizers: tuple[OptimizerSpec, ...]
    budgets: tuple[int, ...]
    repeats: int
    seed: int
    p: float = TunerParams.target_proportion
    population_size: int = TunerParams.population_size

    def __post_init__(self) -> None:
        # dataclasses.replace runs these again, so a command-line override
        # is checked as its file value would be
        if not (self.cases and self.optimizers and self.budgets):
            raise RunSpecError("a campaign needs at least one case, optimizer and budget")
        if len({c.case_id for c in self.cases}) != len(self.cases):
            raise RunSpecError("case ids must be unique")
        if len({o.label for o in self.optimizers}) != len(self.optimizers):
            raise RunSpecError("optimizer entries must have distinct labels")
        if len(set(self.budgets)) != len(self.budgets):
            raise RunSpecError(f"'budgets' must be distinct, got {list(self.budgets)}")
        # TunerParams owns the population and p rules
        try:
            TunerParams(min(self.budgets), self.population_size, self.p)
        except ValueError as exc:
            raise RunSpecError(str(exc)) from None
        if any(b < self.population_size for b in self.budgets):
            raise RunSpecError("every budget must be at least the population size")
        if self.repeats < 1:
            raise RunSpecError("repeats must be positive")


@dataclass(frozen=True, kw_only=True)
class RunSpec(Campaign):
    """A campaign read from a run-spec file, with where its output goes
    and the digest of the file's bytes."""

    output_dir: Path
    digest: str

    def select_optimizer(self, label: str) -> OptimizerSpec:
        """The optimizer with this label, else the first of this kind."""
        for opt in self.optimizers:
            if opt.label == label:
                return opt
        for opt in self.optimizers:
            if opt.kind == label:
                return opt
        raise RunSpecError(
            f"optimizer {label!r} not in spec (have: {[o.label for o in self.optimizers]})"
        )


_REQUIRED = object()
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a nonempty string", dict: "a mapping", list: "a nonempty list"}


def _as(value, key: str, kind):
    """``value`` read as ``kind``, or a RunSpecError that names ``key``.

    int and float convert as ``int("3")`` and ``float(True)`` do, but a
    fractional number is no int; str and list are nonempty, ``[k]`` is a
    list of ``k`` values named ``key``, and a tuple any one of its types.
    """
    if isinstance(kind, list):
        return [_as(v, key, kind[0]) for v in _as(value, key, list)]
    if kind in (int, float):
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        fractional = kind is int and isinstance(value, float) and number != value
        if number is not None and not fractional:
            return number
    elif isinstance(value, kind) and (kind not in (str, list) or value):
        return value
    expected = " or ".join(_EXPECTED[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise RunSpecError(f"{key!r} must be {expected}, got {value!r}")


def _get(doc: dict, key: str, kind, default=_REQUIRED):
    """The value of ``doc`` at the last part of the dotted ``key``, read as
    ``kind`` (see ``_as``); ``default`` when it is absent, if there is one."""
    value = doc.get(key.rpartition(".")[2], default)
    if value is _REQUIRED:
        raise RunSpecError(f"missing {key!r}")
    return _as(value, key, kind)


@contextmanager
def _naming(where: str):
    """Raise a ValueError from inside the block, such as a range rule of the
    object it builds, as a RunSpecError that names ``where``."""
    try:
        yield
    except ValueError as exc:
        raise RunSpecError(f"{where}: {exc}") from None


def _parse_option(entry, key: str) -> OptionSpec:
    entry = _as(entry, key, dict)
    name, kind = _get(entry, f"{key}.name", str), _get(entry, f"{key}.kind", str)
    if kind == "integer":
        lo, hi = _get(entry, f"{key}.lo", int), _get(entry, f"{key}.hi", int)
        return OptionSpec.integer(name, lo, hi)
    if kind == "categorical":
        return OptionSpec.categorical(name, [str(v) for v in _get(entry, f"{key}.levels", list)])
    if kind == "binary":
        return OptionSpec.binary(name)
    raise RunSpecError(f"'{key}.kind' must be 'binary', 'integer' or 'categorical', got {kind!r}")


def _parse_oracle(doc: dict, key: str, base_dir: Path, space: ConfigSpace | None):
    kind = _get(doc, f"{key}.kind", str)
    if kind == "table":
        if space is None:
            raise RunSpecError("a table oracle needs an explicit 'space' section")
        path = base_dir / _get(doc, f"{key}.path", str)  # an absolute path stays as it is
        if not path.exists():
            raise RunSpecError(f"measurement table not found: {path}")
        table = load_table(
            path,
            space,
            target_column=_get(doc, f"{key}.target_column", str),
            auxiliary_column=_get(doc, f"{key}.auxiliary_column", str),
            orientation=ObjectiveOrientation(
                _get(doc, f"{key}.maximize_target", bool, False),
                _get(doc, f"{key}.maximize_auxiliary", bool, False),
            ),
            delimiter=_get(doc, f"{key}.delimiter", str, ","),
        )
        # rows lie in the space and are distinct, so a short count is a gap
        # that some run would reach: any configuration can be drawn or bred
        if len(table) < space.size():
            raise RunSpecError(
                f"measurement table {path} has {len(table)} rows for a space of "
                f"{space.size()} configurations; the first without a row is "
                f"{table.first_unmeasured().values!r}"
            )
        return table.space, table
    if kind == "synthetic":
        sizes_kind = [int] if isinstance(doc.get("domain_sizes"), list) else int
        args = dict(
            n_options=_get(doc, f"{key}.n_options", int),
            domain_sizes=_get(doc, f"{key}.domain_sizes", sizes_kind),
            k=_get(doc, f"{key}.k", int),
            seed=_get(doc, f"{key}.seed", int),
            correlation=_get(doc, f"{key}.correlation", float, 0.0),
        )
        with _naming(key):
            landscape = synthetic_landscape(**args)
        if space is not None and space != landscape.space:
            raise RunSpecError("synthetic oracle defines its own space; drop the 'space' section")
        return landscape.space, landscape
    raise RunSpecError(f"'{key}.kind' must be 'table' or 'synthetic', got {kind!r}")


def _parse_case(doc: dict, at: str, base_dir: Path, default_id: str) -> BenchCase:
    """The case in ``doc``, whose keys are named after the prefix ``at``."""
    case_id = str(doc.get("id", default_id))
    if "/" in case_id or "\\" in case_id:  # a run id is a file name in trajectories/
        raise RunSpecError(f"'{at}id' must not contain '/' or '\\', got {case_id!r}")
    space = None
    if "space" in doc:
        space_doc = _get(doc, f"{at}space", dict)
        with _naming(f"{at}space"):
            options = enumerate(_get(space_doc, "options", list))
            space = ConfigSpace(tuple(_parse_option(o, f"options[{i}]") for i, o in options))
    space, oracle = _parse_oracle(_get(doc, f"{at}oracle", dict), f"{at}oracle", base_dir, space)
    return BenchCase(case_id=case_id, space=space, oracle=oracle)


def _parse_optimizer(entry, index: int) -> OptimizerSpec:
    with _naming(f"optimizer #{index}"):
        entry = _as(entry, "optimizers", (str, dict))
        if isinstance(entry, str):
            return OptimizerSpec(kind=entry)
        return OptimizerSpec(
            kind=_get(entry, "kind", str),
            duplicates_mode=_get(entry, "duplicates_mode", str, OptimizerSpec.duplicates_mode),
            trigger_mode=_get(entry, "trigger_mode", str, OptimizerSpec.trigger_mode),
            fixed_w=_get(entry, "fixed_w", float, OptimizerSpec.fixed_w),
        )


def _parse_document(raw: bytes, path: Path):
    """The document in ``raw``: JSON if it is JSON, else YAML, whose parser
    is imported only then."""
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or not even UTF-8 text
        pass
    import yaml

    try:
        return yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise RunSpecError(f"{path}: not valid YAML: {exc}") from None


def load_runspec(path: str | Path) -> RunSpec:
    """Parse, validate, and resolve a run-spec file."""
    path = Path(path)
    if not path.exists():
        raise RunSpecError(f"run-spec file not found: {path}")
    raw = path.read_bytes()
    digest = sha256(raw).hexdigest()
    doc = _parse_document(raw, path)
    if not isinstance(doc, dict):
        raise RunSpecError(f"{path}: expected a mapping at the top level")

    base_dir = path.parent
    if "cases" in doc:
        cases = tuple(
            _parse_case(_as(c, f"cases[{i}]", dict), f"cases[{i}].", base_dir, f"case{i}")
            for i, c in enumerate(_get(doc, "cases", list))
        )
    else:
        cases = (_parse_case(doc, "", base_dir, "case0"),)
    optimizers = tuple(_parse_optimizer(o, i) for i, o in enumerate(_get(doc, "optimizers", list)))
    budgets = tuple(_get(doc, "budgets", [int]))

    return RunSpec(
        cases=cases,
        optimizers=optimizers,
        budgets=budgets,
        population_size=_get(doc, "population_size", int, TunerParams.population_size),
        repeats=_get(doc, "repeats", int, 1),
        p=_get(doc, "p", float, TunerParams.target_proportion),
        seed=_get(doc, "seed", int, 0),
        output_dir=base_dir / _get(doc, "output_dir", str, "out"),
        digest=digest,
    )
