"""Measurement sources and budget accounting.

An oracle returns a pair (f_t, f_a) for a configuration: the target
objective of interest and an auxiliary objective used only to diversify
the search. Both are minimization-oriented internally; maximizing
objectives are negated exactly once, at ingestion.

Only first-time measurements of distinct configurations are charged
against the budget; repeats are served from the cache.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from operator import getitem
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

from .space import CATEGORICAL, ConfigSpace, Configuration, OptionSpec

if TYPE_CHECKING:  # numpy is imported where it is used, so that table-only
    import numpy as np  # commands never pay for loading it


class BudgetExhaustedError(RuntimeError):
    """Raised when a new (uncached) measurement is requested at b = B."""


class UnmeasuredConfigurationError(LookupError):
    """Raised by a table oracle for configurations absent from the dataset."""


class TableFormatError(ValueError):
    """Raised for malformed measurement files; messages carry line numbers."""


class _Pair(NamedTuple):
    f_t: float
    f_a: float


class PerfSample(_Pair):
    """One measured (target, auxiliary) pair, minimization-oriented.

    A named tuple, so ``f_t`` and ``f_a`` are read in C. Every way of
    making one, ``_make``, ``_replace`` and unpickling included, goes
    through ``__new__`` and its finiteness check.
    """

    __slots__ = ()

    def __new__(cls, f_t: float, f_a: float) -> "PerfSample":
        if not (math.isfinite(f_t) and math.isfinite(f_a)):
            raise ValueError(f"non-finite measurement ({f_t}, {f_a})")
        return tuple.__new__(cls, (f_t, f_a))

    @classmethod
    def _make(cls, iterable) -> "PerfSample":
        return cls(*iterable)

    def __reduce__(self):
        # protocols 0 and 1 would otherwise rebuild it with tuple.__new__
        return (PerfSample, tuple(self))


@dataclass(frozen=True)
class ObjectiveOrientation:
    """Which raw objectives are maximizing; those get negated at ingestion."""

    t_maximize: bool = False
    a_maximize: bool = False

    def apply(self, f_t: float, f_a: float) -> tuple[float, float]:
        return (-f_t if self.t_maximize else f_t, -f_a if self.a_maximize else f_a)


class MeasurementOracle(Protocol):
    """A budgetless source of performance samples for one space."""

    space: ConfigSpace

    def sample(self, config: Configuration) -> PerfSample: ...


@dataclass
class BudgetLedger:
    """The budget and the record of a run's charges.

    ``cache`` is that record: each distinct configuration charged, with
    its sample, in charge order, so best-so-far trajectories per
    measurement count can be read off it afterwards. ``consumed`` is its
    length.
    """

    budget: int
    cache: dict[Configuration, PerfSample] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    @property
    def consumed(self) -> int:
        return len(self.cache)

    @property
    def remaining(self) -> int:
        return self.budget - self.consumed

    def is_cached(self, config: Configuration) -> bool:
        return config in self.cache


def measure(oracle: MeasurementOracle, config: Configuration, ledger: BudgetLedger) -> PerfSample:
    """Return the sample for ``config``, charging the budget only once per config.

    Cached configurations are free and return the identical sample object.
    """
    cached = ledger.cache.get(config)
    if cached is not None:
        return cached
    if not oracle.space.validate(config):
        raise ValueError(f"configuration {config.values!r} is invalid for the space")
    if len(ledger.cache) >= ledger.budget:
        raise BudgetExhaustedError(
            f"budget exhausted ({ledger.consumed}/{ledger.budget} measurements used)"
        )
    sample = oracle.sample(config)
    ledger.cache[config] = sample
    return sample


def _radix(space: ConfigSpace) -> tuple[tuple[range | tuple, int], ...]:
    """Each option's domain and place value: a configuration's position in
    ``space.enumerate_all()`` order, where the last option varies fastest,
    is the sum of each value's index in its domain times that option's
    stride."""
    domains = [opt.domain for opt in space.options]
    return tuple((domain, math.prod(map(len, domains[i + 1 :]))) for i, domain in enumerate(domains))


def _decode(radix: tuple[tuple[range | tuple, int], ...], key: int) -> Configuration:
    """The configuration at position ``key`` of ``enumerate_all`` order."""
    return Configuration([domain[key // stride % len(domain)] for domain, stride in radix])


class _Rows(Mapping):
    """A table's rows as a read-only mapping from configuration to sample,
    in first-occurrence order; each key and sample is built as it is read."""

    __slots__ = ("_table",)

    def __init__(self, table: "MeasurementTable") -> None:
        self._table = table

    def __getitem__(self, config: Configuration) -> PerfSample:
        try:
            return self._table.sample(config)
        except UnmeasuredConfigurationError:
            raise KeyError(config) from None

    def __iter__(self) -> Iterator[Configuration]:
        return map(functools.partial(_decode, self._table._radix), self._table._index)

    def __len__(self) -> int:
        return len(self._table._index)


class MeasurementTable:
    """A replayed dataset: one pre-measured sample per configuration.

    Packed, with no object per row: each row's key is its configuration's
    position in ``space.enumerate_all()`` order (see ``_radix``), ``_index``
    maps the key to the row's position, and the samples sit in the float
    columns ``_t`` and ``_a`` in first-occurrence order. ``_weights`` has,
    per option, the index times stride of every value some row takes, so a
    configuration's key is the sum of its values' weights. ``rows`` reads
    the table back as a mapping. Built from any mapping of configurations
    in ``space`` to samples; a configuration outside it is a ValueError.
    """

    def __init__(self, space: ConfigSpace, rows: Mapping[Configuration, PerfSample]) -> None:
        radix = _radix(space)
        weights: tuple[dict, ...] = tuple({} for _ in radix)
        index, t, a = {}, array("d"), array("d")
        for config, sample in rows.items():
            if not space.validate(config):
                raise ValueError(f"configuration {tuple(config)!r} is invalid for the space")
            key = 0
            for weight, (domain, stride), value in zip(weights, radix, config):
                key += weight.setdefault(value, domain.index(value) * stride)
            index[key] = len(t)
            f_t, f_a = PerfSample(*sample)
            t.append(f_t)
            a.append(f_a)
        self.space, self._radix, self._weights = space, radix, weights
        self._index, self._t, self._a = index, t, a

    @property
    def rows(self) -> Mapping[Configuration, PerfSample]:
        return _Rows(self)

    def sample(self, config: Configuration) -> PerfSample:
        # every value was checked finite when the table was built
        try:
            if len(config) == len(self._weights):
                p = self._index[sum(map(getitem, self._weights, config))]
                return tuple.__new__(PerfSample, (self._t[p], self._a[p]))
        except KeyError:
            pass
        hash(config)  # an unhashable value fails as it would in a dict lookup
        raise UnmeasuredConfigurationError(
            f"configuration {tuple(config)!r} has no row in the measurement table"
        )

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurementTable):
            return NotImplemented
        return self.space == other.space and self.rows == other.rows

    def __repr__(self) -> str:
        return f"MeasurementTable(space={self.space!r}, rows=<{len(self)} rows>)"

    def best_f_t(self) -> float:
        return min(self._t)

    def first_unmeasured(self) -> Configuration | None:
        """The first configuration of ``space.enumerate_all()`` order that
        has no row, or None; at most ``len(self) + 1`` keys are tried, as
        the keys of a table of n rows cannot fill 0 .. n."""
        key = next(k for k in range(len(self) + 1) if k not in self._index)
        return _decode(self._radix, key) if key < self.space.size() else None


def _parse_option_value(opt: OptionSpec, text: str, line_no: int):
    text = text.strip()
    if opt.kind == CATEGORICAL:
        if text not in opt.levels:
            raise TableFormatError(
                f"line {line_no}: {text!r} is not a level of option {opt.name!r}"
            )
        return text
    try:
        value = int(text)
    except ValueError:
        raise TableFormatError(
            f"line {line_no}: {text!r} is not an integer for option {opt.name!r}"
        ) from None
    if not opt.contains(value):
        raise TableFormatError(
            f"line {line_no}: value {value} out of range for option {opt.name!r}"
        )
    return value


def load_table(
    path: str | Path,
    space: ConfigSpace,
    target_column: str,
    auxiliary_column: str,
    orientation: ObjectiveOrientation = ObjectiveOrientation(),
    delimiter: str = ",",
) -> MeasurementTable:
    """Parse a delimited measurement file into a table oracle.

    Expected layout: a header row with the option names in space order
    followed by the two objective column names, then one row per distinct
    configuration, of which there must be at least one. Lines starting
    with '#' are comments. Duplicate rows must agree exactly; conflicting
    duplicates are an error.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig") as handle:
            numbered = enumerate(handle, 1)
            for header_no, line in numbered:
                if line.strip() and not line.lstrip().startswith("#"):
                    break
            else:
                raise TableFormatError(f"{path}: no header row found")
            header = [c.strip() for c in line.split(delimiter)]
            names = space.option_names
            n = len(names)
            if len(header) != n + 2:
                raise TableFormatError(
                    f"line {header_no}: expected {n} option columns plus 2 objective "
                    f"columns, got {len(header)}"
                )
            for i, name in enumerate(names):
                if header[i] != name:
                    raise TableFormatError(
                        f"line {header_no}: column {i + 1} is {header[i]!r}, expected "
                        f"option {name!r}"
                    )
            objective_cols = header[n:]
            if set(objective_cols) != {target_column, auxiliary_column}:
                raise TableFormatError(
                    f"line {header_no}: objective columns {objective_cols} do not match "
                    f"declared {target_column!r} and {auxiliary_column!r}"
                )
            t_index = n + objective_cols.index(target_column)
            a_index = n + objective_cols.index(auxiliary_column)
            t_sign, a_sign = orientation.apply(1.0, 1.0)
            table = MeasurementTable(space, {})
            radix, weights, index = table._radix, table._weights, table._index
            t_col, a_col = table._t, table._a
            # per option column, the weight (see MeasurementTable) of each cell
            # text parsed so far; only parses that succeeded are kept, so a bad
            # cell fails on its own line. Cells are not stripped: int, float and
            # the level lookup in _parse_option_value ignore surrounding
            # whitespace, so a padded text is only one more key here.
            weighed: list[dict[str, int]] = [{} for _ in range(n)]
            for line_no, line in numbered:
                # a row starts with neither '#' nor whitespace: only other lines pay the test
                if line[0] == "#" or line[0].isspace() and (
                    not line.strip() or line.lstrip().startswith("#")
                ):
                    continue
                cells = line.rstrip("\n").split(delimiter)
                if len(cells) != n + 2:
                    raise TableFormatError(
                        f"line {line_no}: expected {n + 2} columns, got {len(cells)}"
                    )
                try:
                    key = sum(map(getitem, weighed, cells))
                except KeyError:
                    values = [
                        _parse_option_value(opt, cell, line_no)
                        for opt, cell in zip(space.options, cells[:n])
                    ]
                    for known, weight, (domain, stride), cell, value in zip(
                        weighed, weights, radix, cells, values
                    ):
                        known[cell] = weight.setdefault(value, domain.index(value) * stride)
                    key = sum(map(getitem, weighed, cells))
                try:
                    f_t, f_a = t_sign * float(cells[t_index]), a_sign * float(cells[a_index])
                except ValueError:
                    raise TableFormatError(f"line {line_no}: non-numeric objective value") from None
                if not (math.isfinite(f_t) and math.isfinite(f_a)):
                    raise TableFormatError(f"line {line_no}: non-finite objective value")
                # the one lookup of the row; an agreeing duplicate leaves the first
                size = len(t_col)
                position = index.setdefault(key, size)
                if position == size:
                    t_col.append(f_t)
                    a_col.append(f_a)
                elif t_col[position] != f_t or a_col[position] != f_a:
                    with path.open(encoding="utf-8-sig") as again:
                        first = next(
                            no for no, text in enumerate(again, 1)
                            if no > header_no and text.strip() and not text.lstrip().startswith("#")
                            and sum(map(getitem, weighed, text.rstrip("\n").split(delimiter))) == key
                        )
                    raise TableFormatError(
                        f"line {line_no}: conflicting duplicate of line "
                        f"{first} for configuration {_decode(radix, key).values!r}"
                    )
    except UnicodeDecodeError:
        # decoding runs ahead of the lines read; bytes break at \n, \r\n and \r too
        for line_no, raw in enumerate(path.read_bytes().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise TableFormatError(f"line {line_no}: not UTF-8 text") from None
        raise
    if not index:
        raise TableFormatError(f"{path}: no data rows after the header")
    return table


def _nk_shapes(sizes: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Table shape of each position: its own domain size and those of its k
    circularly following neighbors."""
    n = len(sizes)
    return [tuple(sizes[(i + j) % n] for j in range(k + 1)) for i in range(n)]


@functools.lru_cache(maxsize=None)
def _nk_layout(
    sizes: tuple[int, ...], k: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int, int], ...]]:
    """Where each position's entry sits in a flat buffer: position 0's
    ``((option, stride), ...)`` and one ``(offset, modulus, size,
    next_option)`` per position.

    Tables are stored one after another, each in C order, so position i
    reads ``offset + index``, where ``index`` is the mixed-radix number of
    its window (x_i, ..., x_{i+k}) with x_i the most significant digit.
    Position 0's index is the sum of its values times their strides. The
    next window drops x_i and appends x_{i+k+1}, so its index is
    ``index % modulus * size + x[next_option]``: ``modulus`` is the
    product of the last k sizes of window i and ``size`` that of option
    ``next_option`` = (i + k + 1) mod n. Landscapes of the same shape
    share one layout.
    """
    n = len(sizes)
    head = tuple((option, math.prod(sizes[option + 1 : k + 1])) for option in range(k + 1))
    steps, offset = [], 0
    for i, shape in enumerate(_nk_shapes(sizes, k)):
        next_option = (i + k + 1) % n
        steps.append((offset, math.prod(shape[1:]), sizes[next_option], next_option))
        offset += math.prod(shape)
    return head, tuple(steps)


def _table_views(buffer: array, shapes: list[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """Read-only numpy views of the consecutive tables in ``buffer``."""
    import numpy as np

    flat = np.frombuffer(buffer)
    flat.flags.writeable = False
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return tuple(part.reshape(shape) for part, shape in zip(np.split(flat, ends), shapes))


@dataclass(frozen=True)
class NkLandscape:
    """A deterministic rugged landscape over a discrete space.

    Each position contributes a value looked up in a seeded random table
    indexed by its own level and the levels of its k circularly adjacent
    neighbors; the objective is the mean contribution. Larger k means
    more interaction, hence a more rugged landscape with more local
    optima. The auxiliary objective comes from an independent stream,
    optionally blended with the target via ``correlation`` in [-1, 1].

    Each objective's tables live in one flat buffer (see ``_nk_layout``);
    ``_t_tables`` and ``_a_tables`` give them back as numpy arrays.
    Options take the values 0 .. size-1, which are their own indices.
    """

    space: ConfigSpace
    k: int
    seed: int
    correlation: float
    _t_buffer: array
    _a_buffer: array
    _layout: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_layout", _nk_layout(self._sizes(), self.k))

    def _sizes(self) -> tuple[int, ...]:
        return tuple(opt.domain_size() for opt in self.space.options)

    @property
    def _t_tables(self) -> tuple[np.ndarray, ...]:
        return _table_views(self._t_buffer, _nk_shapes(self._sizes(), self.k))

    @property
    def _a_tables(self) -> tuple[np.ndarray, ...]:
        return _table_views(self._a_buffer, _nk_shapes(self._sizes(), self.k))

    def sample(self, config: Configuration) -> PerfSample:
        t, a = self._t_buffer, self._a_buffer
        head, steps = self._layout
        index = 0
        for option, stride in head:
            index += config[option] * stride
        f_t = f_a = 0.0
        for offset, modulus, size, option in steps:
            f_t += t[offset + index]
            f_a += a[offset + index]
            index = index % modulus * size + config[option]
        n = len(config)
        f_t /= n
        f_a /= n
        rho = self.correlation
        if rho:
            f_a = rho * f_t + (1.0 - abs(rho)) * f_a
        return PerfSample(f_t, f_a)


def synthetic_landscape(
    n_options: int,
    domain_sizes: int | Sequence[int],
    k: int,
    seed: int,
    correlation: float = 0.0,
) -> NkLandscape:
    """Build a seeded rugged-landscape oracle over ``n_options`` options.

    ``domain_sizes`` is a single size for all options or one per option;
    size-2 options become binary, larger ones unit-step integer ranges.
    Requires 1 <= k < n_options; identical arguments yield an identical
    oracle.
    """
    if n_options > sys.maxsize:
        raise ValueError(f"n_options {n_options} is too many to index")
    if isinstance(domain_sizes, int):
        sizes = [domain_sizes] * n_options
    else:
        sizes = list(domain_sizes)
    if len(sizes) != n_options:
        raise ValueError(f"expected {n_options} domain sizes, got {len(sizes)}")
    if any(s < 2 for s in sizes):
        raise ValueError("every option needs a domain of at least 2 values")
    if not 1 <= k < n_options:
        raise ValueError(f"ruggedness k must satisfy 1 <= k < n_options, got k={k}")
    if not -1.0 <= correlation <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    import numpy as np

    options = tuple(
        OptionSpec.binary(f"x{i}") if s == 2 else OptionSpec.integer(f"x{i}", 0, s - 1)
        for i, s in enumerate(sizes)
    )
    space = ConfigSpace(options)

    # one draw of every table at once gives the same floats as one draw per
    # table in position order
    total = sum(math.prod(shape) for shape in _nk_shapes(tuple(sizes), k))
    t_buffer, a_buffer = (
        array("d", np.random.default_rng(stream).uniform(size=total).tobytes())
        for stream in np.random.SeedSequence(seed).spawn(2)
    )
    return NkLandscape(
        space=space, k=k, seed=seed, correlation=correlation, _t_buffer=t_buffer, _a_buffer=a_buffer
    )
