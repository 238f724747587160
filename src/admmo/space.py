"""Configuration spaces: typed options, configurations, validation, enumeration.

A configuration space is an ordered list of options, each with a finite
domain (binary, unit-step integer range, or categorical levels). A
configuration assigns one in-domain value per option. Two configurations
are duplicates exactly when their value tuples are equal; performance
plays no role in identity.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from dataclasses import dataclass, field
from typing import Any

BINARY = "binary"
INTEGER = "integer"
CATEGORICAL = "categorical"

DEFAULT_ENUMERATION_CAP = 1_000_000


class SpaceTooLargeError(ValueError):
    """Raised when full enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class OptionSpec:
    """A single tunable option with a finite domain.

    Integer options step by 1; datasets with non-unit grids should encode
    their levels as categorical instead of relying on silent coercion.
    Categorical levels are compared by identity (string), not position.
    """

    name: str
    kind: str
    lo: int = 0
    hi: int = 1
    levels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, INTEGER, CATEGORICAL):
            raise ValueError(f"unknown option kind {self.kind!r}")
        if self.kind == INTEGER and self.lo > self.hi:
            raise ValueError(f"option {self.name!r}: lo {self.lo} > hi {self.hi}")
        if self.kind == INTEGER and self.hi - self.lo >= sys.maxsize:
            raise ValueError(f"option {self.name!r}: too many values to index")
        if self.kind == CATEGORICAL:
            if len(self.levels) < 2:
                raise ValueError(f"option {self.name!r}: categorical needs >= 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise ValueError(f"option {self.name!r}: duplicate categorical levels")

    @classmethod
    def binary(cls, name: str) -> "OptionSpec":
        return cls(name=name, kind=BINARY)

    @classmethod
    def integer(cls, name: str, lo: int, hi: int) -> "OptionSpec":
        return cls(name=name, kind=INTEGER, lo=lo, hi=hi)

    @classmethod
    def categorical(cls, name: str, levels: tuple[str, ...] | list[str]) -> "OptionSpec":
        return cls(name=name, kind=CATEGORICAL, levels=tuple(levels))

    def domain_size(self) -> int:
        if self.kind == BINARY:
            return 2
        if self.kind == INTEGER:
            return self.hi - self.lo + 1
        return len(self.levels)

    def domain_values(self) -> tuple[Any, ...]:
        if self.kind == BINARY:
            return (0, 1)
        if self.kind == INTEGER:
            return tuple(range(self.lo, self.hi + 1))
        return self.levels

    def contains(self, value: Any) -> bool:
        if self.kind == BINARY:
            return value in (0, 1)
        if self.kind == INTEGER:
            return isinstance(value, int) and self.lo <= value <= self.hi
        return value in self.levels


class Configuration(tuple):
    """A complete assignment of values, one per option, in space order.

    A tuple of the values, so construction, equality and hashing (the
    duplicate relation used everywhere), ordering, ``len`` and pickling
    all run in C, and a configuration equals its plain value tuple.
    """

    __slots__ = ()

    @property
    def values(self) -> tuple[Any, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Configuration(values={tuple(self)!r})"


@dataclass(frozen=True)
class ConfigSpace:
    """An ordered, immutable collection of options."""

    options: tuple[OptionSpec, ...]
    # built once for ``validate`` and ``random_config``: per option the
    # values it may take (the very tuple ``OptionSpec.contains`` tests for
    # binary and categorical options, a range for integer ones), and the
    # integer options' positions
    _domains: tuple = field(init=False, compare=False, repr=False)
    _integer_positions: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.options) < 1:
            raise ValueError("a configuration space needs at least one option")
        names = [opt.name for opt in self.options]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate option names in {names}")
        domains = tuple(
            range(opt.lo, opt.hi + 1) if opt.kind == INTEGER else opt.domain_values()
            for opt in self.options
        )
        object.__setattr__(self, "_domains", domains)
        object.__setattr__(
            self,
            "_integer_positions",
            tuple(i for i, opt in enumerate(self.options) if opt.kind == INTEGER),
        )

    @property
    def n_options(self) -> int:
        return len(self.options)

    @property
    def option_names(self) -> tuple[str, ...]:
        return tuple(opt.name for opt in self.options)

    def size(self) -> int:
        """Number of distinct configurations (product of domain sizes)."""
        total = 1
        for opt in self.options:
            total *= opt.domain_size()
        return total

    def validate(self, config: Configuration) -> bool:
        """True iff lengths match and every component is in-domain."""
        if len(config) != len(self.options):
            return False
        # as OptionSpec.contains: ``in`` a range would also take 1.0
        for i in self._integer_positions:
            if not isinstance(config[i], int):
                return False
        return all(map(operator.contains, self._domains, config))

    def random_config(self, rng: random.Random) -> Configuration:
        """Draw each component uniformly from its domain, one ``choice`` per
        option: it draws the index that ``randrange``/``randint`` draw."""
        return Configuration(map(rng.choice, self._domains))

    def enumerate_all(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Configuration]:
        """All distinct configurations in lexicographic (domain) order.

        Raises SpaceTooLargeError when the space exceeds ``cap``.
        """
        total = self.size()
        if total > cap:
            raise SpaceTooLargeError(
                f"space too large to enumerate: {total} configurations > cap {cap}"
            )
        domains = [opt.domain_values() for opt in self.options]
        return [Configuration(vals) for vals in itertools.product(*domains)]
