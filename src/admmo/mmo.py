"""The weighted meta-objective model and its dominance relation.

Tuning runs in a transformed two-objective space: with normalized target
f_t and auxiliary f_a, the pair of meta-objectives

    g1 = f_t + w * f_a
    g2 = f_t - w * f_a

is minimized. Both share f_t but pull oppositely on f_a, so the weight w
controls how much of the population becomes incomparable: w = 0 collapses
both to f_t (pure exploitation), large w makes every pair differing on
f_a incomparable (pure exploration).

Geometrically the transform scales the auxiliary axis by w, then rotates
45 degrees clockwise and dilates both axes by sqrt(2).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .oracles import PerfSample
from .space import Configuration


class Individual:
    """A configuration with its sample and derived per-iteration fields.

    ``config`` and ``raw`` are fixed; normalized values, meta-objectives,
    rank, and crowding are recomputed whenever the surrounding union or
    the weight changes.
    """

    __slots__ = ("config", "raw", "f_t_norm", "f_a_norm", "g1", "g2", "rank", "crowding")

    def __init__(self, config: Configuration, raw: PerfSample):
        self.config = config
        self.raw = raw
        self.f_t_norm: float | None = None
        self.f_a_norm: float | None = None
        self.g1: float | None = None
        self.g2: float | None = None
        self.rank: int | None = None
        self.crowding: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Individual({self.config.values!r}, f_t={self.raw.f_t:.4g}, "
            f"f_a={self.raw.f_a:.4g}, g=({self.g1}, {self.g2}), rank={self.rank})"
        )


def normalize_union(union: Sequence[Individual]) -> Sequence[Individual]:
    """Min-max normalize both raw objectives over the given union, in place.

    A zero-range objective maps to 0 everywhere, keeping it inert in both
    meta-objectives. Raw values are never touched.
    """
    if not union:
        raise ValueError("cannot normalize an empty union")
    t_values = [ind.raw.f_t for ind in union]
    a_values = [ind.raw.f_a for ind in union]
    t_min, t_max = min(t_values), max(t_values)
    a_min, a_max = min(a_values), max(a_values)
    # a span past the largest float is taken between halved values; a
    # finite one is scaled by 1.0, which changes no bit
    t_scale = 0.5 if t_max - t_min == math.inf else 1.0
    a_scale = 0.5 if a_max - a_min == math.inf else 1.0
    t_min, t_range = t_min * t_scale, t_max * t_scale - t_min * t_scale
    a_min, a_range = a_min * a_scale, a_max * a_scale - a_min * a_scale
    t_spread, a_spread = t_range > 0, a_range > 0
    for ind, t, a in zip(union, t_values, a_values):
        ind.f_t_norm = (t * t_scale - t_min) / t_range if t_spread else 0.0
        ind.f_a_norm = (a * a_scale - a_min) / a_range if a_spread else 0.0
    return union


def compute_meta(ind: Individual, w: float) -> Individual:
    """Fill g1, g2 from the normalized objectives at weight ``w``."""
    ind.g1 = ind.f_t_norm + w * ind.f_a_norm
    ind.g2 = ind.f_t_norm - w * ind.f_a_norm
    return ind


def compute_meta_union(union: Iterable[Individual], w: float) -> None:
    for ind in union:
        compute_meta(ind, w)


def geometric_transform(f_a: float, f_t: float, w: float) -> tuple[float, float]:
    """The same map written as scaling followed by rotation/dilation.

    Applies diag(w, 1) to (f_a, f_t), then a sqrt(2)-dilated 45-degree
    clockwise rotation. Agrees with :func:`compute_meta` to floating
    point roundoff; kept as the independent geometric reading of the
    model.
    """
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    r = math.sqrt(2.0)
    scaled_a, scaled_t = w * f_a, f_t
    g1 = r * (c * scaled_a + s * scaled_t)
    g2 = r * (-s * scaled_a + c * scaled_t)
    return g1, g2


def dominates(a: Individual, b: Individual) -> bool:
    """True iff ``a`` is at least as good on both meta-objectives and
    strictly better on at least one."""
    return a.g1 <= b.g1 and a.g2 <= b.g2 and (a.g1 < b.g1 or a.g2 < b.g2)
