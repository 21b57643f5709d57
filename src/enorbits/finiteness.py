"""Finiteness deciders for enhanced nilpotent cones of GL_n.

Given n and the highest weight of an irreducible rational GL_n-module M,
decide whether the enhanced nilpotent cone N x M carries finitely many
orbits, under the enhanced group and under GL_n itself.  Determinant
twists never change the answer, so the weight is normalized to end in
zero before the table lookup.  Answers are under characteristic-zero
semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotDominant, OutOfRange


class Finiteness(enum.Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class WeightSpec:
    """A dominant weight: nonincreasing integer n-tuple."""

    n: int
    weight: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange(f"n must be >= 1, got {self.n}")
        w = tuple(int(a) for a in self.weight)
        object.__setattr__(self, "weight", w)
        if len(w) != self.n:
            raise NotDominant(f"weight must have {self.n} entries, got {len(w)}")
        if any(a < b for a, b in zip(w, w[1:])):
            raise NotDominant(f"weight must be nonincreasing: {w}")


def normalize_det_twist(w: WeightSpec) -> WeightSpec:
    """Shift by a multiple of the determinant weight so the tuple ends in 0."""
    last = w.weight[-1]
    return WeightSpec(w.n, tuple(a - last for a in w.weight))


def decide_enhanced(w: WeightSpec) -> Finiteness:
    """Finiteness under the enhanced group GL_n x| M."""
    nw = normalize_det_twist(w).weight
    n = w.n
    if n == 1:
        return Finiteness.FINITE
    if n == 2:
        # irreducible of dimension m + 1; finite up to dimension 3
        return Finiteness.FINITE if nw[0] <= 2 else Finiteness.INFINITE
    finite_classes = {
        (0,) * n,                 # one-dimensional up to det twist
        (1,) + (0,) * (n - 1),    # natural module
        (1,) * (n - 1) + (0,),    # dual of natural, up to det twist
    }
    return Finiteness.FINITE if nw in finite_classes else Finiteness.INFINITE


def decide_gl_variety(w: WeightSpec) -> Finiteness:
    """Finiteness under GL_n alone (orbits refine the enhanced ones)."""
    nw = normalize_det_twist(w).weight
    n = w.n
    if n == 1:
        return Finiteness.FINITE
    if n == 2:
        # module dimension at most 2
        return Finiteness.FINITE if nw[0] <= 1 else Finiteness.INFINITE
    return decide_enhanced(w)
