"""Problem instances and solutions for the four budgeted selection problems."""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable

from .graph import Digraph

MAX_INT = 2**63 - 1


class InstanceError(ValueError):
    """Instance data violates a validity requirement."""


class ProblemKind(enum.Enum):
    SSG = "ssg"
    SSGW = "ssgw"
    MAXIMAL_SSG = "maximal-ssg"
    MAXIMAL_SSGW = "maximal-ssgw"

    @property
    def is_maximal(self) -> bool:
        return self in (ProblemKind.MAXIMAL_SSG, ProblemKind.MAXIMAL_SSGW)

    @property
    def is_weak(self) -> bool:
        return self in (ProblemKind.SSGW, ProblemKind.MAXIMAL_SSGW)


@dataclass(frozen=True)
class WeightedInstance:
    graph: Digraph
    weights: tuple[int, ...]
    budget: int
    kind: ProblemKind

    def __post_init__(self):
        if len(self.weights) != self.graph.n:
            raise InstanceError("one weight per node required")
        # ``operator.index`` turns numpy integers into ints and refuses
        # floats and strings, which no solver can weigh exactly.
        try:
            object.__setattr__(self, "weights", tuple(map(operator.index, self.weights)))
            object.__setattr__(self, "budget", operator.index(self.budget))
        except TypeError:
            raise InstanceError("weights and budget must be integers") from None
        if any(w < 0 for w in self.weights):
            raise InstanceError("weights must be nonnegative")
        if sum(self.weights) > MAX_INT:
            raise InstanceError("total weight exceeds 63-bit range")
        if not (0 <= self.budget <= MAX_INT):
            raise InstanceError("budget out of 63-bit nonnegative range")

    def weight_of(self, s: Iterable[int]) -> int:
        """Weight of the distinct nodes of ``s``; a set is read in place."""
        if not isinstance(s, (set, frozenset)):
            s = set(s)
        return sum(self.weights[v] for v in s)

    def total_weight(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class Solution:
    selected: frozenset[int]
    weight: int

    @classmethod
    def from_nodes(cls, inst: WeightedInstance, nodes: Iterable[int]) -> "Solution":
        sel = frozenset(nodes)
        return cls(sel, inst.weight_of(sel))
