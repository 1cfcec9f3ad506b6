import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import dss
from dss import Digraph, ProblemKind, WeightedInstance

# Worked 8-node oriented tree used throughout: nodes v1..v8 as ids 0..7.
FIG_A_ARCS = [(0, 1), (2, 0), (1, 3), (4, 1), (2, 5), (6, 2), (7, 2)]

# Second worked tree, with its canonical weights (v1..v8).
FIG_B_ARCS = [(7, 4), (4, 3), (4, 1), (7, 6), (6, 5), (6, 2), (6, 0)]
FIG_B_WEIGHTS = (1, 1, 2, 2, 1, 3, 2, 3)

# 4-regular 8-node graph containing the 4-clique {2,3,4,5} (0-indexed).
REGULAR8_EDGES = [
    (0, 1), (0, 3), (0, 6), (0, 7),
    (1, 2), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 5),
    (3, 4), (3, 5),
    (4, 5), (4, 7),
    (5, 6),
    (6, 7),
]

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


@pytest.fixture
def fig_a() -> Digraph:
    return Digraph(8, FIG_A_ARCS)


@pytest.fixture
def fig_b() -> Digraph:
    return Digraph(8, FIG_B_ARCS)


@pytest.fixture
def fig_b_instance() -> WeightedInstance:
    return WeightedInstance(
        Digraph(8, FIG_B_ARCS), FIG_B_WEIGHTS, 4, ProblemKind.MAXIMAL_SSG
    )


def cli_env() -> dict[str, str]:
    """The environment for a ``python -m dss.cli`` subprocess: the source
    root of the imported ``dss`` first on an absolute PYTHONPATH, so the
    child runs the same package from any working directory."""
    src = str(Path(dss.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def make_instance(g: Digraph, weights, budget, kind=ProblemKind.SSG):
    return WeightedInstance(g, tuple(weights), budget, kind)


def deep_path_instance(kind: ProblemKind, n: int, budget: int) -> WeightedInstance:
    """A path 0 - 1 - ... of n nodes, with weights 0..3 from a fixed seed.

    ssg: every arc points forward.  maximal-ssg: random orientations.
    ssgw: forward arcs, but the last node points back at node n-3 as its
    second in-neighbour, so the tree is out-rooted but not in-rooted and
    the weak DP itself runs.
    """
    rng = random.Random(f"deep/{kind.value}/{n}")
    weights = tuple(rng.randint(0, 3) for _ in range(n))
    arcs = [(i, i + 1) for i in range(n - 1)]
    if kind is ProblemKind.MAXIMAL_SSG:
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in arcs]
    elif kind is ProblemKind.SSGW:
        arcs[-1] = (n - 1, n - 3)
    return WeightedInstance(Digraph(n, arcs), weights, budget, kind)
