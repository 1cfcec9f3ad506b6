"""The tree DPs must keep returning the very same witness sets.

``golden_witnesses.json`` holds, per tree solver, the ``Solution``
(selected set and weight) that the per-kind recursive DPs returned on
300 seeded instances: forests, mixed, in- and out-rooted trees, zero
weights, and budgets 0, total, total + 1 and in between.  Weights are
small, so many optima tie and the tie-breaks of the tracebacks show.

The ``wide/`` groups hold the witnesses of ``WIDE_PER_SOLVER`` instances
per strong kind with weights 1..60, 20 to 60 nodes and budgets between a
quarter and three quarters of the total, recorded from the same DPs
before their score levels were stored as runs: those instances have
dozens of distinct weights, so the maximal DP runs on many levels.

``PYTHONPATH=src python3 tests/test_golden_witness.py`` rewrites the
file from the solvers as they are; do that only for a deliberate change
of witness.
"""
import json
import random
from pathlib import Path

import pytest

from dss import (
    Digraph,
    ProblemKind,
    WeightedInstance,
    solve_maximal_ssg_tree,
    solve_ssg_tree,
    solve_ssgw_rooted_tree,
)

GOLDEN = Path(__file__).with_name("golden_witnesses.json")
PER_SOLVER = 300
WIDE_PER_SOLVER = 100
WIDE = ("maximal-ssg", "ssg")

SOLVERS = {
    "ssg": (solve_ssg_tree, ProblemKind.SSG, ("forest", "mixed", "in", "out")),
    "maximal-ssg": (solve_maximal_ssg_tree, ProblemKind.MAXIMAL_SSG, ("mixed", "in", "out")),
    "ssgw": (solve_ssgw_rooted_tree, ProblemKind.SSGW, ("in", "out")),
}


def _arcs(rng, n, shape):
    """Random labelled tree (a forest for ``forest``): node perm[i]
    hangs below perm[j] for a random j < i."""
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []
    for i in range(1, n):
        if shape == "forest" and rng.random() < 0.25:
            continue
        father, child = perm[rng.randrange(i)], perm[i]
        if shape == "out" or (shape in ("mixed", "forest") and rng.random() < 0.5):
            arcs.append((child, father))
        else:
            arcs.append((father, child))
    return arcs


def golden_instance(name: str, seed: int) -> WeightedInstance:
    _, kind, shapes = SOLVERS[name]
    rng = random.Random(f"{name}/{seed}")
    shape = shapes[seed % len(shapes)]
    n = rng.randint(1, 20)
    weights = [0 if rng.random() < 0.25 else rng.randint(1, 5) for _ in range(n)]
    total = sum(weights)
    budget = (0, total, total + 1, rng.randint(0, total), total // 2)[seed // len(shapes) % 5]
    return WeightedInstance(Digraph(n, _arcs(rng, n, shape)), tuple(weights), budget, kind)


def wide_instance(name: str, seed: int) -> WeightedInstance:
    _, kind, shapes = SOLVERS[name]
    rng = random.Random(f"wide/{name}/{seed}")
    shape = shapes[seed % len(shapes)]
    n = rng.randint(20, 60)
    weights = [rng.randint(1, 60) for _ in range(n)]
    total = sum(weights)
    budget = rng.randint(total // 4, 3 * total // 4)
    return WeightedInstance(Digraph(n, _arcs(rng, n, shape)), tuple(weights), budget, kind)


def _witness(name: str, seed: int, instance=golden_instance) -> list:
    sol = SOLVERS[name][0](instance(name, seed))
    return [sorted(sol.selected), sol.weight]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", SOLVERS)
def test_witnesses_unchanged(golden, name):
    expected = golden[name]
    assert len(expected) == PER_SOLVER
    mismatched = [s for s in range(PER_SOLVER) if _witness(name, s) != expected[s]]
    assert not mismatched, f"{name}: seeds {mismatched[:10]} changed witness"


@pytest.mark.parametrize("name", WIDE)
def test_wide_weight_witnesses_unchanged(golden, name):
    expected = golden[f"wide/{name}"]
    assert len(expected) == WIDE_PER_SOLVER
    mismatched = [
        s for s in range(WIDE_PER_SOLVER) if _witness(name, s, wide_instance) != expected[s]
    ]
    assert not mismatched, f"wide/{name}: seeds {mismatched[:10]} changed witness"


def test_maximal_closed_source_before_open():
    """Over a ch+ child, a closed prefix is tried before an open one: the
    one tie-break the seeded instances above rarely reach."""
    g = Digraph(6, [(3, 1), (3, 2), (1, 0), (1, 5), (1, 4)])
    inst = WeightedInstance(g, (3, 3, 1, 1, 1, 3), 1, ProblemKind.MAXIMAL_SSG)
    assert solve_maximal_ssg_tree(inst).selected == frozenset({2})


if __name__ == "__main__":
    groups = [(name, golden_instance, PER_SOLVER) for name in SOLVERS]
    groups += [(f"wide/{name}", wide_instance, WIDE_PER_SOLVER) for name in WIDE]
    blocks = [
        f'"{key}": [\n'
        + ",\n".join(json.dumps(_witness(key.removeprefix("wide/"), s, inst)) for s in range(count))
        + "\n]"
        for key, inst, count in groups
    ]
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
