"""Golden ``dss solve`` runs: every ``--algorithm`` on every kind of a few
small seeded graphs, and a negative ``--k``.

``golden_solve.json`` holds the instance files and, per argv, what
``dss.cli.main`` printed and its exit status.  It pins the answers, the
messages of the solvers that refuse an instance and the order in which
``auto`` tries them.  To record it again from a source tree::

    PYTHONPATH=<tree>/src python tests/test_golden_solve.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from dss import Digraph, GraphClass, ProblemKind, WeightedInstance, cli, emit_instance, random_instance

GOLDEN = Path(__file__).with_name("golden_solve.json")
INSTANCE = "instance.txt"

# name -> (class, n, seed, keyword arguments of ``random_instance``)
GRAPHS = {
    "oriented-tree": (GraphClass.ORIENTED_TREE, 9, 1, {}),
    "in-rooted-tree": (GraphClass.IN_ROOTED_TREE, 9, 2, {}),
    "out-rooted-tree": (GraphClass.OUT_ROOTED_TREE, 9, 3, {}),
    "acyclic-tournament": (GraphClass.TOURNAMENT, 6, 4, {}),
    "balanced-degree-two": (GraphClass.BALANCED_DEGREE_TWO, 7, 5, {}),
    "dag-8": (GraphClass.DAG, 8, 7, {"arc_prob": 0.3}),
    "dag-22": (GraphClass.DAG, 22, 8, {"arc_prob": 0.15}),
    "tree-big-budget": (
        GraphClass.ORIENTED_TREE,
        6,
        8,
        {"weight_max": 10**6, "budget_rule": ("fixed", 1_500_000)},
    ),
}


def _cyclic_tournament(kind: ProblemKind) -> WeightedInstance:
    """The transitive tournament on 6 nodes with arc (0, 2) reversed: one
    3-cycle, and not every node has in- and out-degree 2."""
    arcs = [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) != (0, 2)]
    rng = random.Random(9)
    weights = tuple(rng.randint(0, 10) for _ in range(6))
    return WeightedInstance(Digraph(6, arcs + [(2, 0)]), weights, sum(weights) // 2, kind)


def _text(inst: WeightedInstance) -> str:
    return emit_instance(inst, [f"v{i}" for i in range(inst.graph.n)])


def instances() -> dict[str, str]:
    """Instance file text per ``<graph>/<kind>``."""
    out = {}
    for kind in ProblemKind:
        for name, (cls, n, seed, extra) in GRAPHS.items():
            out[f"{name}/{kind.value}"] = _text(random_instance(cls, n, seed=seed, kind=kind, **extra))
        out[f"cyclic-tournament/{kind.value}"] = _text(_cyclic_tournament(kind))
    return out


def runs() -> list[tuple[str, list[str]]]:
    """(instance key, argv) for every algorithm on every instance, then
    every algorithm with ``--k -1``."""
    keys = sorted(instances())
    out = [(key, ["solve", INSTANCE, "--algorithm", alg]) for key in keys for alg in cli.ALGORITHMS]
    out += [("dag-8/ssg", ["solve", INSTANCE, "--algorithm", alg, "--k", "-1"]) for alg in cli.ALGORITHMS]
    return out


RUNS = runs()


def capture(text: str, argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` in the current directory with ``text`` as
    the instance file."""
    Path(INSTANCE).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("i", range(len(RUNS)), ids=lambda i: f"{RUNS[i][0]} {' '.join(RUNS[i][1][2:])}")
def test_solve_matches_golden(i, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = _golden()
    key, argv = RUNS[i]
    entry = golden["runs"][i]
    assert (entry["instance"], entry["argv"]) == (key, argv)
    assert capture(golden["instances"][key], argv) == {
        k: entry[k] for k in ("stdout", "stderr", "exit")
    }


def test_golden_instances_are_regenerated():
    assert _golden()["instances"] == instances()


def test_golden_covers_every_run():
    assert [(e["instance"], e["argv"]) for e in _golden()["runs"]] == RUNS


if __name__ == "__main__":
    texts = instances()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            entries = [{"instance": key, "argv": argv, **capture(texts[key], argv)} for key, argv in RUNS]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps({"instances": texts, "runs": entries}, indent=1) + "\n", encoding="utf-8")
