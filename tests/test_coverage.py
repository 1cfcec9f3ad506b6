"""Which (kind, class, n) cells ``dss solve`` (auto) answers.

``coverage.json`` records, per cell, the exit code of
``cli.main(["solve", ...])`` on ``random_instance(class, n, seed=1,
kind=kind)`` (weights 1..10, budget half the expected total) and, for
exit 0, whether ``constraints.evaluate`` accepts the answer.  The test
fails when a cell's exit code differs from the record, so a cell that
answered cannot start to refuse unseen, and when an answer is
infeasible.  A change that makes a refused cell answer rewrites the file
and says so.

``PYTHONPATH=src python3 tests/test_coverage.py`` rewrites the file from
the solvers as they are.
"""
import json
import os
import tempfile
from pathlib import Path

import pytest

from dss import GraphClass, ProblemKind, cli, formats, random_instance
from dss.constraints import evaluate

RECORD = Path(__file__).with_name("coverage.json")
CLASSES = ("dag", "oriented-tree", "forest", "out-rooted-tree", "in-rooted-tree", "general", "tournament")
SIZES = (30, 60)
CELLS = [f"{kind.value}/{cls}/{n}" for kind in ProblemKind for cls in CLASSES for n in SIZES]


def run_cell(cell: str, work: str) -> dict:
    """Exit code of ``dss solve`` on the cell's instance, and for exit 0
    whether its answer is feasible."""
    kind, cls, n = cell.split("/")
    inst = random_instance(GraphClass(cls), int(n), seed=1, kind=ProblemKind(kind))
    labels = [str(v) for v in range(inst.graph.n)]
    path, out = os.path.join(work, "inst.txt"), os.path.join(work, "sol.txt")
    Path(path).write_text(formats.emit_instance(inst, labels))
    code = cli.main(["solve", path, "--out", out])
    if code != 0:
        return {"exit": code}
    selected, _, _ = formats.parse_solution(Path(out).read_text())
    return {"exit": 0, "feasible": evaluate(inst, {int(label) for label in selected}).feasible}


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_cell(record):
    assert sorted(record) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_cell(record, cell, tmp_path, capsys):
    got = run_cell(cell, str(tmp_path))
    capsys.readouterr()  # the refusals' one-line errors
    assert got.get("feasible", True), f"{cell}: infeasible answer"
    assert got == record[cell], f"{cell}: {got} against the record {record[cell]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        cells = {cell: run_cell(cell, work) for cell in CELLS}
    RECORD.write_text(
        "{\n" + ",\n".join(f"{json.dumps(c)}: {json.dumps(v)}" for c, v in cells.items()) + "\n}\n"
    )
