"""Compare two run records written by ``run.py`` under ``.perfbench_out/``.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Refuses to compare (exit 2) records from different backends or machines,
or of different workloads, seeds, trace modes or sizes.  Otherwise prints
each metric of both runs with their ratio, then every op the two runs both
made whose output digest differs; exits 1 if there is one, else 0.
"""
from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "machine", "nproc", "workload", "seed", "trace", "scale")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(a: dict, b: dict) -> int:
    for key in MUST_MATCH:
        if a["stamp"].get(key) != b["stamp"].get(key):
            print(f"refused: {key} differs ({a['stamp'].get(key)!r} vs {b['stamp'].get(key)!r})")
            return 2
    for name, (va, unit) in a["metrics"].items():
        vb = b["metrics"].get(name, [None])[0]
        ratio = f"{vb / va:.3f}" if vb is not None and va else "-"
        print(f"{name:32s} {va:<14.6g} {vb if vb is None else format(vb, '<14.6g')} {unit:6s} x{ratio}")
    digests = {(s, i): d for s, i, _shape, d, _sec in a["ops"]}
    differ = [
        (s, i, shape) for s, i, shape, d, _sec in b["ops"] if digests.get((s, i), d) != d
    ]
    for s, i, shape in differ:
        print(f"output differs: {s}#{i} {shape}")
    common = sum((s, i) in digests for s, i, *_ in b["ops"])
    print(f"{common} ops in both runs, {len(differ)} with different output")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(load(sys.argv[1]), load(sys.argv[2])))
