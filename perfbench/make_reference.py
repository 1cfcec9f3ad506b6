"""Update ``reference.json`` with the output digest of every op that runs with
``--seed 0``, for each workload and op stream.

    python3 perfbench/make_reference.py [--timed 600] [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right.  Runs with
``--seed 0`` then fail any op whose output differs from these digests.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil

import run
import workloads


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--timed", type=int, default=600, help="timed ops per workload")
    p.add_argument("names", nargs="*", metavar="WORKLOAD", help="default: all")
    args = p.parse_args()
    path = os.path.join(run.HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    work = os.path.join(run.ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name in args.names or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            _, runner = run.setup(wl, run.REFERENCE_SEED, 1.0, work, {})
            shapes = len(wl.shapes)
            counts = {"setup": shapes, "timed": args.timed, "peak": shapes,
                      "untraced": wl.traced_ops, "traced": wl.traced_ops}
            streams = {}
            for stream, count in counts.items():
                digests = []
                for i in range(count):
                    r = runner.run(stream, i)
                    if r.status != "ok":
                        raise SystemExit(f"{name} {stream}#{i} {r.shape}: {r.status} {r.reason}")
                    digests.append(r.digest)
                streams[stream] = digests
            reference[name] = streams
            print(f"{name}: {sum(counts.values())} ops", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
