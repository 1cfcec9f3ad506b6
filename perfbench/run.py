"""Closed-loop benchmark of the ``dss`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload tree-and-brute --seed 1 --seconds 55 --trace 0

One process, one thread, one op at a time: each op is one in-process call
of ``dss.cli.main(argv)`` on input files generated from ``--seed``.  Every
op gets a graph no earlier op in the process used, and ``functools`` caches
are cleared and garbage collected before each op, so no op profits from
work done for another (a command-line user starts each call cold).

``--trace 0`` prints the end-to-end metrics: op latency, throughput, set-up
time and peak memory.  Peak memory comes from its own untimed pass under
``tracemalloc``, which would otherwise slow the timed ops several times.
``--trace 1`` prints the per-layer metrics from a fixed list of ops run
twice, alternately with and without spans around the public functions of
every module (see ``spans.py``); the ratio of the two medians is the
tracing overhead.

Every op's output is checked by code in ``workloads.py`` that shares none
of ``dss``, and its digest is recorded.  With ``--seed 0`` the digests are
also compared with ``reference.json``; ``compare.py`` compares two runs of
another seed.  An exception or a wrong exit code makes an op failed; a
wrong output also makes the run incorrect, and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
stamp, op digests and spans go to ``.perfbench_out/`` under the root.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

import workloads  # noqa: E402

REFERENCE_SEED = 0
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
TINY_SCALE = 0.15

END_TO_END = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "_yield")):
        return "ratio"
    return "count"


class SetupError(RuntimeError):
    """The program under test cannot be imported or set up."""


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------


@dataclass
class Result:
    stream: str
    index: int
    shape: str
    seconds: float
    status: str  # "ok", "failed" (raised or wrong exit code) or "wrong"
    reason: str
    digest: str
    peak_bytes: int = 0


class Runner:
    def __init__(self, workload, seed: int, scale: float, work: str, reference: dict):
        import dss.cli

        self.cli_main = dss.cli.main
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.reference = reference
        modules = [m for k, m in sys.modules.items() if k == "dss" or k.startswith("dss.")]
        self.caches = [
            v for m in modules for v in vars(m).values() if callable(getattr(v, "cache_clear", None))
        ]
        self.corrupt: Optional[tuple[str, int]] = None
        self.results: list[Result] = []

    def prepare(self, stream: str, i: int):
        op = self.workload.op(self.seed, stream, i, self.scale)
        return self.prepare_op(op, stream, i)

    def prepare_op(self, op, stream: str, i: int):
        for name, text in op.files.items():
            with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if op.out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.work, op.out))
        return op, stream, i

    def execute(self, prepared, tracer=None, op_id: int = 0, measure_memory: bool = False) -> Result:
        op, stream, i = prepared
        argv = [os.path.join(self.work, a[1:]) if a.startswith("@") else a for a in op.argv]
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc, reason, peak = None, "", 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if measure_memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                rc = tracer.call(op_id, self.cli_main, argv) if tracer else self.cli_main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # RecursionError and MemoryError included
                reason = f"{type(exc).__name__}: {str(exc)[:160]}"
            t1 = time.perf_counter()
            if measure_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        stdout = out.getvalue()
        out_text = None
        if op.out and os.path.exists(os.path.join(self.work, op.out)):
            with open(os.path.join(self.work, op.out), encoding="utf-8") as fh:
                out_text = fh.read()
        if self.corrupt == (stream, i):
            if out_text is not None:
                out_text = "".join(out_text.splitlines(True)[:-1])
            else:
                stdout = "".join(stdout.splitlines(True)[:-1])
        digest = hashlib.sha256(f"{rc}\0{stdout}\0{out_text}".encode()).hexdigest()[:16]
        status = "ok"
        if reason:
            status = "failed"
        elif rc != 0:
            status = "failed"
            reason = f"exit code {rc}: {err.getvalue().strip()[:160]}"
        else:
            try:
                problem = op.check(rc, stdout, out_text)
            except (ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
            expected = self.reference.get(stream, [])
            if problem is None and i < len(expected) and expected[i] != digest:
                problem = f"digest {digest} differs from the reference {expected[i]}"
            if problem:
                status, reason = "wrong", problem
        result = Result(stream, i, op.shape, t1 - t0, status, reason, digest, peak)
        self.results.append(result)
        return result

    def run(self, stream: str, i: int, **kwargs) -> Result:
        return self.execute(self.prepare(stream, i), **kwargs)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workload, seed: int, scale: float, work: str, reference: dict) -> tuple[float, Runner]:
    """Import dss, generate and write one op of every shape, run the first
    as a warm-up.  Returns the seconds since this interpreter started the
    script, and the runner."""
    try:
        import dss
    except ImportError as exc:
        raise SetupError(f"cannot import dss from {SRC}: {exc}") from exc
    if not os.path.abspath(dss.__file__).startswith(SRC + os.sep):
        raise SetupError(f"dss was imported from {dss.__file__}, not from {SRC}")
    runner = Runner(workload, seed, scale, work, reference)
    for i in reversed(range(len(workload.shapes))):
        first = runner.prepare("setup", i)
    runner.execute(first)
    return time.perf_counter() - _T0, runner


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def timed_pass(runner: Runner, seconds: float) -> list[Result]:
    out = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        out.append(runner.run("timed", i))
        i += 1
    return out


def peak_pass(runner: Runner) -> list[Result]:
    """One op of each distinct shape, under tracemalloc."""
    shapes = runner.workload.shapes
    firsts = [i for i, shape in enumerate(shapes) if shape not in shapes[:i]]
    return [runner.run("peak", i, measure_memory=True) for i in firsts]


def traced_pass(runner: Runner, tracer, count: int) -> tuple[list[Result], list[Result]]:
    """``count`` op pairs; each pair runs two ops of one shape, one traced
    and one not, alternating which goes first."""
    plain, traced = [], []
    for j in range(count):
        for kind in (("untraced", "traced") if j % 2 == 0 else ("traced", "untraced")):
            if kind == "traced":
                traced.append(runner.run("traced", j, tracer=tracer, op_id=j))
            else:
                plain.append(runner.run("untraced", j))
    return plain, traced


def deep_path_probes(runner: Runner) -> list[Result]:
    """Known-defect probes, kept out of the op counts: on the tree
    workloads, deep paths whose witness extraction recursed past the
    interpreter limit when this benchmark was written."""
    if runner.workload.probes is None:
        return []
    kept = len(runner.results)
    for i, op in enumerate(runner.workload.probes(runner.seed)):
        runner.execute(runner.prepare_op(op, "probe", i))
    probes = runner.results[kept:]
    del runner.results[kept:]
    return probes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 10:
        return max(values) if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _commit() -> Optional[str]:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "dss")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(args, samples: dict) -> dict:
    import dss
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": TINY_SCALE if args.tiny else 1.0,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(dss, "BACKEND", "n/a"),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.system()} {os.cpu_count()}cpu",
        "samples": samples,
    }


def load_reference(args) -> dict:
    if args.seed != REFERENCE_SEED or args.tiny:
        return {}
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(args.workload, {})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--corrupt-op", type=int, metavar="I",
                   help="drop the last line of timed op I's output before checking it")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    scale = TINY_SCALE if args.tiny else 1.0
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setup_s, runner = setup(workload, args.seed, scale, work, load_reference(args))
        if args.setup_probe:
            if runner.results[-1].status != "ok":
                raise SetupError(f"warm-up op failed: {runner.results[-1].reason}")
            print(f"{setup_s:.6f}")
            return 0
        if args.corrupt_op is not None:
            runner.corrupt = ("timed", args.corrupt_op)
        if args.trace == 0:
            lines, record = measure_end_to_end(args, runner, setup_s)
        else:
            lines, record = measure_layers(args, runner)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = runner.results
    wrong = [r for r in results if r.status == "wrong"]
    failed = [r for r in results if r.status != "ok"]
    for r in failed:
        lines.append(f"{r.status} {r.stream}#{r.index} {r.shape}: {r.reason}")
    record.update(
        failures=[[r.stream, r.index, r.shape, r.status, r.reason] for r in failed],
        ops=[[r.stream, r.index, r.shape, r.digest, round(r.seconds, 6)] for r in results],
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 1 if wrong else 0


def measure_end_to_end(args, runner: Runner, setup_s: float):
    setups = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
    timed = timed_pass(runner, args.seconds)
    peaks = peak_pass(runner)
    probes = deep_path_probes(runner)
    ok = [r.seconds for r in timed if r.status == "ok"]
    values = {
        "op_s_p50": median(ok),
        "op_s_p90": p90(ok),
        "ops_per_s": len(ok) / sum(r.seconds for r in timed),
        "peak_mb": max(r.peak_bytes for r in peaks) / 1e6,
        "setup_s": median(setups),
    }
    samples = {"op_s_p50": len(ok), "op_s_p90": len(ok), "ops_per_s": len(timed),
               "peak_mb": len(peaks), "setup_s": len(setups)}
    lines = [f"workload {args.workload} seed {args.seed}: {len(timed)} timed ops,"
             f" failed_frac {1 - len(ok) / len(timed):.4f}"]
    lines += [f"{k} {v:.6g} {END_TO_END[k]} (samples {samples[k]})" for k, v in values.items()]
    lines += _probe_lines(probes)
    record = {
        "stamp": stamp(args, samples),
        "metrics": {k: (v, END_TO_END[k]) for k, v in values.items()},
        "probes": [[r.shape, r.status, r.reason] for r in probes],
    }
    return lines, record


def _probe_lines(probes):
    return [f"probe {r.shape}: {r.status}" + (f" ({r.reason})" if r.reason else "") for r in probes]


def measure_layers(args, runner: Runner):
    from spans import Tracer

    tracer = Tracer()
    tracer.prepare()
    count = max(2, int(round(runner.workload.traced_ops * (0.25 if args.tiny else 1.0))))
    plain, traced = traced_pass(runner, tracer, count)
    probes = deep_path_probes(runner)
    values = tracer.layer_metrics()
    plain_ok = [r.seconds for r in plain if r.status == "ok"]
    traced_ok = [r.seconds for r in traced if r.status == "ok"]
    values["trace.overhead_frac"] = median(traced_ok) / median(plain_ok) - 1 if plain_ok else 0.0
    values["probe.deep_attempted"] = len(probes)
    values["probe.deep_failed"] = sum(r.status != "ok" for r in probes)
    op_s = values["trace.op_s"]
    share = sum(values[k] for k in runner.workload.loads) / op_s if op_s else 0.0
    lines = [f"workload {args.workload} seed {args.seed}: {count} traced ops"]
    lines += [f"{k} {v:.6g} {layer_unit(k)}" for k, v in values.items()]
    lines.append(f"claim {' + '.join(runner.workload.loads)} = {share:.3f} of traced op time"
                 f" ({'met' if share >= 0.5 else 'MISSED'}: >= 0.5)")
    lines += _probe_lines(probes)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}.tsv"))
    samples = {"traced": len(traced_ok), "untraced": len(plain_ok)}
    record = {
        "stamp": stamp(args, samples),
        "metrics": {k: (v, layer_unit(k)) for k, v in values.items()},
        "claim_share": share,
        "probes": [[r.shape, r.status, r.reason] for r in probes],
    }
    return lines, record


if __name__ == "__main__":
    sys.exit(main())
