"""Spans around the public functions of each ``dss`` module, from outside.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``dss`` module (``approx`` imports ``descendants`` by name, ``exact``
calls ``_kernels.or_convolve`` through the module, and so on) with a
wrapper that records one span per call: name, start, end, parent span, op
id and a size taken from the arguments or the result.  ``uninstall`` puts
the originals back.  Spans stay in flat arrays until the run ends.

A span's self time is its duration minus the time its child spans cover,
wrapper overhead included, so the wrappers do not inflate their callers.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


def _set_cells(a, b):
    """Cell pairs a capped convolution touches: sum over the set
    positions s of ``a`` of (len(a) - s)."""
    idx = np.flatnonzero(a)
    return float(idx.size * a.shape[0] - int(idx.sum()))


def _scored_cells(a, b):
    return _set_cells(a >= 0, b)


def _masks(neighbour_masks, weights):
    return float(1 << neighbour_masks.shape[0])


def _text_mb(text, *rest):
    return len(text) / 1e6


# module -> {function: size of the call, from its arguments}
TRACED = {
    "_kernels": {
        "or_convolve": _set_cells,
        "maxmin_convolve": _scored_cells,
        "closed_subsets": _masks,
        "weak_closed_subsets": _masks,
    },
    "exact": dict.fromkeys(
        [
            "solve_ssg_tree",
            "solve_maximal_ssg_tree",
            "solve_ssgw_rooted_tree",
            "solve_tournament",
            "solve_balanced_degree_two",
            "brute_force",
        ]
    ),
    "approx": dict.fromkeys(["ptas_ssg", "ptas_maximal_ssg"]),
    "graph": dict.fromkeys(
        [
            "descendants",
            "ascendants",
            "kernel",
            "is_dag",
            "classify",
            "condense",
            "is_underlying_forest",
            "is_underlying_connected",
            "is_underlying_tree",
            "is_tournament",
            "is_balanced_degree_two",
            "is_out_rooted_tree",
            "is_in_rooted_tree",
        ]
    ),
    "constraints": dict.fromkeys(["evaluate", "weak_closure_completion"]),
    "formats": {
        "parse_instance": _text_mb,
        "parse_solution": _text_mb,
        "parse_edge_list": _text_mb,
        "emit_instance": None,
        "emit_solution": None,
    },
    "gadgets": dict.fromkeys(
        [
            "random_instance",
            "clique_to_ssg",
            "graph_to_ssgw",
            "subset_sum_to_tree",
            "cardinality_to_maximal",
        ]
    ),
    "cli": {"cmd_solve": None},
}

OP = "op"
TREE = ("exact.solve_ssg_tree", "exact.solve_maximal_ssg_tree", "exact.solve_ssgw_rooted_tree")
SOLVERS = TREE + (
    "exact.solve_tournament",
    "exact.solve_balanced_degree_two",
    "exact.brute_force",
    "approx.ptas_ssg",
    "approx.ptas_maximal_ssg",
)
PTAS = ("approx.ptas_ssg", "approx.ptas_maximal_ssg")
REACH = ("graph.descendants", "graph.ascendants", "graph.kernel")
PREDICATES = tuple(
    f"graph.{name}" for name in TRACED["graph"] if name.startswith("is_")
)
PARSE = ("formats.parse_instance", "formats.parse_solution", "formats.parse_edge_list")
EMIT = ("formats.emit_instance", "formats.emit_solution")
SUBSETS = ("_kernels.closed_subsets", "_kernels.weak_closed_subsets")

# Span status codes.
DONE, REJECTED, RAISED = 0, 1, 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("I")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")  # wall time from wrapper entry to exit
        self.size = array("d")
        self.status = array("b")
        self._stack: list[int] = []
        self.op_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._solver_error: type = ()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size=None, result_size=None):
        """``fn`` recording one span per call; ``size`` maps the call's
        arguments, ``result_size`` its result, to the span's size."""
        nid = self._name_id(name)
        tr = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.size.append(size(*args) if size else 0.0)
            tr.status.append(DONE)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.cover.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.status[idx] = REJECTED if isinstance(exc, tr._solver_error) else RAISED
                raise
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
                tr.cover[idx] = perf_counter() - entered
            if result_size is not None:
                tr.size[idx] = result_size(result)
            return result

        return traced

    def prepare(self) -> None:
        """Find every binding of every traced function (call once, after
        ``dss`` is imported)."""
        modules = [m for k, m in sys.modules.items() if k == "dss" or k.startswith("dss.")]
        exact = sys.modules.get("dss.exact")
        self._solver_error = getattr(exact, "SolverError", ())
        for modname, funcs in TRACED.items():
            home = sys.modules.get(f"dss.{modname}")
            for fname, size in funcs.items():
                orig = getattr(home, fname, None)
                if orig is None:
                    continue  # renamed or removed: its metrics read 0
                name = f"{modname}.{fname}"
                wrapper = self.wrap(name, orig, size, _text_mb if name in EMIT else None)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig, wrapper))

    def install(self) -> None:
        for m, attr, _orig, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _wrapper in self._patches:
            setattr(m, attr, orig)

    def call(self, op_id: int, fn, *args):
        """Run one op as a root span, with the wrappers installed."""
        self.op_id = op_id
        self.install()
        try:
            return self.wrap(OP, fn)(*args)
        finally:
            self.uninstall()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.cover[i]
        return own

    def op_durations(self) -> list[float]:
        op = self._ids.get(OP)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == op]

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        names = [self.names[n] for n in self.name]
        parents = [names[p] if p >= 0 else None for p in self.parent]

        def total(group, values=own):
            return sum(v for n, v in zip(names, values) if n in group)

        def calls(group, under=None):
            return sum(
                1 for n, p in zip(names, parents) if n in group and (under is None or p in under)
            )

        def sizes(group):
            return sum(s for n, s in zip(names, self.size) if n in group)

        attempts = [i for i, (n, p) in enumerate(zip(names, parents)) if n in SOLVERS and p == "cli.cmd_solve"]
        rejected = [i for i in attempts if self.status[i] == REJECTED]
        seeds_ssg = calls({"graph.descendants"}, {"approx.ptas_ssg"})
        in_budget = calls({"graph.kernel"}, {"approx.ptas_ssg"})
        m: dict[str, float] = {}
        for kern in ("or_convolve", "maxmin_convolve"):
            m[f"_kernels.{kern}_s"] = total({f"_kernels.{kern}"})
            m[f"_kernels.{kern}_calls"] = calls({f"_kernels.{kern}"})
            m[f"_kernels.{kern}_cells"] = sizes({f"_kernels.{kern}"})
        m["_kernels.subsets_s"] = total(SUBSETS)
        m["_kernels.subset_masks"] = sizes(SUBSETS)
        m["exact.tree_s"] = total(TREE)
        m["exact.brute_s"] = total({"exact.brute_force"})
        m["constraints.completion_s"] = total({"constraints.weak_closure_completion"})
        m["constraints.completions"] = calls({"constraints.weak_closure_completion"})
        m["constraints.evaluate_s"] = total({"constraints.evaluate"})
        m["approx.ptas_s"] = total(PTAS)
        m["approx.seeds"] = calls({"graph.descendants"}, PTAS)
        m["approx.seeds_in_budget"] = in_budget
        m["approx.seed_yield"] = in_budget / seeds_ssg if seeds_ssg else 0.0
        m["graph.reach_s"] = total(REACH)
        m["graph.reach_calls"] = calls(REACH)
        m["graph.is_dag_calls"] = calls({"graph.is_dag"})
        m["graph.predicate_s"] = total(PREDICATES)
        m["graph.classify_s"] = total({"graph.classify"})
        m["graph.condense_s"] = total({"graph.condense"})
        m["graph.condense_calls"] = calls({"graph.condense"})
        m["formats.parse_s"] = total(PARSE)
        m["formats.parse_mb"] = sizes(PARSE)
        m["formats.emit_s"] = total(EMIT)
        m["formats.emit_mb"] = sizes(EMIT)
        m["gadgets.generate_s"] = total({f"gadgets.{f}" for f in TRACED["gadgets"]})
        m["cli.attempts"] = len(attempts)
        m["cli.rejected"] = len(rejected)
        m["cli.rejected_s"] = sum(self.end[i] - self.start[i] for i in rejected)
        m["cli.answer_ratio"] = (len(attempts) - len(rejected)) / len(attempts) if attempts else 0.0
        m["trace.ops"] = calls({OP})
        m["trace.op_s"] = sum(self.op_durations())
        m["trace.spans"] = len(names)
        return m

    def write(self, path: str) -> None:
        """Spans as tab-separated text: id, name, parent, op, start, end,
        self seconds, size, status."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\tself_s\tsize\tstatus\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{own[i]:.9f}\t{self.size[i]:g}\t{self.status[i]}\n"
                )
