"""Command-line front end.

Subcommands::

    solve      solve an instance file, write a solution file
    check      verify a solution file against an instance file
    classify   report the structural class of an instance's digraph
    generate   emit instance files (reductions and seeded random ones)
    bench      approximation-quality benchmark, CSV output

Exit codes: 0 success, 2 solver/structure mismatch, 3 parse error,
1 internal error (and, for ``check``, an infeasible solution).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
import time
from typing import Callable, Iterator, Optional, Sequence, TextIO

from . import approx, exact, formats, gadgets
from .constraints import evaluate
from .graph import GraphClass, GraphError, classify
from .instance import InstanceError, ProblemKind, Solution, WeightedInstance

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_STRUCTURE = 2
EXIT_PARSE = 3


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except formats.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (exact.SolverError, GraphError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


# Each adder names its handler (``set_defaults(func=cmd_x)``) in its body,
# so the module binding is read at parse time: a wrapper installed on
# ``cli.cmd_x`` after import is the one that runs.


def _add_solve(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="instance file path")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--k", type=int, default=2, help="PTAS seed size")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_solve)


def _add_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_check)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.set_defaults(func=cmd_classify)


def _add_clique(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--clique-size", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate_clique)


def _add_hard_maximal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="source instance file")
    p.add_argument("--p", type=int, required=True, help="target cardinality")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate_hard_maximal)


def _add_independent_set(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True)
    p.add_argument(
        "--kind",
        choices=[ProblemKind.SSGW.value, ProblemKind.MAXIMAL_SSGW.value],
        default=ProblemKind.SSGW.value,
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate_independent_set)


def _add_subset_sum(p: argparse.ArgumentParser) -> None:
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument(
        "--kind", choices=[k.value for k in ProblemKind], default=ProblemKind.SSG.value
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate_subset_sum)


def _add_random(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--graph-class",
        choices=[c.value for c in GraphClass],
        default=GraphClass.DAG.value,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-max", type=int, default=10)
    p.add_argument(
        "--kind", choices=[k.value for k in ProblemKind], default=ProblemKind.SSG.value
    )
    p.add_argument("--arc-prob", type=float, default=gadgets.DEFAULT_ARC_PROB)
    p.add_argument("--budget", type=int, help="fixed budget")
    p.add_argument(
        "--budget-fraction", type=float, default=0.5, help="fraction of total weight"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate_random)


def _add_bench(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--classes",
        default="dag",
        help="comma-separated graph classes (default: dag)",
    )
    p.add_argument("--sizes", default="8,10,12", help="comma-separated node counts")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument(
        "--kinds",
        default="ssg,maximal-ssg",
        help="comma-separated kinds (strong-closure kinds only)",
    )
    p.add_argument("--k-list", default="0,1,2", help="comma-separated PTAS k values")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)


# name -> (help, adder); a nested table is a level of subcommands.
_GENERATORS = {
    "clique": ("clique reduction from an edge list", _add_clique),
    "hard-maximal": ("cardinality reduction to the maximal problem", _add_hard_maximal),
    "independent-set": ("independence reduction from an edge list", _add_independent_set),
    "subset-sum": ("plain subset sum as a star", _add_subset_sum),
    "random": ("seeded random instance", _add_random),
}

_COMMANDS = {
    "solve": ("solve an instance file", _add_solve),
    "check": ("verify a solution file", _add_check),
    "classify": ("report the structural graph class", _add_classify),
    "generate": ("emit instance files", _GENERATORS),
    "bench": ("approximation-quality benchmark (CSV)", _add_bench),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``: when its leading words name a command (and,
    under ``generate``, a generator), only that branch is registered."""
    parser = argparse.ArgumentParser(
        prog="dss",
        description="Subset-sum solvers under digraph closure constraints.",
    )
    _add_children(parser, "command", _COMMANDS, argv)
    return parser


def _add_children(parser, dest: str, table: dict, words: Sequence[str]) -> None:
    """Register ``table`` as the subcommands of ``parser``: only the one
    that ``words[0]`` names, or all of them when it names none (help and
    missing or unknown names)."""
    name = words[0] if words else None
    if name in table:
        # The usage line of a later "unrecognized arguments" error lists
        # the registered names, so give it the full list.  Only here: as
        # metavar it would also rename the action in the required and
        # invalid-choice errors, which cannot occur once a name matched.
        sub = parser.add_subparsers(
            dest=dest, required=True, metavar="{" + ",".join(table) + "}"
        )
        names = [name]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        names = list(table)
    for name in names:
        help_text, add = table[name]
        child = sub.add_parser(name, help=help_text)
        if isinstance(add, dict):
            _add_children(child, "generator", add, words[1:])
        else:
            add(child)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The text handle a command writes its output to: the file ``path``,
    or stdout when None.  When the reader of stdout closes it early, the
    rest of the output is dropped and the command ends as usual: stdout is
    pointed at devnull, so the flush at exit does not fail again."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _tree_dp(inst: WeightedInstance, k: int) -> Solution:
    if inst.kind is ProblemKind.SSG:
        return exact.solve_ssg_tree(inst)
    if inst.kind is ProblemKind.MAXIMAL_SSG:
        return exact.solve_maximal_ssg_tree(inst)
    if inst.kind is ProblemKind.SSGW:
        return exact.solve_ssgw_rooted_tree(inst)
    raise exact.SolverError(f"no tree DP for kind {inst.kind.value}")


def _ptas(inst: WeightedInstance, k: int) -> Solution:
    if inst.kind is ProblemKind.SSG:
        return approx.ptas_ssg(inst, k).solution
    if inst.kind is ProblemKind.MAXIMAL_SSG:
        return approx.ptas_maximal_ssg(inst, k).solution
    raise exact.SolverError(
        f"approximation scheme covers the strong-closure kinds, not {inst.kind.value}"
    )


# ``--algorithm`` name -> run(inst, k).  A row that does not apply raises
# ``SolverError``.  ``auto`` tries the rows after brute, in order, then
# brute force, which covers every kind.
SOLVERS: dict[str, Callable[[WeightedInstance, int], Solution]] = {
    "brute": lambda inst, k: exact.brute_force(inst),
    "tree-dp": _tree_dp,
    "tournament": lambda inst, k: exact.solve_tournament(inst),
    "ptas": _ptas,
}

ALGORITHMS = ("auto", *SOLVERS)


def _solve_auto(inst: WeightedInstance, k: int) -> Solution:
    brute, *rows = SOLVERS.values()
    for run in rows:
        try:
            return run(inst, k)
        except exact.CapExceeded:
            # Past a tree DP's cap the next row that applies is the PTAS,
            # which has no work cap: on a 10^4-node tree with k = 2 it
            # would enumerate up to 5 * 10^7 seed pairs with no output.
            # So the refusal ends ``auto`` with exit 2 instead.
            raise
        except exact.SolverError:
            continue
    return brute(inst, k)


def cmd_solve(args) -> int:
    inst, labels = formats.parse_instance(_read(args.instance))
    if args.k < 0:
        raise exact.SolverError("k must be nonnegative")
    run = _solve_auto if args.algorithm == "auto" else SOLVERS[args.algorithm]
    sol = run(inst, args.k)
    report = evaluate(inst, sol.selected)
    flags = formats.SolutionFlags(
        feasible=report.feasible,
        closure=report.satisfies_closure,
        budget=report.satisfies_budget,
        maximality=report.satisfies_maximality,
    )
    with _output(args.out) as fh:
        fh.write(formats.emit_solution(sol, labels, flags))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    inst, labels = formats.parse_instance(_read(args.instance))
    selected_labels, declared_weight, _ = formats.parse_solution(_read(args.solution))
    index = {label: i for i, label in enumerate(labels)}
    try:
        selected = {index[label] for label in selected_labels}
    except KeyError as exc:
        raise formats.ParseError(f"solution selects unknown node {exc.args[0]!r}")
    report = evaluate(inst, selected)
    lines = []
    if report.satisfies_closure:
        lines.append("closure ok")
    else:
        w = report.witness
        if isinstance(w, tuple):
            lines.append(f"closure violated witness=arc {labels[w[0]]} -> {labels[w[1]]}")
        else:
            lines.append(f"closure violated witness=node {labels[w]}")
    verdict = "ok" if report.satisfies_budget else "violated"
    lines.append(
        f"budget {verdict} weight={report.total_weight} budget={inst.budget}"
    )
    if not inst.kind.is_maximal:
        lines.append("maximality na")
    elif report.satisfies_maximality is None:
        lines.append("maximality skipped")
    elif report.satisfies_maximality:
        lines.append("maximality ok")
    else:
        lines.append(f"maximality violated witness=node {labels[report.witness]}")
    if declared_weight != report.total_weight:
        lines.append(
            f"declared-weight mismatch declared={declared_weight}"
            f" actual={report.total_weight}"
        )
    feasible = report.feasible and declared_weight == report.total_weight
    lines.append(f"feasible {str(feasible).lower()}")
    with _output(None) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if feasible else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    inst, _labels = formats.parse_instance(_read(args.instance))
    g = inst.graph
    with _output(None) as fh:
        fh.write(f"class {classify(g).value}\nnodes {g.n}\narcs {g.m}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate_clique(args) -> int:
    graph, _labels = formats.parse_edge_list(_read(args.edges))
    spec = gadgets.CliqueGadgetSpec(graph, args.clique_size)
    inst, labels = gadgets.clique_to_ssg(spec)
    with _output(args.out) as fh:
        fh.write(
            f"# clique reduction: hit the budget exactly iff a clique of size"
            f" {args.clique_size} exists\n"
        )
        formats.write_instance(inst, labels, fh)
    return EXIT_OK


def cmd_generate_hard_maximal(args) -> int:
    src, _labels = formats.parse_instance(_read(args.instance))
    if src.kind is not ProblemKind.SSG:
        raise InstanceError("source instance must use the ssg kind")
    spec = gadgets.MaximalGadgetSpec(src.graph, src.weights, args.p, src.budget)
    inst, labels, threshold = gadgets.cardinality_to_maximal(spec)
    with _output(args.out) as fh:
        fh.write(f"# cardinality reduction: decision threshold q = {threshold}\n")
        formats.write_instance(inst, labels, fh)
    return EXIT_OK


def cmd_generate_independent_set(args) -> int:
    graph, _labels = formats.parse_edge_list(_read(args.edges))
    spec = gadgets.ISGadgetSpec(graph)
    inst, labels = gadgets.graph_to_ssgw(spec, ProblemKind(args.kind))
    with _output(args.out) as fh:
        formats.write_instance(inst, labels, fh)
    return EXIT_OK


def cmd_generate_subset_sum(args) -> int:
    values = _csv_list(args.values, int, "values")
    inst, labels = gadgets.subset_sum_to_tree(
        values, args.budget, ProblemKind(args.kind)
    )
    with _output(args.out) as fh:
        formats.write_instance(inst, labels, fh)
    return EXIT_OK


def cmd_generate_random(args) -> int:
    budget_rule = (
        ("fixed", args.budget)
        if args.budget is not None
        else ("fraction", args.budget_fraction)
    )
    inst = gadgets.random_instance(
        GraphClass(args.graph_class),
        args.n,
        weight_max=args.weight_max,
        budget_rule=budget_rule,
        seed=args.seed,
        kind=ProblemKind(args.kind),
        arc_prob=args.arc_prob,
    )
    labels = [f"v{i}" for i in range(inst.graph.n)]
    with _output(args.out) as fh:
        formats.write_instance(inst, labels, fh)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_CSV_COLUMNS = [
    "instance-id",
    "class",
    "n",
    "kind",
    "algorithm",
    "k",
    "achieved-weight",
    "optimal-weight",
    "ratio",
    "elapsed-ms",
]


def _csv_list(text: str, parse, what: str) -> list:
    """The comma-separated items of ``text``, each stripped and read by
    ``parse``; a malformed or unknown item is a parse error."""
    try:
        return [parse(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise formats.ParseError(f"bad {what} list {text!r}") from None


def cmd_bench(args) -> int:
    classes = _csv_list(args.classes, GraphClass, "classes")
    sizes = _csv_list(args.sizes, int, "sizes")
    seeds = _csv_list(args.seeds, int, "seeds")
    kinds = _csv_list(args.kinds, ProblemKind, "kinds")
    k_list = _csv_list(args.k_list, int, "k")
    for kind in kinds:
        if kind.is_weak:
            raise InstanceError("bench covers the strong-closure kinds only")
    if any(k < 0 for k in k_list):
        raise exact.SolverError("k must be nonnegative")
    rows = []
    worst: dict[int, float] = {}
    for cls in classes:
        for n in sizes:
            for seed in seeds:
                for kind in kinds:
                    inst = gadgets.random_instance(cls, n, seed=seed, kind=kind)
                    iid = f"{cls.value}-n{n}-s{seed}-{kind.value}"
                    optimal: Optional[int] = None
                    if n <= exact.DEFAULT_BRUTE_CAP:
                        optimal = exact.brute_force(inst).weight
                    for k in k_list:
                        start = time.perf_counter()
                        sol = SOLVERS["ptas"](inst, k)
                        elapsed_ms = (time.perf_counter() - start) * 1000.0
                        ratio = ""
                        if optimal is not None:
                            if optimal == sol.weight:
                                r = 1.0
                            elif optimal == 0:
                                r = float("inf")
                            else:
                                r = sol.weight / optimal
                            ratio = f"{r:.6f}"
                            badness = max(r, 1.0 / r) if r > 0 else float("inf")
                            prev = worst.get(k)
                            if prev is None or badness > max(prev, 1.0 / prev):
                                worst[k] = r
                        rows.append(
                            {
                                "instance-id": iid,
                                "class": cls.value,
                                "n": n,
                                "kind": kind.value,
                                "algorithm": "ptas",
                                "k": k,
                                "achieved-weight": sol.weight,
                                "optimal-weight": "" if optimal is None else optimal,
                                "ratio": ratio,
                                "elapsed-ms": f"{elapsed_ms:.3f}",
                            }
                        )
    for k, r in sorted(worst.items()):
        rows.append(
            {
                "instance-id": f"summary-ptas-k{k}",
                "class": "",
                "n": "",
                "kind": "",
                "algorithm": "ptas",
                "k": k,
                "achieved-weight": "",
                "optimal-weight": "",
                "ratio": f"{r:.6f}",
                "elapsed-ms": "",
            }
        )
    rows.sort(key=lambda row: str(row["instance-id"]))
    with _output(args.out) as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
