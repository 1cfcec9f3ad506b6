"""Acceptance gate: the eight release criteria, one pass/fail line each.

Each criterion prints ``acceptance N (<name>): PASS|FAIL`` on the real
terminal (bypassing capture) and asserts, so a plain ``pytest`` run
shows the full scorecard.
"""
import itertools
import random
import subprocess
import sys
import time

import pytest

import oracles
from conftest import FIG_A_ARCS, FIG_B_ARCS, FIG_B_WEIGHTS, cli_env
from test_gadgets import (
    REGULAR_CORPUS,
    _closed_exact,
    exact_budget_reachable,
)

from dss import (
    CliqueGadgetSpec,
    Digraph,
    GraphClass,
    ISGadgetSpec,
    InstanceError,
    MaximalGadgetSpec,
    ProblemKind,
    UndirectedGraph,
    WeightedInstance,
    brute_force,
    cardinality_to_maximal,
    clique_to_ssg,
    condense,
    evaluate,
    graph_to_ssgw,
    ptas_maximal_ssg,
    ptas_ssg,
    random_instance,
    solve_maximal_ssg_tree,
    solve_ssg_tree,
    solve_ssgw_rooted_tree,
    solve_tournament,
)


@pytest.fixture
def report(capfd):
    def _report(criterion: str, ok: bool, detail: str = ""):
        with capfd.disabled():
            verdict = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"acceptance {criterion}: {verdict}{suffix}", flush=True)
        assert ok, f"{criterion}{suffix}"

    return _report


def _tree_instance(seed: int, kind: ProblemKind, cls: GraphClass):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    budget = rng.randint(0, 40)
    return random_instance(
        cls, n, weight_max=10, budget_rule=("fixed", budget), seed=seed, kind=kind
    )


def test_criterion_1_tree_solvers_match_brute(report):
    start = time.perf_counter()
    mismatches = 0
    for seed in range(500):
        inst = _tree_instance(
            seed,
            ProblemKind.SSG,
            GraphClass.FOREST if seed % 2 else GraphClass.ORIENTED_TREE,
        )
        if solve_ssg_tree(inst).weight != brute_force(inst).weight:
            mismatches += 1
    for seed in range(500):
        inst = _tree_instance(
            seed, ProblemKind.MAXIMAL_SSG, GraphClass.ORIENTED_TREE
        )
        if solve_maximal_ssg_tree(inst).weight != brute_force(inst).weight:
            mismatches += 1
    for seed in range(500):
        inst = _tree_instance(
            seed,
            ProblemKind.SSGW,
            GraphClass.OUT_ROOTED_TREE if seed % 2 else GraphClass.IN_ROOTED_TREE,
        )
        if solve_ssgw_rooted_tree(inst).weight != brute_force(inst).weight:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "1 (tree DPs equal brute force on 3x500 instances)",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_special_class_solvers_match_brute(report):
    mismatches = 0
    for seed in range(200):
        rng = random.Random(seed)
        kind = ProblemKind.MAXIMAL_SSG if seed % 2 else ProblemKind.SSG
        inst = random_instance(
            GraphClass.TOURNAMENT, rng.randint(1, 10), seed=seed, kind=kind
        )
        if solve_tournament(inst).weight != brute_force(inst).weight:
            mismatches += 1
    for seed in range(200):
        rng = random.Random(seed)
        inst = random_instance(
            GraphClass.BALANCED_DEGREE_TWO, rng.randint(3, 10), seed=seed
        )
        if solve_tournament(inst).weight != brute_force(inst).weight:
            mismatches += 1
    report(
        "2 (tournament solver equals brute force on tournaments and balanced-degree-two graphs)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_3_approximation_guarantees(report):
    start = time.perf_counter()
    violations = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        for kind in (ProblemKind.SSG, ProblemKind.MAXIMAL_SSG):
            inst = random_instance(
                GraphClass.DAG,
                n,
                seed=seed,
                kind=kind,
                budget_rule=("fraction", rng.choice([0.3, 0.5, 0.7])),
            )
            opt = brute_force(inst).weight
            for k in (0, 1, 2, 3):
                if kind is ProblemKind.SSG:
                    got = ptas_ssg(inst, k).solution.weight
                    ok = 2 * got >= opt if k == 0 else (k + 1) * got >= k * opt
                else:
                    got = ptas_maximal_ssg(inst, k).solution.weight
                    ok = got <= 2 * opt if k == 0 else k * got <= (k + 1) * opt
                    ok = ok or got == opt
                if not ok:
                    violations += 1
    elapsed = time.perf_counter() - start
    report(
        "3 (approximation ratios k/(k+1) and (k+1)/k hold, k in 0..3)",
        violations == 0 and elapsed < 120,
        f"violations={violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_seed_size_n_is_exact(report):
    mismatches = 0
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        for kind, solver in (
            (ProblemKind.SSG, ptas_ssg),
            (ProblemKind.MAXIMAL_SSG, ptas_maximal_ssg),
        ):
            inst = random_instance(GraphClass.DAG, n, seed=seed, kind=kind)
            if solver(inst, n).solution.weight != brute_force(inst).weight:
                mismatches += 1
    report(
        "4 (both schemes are exact at seed size k = n)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_5_local_maximality_equals_superset_test(report):
    graphs = [Digraph(8, FIG_A_ARCS), Digraph(8, FIG_B_ARCS)]
    for seed in range(30):
        rng = random.Random(seed)
        inst = random_instance(GraphClass.DAG, rng.randint(1, 8), seed=seed)
        graphs.append(inst.graph)
    mismatches = 0
    for gi, g in enumerate(graphs):
        rng = random.Random(1000 + gi)
        weights = [rng.randint(0, 10) for _ in range(g.n)]
        budget = sum(weights) // 2
        inst = WeightedInstance(
            g, tuple(weights), budget, ProblemKind.MAXIMAL_SSG
        )
        literal = set(
            oracles.maximal_sets(g.n, g.arcs, weights, budget, weak=False)
        )
        for size in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                s = frozenset(combo)
                if evaluate(inst, s).feasible != (s in literal):
                    mismatches += 1
    report(
        "5 (single-addition maximality test equals the superset definition)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_6_reductions_hold_iff(report):
    mismatches = 0
    # Clique reduction over the regular corpus, including the 8-node
    # 4-regular worked example.
    for src in REGULAR_CORPUS:
        for k in (2, 3, 4):
            inst, _ = clique_to_ssg(CliqueGadgetSpec(src, k))
            if exact_budget_reachable(inst) != oracles.has_clique(
                src.n, src.edges, k
            ):
                mismatches += 1
    # Independence reduction: weak optimum equals the independence
    # number, maximal weak optimum the independent domination number.
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        edges = {(i - 1, i) for i in range(1, n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    edges.add((i, j))
        src = UndirectedGraph(n, tuple(edges))
        for kind, oracle in (
            (ProblemKind.SSGW, oracles.independence_number),
            (ProblemKind.MAXIMAL_SSGW, oracles.independent_domination_number),
        ):
            inst, _ = graph_to_ssgw(ISGadgetSpec(src), kind)
            if brute_force(inst, cap=24).weight != oracle(n, src.edges):
                mismatches += 1
    # Cardinality reduction: threshold-q equivalence on small sources.
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        arcs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        p = rng.randint(1, n)
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        budget = rng.randint(p + 3, 3 * n + 3)
        spec = MaximalGadgetSpec(Digraph(n, arcs), weights, p, budget)
        inst, _, q = cardinality_to_maximal(spec)
        sol = brute_force(inst)
        got = sol is not None and sol.weight <= q
        if got != _closed_exact(spec.graph, weights, p, budget):
            mismatches += 1
    report(
        "6 (all three reductions verified in both directions)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_7_condensation_soundness(report):
    mismatches = 0
    for seed in range(200):
        rng = random.Random(seed)
        kind = ProblemKind.MAXIMAL_SSG if seed % 2 else ProblemKind.SSG
        inst = random_instance(
            GraphClass.GENERAL, rng.randint(1, 12), seed=seed, kind=kind
        )
        cond = condense(inst.graph, inst.weights)
        csol = brute_force(
            WeightedInstance(
                cond.dag, cond.component_weight, inst.budget, inst.kind
            )
        )
        expanded = {
            v for c in csol.selected for v in cond.members[c]
        }
        report_eval = evaluate(inst, expanded)
        ok = (
            report_eval.feasible
            and inst.weight_of(expanded) == csol.weight
            and csol.weight == brute_force(inst).weight
        )
        if not ok:
            mismatches += 1
    report(
        "7 (solving on the condensation expands to optimal feasible sets)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


INSTANCE_TEXT = (
    "problem maximal-ssg\nbudget 4\n"
    + "".join(
        f"node v{i + 1} {w}\n" for i, w in enumerate(FIG_B_WEIGHTS)
    )
    + "".join(f"arc v{u + 1} v{v + 1}\n" for u, v in FIG_B_ARCS)
)


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "dss.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _strip_elapsed(csv_bytes: bytes) -> bytes:
    lines = []
    for line in csv_bytes.decode().splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines).encode()


def test_criterion_8_byte_identical_outputs(report, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(INSTANCE_TEXT)
    sol = tmp_path / "sol.txt"
    sol.write_text("weight 4\nsize 3\nselect v1\nselect v2\nselect v3\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("edge a b\nedge b c\nedge c d\nedge d a\n")
    commands = [
        ["solve", str(inst)],
        ["solve", str(inst), "--algorithm", "tree-dp"],
        ["solve", str(inst), "--algorithm", "brute"],
        ["solve", str(inst), "--algorithm", "ptas", "--k", "2"],
        ["check", str(inst), str(sol)],
        ["classify", str(inst)],
        ["generate", "random", "--graph-class", "dag", "--n", "9", "--seed", "3"],
        ["generate", "clique", "--edges", str(edges), "--clique-size", "2"],
        ["generate", "independent-set", "--edges", str(edges)],
        ["generate", "subset-sum", "--values", "3,5,7", "--budget", "8"],
    ]
    # Two identical failures would match too, so every run must exit 0.
    mismatches = failures = 0
    for args in commands:
        runs = [_run_cli(args, tmp_path) for _ in range(2)]
        if runs[0] != runs[1]:
            mismatches += 1
        failures += sum(code != 0 for code, _, _ in runs)
    bench = [
        "bench",
        "--classes",
        "dag",
        "--sizes",
        "6,8",
        "--seeds",
        "0,1",
        "--k-list",
        "0,1",
    ]
    runs = []
    for _ in range(2):
        code, out, err = _run_cli(bench, tmp_path)
        # elapsed-ms is the one timing column; everything else must match.
        runs.append((code, _strip_elapsed(out), err))
        failures += code != 0
    if runs[0] != runs[1]:
        mismatches += 1
    report(
        "8 (repeated runs produce byte-identical outputs)",
        mismatches == 0 and failures == 0,
        f"mismatches={mismatches}, failed runs={failures}",
    )
