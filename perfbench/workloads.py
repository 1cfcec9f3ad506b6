"""Seeded inputs, CLI operations and independent output checks.

Every operation is built from ``(workload, seed, stream, index)`` alone, so
the same arguments always give byte-identical input files.  The generators
and the checks below use only the standard library: they share no code with
``dss``, so a defect in ``dss`` cannot hide itself by also breaking the
check.

Sizes are scaled by ``scale`` (1.0 for real runs, small for the smoke test).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    """A generated instance; ``comp`` maps nodes to known strongly
    connected components (None when the graph is acyclic)."""

    kind: str
    budget: int
    weights: list[int]
    arcs: list[tuple[int, int]]
    comp: Optional[list[int]] = None

    @property
    def n(self) -> int:
        return len(self.weights)

    def text(self) -> str:
        out = [f"problem {self.kind}", f"budget {self.budget}"]
        out += [f"node v{i} {w}" for i, w in enumerate(self.weights)]
        out += [f"arc v{u} v{v}" for u, v in self.arcs]
        return "\n".join(out) + "\n"


def _weights(rng: random.Random, n: int, wmax: int, frac: float = 0.5):
    """``n`` weights drawn from 1..wmax, and a budget of ``frac`` times
    their expected total.  A budget fixed by the size, not by the drawn
    total, keeps the DP table length, and so the time and memory of the
    ops of one shape and size, the same for every seed."""
    return [rng.randint(1, wmax) for _ in range(n)], int(n * (wmax + 1) / 2 * frac)


def tree_arcs(rng: random.Random, n: int, orient: str, parts: int = 1, branches: int = 8):
    """Random oriented forest over shuffled ids: ``parts`` trees of equal
    size, each a root joined to ``branches`` random recursive subtrees of
    equal size.  Fixing the top of the tree keeps the cost of the tree DPs
    of one size within a narrow band; a plain random recursive tree of the
    same size varies four-fold.  ``orient`` is "mixed" (each arc random)
    or "out" (child -> father, an out-rooted tree)."""
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []

    def link(child, father):
        if orient == "out" or (orient == "mixed" and rng.random() < 0.5):
            arcs.append((child, father))
        else:
            arcs.append((father, child))

    for p in range(parts):
        nodes = perm[p::parts]
        rest = nodes[1:]
        k = min(branches, len(rest))
        for b in range(k):
            group = rest[b::k]
            link(group[0], nodes[0])
            for i in range(1, len(group)):
                link(group[i], group[rng.randrange(i)])
    return arcs


def path_arcs(rng: random.Random, n: int, orient: str):
    """Path 0 - 1 - ... - n-1; "out" points every arc forward."""
    return [
        (i, i + 1) if orient == "out" or rng.random() < 0.5 else (i + 1, i)
        for i in range(n - 1)
    ]


def dag_arcs(rng: random.Random, n: int, p: float):
    order = list(range(n))
    rng.shuffle(order)
    return [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]


def digraph_arcs(rng: random.Random, n: int, p: float):
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def block_digraph(rng: random.Random, n: int, blocks: int, out_degree: int):
    """Digraph whose strongly connected components are exactly ``blocks``
    shuffled blocks: a Hamiltonian circuit inside each block, random extra
    arcs inside blocks, and arcs between blocks only from lower to higher
    block number.  Returns (arcs, component of each node)."""
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    bounds = list(zip([0] + cuts, cuts + [n]))
    comp = [0] * n
    arcset: set[tuple[int, int]] = set()
    for b, (lo, hi) in enumerate(bounds):
        members = perm[lo:hi]
        for v in members:
            comp[v] = b
        if len(members) > 1:
            for i, u in enumerate(members):
                arcset.add((u, members[(i + 1) % len(members)]))
    for b in range(blocks - 1):  # keep the block order a connected chain
        arcset.add((perm[bounds[b][0]], perm[bounds[b + 1][0]]))
    target = n * out_degree
    while len(arcset) < target:
        i = rng.randrange(n)
        lo, hi = bounds[comp[perm[i]]]
        if rng.random() < 0.9:  # mostly arcs inside blocks
            j = rng.randrange(lo, hi)
        elif hi < n:
            j = rng.randrange(hi, n)
        else:
            continue
        if i != j:
            arcset.add((perm[i], perm[j]))
    arcs = sorted(arcset)
    rng.shuffle(arcs)
    return arcs, comp


def balanced_arcs(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = []
    for i in range(n):
        arcs.append((perm[i], perm[(i + 1) % n]))
        arcs.append((perm[i], perm[(i + 2) % n]))
    return arcs


def tournament_arcs(rng: random.Random, n: int):
    order = list(range(n))
    rng.shuffle(order)
    arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(arcs)
    return arcs


def connected_edges(rng: random.Random, n: int, m: int):
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# ---------------------------------------------------------------------------
# Independent checks
# ---------------------------------------------------------------------------


def _parse_solution(inst: Instance, text: str):
    """Selected node ids, or an error string."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("weight ") or not lines[1].startswith("size "):
        return "malformed solution header"
    declared, size = int(lines[0].split()[1]), int(lines[1].split()[1])
    labels = [ln.split()[1] for ln in lines[2:-1] if ln.startswith("select ")]
    if len(labels) != len(lines) - 3 or len(labels) != size:
        return "select lines do not match size"
    if labels != sorted(labels):
        return "select lines not sorted"
    sel = set()
    for label in labels:
        if not label.startswith("v") or not label[1:].isdigit() or int(label[1:]) >= inst.n:
            return f"unknown label {label}"
        sel.add(int(label[1:]))
    if len(sel) != len(labels):
        return "duplicate select label"
    if declared != sum(inst.weights[v] for v in sel):
        return "declared weight differs from the selected weight"
    maxi = "true" if inst.kind.startswith("maximal") else "na"
    if lines[-1] != f"feasible true closure=true budget=true maximality={maxi}":
        return f"unexpected verdict line {lines[-1]!r}"
    return sel


def _closed(inst: Instance, sel: set[int]) -> bool:
    if inst.kind.endswith("ssgw"):
        ins: list[list[int]] = [[] for _ in range(inst.n)]
        for u, v in inst.arcs:
            ins[v].append(u)
        return all(
            x in sel or not ins[x] or any(u not in sel for u in ins[x])
            for x in range(inst.n)
        )
    return all(v in sel for u, v in inst.arcs if u in sel)


def _weak_completion(ins, outs, sel: set[int]) -> set[int]:
    sel = set(sel)
    missing = [sum(1 for u in ins[x] if u not in sel) for x in range(len(ins))]
    queue = [x for x in range(len(ins)) if ins[x] and x not in sel and missing[x] == 0]
    while queue:
        x = queue.pop()
        if x in sel:
            continue
        sel.add(x)
        for y in outs[x]:
            missing[y] -= 1
            if missing[y] == 0 and y not in sel:
                queue.append(y)
    return sel


def _maximal(inst: Instance, sel: set[int], weight: int) -> bool:
    room = inst.budget - weight
    if inst.kind == "maximal-ssgw":
        ins: list[list[int]] = [[] for _ in range(inst.n)]
        outs: list[list[int]] = [[] for _ in range(inst.n)]
        for u, v in inst.arcs:
            ins[v].append(u)
            outs[u].append(v)
        return not any(
            sum(inst.weights[v] for v in _weak_completion(ins, outs, sel | {x})) - weight <= room
            for x in range(inst.n)
            if x not in sel
        )
    # Strong rule: no unselected component with all successors selected fits.
    comp = inst.comp or list(range(inst.n))
    k = max(comp) + 1 if comp else 0
    cw = [0] * k
    for v, c in enumerate(comp):
        cw[c] += inst.weights[v]
    chosen = {comp[v] for v in sel}
    blocked = {comp[u] for u, v in inst.arcs if comp[u] != comp[v] and comp[v] not in chosen}
    return not any(c not in chosen and c not in blocked and cw[c] <= room for c in range(k))


def check_solution(inst: Instance, text: Optional[str]) -> Optional[str]:
    """None when ``text`` is a closed, in-budget (and, for the maximal
    kinds, non-extendable) solution of ``inst``; else the reason."""
    if text is None:
        return "no solution written"
    sel = _parse_solution(inst, text)
    if isinstance(sel, str):
        return sel
    weight = sum(inst.weights[v] for v in sel)
    if weight > inst.budget:
        return "over budget"
    if not _closed(inst, sel):
        return "not closed"
    if inst.kind.startswith("maximal") and not _maximal(inst, sel, weight):
        return "not maximal"
    return None


def _parse_instance(text: str):
    """(kind, budget, weights, arcs) of an instance file with v<i> labels."""
    kind, budget, weights, arcs = None, None, [], []
    index: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "problem":
            kind = parts[1]
        elif parts[0] == "budget":
            budget = int(parts[1])
        elif parts[0] == "node":
            index[parts[1]] = len(weights)
            weights.append(int(parts[2]))
        elif parts[0] == "arc":
            arcs.append((index[parts[1]], index[parts[2]]))
    return kind, budget, weights, arcs


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI call.  Arguments starting with ``@`` name files in the
    work directory; ``files`` are written there before the call and
    ``out`` is read back after it."""

    shape: str
    argv: list[str]
    files: dict[str, str]
    out: Optional[str]
    # (exit code, stdout, text of ``out``) -> None or the reason it is wrong
    check: Callable[[int, str, Optional[str]], Optional[str]]


def solve_op(shape: str, inst: Instance, *extra: str) -> Op:
    return Op(
        shape,
        ["solve", "@inst.txt", "--out", "@sol.txt", *extra],
        {"inst.txt": inst.text()},
        "sol.txt",
        lambda rc, so, ot: check_solution(inst, ot),
    )


def _expect_stdout(expected: str):
    return lambda rc, so, ot: None if so == expected else f"stdout {so[:80]!r} != {expected[:80]!r}"


def check_op(shape: str, inst: Instance, sel: set[int]) -> Op:
    """``dss check`` of a maximal solution computed here, never by dss."""
    weight = sum(inst.weights[v] for v in sel)
    labels = sorted(f"v{v}" for v in sel)
    sol = "\n".join(
        [f"weight {weight}", f"size {len(sel)}"]
        + [f"select {lb}" for lb in labels]
        + ["feasible true closure=true budget=true maximality=true"]
    ) + "\n"
    expected = (
        "closure ok\n"
        f"budget ok weight={weight} budget={inst.budget}\n"
        "maximality ok\nfeasible true\n"
    )
    return Op(
        shape,
        ["check", "@inst.txt", "@sol.txt"],
        {"inst.txt": inst.text(), "sol.txt": sol},
        None,
        _expect_stdout(expected),
    )


def greedy_maximal(inst: Instance) -> set[int]:
    """Maximal strong-closure set: add fitting sink components of the
    unselected part, lightest first, until none fits."""
    comp = inst.comp or list(range(inst.n))
    k = max(comp) + 1
    cw = [0] * k
    members: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(comp):
        cw[c] += inst.weights[v]
        members[c].append(v)
    succ: list[set[int]] = [set() for _ in range(k)]
    for u, v in inst.arcs:
        if comp[u] != comp[v]:
            succ[comp[u]].add(comp[v])
    chosen: set[int] = set()
    room = inst.budget
    while True:
        sinks = [c for c in range(k) if c not in chosen and succ[c] <= chosen and cw[c] <= room]
        if not sinks:
            break
        c = min(sinks, key=lambda c: (cw[c], c))
        chosen.add(c)
        room -= cw[c]
    return {v for c in chosen for v in members[c]}


def classify_op(shape: str, inst: Instance, cls: str) -> Op:
    expected = f"class {cls}\nnodes {inst.n}\narcs {len(inst.arcs)}\n"
    return Op(shape, ["classify", "@inst.txt"], {"inst.txt": inst.text()}, None, _expect_stdout(expected))


def _check_generated(kind: str, n: int, arc_count: int, extra: Optional[Callable] = None):
    def check(rc, so, ot):
        if ot is None:
            return "no instance written"
        got_kind, budget, weights, arcs = _parse_instance(ot)
        if got_kind != kind or len(weights) != n or len(arcs) != arc_count:
            return f"generated {got_kind} n={len(weights)} arcs={len(arcs)}"
        if len(set(arcs)) != len(arcs) or any(u == v for u, v in arcs):
            return "generated duplicate or loop arcs"
        return extra(budget, weights, arcs) if extra else None

    return check


def _degrees_two(budget, weights, arcs):
    n = len(weights)
    outd, ind = [0] * n, [0] * n
    for u, v in arcs:
        outd[u] += 1
        ind[v] += 1
    if any(d != 2 for d in outd + ind):
        return "not balanced of degree two"
    if budget != sum(weights) // 2 or any(not 0 <= w <= 10 for w in weights):
        return "weights or budget out of rule"
    return None


def _acyclic_tournament(budget, weights, arcs):
    n = len(weights)
    if len({(min(u, v), max(u, v)) for u, v in arcs}) != len(arcs):
        return "opposite arcs in tournament"
    outd = [0] * n
    for u, _ in arcs:
        outd[u] += 1
    if sorted(outd) != list(range(n)):
        return "tournament is not acyclic"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Sizes:
    """Size parameters of op ``i``: evenly spread over their ranges by a
    low-discrepancy sequence over the rounds of shapes, the same for every
    seed, so that runs of different seeds see the same mix of sizes and
    the seed only draws structure and weights."""

    def __init__(self, rnd: int, scale: float):
        self.rnd = rnd
        self.scale = scale
        self.k = 0

    def pick(self, lo: float, hi: float) -> float:
        self.k += 1
        u = (self.rnd * 0.6180339887498949 + self.k * 0.4142135623730951) % 1.0
        return lo + (hi - lo) * u

    def ipick(self, lo: int, hi: int) -> int:
        return int(self.pick(lo, hi + 1 - 1e-9))

    def n(self, lo: float, hi: float, low: int = 4) -> int:
        return max(low, int(round(self.pick(lo, hi) * self.scale)))


def _tree_size(size: Sizes, work: float):
    """(n, weight_max) with n * n * weight_max about ``work``, so that
    ops of one shape cost about the same whatever weight_max is."""
    wmax = size.ipick(20, 50)
    n = (work / wmax) ** 0.5
    return size.n(n, n), wmax


def _tree_ssg(rng, size):
    n, w = _tree_size(size, 1.75e6)
    ws, budget = _weights(rng, n, w)
    return solve_op("tree-ssg", Instance("ssg", budget, ws, tree_arcs(rng, n, "mixed")))


def _forest_ssg(rng, size):
    n, w = _tree_size(size, 1.95e6)
    ws, budget = _weights(rng, n, w)
    arcs = tree_arcs(rng, n, "mixed", parts=size.ipick(2, 5))
    return solve_op("forest-ssg", Instance("ssg", budget, ws, arcs))


def _out_tree_ssgw(rng, size):
    n, w = _tree_size(size, 1.4e6)
    ws, budget = _weights(rng, n, w)
    return solve_op("out-tree-ssgw", Instance("ssgw", budget, ws, tree_arcs(rng, n, "out")))


def _tree_maximal(rng, size):
    n, w = _tree_size(size, 1.9e5)
    ws, budget = _weights(rng, n, w)
    return solve_op("tree-maximal-ssg", Instance("maximal-ssg", budget, ws, tree_arcs(rng, n, "mixed")))


def _out_tree_maximal(rng, size):
    n, w = _tree_size(size, 3.7e5)
    ws, budget = _weights(rng, n, w)
    return solve_op("out-tree-maximal-ssg", Instance("maximal-ssg", budget, ws, tree_arcs(rng, n, "out")))


DEEP_DEPTH = 1500


def deep_path_ops(seed: int) -> list[Op]:
    """Paths of depth 1500: a directed path for ssg and for ssgw (it is
    out-rooted) and an oriented path for maximal-ssg."""
    rng = random.Random(f"deep/{seed}")
    ops = []
    for kind, orient in (("ssg", "out"), ("ssgw", "out"), ("maximal-ssg", "mixed")):
        ws, budget = _weights(rng, DEEP_DEPTH, 3)
        inst = Instance(kind, budget, ws, path_arcs(rng, DEEP_DEPTH, orient))
        ops.append(solve_op(f"deep-path-{kind}", inst))
    return ops


def _dag_ptas(kind):
    def build(rng, size):
        n = size.n(31, 31)
        ws, budget = _weights(rng, n, 10)
        inst = Instance(kind, budget, ws, dag_arcs(rng, n, 0.1))
        return solve_op(f"dag-{kind}", inst)

    return build


def _small(kind, graph, nodes, p, frac, algorithm=None):
    def build(rng, size):
        n = max(3, int(round(nodes * min(1.0, size.scale * 4))))
        ws, budget = _weights(rng, n, 10, frac)
        arcs = dag_arcs(rng, n, p) if graph == "dag" else digraph_arcs(rng, n, p)
        inst = Instance(kind, budget, ws, arcs)
        extra = ("--algorithm", algorithm) if algorithm else ()
        label = f"{graph}-{kind}" + (f"-{algorithm}" if algorithm else "")
        return solve_op(label, inst, *extra)

    return build


def _block_instance(rng, size, kind):
    n = size.n(2000, 3000, low=30)
    blocks = size.ipick(8, 12)
    arcs, comp = block_digraph(rng, n, blocks, min(size.ipick(4, 12), max(2, n // 8)))
    ws, budget = _weights(rng, n, 10)
    return Instance(kind, budget, ws, arcs, comp)


def _io_block_solve(kind):
    def build(rng, size):
        return solve_op(f"blocks-{kind}", _block_instance(rng, size, kind))

    return build


def _io_balanced_solve(rng, size):
    n = size.n(7000, 8000)
    ws, budget = _weights(rng, n, 10)
    return solve_op("balanced-ssg", Instance("ssg", budget, ws, balanced_arcs(rng, n)))


def _io_tournament_solve(rng, size):
    n = size.n(200, 210)
    ws, budget = _weights(rng, n, 10)
    return solve_op("tournament-ssg", Instance("ssg", budget, ws, tournament_arcs(rng, n)))


def _io_check(rng, size):
    inst = _block_instance(rng, size, "maximal-ssg")
    return check_op("check-blocks", inst, greedy_maximal(inst))


def _io_classify(rng, size):
    inst = _block_instance(rng, size, "ssg")
    return classify_op("classify-blocks", inst, "general")


def _io_generate_balanced(rng, size):
    n = size.n(11400, 12600)
    argv = ["generate", "random", "--graph-class", "balanced-degree-two",
            "--n", str(n), "--seed", str(rng.randrange(2**31)), "--out", "@gen.txt"]
    return Op("generate-balanced", argv, {}, "gen.txt", _check_generated("ssg", n, 2 * n, _degrees_two))


def _io_generate_tournament(rng, size):
    n = size.n(340, 360)
    argv = ["generate", "random", "--graph-class", "tournament", "--kind", "maximal-ssg",
            "--n", str(n), "--seed", str(rng.randrange(2**31)), "--out", "@gen.txt"]
    return Op("generate-tournament", argv, {}, "gen.txt",
              _check_generated("maximal-ssg", n, n * (n - 1) // 2, _acyclic_tournament))


def _io_generate_independent_set(rng, size):
    n = size.n(2800, 3200)
    edges = connected_edges(rng, n, 3 * n)
    text = "".join(f"edge u{a} u{b}\n" for a, b in edges)
    argv = ["generate", "independent-set", "--edges", "@edges.txt", "--out", "@gen.txt"]
    return Op("generate-independent-set", argv, {"edges.txt": text}, "gen.txt",
              _check_generated("ssgw", n + len(edges), 2 * len(edges)))


@dataclass
class Workload:
    name: str
    shapes: list[Callable[[random.Random, Sizes], Op]]
    traced_ops: int  # op pairs in the traced pass of a ``--trace 1`` run
    loads: tuple[str, ...]  # per-layer metrics that should take most op time
    probes: Optional[Callable[[int], list[Op]]] = None

    def op(self, seed: int, stream: str, i: int, scale: float) -> Op:
        rng = random.Random(f"{self.name}/{seed}/{stream}/{i}")
        size = Sizes(i // len(self.shapes), scale)
        return self.shapes[i % len(self.shapes)](rng, size)


def _alternate(name: str, a: Workload, b: Workload, traced_ops: int, loads) -> Workload:
    """Ops of ``a`` and ``b`` in turn, the shorter shape list cycled, so
    each part makes half the ops."""
    short, long_ = sorted((a.shapes, b.shapes), key=len)
    shapes = [s for pair in zip(itertools.cycle(short), long_) for s in pair]
    return Workload(name, shapes, traced_ops, loads, a.probes or b.probes)


TREE_DP = Workload(
    "tree-dp",
    [_tree_ssg, _forest_ssg, _out_tree_ssgw, _tree_maximal, _out_tree_maximal],
    40,
    ("_kernels.or_convolve_s", "_kernels.maxmin_convolve_s"),
    deep_path_ops,
)
PTAS_DAG = Workload(
    "ptas-dag",
    [_dag_ptas("ssg"), _dag_ptas("maximal-ssg")],
    40,
    ("approx.ptas_s", "graph.reach_s", "graph.predicate_s"),
)
BRUTE_SMALL = Workload(
    "brute-small",
    [
        _small("ssgw", "dag", 19, 0.15, 0.5),
        _small("maximal-ssgw", "dag", 15, 0.15, 0.4),
        _small("ssgw", "general", 19, 0.1, 0.5),
        _small("maximal-ssgw", "general", 15, 0.08, 0.4),
        _small("ssg", "general", 19, 0.1, 0.5, "brute"),
        _small("maximal-ssg", "dag", 18, 0.15, 0.5, "brute"),
    ],
    36,
    ("exact.brute_s", "_kernels.subsets_s", "constraints.completion_s"),
)
LARGE_IO = Workload(
    "large-io",
    [
        _io_block_solve("ssg"),
        _io_balanced_solve,
        _io_check,
        _io_block_solve("maximal-ssg"),
        _io_tournament_solve,
        _io_classify,
        _io_generate_balanced,
        _io_generate_tournament,
        _io_generate_independent_set,
    ],
    36,
    ("formats.parse_s", "formats.emit_s", "gadgets.generate_s", "graph.classify_s",
     "graph.condense_s", "cli.rejected_s", "constraints.evaluate_s"),
)

# Each single workload loads one layer; the two alternating pairs are the
# ones BENCHMARK.json runs, because on a machine whose speed drifts by tens
# of percent over tens of seconds, two long runs per workload are steadier
# than four short ones within the same time.
WORKLOADS = {
    w.name: w
    for w in (
        TREE_DP,
        PTAS_DAG,
        BRUTE_SMALL,
        LARGE_IO,
        _alternate("tree-and-brute", TREE_DP, BRUTE_SMALL, 36, TREE_DP.loads + BRUTE_SMALL.loads),
        # predicate_s is left out: on large-io it is spent inside rejected
        # solver attempts, which cli.rejected_s already counts.
        _alternate("ptas-and-io", PTAS_DAG, LARGE_IO, 36,
                   ("approx.ptas_s", "graph.reach_s") + LARGE_IO.loads),
    )
}
