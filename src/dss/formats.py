"""Line-oriented text formats for instances, solutions and edge lists.

Instance files::

    # comment
    problem ssg            (one of ssg, ssgw, maximal-ssg, maximal-ssgw)
    budget 8
    node <label> <weight>  (one per node; labels unique)
    arc <src> <dst>        (labels must be declared; no loops/duplicates)

Solution files::

    weight 8
    size 2
    select <label>         (sorted by label)
    feasible true closure=true budget=true maximality=na

A solution names ``weight``, ``size`` and ``feasible`` at most once each.
The flags of the ``feasible`` line are optional, each at most once:
``closure`` and ``budget`` take true/false (default true), ``maximality``
takes true/false/na (default na).

Edge-list files for undirected gadget sources::

    edge <u> <v>

Node ids are assigned in declaration order (first appearance for edge
lists); labels live only at this boundary.

``write_instance`` writes an instance file to an open text handle,
``CHUNK_LINES`` lines per ``write``, so that writing it holds the
instance and one chunk of text, not the whole file; ``emit_instance``
returns the same text as a string.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, TextIO

from .graph import Digraph, GraphError
from .instance import InstanceError, ProblemKind, Solution, WeightedInstance
from .gadgets import UndirectedGraph


class ParseError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if parts:
            yield i, parts


def parse_instance(text: str) -> tuple[WeightedInstance, list[str]]:
    kind: Optional[ProblemKind] = None
    budget: Optional[int] = None
    labels: list[str] = []
    index: dict[str, int] = {}
    weights: list[int] = []
    tails: list[int] = []
    heads: list[int] = []
    try:
        # ``_lines`` inlined: on large files the generator alone costs about
        # a quarter of this loop.  Arc lines, the most common, come first.
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            parts = raw.split()
            if not parts:
                continue
            key = parts[0]
            if key == "arc":
                if len(parts) != 3:
                    raise ParseError("expected: arc <src> <dst>", lineno)
                try:
                    u, v = index[parts[1]], index[parts[2]]
                except KeyError as exc:
                    raise ParseError(f"undeclared node label {exc.args[0]!r}", lineno)
                if u == v:
                    raise ParseError(f"loop arc at {parts[1]!r}", lineno)
                tails.append(u)
                heads.append(v)
            elif key == "node":
                if len(parts) != 3:
                    raise ParseError("expected: node <label> <weight>", lineno)
                label = parts[1]
                if label in index:
                    raise ParseError(f"duplicate node label {label!r}", lineno)
                index[label] = len(labels)
                labels.append(label)
                weights.append(_nonneg_int(parts[2], lineno))
            elif key == "problem":
                if len(parts) != 2:
                    raise ParseError("expected: problem <kind>", lineno)
                if kind is not None:
                    raise ParseError("duplicate problem line", lineno)
                try:
                    kind = ProblemKind(parts[1])
                except ValueError:
                    raise ParseError(f"unknown problem kind {parts[1]!r}", lineno)
            elif key == "budget":
                if len(parts) != 2:
                    raise ParseError("expected: budget <int>", lineno)
                if budget is not None:
                    raise ParseError("duplicate budget line", lineno)
                budget = _nonneg_int(parts[1], lineno)
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
        if kind is None:
            raise ParseError("missing problem line")
        if budget is None:
            raise ParseError("missing budget line")
        graph = Digraph.from_ids(len(labels), tails, heads)
        inst = WeightedInstance(graph, tuple(weights), budget, kind)
    except (ParseError, GraphError, InstanceError) as exc:
        # Arcs are checked for repeats only when the graph is built, but a
        # repeat must still be reported before any later error.
        stop = exc.lineno if isinstance(exc, ParseError) else None
        duplicate = _duplicate_arc(text, stop)
        if duplicate is not None:
            raise duplicate from None
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc))
    return inst, labels


def _duplicate_arc(text: str, stop: Optional[int]) -> Optional[ParseError]:
    """The error for the first arc line before line ``stop`` (anywhere if
    None) that repeats an earlier arc line, or None.  Every arc line
    before the line of the error being reported is well formed."""
    seen: set[tuple[str, str]] = set()
    for lineno, parts in _lines(text):
        if stop is not None and lineno >= stop:
            break
        if parts[0] == "arc":
            if (parts[1], parts[2]) in seen:
                return ParseError(f"duplicate arc {parts[1]} -> {parts[2]}", lineno)
            seen.add((parts[1], parts[2]))
    return None


def _nonneg_int(token: str, lineno: int) -> int:
    try:
        value = int(token, 10)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}", lineno)
    if value < 0:
        raise ParseError(f"negative value not allowed: {token}", lineno)
    return value


# Lines of instance text per ``write`` call of ``write_instance``.
CHUNK_LINES = 4096


def write_instance(inst: WeightedInstance, labels: list[str], fh: TextIO) -> None:
    """Write the instance file of ``inst`` to the open text handle ``fh``,
    at most ``CHUNK_LINES`` lines per ``fh.write``."""
    fh.write(f"problem {inst.kind.value}\nbudget {inst.budget}\n")
    weights, g = inst.weights, inst.graph
    for i in range(0, len(weights), CHUNK_LINES):
        nodes = zip(labels[i:i + CHUNK_LINES], weights[i:i + CHUNK_LINES])
        fh.write("".join([f"node {label} {w}\n" for label, w in nodes]))
    for i in range(0, g.m, CHUNK_LINES):
        chunk = zip(g.tail[i:i + CHUNK_LINES].tolist(), g.head[i:i + CHUNK_LINES].tolist())
        fh.write("".join([f"arc {labels[u]} {labels[v]}\n" for u, v in chunk]))


def emit_instance(inst: WeightedInstance, labels: list[str]) -> str:
    buf = io.StringIO()
    write_instance(inst, labels, buf)
    return buf.getvalue()


@dataclass(frozen=True)
class SolutionFlags:
    feasible: bool
    closure: bool
    budget: bool
    maximality: Optional[bool]  # None = not applicable


def emit_solution(sol: Solution, labels: list[str], flags: SolutionFlags) -> str:
    out = [f"weight {sol.weight}", f"size {len(sol.selected)}"]
    for label in sorted(labels[v] for v in sol.selected):
        out.append(f"select {label}")
    maxi = "na" if flags.maximality is None else str(flags.maximality).lower()
    out.append(
        f"feasible {str(flags.feasible).lower()}"
        f" closure={str(flags.closure).lower()}"
        f" budget={str(flags.budget).lower()}"
        f" maximality={maxi}"
    )
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> tuple[list[str], int, Optional[SolutionFlags]]:
    """Returns (selected labels, declared weight, flags if present)."""
    weight: Optional[int] = None
    size: Optional[int] = None
    selected: list[str] = []
    flags: Optional[SolutionFlags] = None
    seen: set[str] = set()
    for lineno, parts in _lines(text):
        key = parts[0]
        if key in seen:
            raise ParseError(f"duplicate {key} line", lineno)
        if key != "select":
            seen.add(key)
        if key == "weight":
            weight = _nonneg_int(parts[1], lineno) if len(parts) == 2 else None
            if weight is None:
                raise ParseError("expected: weight <int>", lineno)
        elif key == "size":
            size = _nonneg_int(parts[1], lineno) if len(parts) == 2 else None
            if size is None:
                raise ParseError("expected: size <int>", lineno)
        elif key == "select":
            if len(parts) != 2:
                raise ParseError("expected: select <label>", lineno)
            selected.append(parts[1])
        elif key == "feasible":
            flags = _parse_flags(parts, lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if weight is None:
        raise ParseError("missing weight line")
    if size is not None and size != len(selected):
        raise ParseError(f"size {size} does not match {len(selected)} select lines")
    if len(set(selected)) != len(selected):
        raise ParseError("duplicate select label")
    return selected, weight, flags


# The values each key of a ``feasible`` line may take.
_FLAG_VALUES = {
    "closure": ("true", "false"),
    "budget": ("true", "false"),
    "maximality": ("true", "false", "na"),
}


def _parse_flags(parts: list[str], lineno: int) -> SolutionFlags:
    if len(parts) < 2 or parts[1] not in ("true", "false"):
        raise ParseError("expected: feasible <true|false> ...", lineno)
    kv = {}
    for token in parts[2:]:
        if "=" not in token:
            raise ParseError(f"bad flag token {token!r}", lineno)
        k, v = token.split("=", 1)
        if k not in _FLAG_VALUES:
            raise ParseError(f"unknown flag {k!r}", lineno)
        if k in kv:
            raise ParseError(f"duplicate flag {k!r}", lineno)
        if v not in _FLAG_VALUES[k]:
            raise ParseError(f"bad flag value {token!r}", lineno)
        kv[k] = v
    maximality = kv.get("maximality", "na")
    return SolutionFlags(
        feasible=parts[1] == "true",
        closure=kv.get("closure", "true") == "true",
        budget=kv.get("budget", "true") == "true",
        maximality=None if maximality == "na" else maximality == "true",
    )


def parse_edge_list(text: str) -> tuple[UndirectedGraph, list[str]]:
    """Undirected edge list; node ids by first appearance."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, parts in _lines(text):
        if parts[0] != "edge" or len(parts) != 3:
            raise ParseError("expected: edge <u> <v>", lineno)
        ids = []
        for label in parts[1:]:
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            ids.append(index[label])
        u, v = ids
        if u == v:
            raise ParseError("self-loop edge", lineno)
        edges.append((u, v))
    try:
        graph = UndirectedGraph(len(labels), tuple(edges))
    except InstanceError:
        # Ids are in range and loops were refused above: only a repeat is left.
        raise ParseError("duplicate edge") from None
    return graph, labels
