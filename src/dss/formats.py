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
returns the same text as a string.  The parsers take a string or an
open text file and walk it in pieces of about ``PARSE_CHUNK``
characters, read from the file as the walk goes, so they hold one
piece's lines at a time: neither a list of every line nor, for a file,
its whole text.  A file that cannot seek is the exception: an instance
error may need a second walk to find an earlier repeated arc, so
``parse_instance`` reads such a file whole.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .graph import Digraph, GraphError
from .instance import InstanceError, ProblemKind, Solution, WeightedInstance
from .gadgets import UndirectedGraph


class ParseError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


# Characters of text per piece of the parsers' line walk.
PARSE_CHUNK = 1 << 14

# The characters at which ``str.splitlines`` ends a line ("\r\n" is one break).
_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _pieces(source: str | TextIO):
    """``(first line number, lines)`` per piece of ``source``, a string or
    a text file open at its start; together the lines of its whole text's
    ``splitlines()``.  The text is taken ``PARSE_CHUNK`` characters at a
    time, by ``read`` from a file or by slicing a string, and each piece
    holds the lines that one such chunk completes.  A line that runs past
    a cut is carried into the next piece, after any break ``splitlines``
    honours; a "\n" that opens a chunk after one that ended in "\r" is
    the rest of a "\r\n" break, not a line.  Only one piece's lines are
    held at a time."""
    if isinstance(source, str):
        chunks = (source[i:i + PARSE_CHUNK] for i in range(0, len(source), PARSE_CHUNK))
    else:
        chunks = iter(lambda: source.read(PARSE_CHUNK), "")
    lineno, head, after_cr = 1, [], False
    for chunk in chunks:
        if after_cr and chunk[0] == "\n":
            chunk = chunk[1:]
        after_cr = chunk[-1:] == "\r"
        if not chunk:
            continue
        lines = chunk.splitlines()
        # The chunk's last line runs on into the next unless a break ends it.
        tail = [] if chunk[-1] in _BREAKS else [lines.pop()]
        if not lines:  # no break in the chunk: the carried line grows
            head += tail
            continue
        if head:
            lines[0] = "".join(head) + lines[0]
        head = tail
        yield lineno, lines
        lineno += len(lines)
    if head:
        yield lineno, ["".join(head)]


def _lines(source: str | TextIO):
    for first, lines in _pieces(source):
        for i, raw in enumerate(lines, first):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            parts = raw.split()
            if parts:
                yield i, parts


def parse_instance(source: str | TextIO) -> tuple[WeightedInstance, list[str]]:
    """The instance in ``source``, a string or a text file open at its
    start, and its node labels in id order.  A file that cannot seek (a
    pipe) is read whole, since an error may need a second walk."""
    if not isinstance(source, str) and not source.seekable():
        source = source.read()
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
        for first, lines in _pieces(source):
            for lineno, raw in enumerate(lines, first):
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
        # Each id list gives way to its array before the next is built, so
        # no list is held beside its copy and the sort's temporaries.
        tails = np.array(tails, dtype=np.int64)
        heads = np.array(heads, dtype=np.int64)
        graph = Digraph.from_ids(len(labels), tails, heads)
        inst = WeightedInstance(graph, tuple(weights), budget, kind)
    except (ParseError, GraphError, InstanceError) as exc:
        # Arcs are checked for repeats only when the graph is built, but a
        # repeat must still be reported before any later error.
        stop = exc.lineno if isinstance(exc, ParseError) else None
        duplicate = _duplicate_arc(source, stop)
        if duplicate is not None:
            raise duplicate from None
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc))
    return inst, labels


def _duplicate_arc(source: str | TextIO, stop: Optional[int]) -> Optional[ParseError]:
    """The error for the first arc line before line ``stop`` (anywhere if
    None) that repeats an earlier arc line, or None; a file is walked again
    from its start.  Every arc line before the line of the error being
    reported is well formed."""
    if not isinstance(source, str):
        source.seek(0)
    seen: set[tuple[str, str]] = set()
    for lineno, parts in _lines(source):
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
CHUNK_LINES = 1024


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


def parse_solution(source: str | TextIO) -> tuple[list[str], int, Optional[SolutionFlags]]:
    """Returns (selected labels, declared weight, flags if present) of
    ``source``, a string or a text file open at its start."""
    weight: Optional[int] = None
    size: Optional[int] = None
    selected: list[str] = []
    flags: Optional[SolutionFlags] = None
    seen: set[str] = set()
    for lineno, parts in _lines(source):
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


def parse_edge_list(source: str | TextIO) -> tuple[UndirectedGraph, list[str]]:
    """The undirected edge list in ``source``, a string or a text file open
    at its start; node ids by first appearance."""
    labels: list[str] = []
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    for lineno, parts in _lines(source):
        if parts[0] != "edge" or len(parts) != 3:
            raise ParseError("expected: edge <u> <v>", lineno)
        for label, ids in zip(parts[1:], (us, vs)):
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            ids.append(index[label])
        if us[-1] == vs[-1]:
            raise ParseError("self-loop edge", lineno)
    try:
        graph = UndirectedGraph.from_ids(len(labels), us, vs)
    except GraphError:
        # Ids are in range and loops were refused above: only a repeat is left.
        raise ParseError("duplicate edge") from None
    return graph, labels
