import contextlib
import io
import random
import subprocess
import sys
import tracemalloc
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIG_B_ARCS, FIG_B_WEIGHTS, cli_env, deep_path_instance

from dss import (
    CliqueGadgetSpec,
    Digraph,
    GraphClass,
    MaximalGadgetSpec,
    ParseError,
    ProblemKind,
    Solution,
    SolutionFlags,
    WeightedInstance,
    cardinality_to_maximal,
    clique_to_ssg,
    emit_instance,
    emit_solution,
    parse_edge_list,
    parse_instance,
    parse_solution,
    random_instance,
    subset_sum_to_tree,
    write_instance,
)
from dss import formats
from dss.cli import ALGORITHMS, main
from dss.formats import CHUNK_LINES

FIG_B_TEXT = """\
# second worked tree, maximal minimization
problem maximal-ssg
budget 4
node v1 1
node v2 1
node v3 2
node v4 2
node v5 1
node v6 3
node v7 2
node v8 3
arc v8 v5
arc v5 v4
arc v5 v2
arc v8 v7
arc v7 v6
arc v7 v3
arc v7 v1
"""


class TestInstanceFormat:
    def test_parse_worked_tree(self):
        inst, labels = parse_instance(FIG_B_TEXT)
        assert labels == [f"v{i}" for i in range(1, 9)]
        assert inst.kind is ProblemKind.MAXIMAL_SSG
        assert inst.budget == 4
        assert inst.weights == FIG_B_WEIGHTS
        assert set(inst.graph.arcs) == set(FIG_B_ARCS)

    def test_round_trip(self):
        inst, labels = parse_instance(FIG_B_TEXT)
        text = emit_instance(inst, labels)
        inst2, labels2 = parse_instance(text)
        assert inst2 == inst and labels2 == labels

    def test_round_trip_random(self):
        for seed in range(10):
            rng = random.Random(seed)
            inst = random_instance(
                GraphClass.GENERAL, rng.randint(1, 9), seed=seed
            )
            labels = [f"n{i}" for i in range(inst.graph.n)]
            inst2, labels2 = parse_instance(emit_instance(inst, labels))
            assert inst2 == inst and labels2 == labels

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("budget 4\nnode a 1\n", "missing problem"),
            ("problem ssg\nnode a 1\n", "missing budget"),
            ("problem nope\nbudget 1\n", "line 1"),
            ("problem ssg\nbudget -1\n", "line 2"),
            ("problem ssg\nbudget 1\nnode a 1\nnode a 2\n", "duplicate node"),
            ("problem ssg\nbudget 1\nnode a 1\narc a b\n", "undeclared"),
            ("problem ssg\nbudget 1\nnode a 1\narc a a\n", "loop"),
            (
                "problem ssg\nbudget 1\nnode a 1\nnode b 1\narc a b\narc a b\n",
                "duplicate arc",
            ),
            ("problem ssg\nbudget 1\nfrobnicate\n", "unknown directive"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert fragment in str(exc.value)


    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "problem ssg\nbudget 1\nnode a 1\nnode b 1\narc a b\narc b a\n"
                "arc a b\narc b a\n",
                "line 7: duplicate arc a -> b",
            ),
            (
                "problem ssg\nbudget 1\nnode a 1\nnode b 1\narc a b\narc a b\n"
                "frobnicate\n",
                "line 6: duplicate arc a -> b",
            ),
            (
                "problem ssg\nbudget 1\nnode a 1\nnode b 1\narc a b\narc a b\n"
                "arc a c\n",
                "line 6: duplicate arc a -> b",
            ),
            (
                "budget 1\nnode a 1\nnode b 1\narc a b # x\n\narc a   b\n",
                "line 6: duplicate arc a -> b",
            ),
            (
                "problem ssg\nbudget 1\nnode a 1\nnode b 1\narc a b\nfrobnicate\n"
                "arc a b\n",
                "line 6: unknown directive 'frobnicate'",
            ),
            (
                "problem ssg\nbudget 9223372036854775808\nnode a 1\nnode b 1\n"
                "arc a b\narc b a\n",
                "budget out of 63-bit nonnegative range",
            ),
        ],
        ids=[
            "line-of-first-repeat", "before-unknown-directive", "before-undeclared",
            "before-missing-problem", "after-unknown-directive", "instance-error",
        ],
    )
    def test_error_messages_and_precedence(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    def test_comments_crlf_and_tabs(self):
        text = (
            "# header\r\nproblem\tmaximal-ssg # kind\r\nbudget 4#no space\r\n"
            "\tnode v1\t1\r\n" + "".join(
                f"node v{i} {w} # weight\r\n" for i, w in enumerate(FIG_B_WEIGHTS[1:], 2)
            )
            + "".join(f"arc\tv{u + 1}\tv{v + 1}\t# arc\r\n" for u, v in FIG_B_ARCS)
        )
        assert parse_instance(text) == parse_instance(FIG_B_TEXT)

    def test_round_trip_shuffled_tournament(self):
        inst = random_instance(GraphClass.TOURNAMENT, 200, seed=3)
        labels = [f"t{i}" for i in range(200)]
        lines = emit_instance(inst, labels).splitlines()
        head, arcs = lines[: 2 + 200], lines[2 + 200 :]
        random.Random(4).shuffle(arcs)
        inst2, labels2 = parse_instance("\n".join(head + arcs))
        assert len(inst2.graph.arcs) == 200 * 199 // 2
        assert inst2 == inst and labels2 == labels


class TestSolutionFormat:
    def test_round_trip(self):
        sol = Solution(frozenset({0, 2}), 3)
        labels = ["a", "b", "c"]
        flags = SolutionFlags(True, True, True, None)
        text = emit_solution(sol, labels, flags)
        selected, weight, parsed = parse_solution(text)
        assert selected == ["a", "c"]
        assert weight == 3
        assert parsed == flags

    def test_maximality_flag_round_trip(self):
        sol = Solution(frozenset(), 0)
        flags = SolutionFlags(False, True, True, False)
        selected, weight, parsed = parse_solution(emit_solution(sol, [], flags))
        assert parsed == flags

    def test_size_mismatch(self):
        with pytest.raises(ParseError):
            parse_solution("weight 1\nsize 2\nselect a\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("weight 3\nweight 1\n", "line 2: duplicate weight line"),
            ("weight 0\nsize 0\nsize 0\n", "line 3: duplicate size line"),
            (
                "weight 0\nfeasible true\nfeasible false\n",
                "line 3: duplicate feasible line",
            ),
            ("weight 0\nfeasible true clsoure=false\n", "line 2: unknown flag 'clsoure'"),
            (
                "weight 0\nfeasible true budget=true budget=false\n",
                "line 2: duplicate flag 'budget'",
            ),
            ("weight 0\nfeasible true closure=maybe\n", "line 2: bad flag value 'closure=maybe'"),
            ("weight 0\nfeasible true budget=na\n", "line 2: bad flag value 'budget=na'"),
            ("weight 0\nfeasible true maximality=yes\n", "line 2: bad flag value 'maximality=yes'"),
        ],
    )
    def test_rejects_repeats_and_bad_flags(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_solution(text)
        assert str(exc.value) == message

    def test_flag_defaults(self):
        _, _, flags = parse_solution("weight 0\nfeasible false\n")
        assert flags == SolutionFlags(False, True, True, None)
        _, _, flags = parse_solution("weight 0\nfeasible true maximality=na closure=false\n")
        assert flags == SolutionFlags(True, False, True, None)


class TestEdgeList:
    def test_parse(self):
        graph, labels = parse_edge_list("edge a b\nedge b c\n")
        assert labels == ["a", "b", "c"]
        assert graph.edges == ((0, 1), (1, 2))

    def test_rejects_loop_and_duplicate(self):
        with pytest.raises(ParseError, match="^line 1: self-loop edge$"):
            parse_edge_list("edge a a\n")
        with pytest.raises(ParseError, match="^duplicate edge$"):
            parse_edge_list("edge a b\nedge b a\n")


# Every line break ``str.splitlines`` knows, "\r\n" included.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Lines of each format, well formed or not, comments and blanks included.
WALK_LINES = {
    parse_instance: [
        "problem ssg", "problem maximal-ssgw", "budget 7", "budget x", "node a 1", "node b 2",
        "node c 0 # weight", "node a 3", "node d -1", "arc a b", "arc b a", "arc b c#tail",
        "arc a a", "arc a z", "arc a", "# comment", "", "  \t", "bogus 1",
    ],
    parse_solution: [
        "weight 3", "weight x", "size 2", "size 1", "select a", "select b # picked",
        "select", "feasible true", "feasible false closure=false maximality=na",
        "feasible true budget=maybe", "# comment", "", "bogus",
    ],
    parse_edge_list: [
        "edge a b", "edge b c", "edge c a # closes", "edge a a", "edge b a", "edge a", "# c", "",
    ],
}


def _walk_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestChunkedWalk:
    """The parsers walk the text in pieces, each cut just after a "\n".
    With the piece size patched down to a few characters, so that pieces
    end on every side of comments, errors and each line break, every
    parser gives what one ``splitlines()`` of the whole text gives: the
    same result, or the same error on the same line."""

    @given(
        st.sampled_from(list(WALK_LINES)).flatmap(
            lambda parse: st.tuples(
                st.just(parse),
                st.lists(st.tuples(st.sampled_from(WALK_LINES[parse]), st.sampled_from(LINE_BREAKS)),
                         max_size=30),
                st.booleans(),
            )
        ),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_one_splitlines(self, case, chunk):
        parse, lines, last_break = case
        text = "".join(line + brk for line, brk in lines)
        if lines and not last_break:
            text = text[: -len(lines[-1][1])]
        with mock.patch.object(formats, "_pieces", lambda text: iter([(1, text.splitlines())])):
            expected = _walk_outcome(parse, text)
        with mock.patch.object(formats, "PARSE_CHUNK", chunk):
            pieces = list(formats._pieces(text))
            assert _walk_outcome(parse, text) == expected
        numbered = [(i, line) for first, got in pieces for i, line in enumerate(got, first)]
        assert numbered == list(enumerate(text.splitlines(), 1))


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(FIG_B_TEXT)
    return str(path)


class TestCliSolve:
    def test_tree_dp_matches_brute(self, inst_file, tmp_path, capsys):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["solve", inst_file, "--algorithm", "tree-dp", "--out", str(out_a)]) == 0
        assert main(["solve", inst_file, "--algorithm", "brute", "--out", str(out_b)]) == 0
        _, wa, _ = parse_solution(out_a.read_text())
        _, wb, _ = parse_solution(out_b.read_text())
        assert wa == wb

    def test_star_tree_dp(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        path.write_text(
            "problem ssg\nbudget 8\nnode x0 3\nnode x1 5\nnode x2 7\nnode r 0\n"
            "arc x0 r\narc x1 r\narc x2 r\n"
        )
        assert main(["solve", str(path), "--algorithm", "tree-dp"]) == 0
        out = capsys.readouterr().out
        assert "weight 8" in out
        assert "feasible true" in out

    def test_non_tree_with_tree_dp_is_structure_error(self, tmp_path, capsys):
        path = tmp_path / "tourn.txt"
        path.write_text(
            "problem ssg\nbudget 2\nnode a 1\nnode b 1\nnode c 1\n"
            "arc a b\narc b c\narc a c\n"
        )
        assert main(["solve", str(path), "--algorithm", "tree-dp"]) == 2

    @pytest.mark.parametrize(
        "kind", [ProblemKind.SSG, ProblemKind.SSGW, ProblemKind.MAXIMAL_SSG]
    )
    def test_deep_path(self, kind, tmp_path, capsys):
        inst = deep_path_instance(kind, 1500, 40)
        path = tmp_path / "deep.txt"
        path.write_text(emit_instance(inst, [f"v{i}" for i in range(1500)]))
        assert main(["solve", str(path)]) == 0
        assert "feasible true" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("problem ssg\n")
        assert main(["solve", str(path)]) == 3

    def test_auto_on_tournament(self, tmp_path, capsys):
        path = tmp_path / "tourn.txt"
        path.write_text(
            "problem ssg\nbudget 2\nnode a 1\nnode b 1\nnode c 1\n"
            "arc a b\narc b c\narc a c\n"
        )
        assert main(["solve", str(path)]) == 0
        assert "weight 2" in capsys.readouterr().out


    # Past the tree DPs' budget cap of 10^6: a non-forest must still reach
    # the other solvers; a forest is refused with exit 2.
    TRIANGLE_ARCS = "arc a b\narc b c\narc a c\n"

    def test_auto_past_cap_tournament(self, tmp_path, capsys):
        path = tmp_path / "tourn.txt"
        path.write_text(
            "problem ssg\nbudget 2000000\nnode a 5\nnode b 7\nnode c 9\n" + self.TRIANGLE_ARCS
        )
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert main(["solve", str(path), "--algorithm", "tournament"]) == 0
        assert capsys.readouterr().out == out
        assert "weight 21" in out and "feasible true" in out

    def test_auto_past_cap_brute_force(self, tmp_path, capsys):
        # Weak closure: a alone forces b, then c; {b, c} is the best fit.
        path = tmp_path / "weak.txt"
        path.write_text(
            "problem ssgw\nbudget 2000000\nnode a 600000\nnode b 700000\nnode c 900000\n"
            + self.TRIANGLE_ARCS
        )
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert main(["solve", str(path), "--algorithm", "brute"]) == 0
        assert capsys.readouterr().out == out
        assert "weight 1600000" in out and "feasible true" in out

    @pytest.mark.parametrize("kind", ["ssg", "ssgw", "maximal-ssg"])
    def test_auto_past_cap_on_tree_exits_2(self, kind, tmp_path, capsys):
        # The cap is tested against min(B, total weight): here 1.2 * 10^6.
        # The total, 1.3 * 10^6, must pass B, or maximal-ssg takes every node.
        path = tmp_path / "path.txt"
        path.write_text(
            f"problem {kind}\nbudget 1200000\nnode a 600000\nnode b 700000\narc a b\n"
        )
        assert main(["solve", str(path)]) == 2
        assert "exceeds DP table cap 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["ssg", "ssgw", "maximal-ssg"])
    def test_big_budget_small_total_on_tree(self, kind, tmp_path, capsys):
        # B = 10^7 is past the cap, but the total weight is 6.
        path = tmp_path / "path.txt"
        path.write_text(
            f"problem {kind}\nbudget 10000000\nnode a 1\nnode b 2\nnode c 3\n"
            "arc a b\narc b c\n"
        )
        assert main(["solve", str(path), "--algorithm", "brute"]) == 0
        expected = capsys.readouterr().out
        for algorithm in ("auto", "tree-dp"):
            assert main(["solve", str(path), "--algorithm", algorithm]) == 0
            assert capsys.readouterr().out == expected

    def test_maximal_whole_tree_fits_past_cap(self, tmp_path, capsys):
        # Total 2 * 10^6 is past the cap but fits B, so both nodes are the answer.
        path = tmp_path / "path.txt"
        path.write_text(
            "problem maximal-ssg\nbudget 3000000\nnode a 1000000\nnode b 1000000\n"
            "arc a b\n"
        )
        assert main(["solve", str(path), "--algorithm", "brute"]) == 0
        expected = capsys.readouterr().out
        assert "weight 2000000" in expected and "feasible true" in expected
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == expected


class TestCliCheck:
    def test_empty_solution_feasible_for_ssg(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        sol = tmp_path / "s.txt"
        sol.write_text("weight 0\nsize 0\n")
        assert main(["check", str(inst), str(sol)]) == 0
        assert "feasible true" in capsys.readouterr().out

    def test_empty_solution_infeasible_for_maximal(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("problem maximal-ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        sol = tmp_path / "s.txt"
        sol.write_text("weight 0\nsize 0\n")
        assert main(["check", str(inst), str(sol)]) == 1
        out = capsys.readouterr().out
        assert "maximality violated witness=node b" in out

    def test_closure_witness(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        sol = tmp_path / "s.txt"
        sol.write_text("weight 1\nsize 1\nselect a\n")
        assert main(["check", str(inst), str(sol)]) == 1
        assert "closure violated witness=arc a -> b" in capsys.readouterr().out

    def test_repeated_weight_is_parse_error(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\n")
        sol = tmp_path / "s.txt"
        sol.write_text("weight 3\nweight 1\nsize 1\nselect a\n")
        assert main(["check", str(inst), str(sol)]) == 3
        assert "line 2: duplicate weight line" in capsys.readouterr().err

    def test_unknown_label_is_parse_error(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\n")
        sol = tmp_path / "s.txt"
        sol.write_text("weight 0\nsize 1\nselect z\n")
        assert main(["check", str(inst), str(sol)]) == 3


class TestCliClassify:
    def test_worked_tree(self, inst_file, capsys):
        assert main(["classify", inst_file]) == 0
        out = capsys.readouterr().out
        assert "class in-rooted-tree" in out
        assert "nodes 8" in out


class TestCliGenerate:
    def test_random_round_trips(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(
            ["generate", "random", "--graph-class", "dag", "--n", "7",
             "--seed", "5", "--out", str(out)]
        ) == 0
        inst, _ = parse_instance(out.read_text())
        assert inst.graph.n == 7

    def test_subset_sum(self, capsys):
        assert main(
            ["generate", "subset-sum", "--values", "3,5,7", "--budget", "8"]
        ) == 0
        inst, _ = parse_instance(capsys.readouterr().out)
        assert inst.graph.n == 4 and inst.budget == 8

    def test_clique_from_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("edge a b\nedge b c\nedge c d\nedge d a\n")
        assert main(
            ["generate", "clique", "--edges", str(edges), "--clique-size", "2"]
        ) == 0
        inst, _ = parse_instance(capsys.readouterr().out)
        assert inst.graph.n == 2 * 4 + 6 * 4

    def test_independent_set(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("edge a b\nedge b c\n")
        assert main(
            ["generate", "independent-set", "--edges", str(edges),
             "--kind", "maximal-ssgw"]
        ) == 0
        inst, _ = parse_instance(capsys.readouterr().out)
        assert inst.kind is ProblemKind.MAXIMAL_SSGW

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--weight-max", "-1"], "error: weight_max must be nonnegative\n"),
            (["--budget-fraction", "nan"], "error: budget fraction must be finite\n"),
            (["--budget-fraction", "inf"], "error: budget fraction must be finite\n"),
            (["--arc-prob", "2"], "error: arc_prob must lie in [0, 1]\n"),
            (["--arc-prob", "-1"], "error: arc_prob must lie in [0, 1]\n"),
            (["--arc-prob", "nan"], "error: arc_prob must lie in [0, 1]\n"),
        ],
    )
    def test_random_bad_numbers_exit_2(self, option, message, capsys):
        assert main(["generate", "random", "--n", "4", *option]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    def test_hard_maximal(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(
            "problem ssg\nbudget 4\nnode a 2\nnode b 2\nnode c 2\narc a b\n"
        )
        assert main(
            ["generate", "hard-maximal", "--instance", str(src), "--p", "2"]
        ) == 0
        out = capsys.readouterr().out
        inst, _ = parse_instance(out)
        assert inst.kind is ProblemKind.MAXIMAL_SSG
        assert "threshold" in out.splitlines()[0]


# Line counts at and around the chunk boundaries of ``write_instance``,
# four chunks in: ``BOUNDARY`` lines end a chunk, one more starts the next.
BOUNDARY = 4 * CHUNK_LINES
CHUNK_COUNTS = [0, 1, BOUNDARY - 1, BOUNDARY, BOUNDARY + 1, 2 * BOUNDARY + 1]


def _instance_with(n: int, m: int) -> tuple[WeightedInstance, list[str]]:
    """A seeded instance with ``n`` nodes and ``m`` arcs, labels and
    weights of mixed widths."""
    rng = random.Random(1000 * n + m)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v] if m else []
    weights = tuple(rng.randrange(10 ** rng.randrange(1, 7)) for _ in range(n))
    kind = rng.choice(list(ProblemKind))
    inst = WeightedInstance(Digraph(n, rng.sample(pairs, m)), weights, rng.randrange(100), kind)
    return inst, [f"{rng.choice('abxyz')}{i}" for i in range(n)]


class TestInstanceWrites:
    """Chunked instance writes give the bytes of the earlier list-and-join
    ``emit_instance``: through ``emit_instance``, ``write_instance`` and
    ``dss generate`` to a file or to stdout."""

    @pytest.mark.parametrize(
        "n, m", [(c, 0) for c in CHUNK_COUNTS] + [(130, c) for c in CHUNK_COUNTS]
    )
    def test_emit_matches_reference(self, n, m):
        inst, labels = _instance_with(n, m)
        text = emit_instance(inst, labels)
        assert text == oracles.emit_instance_reference(inst, labels)
        writes: list[str] = []
        write_instance(inst, labels, types.SimpleNamespace(write=writes.append))
        assert "".join(writes) == text
        assert all(0 < chunk.count("\n") <= CHUNK_LINES for chunk in writes)

    @staticmethod
    def generate(argv, tmp_path, capsys) -> str:
        """What ``dss generate argv`` writes to ``--out``, once checked
        equal to what it writes to stdout."""
        out = tmp_path / "gen.txt"
        assert main(["generate", *argv, "--out", str(out)]) == 0
        text = out.read_bytes().decode("utf-8")
        assert main(["generate", *argv]) == 0
        assert capsys.readouterr().out == text
        return text

    @pytest.mark.parametrize("n", [c for c in CHUNK_COUNTS if c > 0])
    def test_random_node_counts(self, n, tmp_path, capsys):
        # An oriented tree: n nodes, n - 1 arcs, built in linear time.
        argv = ["random", "--graph-class", "oriented-tree", "--n", str(n), "--seed", "3"]
        text = self.generate(argv, tmp_path, capsys)
        inst = random_instance(GraphClass.ORIENTED_TREE, n, seed=3)
        assert text == oracles.emit_instance_reference(inst, [f"v{i}" for i in range(n)])

    @pytest.mark.parametrize("m", CHUNK_COUNTS)
    def test_subset_sum_arc_counts(self, m, tmp_path, capsys):
        values = [(37 * i) % 1001 for i in range(m)]
        argv = ["subset-sum", "--values", ",".join(map(str, values)), "--budget", "50"]
        text = self.generate(argv, tmp_path, capsys)
        assert text == oracles.emit_instance_reference(*subset_sum_to_tree(values, 50))

    def test_independent_set_empty(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("")
        text = self.generate(["independent-set", "--edges", str(edges)], tmp_path, capsys)
        assert text == "problem ssgw\nbudget 0\n"

    def test_clique_with_header(self, tmp_path, capsys):
        # A 600-cycle: 4800 nodes and 7200 arcs, several chunks each.
        edges = tmp_path / "e.txt"
        edges.write_text("".join(f"edge a{i} a{(i + 1) % 600}\n" for i in range(600)))
        argv = ["clique", "--edges", str(edges), "--clique-size", "2"]
        text = self.generate(argv, tmp_path, capsys)
        graph, _ = parse_edge_list(edges.read_text())
        inst, labels = clique_to_ssg(CliqueGadgetSpec(graph, 2))
        assert len(labels) > CHUNK_LINES and len(inst.graph.arcs) > CHUNK_LINES
        assert text == (
            "# clique reduction: hit the budget exactly iff a clique of size 2 exists\n"
            + oracles.emit_instance_reference(inst, labels)
        )

    def test_hard_maximal_with_header(self, tmp_path, capsys):
        n = CHUNK_LINES + 1
        src = tmp_path / "src.txt"
        src.write_text(
            f"problem ssg\nbudget {3 * n}\n"
            + "".join(f"node s{i} {1 + i % 5}\n" for i in range(n))
            + "".join(f"arc s{i} s{i + 1}\n" for i in range(n - 1))
        )
        text = self.generate(["hard-maximal", "--instance", str(src), "--p", "3"], tmp_path, capsys)
        source, _ = parse_instance(src.read_text())
        spec = MaximalGadgetSpec(source.graph, source.weights, 3, source.budget)
        inst, labels, threshold = cardinality_to_maximal(spec)
        assert text == (
            f"# cardinality reduction: decision threshold q = {threshold}\n"
            + oracles.emit_instance_reference(inst, labels)
        )

    def test_write_adds_under_one_megabyte(self, tmp_path):
        """Writing a 350-node tournament (61,075 arcs) to a file holds the
        instance and one chunk: 0.13 MB over the instance, where joining
        the whole text, as ``emit_instance`` does, adds 5.9 MB."""
        inst = random_instance(GraphClass.TOURNAMENT, 350, seed=0, kind=ProblemKind.MAXIMAL_SSG)
        labels = [f"v{i}" for i in range(350)]
        with open(tmp_path / "t.txt", "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                write_instance(inst, labels, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(inst.graph.arcs) == 61075
        assert peak < 1e6


class TestCliBench:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--classes", "dag", "--sizes", "6", "--seeds", "0,1",
             "--kinds", "ssg", "--k-list", "0,1", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance-id,class,n,kind,algorithm,k")
        # 2 seeds x 2 k values + 2 summary rows.
        assert len(lines) == 1 + 4 + 2
        assert any(line.startswith("summary-ptas-k0") for line in lines)

    def test_rejects_weak_kind(self):
        assert main(["bench", "--kinds", "ssgw"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--classes", "dag, tournament", "--kinds", "ssg"],
            ["--classes", "dag", "--kinds", "ssg, maximal-ssg"],
        ],
    )
    def test_list_items_may_have_spaces(self, argv, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--sizes", "4", "--seeds", "0", "--k-list", "0", *argv, "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        # Two classes or two kinds, one row each, plus one summary row.
        assert len(lines) == 1 + 2 + 1

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--k-list=-1"], 2, "error: k must be nonnegative\n"),
            (["--classes", "foo"], 3, "error: bad classes list 'foo'\n"),
            (["--kinds", "foo"], 3, "error: bad kinds list 'foo'\n"),
            (["--sizes", "x"], 3, "error: bad sizes list 'x'\n"),
            (["--seeds", "0,y"], 3, "error: bad seeds list '0,y'\n"),
            (["--k-list", "1,z"], 3, "error: bad k list '1,z'\n"),
        ],
    )
    def test_bad_lists_are_one_line_errors(self, argv, code, message, capsys):
        assert main(["bench", "--sizes", "3", *argv]) == code
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


# argv tokens for ``bench`` and ``generate random``, valid and not, at tiny sizes
_CLASSES = [c.value for c in GraphClass] + ["foo", ""]
_KINDS = [k.value for k in ProblemKind] + ["foo"]
_BENCH_VALUES = {
    "--classes": st.lists(st.sampled_from(_CLASSES), max_size=2).map(",".join),
    "--sizes": st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "4", "x"]), max_size=2).map(",".join),
    "--seeds": st.lists(st.sampled_from(["-1", "0", "5", "y"]), max_size=2).map(",".join),
    "--kinds": st.lists(st.sampled_from(_KINDS), max_size=2).map(",".join),
    "--k-list": st.lists(st.sampled_from(["-1", "0", "1", "3", "z"]), max_size=2).map(",".join),
}
_NUMBERS = ["-1", "0", "0.5", "2", "nan", "inf", "x", str(2**70)]
_RANDOM_VALUES = {
    "--graph-class": st.sampled_from(_CLASSES),
    "--n": st.sampled_from(["-1", "0", "1", "2", "3", "5", "x"]),
    "--seed": st.sampled_from(["-3", "0", "7", str(2**70), "x"]),
    "--weight-max": st.sampled_from(["-5", "-1", "0", "1", "10", str(2**70), "x"]),
    "--kind": st.sampled_from(_KINDS),
    "--arc-prob": st.sampled_from(_NUMBERS),
    "--budget": st.sampled_from(["-1", "0", "5", str(2**70), "x"]),
    "--budget-fraction": st.sampled_from(_NUMBERS),
}


@st.composite
def _options(draw, values):
    argv = []
    for name in draw(st.lists(st.sampled_from(sorted(values)), unique=True)):
        argv.append(f"{name}={draw(values[name])}")
    return argv


class TestCliArgumentFuzz:
    """Whatever the tokens, ``bench`` and ``generate random`` end in exit
    0-3 (argparse's own exits included), never in another exception."""

    @staticmethod
    def _exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @settings(max_examples=150, deadline=None)
    @given(_options(_BENCH_VALUES))
    def test_bench(self, options):
        # Small defaults, so that an option left out keeps the run tiny.
        argv = ["bench", "--sizes=3", "--seeds=0", "--k-list=1", *options]
        assert self._exit_code(argv) in (0, 1, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(_options(_RANDOM_VALUES))
    def test_generate_random(self, options):
        assert self._exit_code(["generate", "random", "--n=3", *options]) in (0, 1, 2, 3)


@st.composite
def _instance_texts(draw):
    """Instance files the parser accepts: 0-8 nodes, any kind, weights
    0-5, arcs drawn at random (cycles allowed), as a random tournament, or
    as the circulant i -> i+1, i+2 (every in- and out-degree 2)."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    shape = draw(st.sampled_from(["arcs", "tournament", "circulant"]))
    if shape == "tournament":
        arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in pairs if u < v]
    elif shape == "circulant" and n >= 3:
        arcs = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
    else:
        arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    budget = draw(st.integers(0, sum(weights) + 2))
    kind = draw(st.sampled_from(list(ProblemKind)))
    inst = WeightedInstance(Digraph(n, arcs), tuple(weights), budget, kind)
    return emit_instance(inst, [f"v{i}" for i in range(n)])


class TestCliSolveFuzz:
    """Every ``--algorithm`` on small parser-accepted instances exits 0
    with a feasible answer or 2 with a message; the exact rows weigh what
    brute force weighs."""

    EXACT = ("brute", "tree-dp", "tournament")

    @settings(max_examples=120, deadline=None)
    @given(_instance_texts())
    def test_every_row(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "i.txt"
        path.write_text(text)
        weights = {}
        for algorithm in ALGORITHMS:
            for k in range(3):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["solve", str(path), "--algorithm", algorithm, "--k", str(k)])
                assert code in (0, 2), err.getvalue()
                if code == 0:
                    assert out.getvalue().splitlines()[-1].startswith("feasible true ")
                    if algorithm in self.EXACT:
                        weights[algorithm] = parse_solution(out.getvalue())[1]
                else:
                    assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        assert "brute" in weights
        assert set(weights.values()) == {weights["brute"]}


class TestConsoleScript:
    def test_entry_point(self, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dss.cli", "solve", str(inst)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "weight 3" in proc.stdout

    def test_reader_closing_early(self):
        """A reader that stops after one line ends ``generate`` with exit 0
        and nothing on stderr; the rest of the text (about 1 MB, past any
        pipe buffer) is dropped."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "dss.cli", "generate", "random",
             "--graph-class", "tournament", "--n", "400"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert first == b"problem ssg\n" and err == b""

    @staticmethod
    def _closed_reader(*args):
        """Exit code and stderr of ``dss args`` whose stdout reader closes
        before the command writes, as ``| head -c0`` does: the pipe's read
        end is closed while the interpreter is still starting."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "dss.cli", *map(str, args)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def test_classify_reader_closing_early(self, tmp_path):
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        assert self._closed_reader("classify", inst) == (0, b"")

    @pytest.mark.parametrize("selected, code", [("b", 0), ("a", 1)])
    def test_check_reader_closing_early(self, tmp_path, selected, code):
        """``check`` keeps exit 1 for an infeasible solution ({a} misses
        the arc a -> b) and exit 0 for a feasible one."""
        inst = tmp_path / "i.txt"
        inst.write_text("problem ssg\nbudget 3\nnode a 1\nnode b 2\narc a b\n")
        sol = tmp_path / "s.txt"
        weight = {"a": 1, "b": 2}[selected]
        sol.write_text(f"weight {weight}\nselect {selected}\n")
        assert self._closed_reader("check", inst, sol) == (code, b"")
