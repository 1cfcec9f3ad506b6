"""Subset-sum solvers under digraph closure constraints.

Selecting a node under the strong rule forces all of its out-neighbours;
under the weak rule a node is forced once all of its in-neighbours are
selected.  Four problems are covered: budgeted weight maximization under
either rule, and minimum-weight maximal (non-extendable) solutions under
either rule.
"""
from ._kernels import BACKEND
from .graph import (
    Condensation,
    Digraph,
    GraphClass,
    GraphError,
    classify,
    condense,
    is_dag,
)
from .instance import (
    InstanceError,
    ProblemKind,
    Solution,
    WeightedInstance,
)
from .constraints import (
    FeasibilityReport,
    check_digraph_closure,
    check_weak_closure,
    evaluate,
    weak_closure_completion,
)
from .exact import (
    CapExceeded,
    SolverError,
    brute_force,
    solve_maximal_ssg_tree,
    solve_ssg_tree,
    solve_ssgw_rooted_tree,
    solve_tournament,
)
from .approx import ApproxResult, ptas_maximal_ssg, ptas_ssg
from .gadgets import (
    CliqueGadgetSpec,
    ISGadgetSpec,
    MaximalGadgetSpec,
    UndirectedGraph,
    cardinality_to_maximal,
    clique_to_ssg,
    graph_to_ssgw,
    random_instance,
    subset_sum_to_tree,
)
from .formats import (
    ParseError,
    SolutionFlags,
    emit_instance,
    emit_solution,
    parse_edge_list,
    parse_instance,
    parse_solution,
    write_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Condensation",
    "Digraph",
    "GraphClass",
    "GraphError",
    "classify",
    "condense",
    "is_dag",
    "InstanceError",
    "ProblemKind",
    "Solution",
    "WeightedInstance",
    "FeasibilityReport",
    "check_digraph_closure",
    "check_weak_closure",
    "evaluate",
    "weak_closure_completion",
    "CapExceeded",
    "SolverError",
    "brute_force",
    "solve_maximal_ssg_tree",
    "solve_ssg_tree",
    "solve_ssgw_rooted_tree",
    "solve_tournament",
    "ApproxResult",
    "ptas_maximal_ssg",
    "ptas_ssg",
    "CliqueGadgetSpec",
    "ISGadgetSpec",
    "MaximalGadgetSpec",
    "UndirectedGraph",
    "cardinality_to_maximal",
    "clique_to_ssg",
    "graph_to_ssgw",
    "random_instance",
    "subset_sum_to_tree",
    "ParseError",
    "SolutionFlags",
    "emit_instance",
    "emit_solution",
    "parse_edge_list",
    "parse_instance",
    "parse_solution",
    "write_instance",
    "__version__",
]
