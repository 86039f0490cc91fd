"""N-1 security toolkit for medium-voltage grid graphs.

Three routes to the same question -- can the grid survive any single cable
failure within k switchovers? -- live side by side:

* :mod:`gridsec.classical`: exhaustive fundamental-cycle enumeration with
  load-flow validation (:mod:`gridsec.loadflow`);
* :mod:`gridsec.n1qubo` + :mod:`gridsec.anneal`: a binary-quadratic
  formulation sampled with simulated annealing;
* :mod:`gridsec.grover`: a desk-scale amplitude-amplification search with
  query accounting against the classical baseline.
"""

from .network import (
    Configuration,
    Edge,
    Network,
    NetworkError,
    Node,
    NotSpanningTreeError,
    ParseError,
    Switchover,
    ValidationError,
    apply_switchover,
    fundamental_cycles,
    is_spanning_tree,
    load_network,
    parse_network,
    serialize_network,
)
from .loadflow import (
    ComplianceReport,
    check_compliance,
    problem_edges,
    solve_tree,
)
from .classical import N1Report, check_n1, enumerate_reconfigurations
from .qubo import Qubo, brute_force_minimize
from .n1qubo import (
    PenaltyWeights,
    build_loadflow_qubo,
    build_n1_qubo,
    build_tree_qubo,
    decode_solution,
)
from .anneal import AnnealSchedule, SampleSet, simulated_annealing, steepest_descent
from .grover import (
    Oracle,
    SearchSpace,
    grover_search,
    index_reconfigurations,
    make_oracle,
    optimal_iterations,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "ComplianceReport",
    "Configuration",
    "Edge",
    "N1Report",
    "Network",
    "NetworkError",
    "Node",
    "NotSpanningTreeError",
    "Oracle",
    "ParseError",
    "PenaltyWeights",
    "Qubo",
    "SampleSet",
    "SearchSpace",
    "Switchover",
    "ValidationError",
    "apply_switchover",
    "brute_force_minimize",
    "build_loadflow_qubo",
    "build_n1_qubo",
    "build_tree_qubo",
    "check_compliance",
    "check_n1",
    "decode_solution",
    "enumerate_reconfigurations",
    "fundamental_cycles",
    "grover_search",
    "index_reconfigurations",
    "is_spanning_tree",
    "load_network",
    "make_oracle",
    "optimal_iterations",
    "parse_network",
    "problem_edges",
    "serialize_network",
    "simulated_annealing",
    "solve_tree",
    "steepest_descent",
    "success_probability",
]
