"""Detect, construct, and certify majority illusions on 2-colored graphs.

An agent in an opinion network is under a *majority illusion* when the
majority opinion among its neighbors differs from the network-wide
majority.  This package provides the graph and coloring primitives, the
per-agent and network-level classification, constructive coloring
algorithms, closed-form feasibility verdicts for regular graphs, a
constructive builder for regular witnesses, a brute-force oracle, and a
model checker for a global majority logic.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .analysis import (
    AgentStatus,
    Chromaticity,
    IllusionKind,
    Level,
    NetworkIllusionReport,
    PqReport,
    StatusColumns,
    Threshold,
    agent_status,
    agent_statuses,
    classify_network,
    pq_report,
    q_illusion,
    status_columns,
    weak_q_illusion,
)
from .coloring import (
    Color,
    ColoredGraph,
    Coloring,
    Winner,
    all_red,
    coloring_from_string,
    coloring_to_string,
    odd_degree_swap_upgrade,
    illusion_coloring,
    is_weak_majority_coloring,
    majority_winner,
    monochromatic_count,
    proper_2_coloring,
    random_coloring,
    strict_illusion_from_proper,
    weak_majority_2_coloring,
    weak_majority_2_coloring_swaps,
)
from .construct import (
    ConstructionPlan,
    ConstructionReport,
    construct_regular_illusion,
    construct_regular_illusion_report,
    construction_plan,
    fast_construct,
    fast_construct_report,
)
from .errors import (
    FormatError,
    FormulaSyntaxError,
    GraphError,
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
)
from .feasibility import (
    CompletePqVerdict,
    CompleteWeakClass,
    CycleVerdict,
    RegularVerdict,
    Strictness,
    complete_majority_weak_classification,
    complete_pq_feasible,
    cycle_feasible,
    odd_degree_q_bound,
    regular_exists,
    regular_necessary,
)
from .fileformat import (
    parse_colored_graph,
    parse_graph,
    parse_graph_text,
    write_colored_graph,
    write_graph,
)
from .graphs import Graph, circulant_graph, complete_graph, cycle_graph, make_graph
from .logic import (
    Formula,
    Model,
    UnknownAtomWarning,
    extension,
    format_formula,
    formula_possible,
    illusion_formula,
    model_check,
    model_from_colored_graph,
    parse_formula,
)
from .oracle import (
    Objective,
    best_coloring,
    enumerate_regular,
    illusion_possible,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
