"""Exact Cops-and-Robbers machinery on small graphs: graph core and
graph6 I/O, backward-induction game solving (standard and teleporting
variants), constructive sqrt(2n) cop strategies, and s-trap analysis via
exact hypergraph transversals."""

from .errors import (
    CopwinError,
    Graph6Error,
    StateBudgetError,
    UnsupportedParameterError,
)
from .graphs import (
    Graph,
    core,
    diameter,
    girth,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_dismantlable,
)
from .graph6 import emit_graph6, parse_graph6, read_graph6_lines
from .enumeration import (
    canonical_graph,
    connected_graph_classes,
    enumerate_connected,
    graph_classes,
)
from .families import generate
from .solver import (
    Arena,
    GameConfig,
    SolveResult,
    c_G_of_m,
    cop_number,
    cops_win,
    preceq,
    preceq_fixpoint_wins,
    restricted_cop_number,
    teleport_cop_number,
    wins,
)
from .strategy import (
    CopPlan,
    StrategyTrace,
    build_theorem1_plan,
    format_trace,
    lemma2_move,
    simulate,
    theorem1_applies,
    verify_key_inequality,
)
from .traps import (
    Hypergraph,
    check_lemma4,
    chvatal_bound,
    min_transversal,
    trap_threshold,
)

__version__ = "0.1.0"
