"""Incremental compilation of Bayesian-network structure.

Builds and maintains the moral graph, a minimal triangulation, a junction
tree and the maximal-prime-subgraph tree of a directed acyclic network,
recompiling only the subtrees affected by structural edits.
"""

from .clustertree import ClusterTree
from .engine import (
    AddArc,
    AddNode,
    BatchTrace,
    CompiledModel,
    Modification,
    RemoveArc,
    RemoveNode,
    apply_modification,
    expand_remove_node,
    incremental_compile,
)
from .errors import (
    BnicError,
    CycleError,
    InconsistencyError,
    InvalidEditError,
    NotChordalError,
    ParseError,
    UnknownVariableError,
    UnwritableNameError,
)
from .graph import Dag, Link, UndirectedGraph, VariableTable, is_chordal, moralize
from .oracle import (
    ValidityReport,
    full_recompile,
    mpd_equal,
    random_dag,
    random_script,
    stability,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AddArc",
    "AddNode",
    "BatchTrace",
    "BnicError",
    "ClusterTree",
    "CompiledModel",
    "CycleError",
    "Dag",
    "InconsistencyError",
    "InvalidEditError",
    "Link",
    "Modification",
    "NotChordalError",
    "ParseError",
    "RemoveArc",
    "RemoveNode",
    "UndirectedGraph",
    "UnknownVariableError",
    "UnwritableNameError",
    "ValidityReport",
    "VariableTable",
    "apply_modification",
    "expand_remove_node",
    "full_recompile",
    "incremental_compile",
    "is_chordal",
    "moralize",
    "mpd_equal",
    "random_dag",
    "random_script",
    "stability",
    "validate",
]
