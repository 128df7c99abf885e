"""Static analysis: predicate graph, wardedness, piece-wise linearity."""

from .affected import affected_positions
from .levels import (
    max_level,
    node_width_bound_pwl,
    node_width_bound_ward,
    predicate_levels,
)
from .linearization import LinearizationResult, linearize
from .piecewise import (
    PiecewiseReport,
    is_intensionally_linear,
    is_linear_datalog,
    is_piecewise_linear,
    piecewise_report,
    recursive_body_atoms,
)
from .predicate_graph import PredicateGraph
from .variable_roles import VariableRoles, classify_variables
from .wardedness import (
    TGDWardInfo,
    WardednessReport,
    is_warded,
    wardedness_report,
)

__all__ = [
    "affected_positions",
    "predicate_levels",
    "max_level",
    "node_width_bound_pwl",
    "node_width_bound_ward",
    "PredicateGraph",
    "VariableRoles",
    "classify_variables",
    "is_warded",
    "wardedness_report",
    "WardednessReport",
    "TGDWardInfo",
    "is_piecewise_linear",
    "piecewise_report",
    "PiecewiseReport",
    "is_intensionally_linear",
    "is_linear_datalog",
    "recursive_body_atoms",
    "linearize",
    "LinearizationResult",
]
