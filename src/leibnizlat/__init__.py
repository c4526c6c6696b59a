"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras."""

from .linalg import (
    BudgetExceeded,
    Field,
    LinalgError,
    Subspace,
    enumerate_subspaces,
    nullspace,
    rref,
)
from .algebra import (
    AlgebraError,
    LeibnizAlgebra,
    StructureReport,
    UnsupportedFieldError,
    check_left_leibniz,
)
from .lattice import (
    SubalgebraLattice,
    all_subalgebras_wqi,
    build_structure_report,
    enumerate_subalgebras,
    frattini_ideal,
    is_lower_semimodular_lattice,
    is_modular,
    is_upper_semimodular,
    lattice_stats,
    wqi_elementwise,
)
from . import catalog, verify
from .specfile import SpecError, emit_spec, export_dot, export_json_report, parse_spec

__all__ = [
    "AlgebraError",
    "BudgetExceeded",
    "Field",
    "LeibnizAlgebra",
    "LinalgError",
    "SpecError",
    "StructureReport",
    "SubalgebraLattice",
    "Subspace",
    "UnsupportedFieldError",
    "all_subalgebras_wqi",
    "build_structure_report",
    "catalog",
    "check_left_leibniz",
    "emit_spec",
    "enumerate_subalgebras",
    "enumerate_subspaces",
    "export_dot",
    "export_json_report",
    "frattini_ideal",
    "is_lower_semimodular_lattice",
    "is_modular",
    "is_upper_semimodular",
    "lattice_stats",
    "nullspace",
    "parse_spec",
    "rref",
    "verify",
    "wqi_elementwise",
]
