"""Exact computations with reflexive lattice polytopes and nef-partitions.

Every value the library returns is an exact ``fractions.Fraction``; hulls,
linear solves, the face fan's cone functionals and the pairing checks run
internally on ``int`` coordinates, with fraction-free elimination. Every
comparison in the library is exact and there are no tolerances anywhere.
On top of the polytope kernel sit face fans with integral convex
piecewise-linear functions, nef-partition validation and enumeration, and
the mirror construction that pairs a nef-partition with its dual, together
with exact verification of the identities relating the two sides.
"""

from .errors import (
    DimensionMismatch,
    GeometryError,
    InvariantViolation,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    NotReflexive,
    ZeroNotInterior,
)
from .linalg import Inconsistent, SolveFailure, Underdetermined
from .polytope import (
    Facet,
    LinearEquality,
    Point,
    Polytope,
    SPACE_M,
    SPACE_N,
    dual_space,
    hull,
    minkowski_sum,
    origin,
    pair,
    solve_linear,
)
from .fan import (
    Cone,
    FaceFan,
    PLFunction,
    face_fan,
    pl_from_vertex_values,
    support_polytope,
)
from .nefpart import (
    EMPTY_PART,
    NOT_CONVEX,
    NOT_COVERING,
    NOT_DISJOINT,
    NOT_INTEGRAL,
    NOT_PIECEWISE_LINEAR,
    NefPartition,
    Rejection,
    RelationReport,
    check_relations,
    enumerate_nef_partitions,
    validate_partition,
)
from .duality import (
    CheckResult,
    DualityResult,
    dual_nef_partition,
    nabla,
    run_full_duality,
    verify_delta_parts_from_dual,
    verify_involution,
    verify_nabla_polar_is_delta_sum,
    verify_nabla_reflexive,
    verify_polar_is_nabla_sum,
)
from .fileio import (
    PolytopeParseError,
    parse_partition_spec,
    parse_polytope_file,
    parse_polytope_text,
    write_polytope_text,
)
from .corpus import CorpusEntry, corpus_entry, load_corpus

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "Cone",
    "CorpusEntry",
    "DimensionMismatch",
    "DualityResult",
    "EMPTY_PART",
    "FaceFan",
    "Facet",
    "GeometryError",
    "Inconsistent",
    "InvariantViolation",
    "LinearEquality",
    "NOT_CONVEX",
    "NOT_COVERING",
    "NOT_DISJOINT",
    "NOT_INTEGRAL",
    "NOT_PIECEWISE_LINEAR",
    "NefPartition",
    "NotConvex",
    "NotFullDimensional",
    "NotPiecewiseLinear",
    "NotReflexive",
    "PLFunction",
    "Point",
    "Polytope",
    "PolytopeParseError",
    "Rejection",
    "RelationReport",
    "SPACE_M",
    "SPACE_N",
    "SolveFailure",
    "Underdetermined",
    "ZeroNotInterior",
    "check_relations",
    "corpus_entry",
    "dual_nef_partition",
    "dual_space",
    "enumerate_nef_partitions",
    "face_fan",
    "hull",
    "load_corpus",
    "minkowski_sum",
    "nabla",
    "origin",
    "pair",
    "parse_partition_spec",
    "parse_polytope_file",
    "parse_polytope_text",
    "pl_from_vertex_values",
    "run_full_duality",
    "solve_linear",
    "support_polytope",
    "validate_partition",
    "verify_delta_parts_from_dual",
    "verify_involution",
    "verify_nabla_polar_is_delta_sum",
    "verify_nabla_reflexive",
    "verify_polar_is_nabla_sum",
    "write_polytope_text",
]
