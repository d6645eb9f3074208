"""Exact Clifford-algebra structure theory and point-level K computations.

The layers, bottom up: signatures and signed basis-blade arithmetic on
bitmasks, signature classification into matrix algebras over R, C, H with
restriction multiplicities read off it, explicit minimal representations
on integer codes that check the classification, finitely generated
abelian groups with an exact-sequence solver, and the K-theory tables
built on the classification and the group layer.  All arithmetic is on
integers.  Each integer algorithm lives in the module that uses it: the
blade product in cliffk.blades, the Smith and Hermite normal forms in
cliffk.abgroup.  So there is no backend to choose: BACKEND is the constant
"pure", kept only because the benchmark stamps its results with it.
"""

from .abgroup import (FGAbelianGroup, GroupHom, Sequence, UNKNOWN_MAP,
                      UnknownGroup, UnknownMap, cokernel, exactness_at,
                      image, kernel, smith_normal_form, solve_exact)
from .blades import Signature, blade_mul, center_basis
from .errors import (MAX_CELLS, BoundExceededError, CliffkError,
                     EmbeddingError, IllDefinedHomError, InvalidBladeError,
                     InvalidGroupError, InvalidSequenceError,
                     InvalidSignatureError, SearchSpaceError,
                     SequenceParseError)
from .ktheory import (FiberTwistReport, KTheory, RelativeK, ThomStabilityReport,
                      bott_sequence_instance, fiber_twist_check,
                      forgetful_k_map, k0, point_k, reduced_k_rpn, relative_k,
                      sequence_E_point_instance, thom_stability)
from .reps import (MatrixRep, UnitPermMatrix, build_rep, check_relations,
                   untwist_split_check, verify_classification,
                   verify_periodicity_iso)
from .seqfile import SequenceFile, parse_sequence_file
from .structure import (AlgebraDescriptor, DivisionRing, ScalarField, classify,
                        irrep_dims, min_faithful_dim,
                        restriction_multiplicities)

__version__ = "0.1.0"

BACKEND = "pure"

__all__ = [
    "AlgebraDescriptor", "BACKEND", "BoundExceededError", "CliffkError",
    "DivisionRing", "EmbeddingError", "FGAbelianGroup", "FiberTwistReport",
    "GroupHom", "IllDefinedHomError", "InvalidBladeError",
    "InvalidGroupError", "InvalidSequenceError", "InvalidSignatureError",
    "KTheory", "MAX_CELLS", "MatrixRep", "RelativeK", "ScalarField",
    "Sequence", "SequenceFile", "SequenceParseError", "SearchSpaceError",
    "Signature", "ThomStabilityReport", "UNKNOWN_MAP", "UnitPermMatrix",
    "UnknownGroup", "UnknownMap", "blade_mul", "bott_sequence_instance",
    "build_rep", "center_basis", "check_relations", "classify", "cokernel",
    "exactness_at", "fiber_twist_check", "forgetful_k_map", "image",
    "irrep_dims", "k0", "kernel", "min_faithful_dim", "parse_sequence_file",
    "point_k", "reduced_k_rpn", "relative_k", "restriction_multiplicities",
    "sequence_E_point_instance", "smith_normal_form", "solve_exact",
    "thom_stability", "untwist_split_check", "verify_classification",
    "verify_periodicity_iso",
]
