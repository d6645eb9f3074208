"""Exact Clifford-algebra structure theory and point-level K computations.

The layers, bottom up: exact scalars and blade arithmetic, signature
classification into matrix algebras over R, C, H, explicit minimal
representations with restriction multiplicities, finitely generated
abelian groups with an exact-sequence solver, and the K-theory tables
built on all of it.  The integer linear algebra runs in one pure-Python
kernel module, cliffk._kernel_py.
"""

from .abgroup import (FGAbelianGroup, GroupHom, Sequence, UNKNOWN_MAP,
                      UnknownGroup, UnknownMap, check_exact, cokernel,
                      exactness_indices, image, kernel, smith_normal_form,
                      solve_exact)
from .blades import (CliffordElement, Signature, TensorElement, blade_grade,
                     blade_mul, blade_name, center_basis, elem_mul,
                     tensor_mul, top_element)
from .errors import (BoundExceededError, CliffkError, EmbeddingError,
                     IllDefinedHomError, InvalidBladeError,
                     InvalidSignatureError, SearchSpaceError,
                     SequenceParseError, SignatureMismatchError)
from .ktheory import (FiberTwistReport, ForgetfulFunctor, KTheory, RelativeK,
                      ThomStabilityReport, adams_f, bott_sequence_instance,
                      fiber_twist_check, forgetful_k_map, k0, point_k,
                      reduced_k_rpn, relative_k, sequence_E_point_instance,
                      thom_stability)
from .reps import (MatrixRep, UnitPermMatrix, build_rep, check_relations,
                   irrep_end_dim, restriction_multiplicities,
                   untwist_split_check, verify_classification,
                   verify_periodicity_iso)
from .scalars import GaussianRational, ScalarField
from .seqfile import SequenceFile, parse_sequence_file
from .structure import (AlgebraDescriptor, DivisionRing, classify, irrep_dims,
                        min_faithful_dim, periodicity_shapes)

__version__ = "0.1.0"

# the one kernel implementation; benchmark results are stamped with it
BACKEND = "pure"

__all__ = [
    "AlgebraDescriptor", "BACKEND", "BoundExceededError", "CliffkError",
    "CliffordElement", "DivisionRing", "EmbeddingError", "FGAbelianGroup",
    "FiberTwistReport", "ForgetfulFunctor", "GaussianRational", "GroupHom",
    "IllDefinedHomError", "InvalidBladeError", "InvalidSignatureError",
    "KTheory", "MatrixRep", "RelativeK", "ScalarField", "Sequence",
    "SequenceFile", "SequenceParseError", "SearchSpaceError", "Signature",
    "SignatureMismatchError", "TensorElement", "ThomStabilityReport",
    "UNKNOWN_MAP", "UnitPermMatrix", "UnknownGroup", "UnknownMap",
    "adams_f", "blade_grade", "blade_mul", "blade_name",
    "bott_sequence_instance", "build_rep", "center_basis", "check_exact",
    "check_relations", "classify", "cokernel", "elem_mul",
    "exactness_indices", "fiber_twist_check", "forgetful_k_map", "image",
    "irrep_dims", "irrep_end_dim", "k0", "kernel", "min_faithful_dim",
    "parse_sequence_file", "periodicity_shapes", "point_k", "reduced_k_rpn",
    "relative_k", "restriction_multiplicities", "sequence_E_point_instance",
    "smith_normal_form", "solve_exact", "tensor_mul", "thom_stability",
    "top_element", "untwist_split_check", "verify_classification",
    "verify_periodicity_iso",
]
