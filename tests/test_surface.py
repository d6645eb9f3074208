"""The public surface, written out: the package's modules, ``cliffk.__all__``
and the public members of each class it exports.

A name added to the library shows up here as a diff, and so must be added
on purpose.  Members are the public names a class defines itself, with its
dataclass or named-tuple fields; inherited and underscore names are left
out.
"""

import dataclasses
import inspect
import pkgutil

import cliffk

MODULES = ["abgroup", "blades", "cli", "errors", "ktheory", "reps",
           "seqfile", "structure"]

ALL = [
    "AlgebraDescriptor", "BACKEND", "BoundExceededError", "CliffkError",
    "DivisionRing", "EmbeddingError", "FGAbelianGroup", "FiberTwistReport",
    "GroupHom", "IllDefinedHomError", "InvalidBladeError",
    "InvalidGroupError", "InvalidSequenceError", "InvalidSignatureError",
    "KTheory", "MAX_CELLS", "MatrixRep", "RelativeK", "ScalarField",
    "SearchSpaceError", "Sequence", "SequenceFile", "SequenceParseError",
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

MEMBERS = {
    "AlgebraDescriptor": ["dim_over_field", "dim_real", "factors",
                          "matrix_size", "ring", "scalar_field"],
    "BoundExceededError": [],
    "CliffkError": [],
    "DivisionRing": ["C", "H", "R", "dim_real"],
    "EmbeddingError": [],
    "FGAbelianGroup": ["free", "from_invariants", "from_presentation",
                       "gen_orders", "is_trivial", "n_gens", "order", "rank",
                       "relation_matrix", "torsion", "trivial"],
    "FiberTwistReport": ["checks", "passed"],
    "GroupHom": ["matrix", "source", "target", "zero"],
    "IllDefinedHomError": [],
    "InvalidBladeError": [],
    "InvalidGroupError": [],
    "InvalidSequenceError": [],
    "InvalidSignatureError": [],
    "KTheory": ["KO", "KU", "field"],
    "MatrixRep": ["dim", "field", "gens", "sig"],
    "RelativeK": ["coker", "ker"],
    "ScalarField": ["COMPLEX", "REAL"],
    "SearchSpaceError": [],
    "Sequence": ["exact_at", "maps", "names", "terms"],
    "SequenceFile": ["map_names", "sequence", "solve_bound"],
    "SequenceParseError": [],
    "Signature": ["contains", "dim", "n", "p", "q"],
    "ThomStabilityReport": ["derivation", "n", "passed", "period_checks",
                            "r_max", "shift_checks"],
    "UnitPermMatrix": ["codes", "identity", "mul_unit", "n", "rows",
                       "trace_quadruple"],
    "UnknownGroup": ["candidates"],
    "UnknownMap": [],
}


def _members(cls) -> list[str]:
    names = {name for name in vars(cls) if not name.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    names.update(getattr(cls, "_fields", ()))  # a NamedTuple's fields
    return sorted(names)


def test_modules():
    assert sorted(m.name for m in pkgutil.iter_modules(cliffk.__path__)) == \
        MODULES


def test_all():
    assert sorted(cliffk.__all__) == ALL
    assert all(hasattr(cliffk, name) for name in ALL)


def test_class_members():
    classes = {name: getattr(cliffk, name) for name in ALL
               if inspect.isclass(getattr(cliffk, name))}
    assert {name: _members(cls) for name, cls in classes.items()} == MEMBERS
