"""Classification table checks: pinned small cases, periodicity of the
descriptor pattern, and the dimension identity tying factors, matrix size,
and division ring back to 2**(p+q)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliffk
from adams_oracle import adams_f
from cliffk.blades import Signature, center_basis
from cliffk.errors import InvalidSignatureError
from cliffk.structure import (AlgebraDescriptor, DivisionRing, ScalarField,
                              classify, irrep_dims, min_faithful_dim,
                              restriction_multiplicities)

R, C, H = DivisionRing.R, DivisionRing.C, DivisionRing.H


# first column and row of the real classification, standard references
PINNED_REAL = {
    (0, 0): (1, 1, R),
    (1, 0): (1, 1, C),
    (2, 0): (1, 1, H),
    (3, 0): (2, 1, H),
    (4, 0): (1, 2, H),
    (5, 0): (1, 4, C),
    (6, 0): (1, 8, R),
    (7, 0): (2, 8, R),
    (8, 0): (1, 16, R),
    (0, 1): (2, 1, R),
    (0, 2): (1, 2, R),
    (0, 3): (1, 2, C),
    (0, 4): (1, 2, H),
    (0, 5): (2, 2, H),
    (0, 6): (1, 4, H),
    (0, 7): (1, 8, C),
    (0, 8): (1, 16, R),
    (1, 1): (1, 2, R),
    (1, 3): (1, 4, R),
    (2, 2): (1, 4, R),
}


def test_classify_pinned_real_cases():
    for (p, q), (factors, k, ring) in PINNED_REAL.items():
        desc = classify(Signature(p, q))
        assert (desc.factors, desc.matrix_size, desc.ring) == \
            (factors, k, ring), (p, q)


def test_classify_complex_parity():
    for total in range(9):
        for p in range(total + 1):
            desc = classify(Signature(p, total - p), ScalarField.COMPLEX)
            assert desc.ring is C
            if total % 2:
                assert desc.factors == 2
                assert desc.matrix_size == 2 ** ((total - 1) // 2)
            else:
                assert desc.factors == 1
                assert desc.matrix_size == 2 ** (total // 2)


def test_real_classification_depends_on_p_minus_q_mod8():
    for total_a in range(9):
        for pa in range(total_a + 1):
            qa = total_a - pa
            for shift in (1, 2):
                pb, qb = pa + shift, qa + shift
                a = classify(Signature(pa, qa))
                b = classify(Signature(pb, qb))
                assert a.ring is b.ring
                assert a.factors == b.factors
                # each (p+1, q+1) step doubles the matrix size
                assert b.matrix_size == a.matrix_size * 2 ** shift


def test_dimension_identity():
    for total in range(11):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            desc = classify(sig)
            assert desc.factors * desc.matrix_size ** 2 * \
                desc.ring.dim_real == sig.dim
            cdesc = classify(sig, ScalarField.COMPLEX)
            assert cdesc.factors * cdesc.matrix_size ** 2 == sig.dim


def test_center_dimension_matches_factor_count():
    for total in range(6):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            desc = classify(sig)
            center = center_basis(sig)
            # center of f copies of M_k(D): f copies of the center of D
            expect = desc.factors * (2 if desc.ring is C else 1)
            assert len(center) == expect, sig


def test_descriptor_str():
    assert str(classify(Signature(3, 0))) == "M_1(H) (+) M_1(H)"
    assert str(classify(Signature(1, 1))) == "M_2(R)"
    assert str(classify(Signature(0, 3), ScalarField.COMPLEX)) == \
        "M_2(C) (+) M_2(C)"


def test_descriptor_validation():
    with pytest.raises(ValueError):
        AlgebraDescriptor(3, 1, R, ScalarField.REAL)
    with pytest.raises(ValueError):
        AlgebraDescriptor(1, 0, R, ScalarField.REAL)
    with pytest.raises(ValueError):
        AlgebraDescriptor(1, 1, H, ScalarField.COMPLEX)


def test_irrep_dims():
    assert irrep_dims(Signature(3, 0)) == (4, 4)
    assert irrep_dims(Signature(5, 0)) == (8,)
    assert irrep_dims(Signature(0, 1)) == (1, 1)
    assert irrep_dims(Signature(2, 0)) == (4,)
    assert irrep_dims(Signature(3, 0), ScalarField.COMPLEX) == (2, 2)
    assert min_faithful_dim(Signature(3, 0)) == 8
    assert min_faithful_dim(Signature(6, 0)) == 8
    assert min_faithful_dim(Signature(15, 0)) == 256
    assert min_faithful_dim(Signature(13, 0)) == 128


def test_irrep_dim_matches_adams_dimension():
    # each irreducible real (n,0)-module has the Adams dimension 2^f(n)
    for n in range(1, 13):
        dims = irrep_dims(Signature(n, 0))
        assert set(dims) == {2 ** adams_f(n)}, n


def test_periodicity_shapes():
    # C^{0,m+2} ~ C^{m,0} (x) M_2: the same algebra with doubled matrix size
    for field in ScalarField:
        for m in range(9):
            grown = classify(Signature(0, m + 2), field)
            base = classify(Signature(m, 0), field)
            doubled = AlgebraDescriptor(base.factors, 2 * base.matrix_size,
                                        base.ring, field)
            assert grown == doubled, (m, field)


def test_signature_errors():
    with pytest.raises(InvalidSignatureError):
        classify(Signature(-1, 2))


@pytest.mark.parametrize("function", [classify, irrep_dims],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("field", ["real", "complex", None, 0])
def test_field_must_be_a_scalar_field(function, field):
    # a field other than ScalarField.REAL used to be read as complex, so
    # "real" returned M_1(C) (+) M_1(C) for C^{1,0}
    with pytest.raises(InvalidSignatureError, match="ScalarField"):
        function(Signature(1, 0), field)


@pytest.mark.parametrize("args", [
    (Signature(1, 0), []), ([1, 0],), ({}, ScalarField.REAL),
], ids=["list field", "list signature", "dict signature"])
def test_unhashable_arguments_are_refused_before_the_cache(args):
    # classify's cache hashes its arguments: checked there, these raised
    # TypeError (unhashable type) before any check ran
    with pytest.raises(InvalidSignatureError):
        classify(*args)


@pytest.mark.parametrize("big,small", [
    (Signature(1, 0), (0, 0)), ("x", Signature(0, 0)),
    (Signature(1, 0), None),
], ids=["tuple small", "str big", "None small"])
def test_restriction_needs_signatures(big, small):
    with pytest.raises(InvalidSignatureError, match="Signature"):
        restriction_multiplicities(big, small)


def test_classify_invariants_survive_optimize_flag():
    # a wrong table entry must still be caught when asserts are compiled out;
    # (1, R) for C^{1,0} gives 2 real dimensions per factor, not a square
    code = (
        "from cliffk.blades import Signature\n"
        "from cliffk import structure\n"
        "structure._REAL_TYPE[1] = (1, structure.DivisionRing.R)\n"
        "try:\n"
        "    structure.classify(Signature(1, 0))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(cliffk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _is_banned(node: ast.AST) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div))


def test_library_has_no_asserts_floats_or_true_division():
    # invariants are explicit raises that survive -O, and every computation
    # stays on exact integers: no float or complex literal, no true division
    found = []
    for path in sorted(Path(cliffk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_banned(node)]
    assert found == []
