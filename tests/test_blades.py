"""Blade arithmetic against a word-shuffling oracle, plus element algebra.

The oracle multiplies generator words the slow way: concatenate, bubble
adjacent generators into ascending order flipping the sign per swap, then
cancel adjacent equal pairs with the metric sign.  blade_mul must agree on
every pair of blades for every signature split.
"""

import random

import pytest

import center_oracle
from cliffk.blades import (CliffordElement, Signature, TensorElement,
                           blade_grade, blade_mul, blade_name, center_basis,
                           elem_mul, tensor_mul, top_element)
from cliffk.errors import (BoundExceededError, InvalidBladeError,
                           InvalidSignatureError, SignatureMismatchError)
from cliffk.scalars import GaussianRational, ScalarField


def oracle_mul(a: int, b: int, p: int) -> tuple[int, int]:
    word = [i + 1 for i in range(16) if a >> i & 1]
    word += [i + 1 for i in range(16) if b >> i & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
                changed = True
    out = []
    k = 0
    while k < len(word):
        if k + 1 < len(word) and word[k] == word[k + 1]:
            if word[k] <= p:
                sign = -sign
            k += 2
        else:
            out.append(word[k])
            k += 1
    mask = 0
    for g in out:
        mask |= 1 << (g - 1)
    return sign, mask


def test_blade_mul_matches_oracle_everywhere():
    for total in range(5):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            for a in range(sig.dim):
                for b in range(sig.dim):
                    assert blade_mul(a, b, sig) == oracle_mul(a, b, p), \
                        (a, b, sig)


def test_blade_mul_validates_masks():
    sig = Signature(1, 1)
    with pytest.raises(InvalidBladeError):
        blade_mul(4, 0, sig)
    with pytest.raises(InvalidBladeError):
        blade_mul(0, -1, sig)


def test_blade_names_and_grades():
    assert blade_name(0) == "1"
    assert blade_name(0b101) == "e1e3"
    assert blade_grade(0b1101) == 3


def test_signature_validation():
    with pytest.raises(InvalidSignatureError):
        Signature(-1, 0)
    with pytest.raises(InvalidSignatureError):
        Signature(0, -2)
    assert Signature(2, 3).n == 5
    assert Signature(2, 3).dim == 32
    assert str(Signature(2, 3)) == "C^{2,3}"


def test_generator_squares():
    for sig in (Signature(2, 1), Signature(0, 3), Signature(3, 0)):
        for i in range(1, sig.n + 1):
            g = CliffordElement.generator(sig, i)
            sq = g * g
            assert sq == CliffordElement.scalar(sig, sig.square_sign(i))


def test_generator_anticommute():
    sig = Signature(2, 2)
    gens = [CliffordElement.generator(sig, i) for i in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert (gens[i] * gens[j] + gens[j] * gens[i]).is_zero()


def test_element_arithmetic():
    sig = Signature(1, 1)
    e1 = CliffordElement.generator(sig, 1)
    e2 = CliffordElement.generator(sig, 2)
    x = 2 * e1 + e2
    y = e1 - 3 * e2
    # (2e1 + e2)(e1 - 3e2) = 2e1^2 - 6e1e2 + e2e1 - 3e2^2 = -5 - 7e1e2
    prod = x * y
    assert prod.coefficient(0) == -5
    assert prod.coefficient(0b11) == -7
    assert elem_mul(x, y) == prod
    assert x - x == CliffordElement.zero(sig)
    assert -x + x == CliffordElement.zero(sig)


def test_associativity_random():
    rng = random.Random(101)
    for _ in range(200):
        total = rng.randint(1, 4)
        p = rng.randint(0, total)
        sig = Signature(p, total - p)

        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[rng.randrange(sig.dim)] = rng.randint(-4, 4)
            return CliffordElement(sig, terms)

        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_signature_and_field_mixing_rejected():
    x = CliffordElement.one(Signature(1, 0))
    y = CliffordElement.one(Signature(0, 1))
    with pytest.raises(SignatureMismatchError):
        _ = x + y
    z = CliffordElement.one(Signature(1, 0), field=ScalarField.COMPLEX)
    with pytest.raises(SignatureMismatchError):
        _ = x * z


def test_top_element_square_law():
    # omega^2 = (-1)^(n(n-1)/2 + p)
    for total in range(1, 6):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            w = top_element(sig)
            expect = (-1) ** (total * (total - 1) // 2 + p)
            assert w * w == CliffordElement.scalar(sig, expect), sig


def test_top_element_central_iff_odd():
    for total in range(1, 6):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            w = top_element(sig)
            central = all(
                (w * CliffordElement.generator(sig, i)
                 - CliffordElement.generator(sig, i) * w).is_zero()
                for i in range(1, total + 1))
            assert central == (total % 2 == 1), sig


def test_center_basis_dimensions():
    # center dim = 1 for even total, 2 for odd
    assert [str(c) for c in center_basis(Signature(0, 2))] == ["(1)"]
    assert len(center_basis(Signature(3, 0))) == 2
    assert len(center_basis(Signature(2, 1))) == 2
    assert len(center_basis(Signature(1, 1))) == 1
    assert len(center_basis(Signature(0, 0))) == 1


def test_center_basis_spans_omega():
    sig = Signature(3, 0)
    basis = center_basis(sig)
    masks = {max(c.terms) for c in basis}
    assert masks == {0, 7}


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX],
                         ids=["real", "complex"])
def test_center_basis_matches_nullspace_oracle(field):
    # every signature with n <= 10: the same basis, in the same order
    for n in range(11):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            got = center_basis(sig, field)
            want = center_oracle.center_basis(sig, field)
            assert [(c.terms, c.field) for c in got] == \
                [(c.terms, c.field) for c in want], sig


def test_center_basis_bound():
    # n * 2**n entries: n = 16 reaches MAX_CELLS, n = 17 passes it
    with pytest.raises(BoundExceededError):
        center_basis(Signature(9, 8))


def test_complex_field_elements():
    sig = Signature(1, 0)
    i_unit = GaussianRational.I
    e1 = CliffordElement.generator(sig, 1, field=ScalarField.COMPLEX)
    x = i_unit * e1
    # (i e1)^2 = i^2 e1^2 = (-1)(-1) = 1
    assert x * x == CliffordElement.one(sig, field=ScalarField.COMPLEX)


def test_real_field_rejects_imaginary():
    sig = Signature(1, 0)
    with pytest.raises(TypeError):
        CliffordElement(sig, {0: GaussianRational.I})


def test_tensor_algebra():
    left = Signature(2, 0)
    right = Signature(0, 2)
    a = CliffordElement.generator(left, 1)
    b = CliffordElement.generator(right, 1)
    x = TensorElement.of(a, CliffordElement.one(right))
    y = TensorElement.of(CliffordElement.one(left), b)
    # pure tensors with scalar-free overlap commute without sign
    assert x * y == y * x == TensorElement.of(a, b)
    # (a (x) 1)^2 = a^2 (x) 1 = -1
    sq = x * x
    assert sq == TensorElement.one(left, right).scale(-1)
    assert tensor_mul(x, y) == x * y


def test_tensor_mixed_signs():
    left = Signature(0, 1)
    right = Signature(0, 1)
    one = TensorElement.one(left, right)
    g = TensorElement.of(CliffordElement.generator(left, 1),
                         CliffordElement.generator(right, 1))
    assert g * g == one
