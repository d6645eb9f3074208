"""Blade arithmetic against a word-shuffling oracle, and the center.

The oracle multiplies generator words the slow way: concatenate, bubble
adjacent generators into ascending order flipping the sign per swap, then
cancel adjacent equal pairs with the metric sign.  blade_mul must agree on
every pair of blades for every signature split.  The algebra laws below are
checked on signed blades: the product of two blades is a sign and a mask.
"""

import random

import pytest

import center_oracle
import product_oracle
from cliffk.blades import Signature, blade_mul, center_basis
from cliffk.errors import (BoundExceededError, InvalidBladeError,
                           InvalidSignatureError)


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


def _signatures(max_n: int):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_blade_mul_matches_oracle_everywhere():
    for sig in _signatures(4):
        for a in range(sig.dim):
            for b in range(sig.dim):
                assert blade_mul(a, b, sig) == oracle_mul(a, b, sig.p), \
                    (a, b, sig)


def test_blade_mul_validates_masks():
    sig = Signature(1, 1)
    with pytest.raises(InvalidBladeError):
        blade_mul(4, 0, sig)
    with pytest.raises(InvalidBladeError):
        blade_mul(0, -1, sig)


def blade_grade(mask: int) -> int:
    return mask.bit_count()


def square_sign(sig: Signature, i: int) -> int:
    """Square of generator ei, 1-based: the first p square to -1."""
    assert 1 <= i <= sig.n
    return -1 if i <= sig.p else 1


def test_blade_grades():
    assert blade_grade(0) == 0
    assert blade_grade(0b1101) == 3


def test_signature_validation():
    with pytest.raises(InvalidSignatureError):
        Signature(-1, 0)
    with pytest.raises(InvalidSignatureError):
        Signature(0, -2)
    assert Signature(2, 3).n == 5
    assert Signature(2, 3).dim == 32
    assert str(Signature(2, 3)) == "C^{2,3}"


@pytest.mark.parametrize("parts", [(1.5, 0), (2.0, 0), (0, 2.0), (True, 0),
                                   (0, False), ("1", 0)], ids=repr)
def test_signature_parts_must_be_ints(parts):
    # 1.5 would miss the classification table, and True print as a part
    with pytest.raises(InvalidSignatureError, match="must be integers"):
        Signature(*parts)


def test_generator_squares():
    for sig in _signatures(5):
        for i in range(1, sig.n + 1):
            g = 1 << (i - 1)
            assert blade_mul(g, g, sig) == (square_sign(sig, i), 0), (sig, i)


def test_generator_anticommute():
    for sig in _signatures(5):
        for i in range(sig.n):
            for j in range(i + 1, sig.n):
                gi, gj = 1 << i, 1 << j
                s, m = blade_mul(gi, gj, sig)
                assert blade_mul(gj, gi, sig) == (-s, m) and m == gi | gj


def test_associativity_random():
    rng = random.Random(101)
    for _ in range(2000):
        n = rng.randint(1, 8)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        a, b, c = (rng.randrange(sig.dim) for _ in range(3))
        s_ab, ab = blade_mul(a, b, sig)
        s_bc, bc = blade_mul(b, c, sig)
        s_left, left = blade_mul(ab, c, sig)
        s_right, right = blade_mul(a, bc, sig)
        assert (s_ab * s_left, left) == (s_bc * s_right, right), (a, b, c, sig)


def test_top_element_square_law():
    # omega^2 = (-1)^(n(n-1)/2 + p)
    for sig in _signatures(8):
        top = sig.dim - 1
        expect = (-1) ** (sig.n * (sig.n - 1) // 2 + sig.p)
        assert blade_mul(top, top, sig) == (expect, 0), sig


def test_top_element_central_iff_odd():
    for sig in _signatures(8):
        if not sig.n:
            continue
        top = sig.dim - 1
        central = all(blade_mul(top, g, sig) == blade_mul(g, top, sig)
                      for g in (1 << i for i in range(sig.n)))
        assert central == (sig.n % 2 == 1), sig


def test_center_basis_dimensions():
    # center dim = 1 for even total, 2 for odd
    assert center_basis(Signature(0, 2)) == [0]
    assert len(center_basis(Signature(3, 0))) == 2
    assert len(center_basis(Signature(2, 1))) == 2
    assert len(center_basis(Signature(1, 1))) == 1
    assert len(center_basis(Signature(0, 0))) == 1


def test_center_basis_spans_omega():
    # 1 alone for even n; 1 and the top blade for odd n
    for sig in _signatures(7):
        top = [sig.dim - 1] if sig.n % 2 else []
        assert center_basis(sig) == [0] + top, sig


@pytest.mark.parametrize("field", ["real", "complex"])
def test_center_basis_matches_nullspace_oracle(field):
    # every signature with n <= 10: the same basis, in the same order.
    # Over the reals the oracle solves the commutator system of C^{p,q}
    # itself.  Over the complexes e_j -> i e_j on the q negative generators
    # is an isomorphism C^{p,q} (x) C -> C^{n,0} (x) C sending each blade to
    # a unit multiple of itself, so the complexified center is spanned by
    # the blades of the center of C^{n,0}, whatever the split.
    for sig in _signatures(10):
        solved = sig if field == "real" else Signature(sig.n, 0)
        assert [{b: 1} for b in center_basis(sig)] == \
            center_oracle.center_basis(solved), sig


def test_center_basis_bound():
    # n * 2**n entries: n = 16 reaches MAX_CELLS, n = 17 passes it
    with pytest.raises(BoundExceededError):
        center_basis(Signature(9, 8))


def test_tensor_algebra():
    # the oracles' product on C^{2,0} (x) C^{0,2} term maps
    left, right = Signature(2, 0), Signature(0, 2)
    x = {(0b01, 0): 1}  # e1 (x) 1
    y = {(0, 0b01): 1}  # 1 (x) f1
    mul = product_oracle.tensor_mul
    # pure tensors with scalar-free overlap commute without sign
    assert mul(x, y, left, right) == mul(y, x, left, right) == \
        {(0b01, 0b01): 1}
    assert mul(x, x, left, right) == {(0, 0): -1}
    assert mul({(0b01, 0): 2}, {(0b01, 0): 3, (0b10, 0): 1}, left, right) == \
        {(0, 0): -6, (0b11, 0): 2}


def test_tensor_mixed_signs():
    sig = Signature(0, 1)
    g = {(1, 1): 1}
    assert product_oracle.tensor_mul(g, g, sig, sig) == {(0, 0): 1}
    # a sum that cancels leaves no terms
    assert product_oracle.tensor_mul({(0, 0): 1, (1, 0): 1},
                                     {(0, 0): 1, (1, 0): -1}, sig, sig) == {}
