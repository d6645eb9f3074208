"""Reference certificates that build every product they check.

The library's check_relations reads the generator relations off the rows
and codes of each pair of generators, and its verify_periodicity_iso
multiplies (sign, left mask, right mask) triples (cliffk.reps).  This
module keeps the forms they replaced: check_relations forms each product
g h as a new UnitPermMatrix and compares whole matrices, and
verify_periodicity_iso builds the generator images as TensorElements over
Clifford elements and multiplies them term by term.  They serve as the
oracles for the differential tests, and tests/rank_oracle.py takes its
relation check from here.
"""

from __future__ import annotations

from cliffk.blades import CliffordElement, Signature, TensorElement
from cliffk.errors import check_size
from cliffk.reps import MatrixRep, UnitPermMatrix


def check_relations(rep: MatrixRep) -> bool:
    """Exact generator relations: squares are -+I, distinct pairs anticommute."""
    ident = UnitPermMatrix.identity(rep.dim)
    for t, g in enumerate(rep.gens):
        want = -ident if t < rep.sig.p else ident
        if g @ g != want:
            return False
    for a in range(len(rep.gens)):
        for b in range(a + 1, len(rep.gens)):
            ga, gb = rep.gens[a], rep.gens[b]
            if ga @ gb != -(gb @ ga):
                return False
    return True


def verify_periodicity_iso(m: int) -> bool:
    """Same contract as cliffk.reps.verify_periodicity_iso, on TensorElement
    products of the generator images."""
    left = Signature(m, 0)  # rejects a negative m
    check_size(f"verify_periodicity_iso({m})", (m + 2) << (m + 2))
    right = Signature(0, 2)
    one_l = CliffordElement.one(left)
    e1 = CliffordElement.generator(right, 1)
    e2 = CliffordElement.generator(right, 2)
    e12 = e1 * e2
    images = [TensorElement.of(CliffordElement.generator(left, j + 1), e12)
              for j in range(m)]
    images.append(TensorElement.of(one_l, e1))
    images.append(TensorElement.of(one_l, e2))
    one_t = TensorElement.one(left, right)
    for g in images:
        if g * g != one_t:
            return False
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if not (images[a] * images[b] + images[b] * images[a]).is_zero():
                return False
    # blade images, by shared-prefix recursion; each is a single tensor term
    total = 1 << (m + 2)
    blade_imgs: list[TensorElement] = [one_t] * total
    for mask in range(1, total):
        low = mask & -mask
        blade_imgs[mask] = images[low.bit_length() - 1] * blade_imgs[mask ^ low]
    supports = set()
    for mask, img in enumerate(blade_imgs):
        if len(img.terms) != 1:
            raise AssertionError(f"blade image {mask} is not a single term")
        supports.update(img.terms)
    return len(supports) == total
