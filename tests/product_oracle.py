"""Reference certificates that build every product they check.

The library's check_relations reads the generator relations off the rows
and codes of each pair of generators, and its verify_periodicity_iso
multiplies (sign, left mask, right mask) triples (cliffk.reps).  This
module keeps the forms they replaced: check_relations forms each product
g h as a new UnitPermMatrix and compares whole matrices, and
verify_periodicity_iso multiplies the generator images as tensor term maps
{(left mask, right mask): int}, term by term.  They serve as the oracles
for the differential tests, and tests/rank_oracle.py takes its relation
check and its periodicity images from here.
"""

from __future__ import annotations

from cliffk.blades import Signature, blade_mul_mask
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


def tensor_mul(x: dict, y: dict, left: Signature, right: Signature) -> dict:
    """Product in C^left (x) C^right of two integer term maps.

    Terms map (left mask, right mask) pairs to nonzero ints.  The product is
    componentwise on pure tensors, (a (x) b)(a' (x) b') = (a a') (x) (b b'),
    extended bilinearly; scalars are even, so no Koszul sign enters.
    """
    out: dict = {}
    for (al, ar), ca in x.items():
        for (bl, br), cb in y.items():
            sl, ml = blade_mul_mask(al, bl, left.p)
            sr, mr = blade_mul_mask(ar, br, right.p)
            key = (ml, mr)
            c = out.get(key, 0) + sl * sr * ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def periodicity_images(m: int) -> list[dict]:
    """Images in C^{m,0} (x) C^{0,2} of the m + 2 generators of C^{0,m+2}:
    t_j (x) e1 e2 for j = 1..m, then 1 (x) e1 and 1 (x) e2."""
    left, right = Signature(m, 0), Signature(0, 2)
    e1, e2 = {(0, 0b01): 1}, {(0, 0b10): 1}
    e12 = tensor_mul(e1, e2, left, right)
    return [tensor_mul({(1 << j, 0): 1}, e12, left, right)
            for j in range(m)] + [e1, e2]


def periodicity_blade_images(m: int) -> list[dict] | None:
    """The 2**(m+2) blade images of C^{0,m+2}, indexed by mask, or None when
    the generator images break its relations."""
    left = Signature(m, 0)  # rejects a negative m
    check_size("verify_periodicity_iso({})", (m + 2) << (m + 2), m)
    right = Signature(0, 2)
    images = periodicity_images(m)
    one = {(0, 0): 1}
    for g in images:
        if tensor_mul(g, g, left, right) != one:
            return None
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            ab = tensor_mul(images[a], images[b], left, right)
            ba = tensor_mul(images[b], images[a], left, right)
            if ab != {k: -c for k, c in ba.items()}:
                return None
    # blade images by shared-prefix recursion
    total = 1 << (m + 2)
    blade_imgs = [one] * total
    for mask in range(1, total):
        low = mask & -mask
        blade_imgs[mask] = tensor_mul(images[low.bit_length() - 1],
                                      blade_imgs[mask ^ low], left, right)
    return blade_imgs


def verify_periodicity_iso(m: int) -> bool:
    """Same contract as cliffk.reps.verify_periodicity_iso, on tensor
    products of the generator images."""
    blade_imgs = periodicity_blade_images(m)
    if blade_imgs is None:
        return False
    supports = set()
    for mask, img in enumerate(blade_imgs):
        if len(img) != 1:
            raise AssertionError(f"blade image {mask} is not a single term")
        supports.update(img)
    return len(supports) == len(blade_imgs)
