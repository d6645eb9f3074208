"""Reference structural verifiers by exact sparse rank.

The library's verify_classification, verify_periodicity_iso and
untwist_split_check read their ranks off the structure of monomial rows:
blade-image traces, distinct tensor supports, and the pairing x <-> x * z
(cliffk.reps).  This module writes the same rows out as a sparse integer
matrix and takes its rank by fraction-free elimination instead.  It serves
as the oracle for the differential tests, and tests/center_oracle.py takes
its echelon form from here.
"""

from __future__ import annotations

from math import gcd

from cliffk import reps
from cliffk.blades import Signature
from cliffk.errors import InvalidSignatureError, check_size
from cliffk.structure import ScalarField, classify, min_faithful_dim
from product_oracle import check_relations, periodicity_blade_images

_REAL = ScalarField.REAL


def _content_reduce(r: dict) -> None:
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in r:
            r[k] //= g


def _eliminate(row: dict, pivots: dict) -> dict:
    """Reduce a row against pivot rows keyed by their minimal column."""
    r = {k: v for k, v in row.items() if v}
    while r:
        c = min(r)
        pr = pivots.get(c)
        if pr is None:
            return r
        a = pr[c]
        b = r[c]
        g = gcd(a, b)
        a //= g
        b //= g
        new = {}
        for k, v in r.items():
            if k != c:
                new[k] = v * a
        for k, v in pr.items():
            if k == c:
                continue
            nv = new.get(k, 0) - v * b
            if nv:
                new[k] = nv
            elif k in new:
                del new[k]
        _content_reduce(new)
        r = new
    return r


def _echelonize(rows) -> dict:
    """Consume rows, returning pivot rows keyed by minimal column."""
    pivots: dict = {}
    for row in rows:
        r = _eliminate(row, pivots)
        if r:
            c = min(r)
            _content_reduce(r)
            if r[c] < 0:
                for k in r:
                    r[k] = -r[k]
            pivots[c] = r
    return pivots


def sparse_rank(rows) -> int:
    """Rank of a sparse integer matrix given as an iterable of row maps."""
    return len(_echelonize(rows))


def blade_matrices(rep: reps.MatrixRep) -> list[reps.UnitPermMatrix]:
    """All 2**n blade images of a representation, indexed by mask, each the
    product of a generator and the image of a shorter prefix."""
    check_size("blade_matrices of {}", rep.sig.dim * rep.dim, rep.sig)
    mats = [reps.UnitPermMatrix.identity(rep.dim)] * rep.sig.dim
    for mask in range(1, rep.sig.dim):
        low = mask & -mask
        mats[mask] = rep.gens[low.bit_length() - 1] @ mats[mask ^ low]
    return mats


def verify_classification(sig: Signature, field: ScalarField = _REAL) -> bool:
    """Same contract as cliffk.reps.verify_classification, by the rank of the
    2**n blade images written out as rows."""
    rep = reps.build_rep(sig, field)
    mats = blade_matrices(rep)
    desc = classify(sig, field)
    if not check_relations(rep):
        return False
    if rep.dim != min_faithful_dim(sig, field):
        return False
    if desc.dim_over_field != sig.dim:
        return False
    d = rep.dim
    if field is _REAL:
        rows = []
        for m in mats:
            row = {}
            for j, a in enumerate(m.rows):
                row[a * d + j] = 1 if m.codes[j] == 0 else -1
            rows.append(row)
        return sparse_rank(rows) == sig.dim
    # complex: realify the C-span of the blade images; including the i-scaled
    # copies makes the real rank exactly twice the complex dimension
    rows = []
    unit_part = {0: (0, 1), 1: (1, 1), 2: (0, -1), 3: (1, -1)}
    for m in mats:
        for shift in (0, 1):
            row = {}
            for j, a in enumerate(m.rows):
                part, v = unit_part[(m.codes[j] + shift) & 3]
                row[2 * (a * d + j) + part] = v
            rows.append(row)
    return sparse_rank(rows) == 2 * sig.dim


def verify_periodicity_iso(m: int) -> bool:
    """Same contract as cliffk.reps.verify_periodicity_iso, by the rank of
    the 2**(m+2) blade images written out as rows."""
    blade_imgs = periodicity_blade_images(m)
    if blade_imgs is None:
        return False
    rows = [{ml * 4 + mr: c for (ml, mr), c in img.items()}
            for img in blade_imgs]
    return sparse_rank(rows) == len(blade_imgs)


def untwist_split_check(n: int) -> bool:
    """Same contract as cliffk.reps.untwist_split_check, by the ranks of the
    corner projections written out as rows."""
    if n < 0:
        raise InvalidSignatureError(f"negative reflected-direction count {n}")
    check_size("untwist_split_check({})", (n + 2) << (n + 2), n)
    nblades = 1 << (n + 1)
    crossed_mul = reps._crossed_mul

    def key(term):
        mask, e = term
        return e * nblades + mask

    z = (1 << n, 1)
    # centrality against every generator and against eta itself
    gens = [((1 << i, 0)) for i in range(n + 1)] + [(0, 1)]
    for g in gens:
        s1, t1 = crossed_mul(z, g, n)
        s2, t2 = crossed_mul(g, z, n)
        if (s1, t1) != (s2, t2):
            return False
    sz, tz = crossed_mul(z, z, n)
    if sz != 1 or tz != (0, 0):
        return False
    # corner ranks: x * (1 +- z)/2 for x over the full basis
    for eps in (1, -1):
        rows = []
        for mask in range(nblades):
            for e in (0, 1):
                x = (mask, e)
                s, t = crossed_mul(x, z, n)
                rows.append({key(x): 1, key(t): eps * s})
        if sparse_rank(rows) != nblades:
            return False
        # restriction of the corner projection to the eta-free subalgebra
        # is injective, hence an algebra isomorphism onto the corner
        sub_rows = []
        for mask in range(nblades):
            x = (mask, 0)
            s, t = crossed_mul(x, z, n)
            sub_rows.append({key(x): 1, key(t): eps * s})
        if sparse_rank(sub_rows) != nblades:
            return False
    return True
