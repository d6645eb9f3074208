"""Reference center basis by exact linear solve over coefficient space.

The library finds the center of C^{p,q} by sign tests: it keeps the blades
that commute with every generator (cliffk.blades.center_basis).  This
module solves the commutator system [x, ei] = 0 over the full 2**n
coefficient space instead, with an exact sparse null space, and serves as
the oracle for the differential test and the null-space tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from cliffk.blades import Signature, blade_mul_mask
from rank_oracle import _echelonize


def sparse_nullspace(rows, ncols: int) -> list[dict]:
    """Primitive integer basis of the right nullspace of a sparse matrix.

    One basis vector per non-pivot column, in ascending column order; each is
    a {column: int} map scaled to content 1 with positive entry at its free
    column.  Deterministic for a fixed row order.
    """
    pivots = _echelonize(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v: dict = {f: Fraction(1)}
        for c in order:
            pr = pivots[c]
            s = Fraction(0)
            for k, val in pr.items():
                if k != c and k in v:
                    s += val * v[k]
            if s:
                v[c] = -s / pr[c]
        den = 1
        for x in v.values():
            d = x.denominator
            den = den // gcd(den, d) * d
        w = {}
        g = 0
        for k, x in v.items():
            n = int(x * den)
            if n:
                w[k] = n
                g = gcd(g, n)
        if g > 1:
            for k in w:
                w[k] //= g
        basis.append(w)
    return basis


def center_basis(sig: Signature) -> list[dict]:
    """A primitive basis of the commutator system's solution space, as
    {mask: int} vectors in ascending leading-blade order.  The library's
    center_basis gives mask b where this gives {b: 1}."""
    dim = sig.dim
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(1, sig.n + 1):
        g = 1 << (i - 1)
        for b in range(dim):
            s1, m = blade_mul_mask(b, g, sig.p)
            s2, m2 = blade_mul_mask(g, b, sig.p)
            if m != m2:
                raise AssertionError(
                    f"blade products {b} * {g} and {g} * {b} differ in mask")
            c = s1 - s2
            if c:
                rows.setdefault((i, m), {})[b] = c
    return sparse_nullspace(list(rows.values()), dim)
