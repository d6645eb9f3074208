"""Reference restriction multiplicities by explicit intertwiner solves.

The library reads restriction multiplicities and endomorphism dimensions
off the classification table in closed form (cliffk.structure), and
tests/character_oracle.py computes them by character pairing.  This module
computes the same numbers the slow, independent way: it writes the
intertwiner equations rho_big(g) X = X rho_small(g) for every embedded
generator as a system of two-term +-1 rows and takes its nullity with a
signed union-find.  It serves only as the oracle for the differential tests.
"""

from __future__ import annotations

from character_oracle import (_central_involution, _embedding_indices,
                              _factor_labels)
from cliffk.blades import Signature
from cliffk.reps import MatrixRep, UnitPermMatrix, build_rep
from cliffk.structure import ScalarField, classify

_REAL = ScalarField.REAL
_COMPLEX = ScalarField.COMPLEX


def unit_pair_rank(rows, ncols: int) -> int:
    """Rank of a system whose rows have at most two entries, all +-1.

    Rows are {column: value} maps.  Such systems are solved exactly by a
    union-find over the columns carrying a relative sign: a two-term row
    identifies two columns up to sign, a contradictory identification or a
    one-term row forces a whole class to zero.  Raises ValueError on a row
    that does not fit the shape or names a column outside [0, ncols)
    (caller bug, never silently wrong).
    """
    parent = list(range(ncols))
    sign = [1] * ncols
    alive = bytearray(b"\x01") * ncols
    size = [1] * ncols

    def find(x: int) -> tuple[int, int]:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):
            s *= sign[y]
            parent[y] = x
            sign[y] = s
        return x, s

    for row in rows:
        items = [(k, v) for k, v in row.items() if v]
        if not items:
            continue
        if any(not 0 <= k < ncols for k, _ in items):
            raise ValueError(f"row {row} has a column outside [0, {ncols})")
        if len(items) == 1:
            # a single-term row with any nonzero coefficient forces zero
            c, _v = items[0]
            r, _s = find(c)
            alive[r] = 0
            continue
        if len(items) > 2 or any(v not in (1, -1) for _, v in items):
            raise ValueError("row is not a two-term unit row")
        (c1, v1), (c2, v2) = items
        r1, s1 = find(c1)
        r2, s2 = find(c2)
        if r1 == r2:
            if v1 * s1 + v2 * s2:
                alive[r1] = 0
            continue
        rel = -v1 * s1 * v2 * s2
        if size[r1] > size[r2]:
            r1, r2 = r2, r1
        parent[r1] = r2
        sign[r1] = rel
        size[r2] += size[r1]
        if not alive[r1]:
            alive[r2] = 0

    nullity = 0
    for x in range(ncols):
        if parent[x] == x and alive[x]:
            nullity += 1
    return ncols - nullity


# A linear term in an intertwiner equation: i**code * sign * X[cell].
# Equations are lists of such terms summing to zero.

def _emit_rows(equations, ncells: int, complexified: bool):
    """Render term lists to integer rows; realify when complexified."""
    if not complexified:
        for eq in equations:
            row: dict[int, int] = {}
            for cell, code, s in eq:
                v = s if code == 0 else -s
                nv = row.get(cell, 0) + v
                if nv:
                    row[cell] = nv
                elif cell in row:
                    del row[cell]
            if row:
                yield row
    else:
        # z = x + iy; i**code * z has real part [x, -y, -x, y][code] and
        # imaginary part [y, x, -y, -x][code]
        re_key = ((0, 1), (1, -1), (0, -1), (1, 1))
        im_key = ((1, 1), (0, 1), (1, -1), (0, -1))
        for eq in equations:
            for table in (re_key, im_key):
                row = {}
                for cell, code, s in eq:
                    part, v = table[code]
                    key = 2 * cell + part
                    nv = row.get(key, 0) + v * s
                    if nv:
                        row[key] = nv
                    elif key in row:
                        del row[key]
                if row:
                    yield row


def inverse_rows(m: UnitPermMatrix) -> tuple[int, ...]:
    """Permutation lookup: inverse_rows(m)[a] is the column hitting row a."""
    inv = [0] * m.n
    for j, a in enumerate(m.rows):
        inv[a] = j
    return tuple(inv)


def _hom_nullity(big: MatrixRep, small: MatrixRep, emb_idx: tuple[int, ...],
                 big_cond, small_cond) -> int:
    """Real dimension of {X : rho_big(g) X = X rho_small(g), side conditions}.

    X is dim(big) x dim(small).  ``big_cond``/``small_cond`` are optional
    (matrix, eps) pairs imposing rho_big(c) X = eps X and X rho_small(c) =
    eps X; they cut the solution space down to a single simple summand on
    each side.  Complex representations are realified, doubling the count.
    """
    db, ds = big.dim, small.dim
    complexified = big.field is _COMPLEX

    def equations():
        for t_small, t_big in enumerate(emb_idx):
            g = big.gens[t_big]
            h = small.gens[t_small]
            ginv = inverse_rows(g)
            gcodes = g.codes
            hrows = h.rows
            hcodes = h.codes
            for a in range(db):
                ja = ginv[a]
                ca = gcodes[ja]
                base = ja * ds
                arow = a * ds
                for b in range(ds):
                    # (g X)(a,b) - (X h)(a,b) = 0
                    yield ((base + b, ca, 1), (arow + hrows[b], hcodes[b], -1))
        if big_cond is not None:
            c, eps = big_cond
            cinv = inverse_rows(c)
            for a in range(db):
                ja = cinv[a]
                base = ja * ds
                arow = a * ds
                for b in range(ds):
                    yield ((base + b, c.codes[ja], 1), (arow + b, 0, -eps))
        if small_cond is not None:
            c, eps = small_cond
            for a in range(db):
                arow = a * ds
                for b in range(ds):
                    yield ((arow + c.rows[b], c.codes[b], 1), (arow + b, 0, -eps))

    ncols = db * ds * (2 if complexified else 1)
    rank = unit_pair_rank(_emit_rows(equations(), ncols, complexified), ncols)
    return ncols - rank


def _field_nullity(nullity: int, field: ScalarField) -> int:
    """Realified nullity back to a dimension over the scalar field."""
    if field is _COMPLEX:
        half, rem = divmod(nullity, 2)
        if rem:
            raise AssertionError(f"odd realified nullity {nullity}")
        return half
    return nullity


def restriction_multiplicities(big: Signature, small: Signature,
                               field: ScalarField = _REAL
                               ) -> tuple[tuple[int, ...], ...]:
    """Same contract as cliffk.structure.restriction_multiplicities, by solves."""
    emb_idx = _embedding_indices(big, small)
    rep_b = build_rep(big, field)
    rep_s = build_rep(small, field)
    desc_b = classify(big, field)
    desc_s = classify(small, field)
    cb = _central_involution(rep_b) if desc_b.factors == 2 else None
    cs = _central_involution(rep_s) if desc_s.factors == 2 else None
    end_dim = desc_s.ring.dim_real if field is _REAL else 1
    rows = []
    for eps_s in _factor_labels(desc_s):
        row = []
        for eps_b in _factor_labels(desc_b):
            nullity = _field_nullity(_hom_nullity(
                rep_b, rep_s, emb_idx,
                (cb, eps_b) if cb is not None else None,
                (cs, eps_s) if cs is not None else None,
            ), field)
            mult, rem = divmod(nullity, end_dim)
            if rem:
                raise AssertionError((big, small, field, eps_s, eps_b, nullity))
            row.append(mult)
        rows.append(tuple(row))
    return tuple(rows)


def irrep_end_dim(sig: Signature, field: ScalarField = _REAL,
                  label=None) -> int:
    """dim over the field of End of the simple module picked by ``label``
    (+1 or -1 for two-factor algebras), by an explicit solve."""
    rep = build_rep(sig, field)
    cond = None
    if classify(sig, field).factors == 2:
        cond = (_central_involution(rep), label)
    nullity = _hom_nullity(rep, rep, tuple(range(sig.n)), cond, cond)
    return _field_nullity(nullity, field)
