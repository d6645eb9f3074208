"""Pure-Python compute kernels.

These are the hot inner loops of the package: basis-blade products, Smith
normal form with transform accumulation, and Hermite normal form of a
subgroup lattice, the canonical key that decides exactness.  blades, reps
and abgroup import this module as their kernel.

All arithmetic is exact: blades are bitmasks with a sign, and matrix
entries are Python ints (arbitrary precision).
"""

from __future__ import annotations

from .errors import check_size


def blade_mul_mask(a: int, b: int, p: int) -> tuple[int, int]:
    """Multiply basis blades given as bitmasks; bit i is generator i+1.

    The first ``p`` generators square to -1, the rest to +1.  Returns
    ``(sign, mask)`` with sign in {+1, -1} and ``mask == a ^ b``.  The sign
    counts the transpositions needed to interleave the two sorted generator
    words, plus one -1 per annihilated generator pair of negative square.
    """
    swaps = 0
    bb = b
    while bb:
        low = bb & -bb
        # generators of `a` strictly above this one must be moved past it
        swaps += (a >> low.bit_length()).bit_count()
        bb ^= low
    neg = (a & b & ((1 << p) - 1)).bit_count()
    sign = -1 if (swaps + neg) & 1 else 1
    return sign, a ^ b


def _row_sub(M: list, i: int, t: int, q: int) -> None:
    if q:
        Mi, Mt = M[i], M[t]
        for j in range(len(Mi)):
            Mi[j] -= q * Mt[j]


def _col_sub(M: list, j: int, t: int, q: int) -> None:
    if q:
        for row in M:
            row[j] -= q * row[t]


def _col_swap(M: list, a: int, b: int) -> None:
    for row in M:
        row[a], row[b] = row[b], row[a]


def _bal_div(x: int, d: int) -> int:
    """Quotient leaving the minimal-magnitude remainder: |x - q*d| <= |d|/2."""
    q, r = divmod(x, d)
    if 2 * abs(r) > abs(d):
        q += 1
    return q


def _diagonalize(D: list, U: list, V: list, m: int, n: int) -> None:
    t = 0
    while t < m and t < n:
        while True:
            # re-picking the smallest pivot every pass keeps quotients, and
            # with them fill-in, from compounding across remainder chases
            best = None
            for i in range(t, m):
                Di = D[i]
                for j in range(t, n):
                    v = Di[j]
                    if v:
                        a = -v if v < 0 else v
                        if best is None or a < best[0]:
                            best = (a, i, j)
            if best is None:
                return
            _, bi, bj = best
            if bi != t:
                D[t], D[bi] = D[bi], D[t]
                U[t], U[bi] = U[bi], U[t]
            if bj != t:
                _col_swap(D, t, bj)
                _col_swap(V, t, bj)
            p = D[t][t]
            dirty = False
            for i in range(m):
                if i != t and D[i][t]:
                    q = _bal_div(D[i][t], p)
                    _row_sub(D, i, t, q)
                    _row_sub(U, i, t, q)
                    if D[i][t]:
                        dirty = True
            if dirty:
                # a remainder at most half the pivot exists; chase it
                continue
            for j in range(n):
                if j != t and D[t][j]:
                    q = _bal_div(D[t][j], p)
                    _col_sub(D, j, t, q)
                    _col_sub(V, j, t, q)
                    if D[t][j]:
                        dirty = True
            if not dirty and all(D[i][t] == 0 for i in range(m) if i != t):
                break
        t += 1


def snf(mat, nrows: int, ncols: int) -> tuple[list, list, list]:
    """Smith normal form with transforms: U @ mat @ V == D.

    U and V are unimodular; D is diagonal with non-negative entries in a
    divisibility chain d1 | d2 | ... followed by zeros.  Matrices are lists
    of row lists.  The transforms hold nrows**2 + ncols**2 entries, which
    must fit MAX_CELLS.
    """
    check_size("Smith normal form of a {} x {} matrix",
               nrows * nrows + ncols * ncols, nrows, ncols)
    D = [list(row) for row in mat]
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    for _ in range(10000):
        _diagonalize(D, U, V, nrows, ncols)
        for t in range(min(nrows, ncols)):
            if D[t][t] < 0:
                for j in range(ncols):
                    D[t][j] = -D[t][j]
                for j in range(nrows):
                    U[t][j] = -U[t][j]
        fix = -1
        for t in range(min(nrows, ncols) - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a:
                fix = t
                break
        if fix < 0:
            return U, D, V
        # merge the offending pair and rediagonalize
        _col_sub(D, fix, fix + 1, -1)
        _col_sub(V, fix, fix + 1, -1)
    raise AssertionError("Smith normal form failed to converge")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def hnf(gens, moduli) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by ``gens`` and the
    vectors moduli[j] * e_j, as a tuple of its nonzero rows.

    ``moduli[j]`` is 0 for a free coordinate.  The form is canonical: rows
    in echelon order, each pivot positive, and every entry above a pivot
    reduced into [0, pivot).  So two generator lists span the same lattice
    iff their forms are equal, which makes the form a key for a subgroup
    of Z^r + Z/d_1 + ... (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.2).  Every torsion column ends up a pivot column.

    Columns are cleared left to right by extended-gcd row pairs.  The row
    d_j * e_j joins when column j is cleared: it has zeros to the left, and
    added earlier it would be reduced mod d_j to nothing.  Entries in a
    torsion column k not yet cleared are reduced mod d_k throughout, which
    the lattice allows and which keeps them small.
    """
    n = len(moduli)
    gens = list(gens)
    check_size("Hermite normal form of {} generators in {} coordinates",
               (len(gens) + n) * n, len(gens), n)
    tors = [k for k in range(n) if moduli[k]]
    rows = []
    for v in gens:
        r = list(v)
        for k in tors:
            r[k] %= moduli[k]
        if any(r):
            rows.append(r)
    out = []
    pivots = []
    for j in range(n):
        d = moduli[j]
        if d:
            r = [0] * n
            r[j] = d
            rows.append(r)
        piv = None
        rest = []
        later = [k for k in tors if k > j]
        for r in rows:
            x = r[j]
            if not x:
                # untouched: still reduced, still nonzero
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                a = piv[j]
                if x % a == 0:
                    q = x // a
                    r = [u - q * w for u, w in zip(r, piv)]
                else:
                    g, s, t = _xgcd(a, x)
                    ag, xg = a // g, x // g
                    piv, r = ([s * w + t * u for w, u in zip(piv, r)],
                              [xg * w - ag * u for w, u in zip(piv, r)])
                for k in later:
                    r[k] %= moduli[k]
                if any(r):
                    rest.append(r)
        rows = rest
        if piv is not None:
            if piv[j] < 0:
                piv = [-w for w in piv]
            for k in later:
                piv[k] %= moduli[k]
            out.append(piv)
            pivots.append(j)
    # reduce above each pivot, left to right: a pivot row is zero left of
    # its pivot, so it leaves the entries reduced before it alone
    for i, (c, row) in enumerate(zip(pivots, out)):
        p = row[c]
        for r in out[:i]:
            q = r[c] // p
            if q:
                for k in range(c, n):
                    r[k] -= q * row[k]
    return tuple(tuple(r) for r in out)
