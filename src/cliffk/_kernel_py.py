"""Pure-Python compute kernels.

These are the hot inner loops of the package: basis-blade products and
Smith normal form with transform accumulation.  blades, reps and abgroup
import this module as their kernel.

All arithmetic is exact.  Matrix entries are Python ints (arbitrary
precision); blade coefficients are whatever exact ring elements the caller
supplies.
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


def mul_term_maps(ta: dict, tb: dict, p: int) -> dict:
    """Product of two blade-coefficient maps over a (p, *) signature.

    Coefficients may be any exact ring elements supporting *, +, unary -,
    and truthiness; zero results are dropped.
    """
    out: dict = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            sign, m = blade_mul_mask(ma, mb, p)
            c = ca * cb
            if sign < 0:
                c = -c
            acc = out.get(m)
            if acc is None:
                if c:
                    out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


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
    check_size(f"Smith normal form of a {nrows} x {ncols} matrix",
               nrows * nrows + ncols * ncols)
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
