"""Pure-Python compute kernels.

These are the hot inner loops of the package: basis-blade products, exact
sparse integer elimination, and Smith normal form with transform
accumulation.  blades, reps and abgroup import this module as their kernel.

All arithmetic is exact.  Matrix entries and row values are Python ints
(arbitrary precision); blade coefficients are whatever exact ring elements the
caller supplies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def sparse_rank(rows, ncols: int | None = None) -> int:
    """Rank of a sparse integer matrix given as an iterable of row maps."""
    return len(_echelonize(rows))


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
    of row lists.
    """
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
