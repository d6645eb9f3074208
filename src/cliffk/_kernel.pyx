"""Compiled compute kernels.

Same functions, same semantics as cliffk._kernel_py; the blade product runs
on C integers, the elimination and Smith normal form keep Python big
integers for their entries (fraction-free growth can exceed 64 bits) and
compile only the loop structure.
"""

from fractions import Fraction
from math import gcd

IMPLEMENTATION = "compiled"


cdef inline int _popcount_ull(unsigned long long x):
    cdef int c = 0
    while x:
        x &= x - 1
        c += 1
    return c


def blade_mul_mask(a, b, p):
    """Multiply basis blades given as bitmasks; bit i is generator i+1.

    The first ``p`` generators square to -1, the rest to +1.  Returns
    ``(sign, mask)`` with sign in {+1, -1} and ``mask == a ^ b``.
    """
    cdef unsigned long long ua, ub, metric_mask
    cdef int swaps, neg, i
    if a < 2 ** 62 and b < 2 ** 62 and p < 62:
        ua = a
        ub = b
        swaps = 0
        for i in range(62):
            if (ub >> i) & 1:
                swaps += _popcount_ull(ua >> (i + 1))
        metric_mask = ((<unsigned long long> 1) << p) - 1
        neg = _popcount_ull(ua & ub & metric_mask)
        return (-1 if (swaps + neg) & 1 else 1), a ^ b
    # arbitrary-precision fallback, same algorithm on Python ints
    swaps = 0
    bb = b
    while bb:
        low = bb & -bb
        swaps += (a >> low.bit_length()).bit_count()
        bb ^= low
    neg = (a & b & ((1 << p) - 1)).bit_count()
    return (-1 if (swaps + neg) & 1 else 1), a ^ b


def mul_term_maps(ta, tb, p):
    """Product of two blade-coefficient maps over a (p, *) signature."""
    out = {}
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


cdef void _content_reduce(dict r):
    cdef object g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in r:
            r[k] //= g


cdef dict _eliminate(row, dict pivots):
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


cdef dict _echelonize(rows):
    cdef dict pivots = {}
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


def sparse_rank(rows, ncols=None):
    """Rank of a sparse integer matrix given as an iterable of row maps."""
    return len(_echelonize(rows))


def sparse_nullspace(rows, ncols):
    """Primitive integer basis of the right nullspace of a sparse matrix."""
    cdef dict pivots = _echelonize(rows)
    order = sorted(pivots, reverse=True)
    basis = []
    cdef int f
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
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


cdef void _row_sub(list M, int i, int t, q):
    cdef int j
    if q:
        Mi = M[i]
        Mt = M[t]
        for j in range(len(Mi)):
            Mi[j] -= q * Mt[j]


cdef void _col_sub(list M, int j, int t, q):
    if q:
        for row in M:
            row[j] -= q * row[t]


cdef void _col_swap(list M, int a, int b):
    for row in M:
        row[a], row[b] = row[b], row[a]


cdef _bal_div(x, d):
    # quotient leaving the minimal-magnitude remainder: |x - q*d| <= |d|/2
    q, r = divmod(x, d)
    if 2 * abs(r) > abs(d):
        q += 1
    return q


cdef void _diagonalize(list D, list U, list V, int m, int n):
    cdef int t = 0, i, j, bi, bj
    cdef bint dirty, clean, have
    while t < m and t < n:
        while True:
            # re-picking the smallest pivot every pass keeps quotients, and
            # with them fill-in, from compounding across remainder chases
            have = False
            bi = bj = 0
            best = None
            for i in range(t, m):
                Di = D[i]
                for j in range(t, n):
                    v = Di[j]
                    if v:
                        a = -v if v < 0 else v
                        if not have or a < best:
                            best = a
                            bi = i
                            bj = j
                            have = True
            if not have:
                return
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
            if not dirty:
                clean = True
                for i in range(m):
                    if i != t and D[i][t]:
                        clean = False
                        break
                if clean:
                    break
        t += 1


def snf(mat, nrows, ncols):
    """Smith normal form with transforms: U @ mat @ V == D."""
    cdef int m = nrows, n = ncols, t, j, fix
    D = [list(row) for row in mat]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _round in range(10000):
        _diagonalize(D, U, V, m, n)
        for t in range(min(m, n)):
            if D[t][t] < 0:
                for j in range(n):
                    D[t][j] = -D[t][j]
                for j in range(m):
                    U[t][j] = -U[t][j]
        fix = -1
        for t in range(min(m, n) - 1):
            a = D[t][t]
            b = D[t + 1][t + 1]
            if a and b and b % a:
                fix = t
                break
        if fix < 0:
            return U, D, V
        # merge the offending pair and rediagonalize
        _col_sub(D, fix, fix + 1, -1)
        _col_sub(V, fix, fix + 1, -1)
    raise AssertionError("Smith normal form failed to converge")
