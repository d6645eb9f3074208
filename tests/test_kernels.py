"""Backend parity and contracts for the low-level compute kernels.

Every function is exercised against the pure implementation; when the
compiled extension is importable the same inputs must produce identical
outputs, since cliffk.backend treats the two as interchangeable.  The
union-find rank of the intertwiner oracle is tested here too.
"""

import random

import pytest

from cliffk.backend import available_backends, get_kernel
from intertwiner_oracle import unit_pair_rank

pure = get_kernel("pure")
BACKENDS = [get_kernel(name) for name in available_backends()]


def _random_sparse_rows(rng, nrows, ncols, density=0.4, lo=-9, hi=9):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def _matmul(a, b):
    if not a or not b:
        return []
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(mat):
    # fraction-free Bareiss, enough for unimodularity checks on small U/V
    from fractions import Fraction
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    assert det.denominator == 1
    return int(det)


@pytest.mark.parametrize("kern", BACKENDS, ids=lambda k: k.IMPLEMENTATION)
class TestPerBackend:
    def test_blade_mul_mask_examples(self, kern):
        # e1 * e1 in each metric
        assert kern.blade_mul_mask(1, 1, 1) == (-1, 0)
        assert kern.blade_mul_mask(1, 1, 0) == (1, 0)
        # e1 * e2 keeps order, e2 * e1 flips sign
        assert kern.blade_mul_mask(0b01, 0b10, 0) == (1, 0b11)
        assert kern.blade_mul_mask(0b10, 0b01, 0) == (-1, 0b11)
        # (e1e2)^2 = -1 regardless of the metric split at p = 0
        assert kern.blade_mul_mask(0b11, 0b11, 0) == (-1, 0)

    def test_blade_mul_identity(self, kern):
        for mask in range(16):
            assert kern.blade_mul_mask(0, mask, 2) == (1, mask)
            assert kern.blade_mul_mask(mask, 0, 2) == (1, mask)

    def test_sparse_rank_matches_dense(self, kern):
        rng = random.Random(7)
        for _ in range(60):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(1, 6)
            rows = _random_sparse_rows(rng, nrows, ncols)
            dense = _dense(rows, ncols)
            expect = _rank_fraction(dense, ncols)
            assert kern.sparse_rank(rows, ncols) == expect

    def test_sparse_nullspace_annihilates(self, kern):
        rng = random.Random(11)
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 6)
            rows = _random_sparse_rows(rng, nrows, ncols)
            basis = kern.sparse_nullspace(rows, ncols)
            assert len(basis) == ncols - kern.sparse_rank(rows, ncols)
            for vec in basis:
                for row in rows:
                    s = sum(v * vec.get(j, 0) for j, v in row.items())
                    assert s == 0
                # primitive: content 1
                from math import gcd
                g = 0
                for v in vec.values():
                    g = gcd(g, v)
                assert g == 1

    def test_snf_contract(self, kern):
        rng = random.Random(13)
        for _ in range(50):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
            U, D, V = kern.snf(mat, m, n)
            assert _matmul(_matmul(U, mat), V) == D
            assert abs(_det(U)) == 1
            assert abs(_det(V)) == 1
            diag = [D[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert D[i][j] == 0
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a and b % a == 0

    def test_snf_empty_shapes(self, kern):
        U, D, V = kern.snf([], 0, 0)
        assert (U, D, V) == ([], [], [])
        U, D, V = kern.snf([[]], 1, 0)
        assert U == [[1]] and D == [[]] and V == []


class TestUnitPairRankOracle:
    """The union-find rank behind the intertwiner oracle of the reps tests."""

    def test_unit_pair_rank_basics(self):
        # x0 = x1, x1 = x2: two independent constraints
        rows = [{0: 1, 1: -1}, {1: 1, 2: -1}]
        assert unit_pair_rank(rows, 3) == 2
        # adding the implied x0 = x2 changes nothing
        rows.append({0: 1, 2: -1})
        assert unit_pair_rank(rows, 3) == 2
        # x0 = -x2 contradicts, killing the whole class
        rows.append({0: 1, 2: 1})
        assert unit_pair_rank(rows, 3) == 3

    def test_unit_pair_rank_single_term(self):
        rows = [{0: 1, 1: 1}, {1: 2}]
        assert unit_pair_rank(rows, 3) == 2

    def test_unit_pair_rank_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            unit_pair_rank([{0: 1, 1: 2}], 2)
        with pytest.raises(ValueError):
            unit_pair_rank([{0: 1, 1: 1, 2: 1}], 3)

    def test_unit_pair_rank_rejects_bad_columns(self):
        # a negative column would otherwise wrap around to the last one
        for row in ({-1: 1, 0: -1}, {3: 1}, {0: 1, 3: 1}):
            with pytest.raises(ValueError):
                unit_pair_rank([row], 3)


def _rank_fraction(dense, ncols):
    from fractions import Fraction
    rows = [[Fraction(x) for x in row] for row in dense]
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                for j in range(ncols):
                    rows[r][j] -= f * rows[rank][j]
        rank += 1
        col += 1
    return rank


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel not built")
class TestBackendParity:
    def test_blade_mul_parity(self):
        compiled = get_kernel("compiled")
        for a in range(64):
            for b in range(64):
                for p in (0, 2, 6):
                    assert pure.blade_mul_mask(a, b, p) == \
                        compiled.blade_mul_mask(a, b, p)

    def test_blade_mul_parity_wide_masks(self):
        compiled = get_kernel("compiled")
        # beyond the 62-bit fast path of the compiled kernel
        a = (1 << 70) | (1 << 3) | 1
        b = (1 << 70) | (1 << 5)
        for p in (0, 4, 71):
            assert pure.blade_mul_mask(a, b, p) == \
                compiled.blade_mul_mask(a, b, p)

    def test_rank_and_nullspace_parity(self):
        compiled = get_kernel("compiled")
        rng = random.Random(17)
        for _ in range(40):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(1, 7)
            rows = _random_sparse_rows(rng, nrows, ncols)
            assert pure.sparse_rank(rows, ncols) == \
                compiled.sparse_rank(rows, ncols)
            assert pure.sparse_nullspace(rows, ncols) == \
                compiled.sparse_nullspace(rows, ncols)

    def test_snf_parity(self):
        compiled = get_kernel("compiled")
        rng = random.Random(23)
        for _ in range(30):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
            assert pure.snf([list(r) for r in mat], m, n) == \
                compiled.snf([list(r) for r in mat], m, n)

    def test_mul_term_maps_parity(self):
        from fractions import Fraction
        compiled = get_kernel("compiled")
        rng = random.Random(29)
        for _ in range(30):
            ta = {rng.randrange(8): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 4))}
            tb = {rng.randrange(8): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 4))}
            assert pure.mul_term_maps(ta, tb, 2) == \
                compiled.mul_term_maps(ta, tb, 2)
