"""Contracts for the low-level compute kernels in cliffk._kernel_py.

The union-find rank of the intertwiner oracle is tested here too.
"""

import random

import pytest

from cliffk import _kernel_py as kern
from intertwiner_oracle import unit_pair_rank


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


class TestKernel:
    def test_blade_mul_mask_examples(self):
        # e1 * e1 in each metric
        assert kern.blade_mul_mask(1, 1, 1) == (-1, 0)
        assert kern.blade_mul_mask(1, 1, 0) == (1, 0)
        # e1 * e2 keeps order, e2 * e1 flips sign
        assert kern.blade_mul_mask(0b01, 0b10, 0) == (1, 0b11)
        assert kern.blade_mul_mask(0b10, 0b01, 0) == (-1, 0b11)
        # (e1e2)^2 = -1 regardless of the metric split at p = 0
        assert kern.blade_mul_mask(0b11, 0b11, 0) == (-1, 0)

    def test_blade_mul_identity(self):
        for mask in range(16):
            assert kern.blade_mul_mask(0, mask, 2) == (1, mask)
            assert kern.blade_mul_mask(mask, 0, 2) == (1, mask)

    def test_sparse_rank_matches_dense(self):
        rng = random.Random(7)
        for _ in range(60):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(1, 6)
            rows = _random_sparse_rows(rng, nrows, ncols)
            dense = _dense(rows, ncols)
            expect = _rank_fraction(dense, ncols)
            assert kern.sparse_rank(rows, ncols) == expect

    def test_sparse_nullspace_annihilates(self):
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

    def test_snf_contract(self):
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

    def test_snf_empty_shapes(self):
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
