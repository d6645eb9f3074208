"""Representation builder: golden matrices, relations, restrictions."""

import itertools

import pytest

import character_oracle
import intertwiner_oracle as oracle
import product_oracle
import rank_oracle
from cliffk import reps
from cliffk.blades import Signature
from cliffk.errors import (BoundExceededError, EmbeddingError,
                           InvalidSignatureError)
from cliffk.reps import (
    MatrixRep,
    UnitPermMatrix,
    build_rep,
    check_relations,
    kron,
    untwist_split_check,
    verify_classification,
    verify_periodicity_iso,
)
from cliffk.structure import (ScalarField, classify, irrep_dims,
                              min_faithful_dim, restriction_multiplicities)

R = ScalarField.REAL
C = ScalarField.COMPLEX


def dense(m: UnitPermMatrix) -> list[list[int]]:
    """Dense integer entries of a real matrix: every code is 0 or 2."""
    assert all(c % 2 == 0 for c in m.codes), m
    out = [[0] * m.n for _ in range(m.n)]
    for j, a in enumerate(m.rows):
        out[a][j] = 1 if m.codes[j] == 0 else -1
    return out


def pairs(m: UnitPermMatrix) -> list[list[tuple[int, int]]]:
    """Dense entries as (re, im) pairs regardless of realness."""
    out = [[(0, 0)] * m.n for _ in range(m.n)]
    unit = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
    for j, a in enumerate(m.rows):
        out[a][j] = unit[m.codes[j]]
    return out


def mat_mul_pairs(a, b):
    n = len(a)
    out = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            re = im = 0
            for t in range(n):
                (x, y), (u, v) = a[i][t], b[t][j]
                re += x * u - y * v
                im += x * v + y * u
            out[i][j] = (re, im)
    return out


class TestUnitPermMatrix:
    def test_identity(self):
        ident = UnitPermMatrix.identity(3)
        assert dense(ident) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        g = UnitPermMatrix((1, 2, 0), (0, 3, 2))
        assert ident @ g == g
        assert g @ ident == g

    def test_neg_and_unit_scaling(self):
        g = UnitPermMatrix((1, 0), (0, 0))
        assert dense(-g) == [[0, -1], [-1, 0]]
        assert g.mul_unit(2) == -g
        assert g.mul_unit(1).mul_unit(3) == g

    def test_rows_must_be_permutation(self):
        with pytest.raises(ValueError):
            UnitPermMatrix((0, 0), (0, 0))
        with pytest.raises(ValueError):
            UnitPermMatrix((0, 1), (0,))

    def test_inverse_rows(self):
        g = UnitPermMatrix((2, 0, 3, 1), (1, 0, 2, 3))
        inv = oracle.inverse_rows(g)
        for a in range(4):
            assert g.rows[inv[a]] == a

    def test_trace_quadruple(self):
        g = UnitPermMatrix((0, 1, 3, 2), (0, 3, 0, 0))
        # diagonal entries: 1, -i, and a 2x2 off-diagonal block
        assert g.trace_quadruple() == (1, 0, 0, 1)

    def test_matmul_matches_dense_product(self):
        import random

        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randrange(1, 7)
            perms = []
            for _ in range(2):
                rows = list(range(n))
                rng.shuffle(rows)
                codes = [rng.randrange(4) for _ in range(n)]
                perms.append(UnitPermMatrix(rows, codes))
            a, b = perms
            assert pairs(a @ b) == mat_mul_pairs(pairs(a), pairs(b))

    def test_kron_matches_dense_kronecker(self):
        a = UnitPermMatrix((1, 0), (0, 2))
        b = UnitPermMatrix((0, 1), (1, 0))
        big = pairs(kron(a, b))
        pa, pb = pairs(a), pairs(b)
        for ia, ja, ib, jb in itertools.product(range(2), repeat=4):
            (x, y), (u, v) = pa[ia][ja], pb[ib][jb]
            want = (x * u - y * v, x * v + y * u)
            assert big[ia * 2 + ib][ja * 2 + jb] == want


class TestGoldenGenerators:
    """The base-case matrices are part of the builder's contract."""

    def test_one_negative_generator_is_reflection(self):
        rep = build_rep(Signature(0, 1))
        assert rep.dim == 2
        assert dense(rep.gens[0]) == [[1, 0], [0, -1]]

    def test_one_positive_generator_is_rotation(self):
        rep = build_rep(Signature(1, 0))
        assert rep.dim == 2
        assert dense(rep.gens[0]) == [[0, -1], [1, 0]]

    def test_two_negative_generators(self):
        rep = build_rep(Signature(0, 2))
        assert rep.dim == 2
        assert dense(rep.gens[0]) == [[1, 0], [0, -1]]
        assert dense(rep.gens[1]) == [[0, 1], [1, 0]]

    def test_two_positive_generators_are_quaternion_left_mult(self):
        rep = build_rep(Signature(2, 0))
        assert rep.dim == 4
        li = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        lj = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
        assert dense(rep.gens[0]) == li
        assert dense(rep.gens[1]) == lj
        # li . lj is left multiplication by k
        lk = dense(rep.gens[0] @ rep.gens[1])
        assert lk == [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]

    def test_complex_single_positive_generator(self):
        rep = build_rep(Signature(1, 0), C)
        assert rep.dim == 2
        assert pairs(rep.gens[0]) == [[(0, 1), (0, 0)], [(0, 0), (0, -1)]]


ALL_SMALL = [Signature(p, q) for p in range(7) for q in range(7) if p + q <= 6]


class TestRelationsAndDimensions:
    @pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_relations_hold(self, sig, field):
        rep = build_rep(sig, field)
        assert check_relations(rep)

    @pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_builds_minimal_faithful_dimension(self, sig, field):
        assert build_rep(sig, field).dim == min_faithful_dim(sig, field)

    @pytest.mark.parametrize("sig", [Signature(9, 0), Signature(0, 9),
                                     Signature(15, 0), Signature(6, 7)],
                             ids=str)
    def test_large_signatures(self, sig):
        rep = build_rep(sig)
        assert rep.dim == min_faithful_dim(sig)
        assert check_relations(rep)

    def test_generator_count_bound(self):
        # 31 generators of dimension 65536 pass MAX_CELLS; 30 of 32768 do not
        with pytest.raises(BoundExceededError):
            build_rep(Signature(31, 0))
        with pytest.raises(BoundExceededError):
            build_rep(Signature(0, 31), C)
        assert build_rep(Signature(13, 0)).dim == 128

    @pytest.mark.parametrize("field", ["real", "complex", None])
    def test_field_must_be_a_scalar_field(self, field):
        # a string field used to build the complex representation
        with pytest.raises(InvalidSignatureError, match="ScalarField"):
            build_rep(Signature(1, 0), field)

    def test_broken_rep_fails_relations(self):
        rep = build_rep(Signature(0, 2))
        bad = MatrixRep(rep.sig, rep.field, rep.dim, (rep.gens[0], rep.gens[0]))
        assert not check_relations(bad)

    def test_blade_matrices_satisfy_blade_products(self):
        from cliffk.blades import blade_mul

        sig = Signature(2, 1)
        rep = build_rep(sig)
        mats = rank_oracle.blade_matrices(rep)
        assert len(mats) == 8
        for a in range(8):
            for b in range(8):
                sign, mask = blade_mul(a, b, sig)
                want = mats[mask] if sign == 1 else -mats[mask]
                assert mats[a] @ mats[b] == want


class TestClassificationCheck:
    @pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_verified(self, sig, field):
        assert verify_classification(sig, field)

    def test_bound(self):
        # 2**13 blade images of dimension 256 pass MAX_CELLS
        with pytest.raises(BoundExceededError):
            verify_classification(Signature(0, 13))
        # the generator cap, when given, refuses on its own
        with pytest.raises(BoundExceededError):
            verify_classification(Signature(9, 0), max_total=8)
        assert verify_classification(Signature(9, 0))


SIGS_UP_TO_9 = [Signature(p, n - p) for n in range(10) for p in range(n + 1)]


def _doubled(sig: Signature, field, gens) -> MatrixRep:
    """One module taken twice: diag(g, g) for each generator g."""
    ident = UnitPermMatrix.identity(2)
    gens = tuple(kron(ident, g) for g in gens)
    return MatrixRep(sig, field, gens[0].n, gens)


def _non_faithful_reps() -> dict[str, MatrixRep]:
    """Relations hold at the minimal faithful dimension, yet the blade
    images are dependent."""
    ident = UnitPermMatrix.identity(2)
    li, lj = build_rep(Signature(2, 0)).gens
    s1, s2 = build_rep(Signature(0, 2), C).gens
    return {
        "C^{0,1} real, generator I":
            MatrixRep(Signature(0, 1), R, 2, (ident,)),
        "C^{0,1} complex, generator I":
            MatrixRep(Signature(0, 1), C, 2, (ident,)),
        # left multiplication by i, j, k on H (+) H: the volume acts as -1
        "C^{3,0} real, volume -1":
            _doubled(Signature(3, 0), R, (li, lj, li @ lj)),
        # the Pauli matrices on C^2 (+) C^2: the volume acts as i
        "C^{0,3} complex, volume i":
            _doubled(Signature(0, 3), C, (s1, s2, (s1 @ s2).mul_unit(3))),
    }


class TestAgainstRankOracle:
    """The trace, support and pairing certificates agree with exact sparse
    ranks of the rows they stand for."""

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_classification_matches_rank_oracle(self, field):
        # 55 signatures per field
        for sig in SIGS_UP_TO_9:
            assert verify_classification(sig, field) == \
                rank_oracle.verify_classification(sig, field), (sig, field)

    def test_periodicity_matches_rank_oracle(self):
        for m in range(11):
            assert verify_periodicity_iso(m) == \
                rank_oracle.verify_periodicity_iso(m), m

    def test_untwist_matches_rank_oracle(self):
        for n in range(11):
            assert untwist_split_check(n) == \
                rank_oracle.untwist_split_check(n), n

    @pytest.mark.parametrize("case", list(_non_faithful_reps()))
    def test_non_faithful_rep_fails(self, case, monkeypatch):
        rep = _non_faithful_reps()[case]
        assert check_relations(rep)
        assert rep.dim == min_faithful_dim(rep.sig, rep.field)
        monkeypatch.setattr(reps, "build_rep", lambda sig, field=R: rep)
        assert not verify_classification(rep.sig, rep.field)
        assert not rank_oracle.verify_classification(rep.sig, rep.field)

    def test_colliding_supports_fail_periodicity(self, monkeypatch):
        # t1, t2 and t1 t2 satisfy the relations of C^{3,0}, but the blade
        # t1 t2 t3 then lands on the support of 1 (x) e1 e2
        images = reps._periodicity_images

        def collapsed(m):
            out = images(m)
            if m == 3:
                out[2] = (1, 0b011, 0b11)
            return out

        monkeypatch.setattr(reps, "_periodicity_images", collapsed)
        assert not verify_periodicity_iso(3)
        # both oracles take their images from product_oracle's builder
        oracle_images = product_oracle.periodicity_images

        def oracle_collapsed(m):
            out = oracle_images(m)
            if m == 3:
                out[2] = {(0b011, 0b11): 1}
            return out

        monkeypatch.setattr(product_oracle, "periodicity_images",
                            oracle_collapsed)
        assert not rank_oracle.verify_periodicity_iso(3)
        assert not product_oracle.verify_periodicity_iso(3)

    def test_pair_sign_mismatch_fails_untwist(self, monkeypatch):
        # flip the sign of (e1 e2) * z alone: z stays a central involution,
        # but the rows of the pair {e1 e2, e1 e2 z} become independent
        crossed_mul = reps._crossed_mul

        def flipped(t1, t2, n):
            s, t = crossed_mul(t1, t2, n)
            if t1 == (0b11, 0) and t2 == (1 << n, 1):
                return -s, t
            return s, t

        monkeypatch.setattr(reps, "_crossed_mul", flipped)
        assert not untwist_split_check(2)
        assert not rank_oracle.untwist_split_check(2)


def _mutations(rep: MatrixRep):
    """Every rep that differs from rep in one generator by one column's
    code (+1 or +2) or by the rows of two columns swapped."""
    for t, g in enumerate(rep.gens):
        variants = []
        for j in range(g.n):
            for shift in (1, 2):
                codes = list(g.codes)
                codes[j] += shift
                variants.append(UnitPermMatrix(g.rows, codes))
            for k in range(j + 1, g.n):
                rows = list(g.rows)
                rows[j], rows[k] = rows[k], rows[j]
                variants.append(UnitPermMatrix(rows, g.codes))
        for h in variants:
            gens = rep.gens[:t] + (h,) + rep.gens[t + 1:]
            yield MatrixRep(rep.sig, rep.field, rep.dim, gens)


class TestAgainstProductOracle:
    """The index checks and the signed blade triples agree with the forms
    that build every product."""

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_relations_match_product_oracle(self, field):
        for sig in SIGS_UP_TO_9:
            rep = build_rep(sig, field)
            assert check_relations(rep) == \
                product_oracle.check_relations(rep), (sig, field)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_mutated_relations_match_product_oracle(self, field):
        failed = 0
        for sig in ALL_SMALL:
            if sig.n > 5:
                continue
            for bad in _mutations(build_rep(sig, field)):
                got = check_relations(bad)
                assert got == product_oracle.check_relations(bad), \
                    (sig, field, bad.gens)
                failed += not got
        # all but a few break a relation: a code +2 on a diagonal single
        # generator (C^{0,1}, complex C^{1,0}) still squares to -+I
        assert failed > 0

    def test_periodicity_matches_product_oracle(self):
        for m in range(11):
            assert verify_periodicity_iso(m) == \
                product_oracle.verify_periodicity_iso(m), m


RESTRICTION_CASES = [
    # (big, small, field, expected rows: small simples x big simples)
    ((1, 0), (0, 0), R, ((2,),)),
    ((2, 0), (0, 0), R, ((4,),)),
    ((2, 0), (1, 0), R, ((2,),)),
    ((3, 0), (2, 0), R, ((1, 1),)),
    ((3, 0), (0, 0), R, ((4, 4),)),
    ((4, 0), (3, 0), R, ((1,), (1,))),
    ((0, 1), (0, 0), R, ((1, 1),)),
    ((0, 2), (0, 1), R, ((1,), (1,))),
    ((0, 3), (0, 2), R, ((2,),)),
    ((1, 1), (1, 0), R, ((1,),)),
    ((1, 0), (0, 0), C, ((1, 1),)),
    ((2, 0), (1, 0), C, ((1,), (1,))),
    ((0, 2), (0, 1), C, ((1,), (1,))),
]


class TestRestriction:
    @pytest.mark.parametrize("big,small,field,expected", RESTRICTION_CASES)
    def test_pinned_multiplicities(self, big, small, field, expected):
        got = restriction_multiplicities(Signature(*big), Signature(*small),
                                         field)
        assert got == expected

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_column_dimension_bookkeeping(self, field):
        # each big simple module restricts to a direct sum whose dimensions
        # add back up
        bigs = [s for s in ALL_SMALL if 1 <= s.n <= 5]
        for big in bigs:
            smalls = [Signature(p, q) for p in range(big.p + 1)
                      for q in range(big.q + 1) if (p, q) != (big.p, big.q)]
            for small in smalls:
                mult = restriction_multiplicities(big, small, field)
                dims_s = irrep_dims(small, field)
                dims_b = irrep_dims(big, field)
                for b, dim_b in enumerate(dims_b):
                    total = sum(mult[s][b] * dims_s[s]
                                for s in range(len(dims_s)))
                    assert total == dim_b, (big, small, field, b)

    def test_transitive_through_intermediate(self):
        def matmul(a, b):
            return tuple(
                tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                      for j in range(len(b[0])))
                for i in range(len(a)))

        m_40_20 = restriction_multiplicities(Signature(4, 0), Signature(2, 0))
        m_20_00 = restriction_multiplicities(Signature(2, 0), Signature(0, 0))
        m_40_00 = restriction_multiplicities(Signature(4, 0), Signature(0, 0))
        assert matmul(m_20_00, m_40_20) == m_40_00

    def test_requires_embedding(self):
        with pytest.raises(EmbeddingError):
            restriction_multiplicities(Signature(1, 0), Signature(0, 2))

    def test_generator_bound(self):
        # no representation is built, so the bound is classify's digit
        # limit on the big signature: 14284 generators fit, 14285 do not
        with pytest.raises(BoundExceededError):
            restriction_multiplicities(Signature(14285, 0), Signature(0, 0))
        # the simple module of C^{14284,0} is H**(2**7141), of real
        # dimension 2**7143
        got = restriction_multiplicities(Signature(14284, 0), Signature(0, 0))
        assert got == ((1 << 7143,),)


SIGS_UP_TO_8 = [Signature(p, n - p) for n in range(9) for p in range(n + 1)]
SIGS_UP_TO_12 = [Signature(p, n - p) for n in range(13) for p in range(n + 1)]


def ring_end_dim(sig: Signature, field: ScalarField) -> int:
    """dim over the field of End of a simple module: dim D, or 1 over C."""
    return classify(sig, field).ring.dim_real if field is R else 1


class TestAgainstIntertwinerOracle:
    """The closed form agrees with character pairings and with explicit
    intertwiner solves on the built representations."""

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_restriction_matches_pairing_oracle(self, field):
        # every (big, small) with big.n <= 12, small = big included: 1820
        # pairs per field
        for big in SIGS_UP_TO_12:
            for sp, sq in itertools.product(range(big.p + 1),
                                            range(big.q + 1)):
                small = Signature(sp, sq)
                assert restriction_multiplicities(big, small, field) == \
                    character_oracle.restriction_multiplicities(
                        big, small, field), (big, small, field)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_end_dims_match_pairing_oracle(self, field):
        for sig in SIGS_UP_TO_12:
            labels = (1, -1) if classify(sig, field).factors == 2 else (None,)
            for label in labels:
                assert character_oracle.irrep_end_dim(sig, field, label) == \
                    ring_end_dim(sig, field), (sig, label)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_restriction_exhaustive(self, field):
        # every (big, small) with big.n <= 8, small = big included
        for big in SIGS_UP_TO_8:
            for sp, sq in itertools.product(range(big.p + 1),
                                            range(big.q + 1)):
                small = Signature(sp, sq)
                assert restriction_multiplicities(big, small, field) == \
                    oracle.restriction_multiplicities(big, small, field), \
                    (big, small, field)

    @pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
    def test_end_dims_exhaustive(self, field):
        for sig in SIGS_UP_TO_8:
            labels = (1, -1) if classify(sig, field).factors == 2 else (None,)
            for label in labels:
                assert oracle.irrep_end_dim(sig, field, label) == \
                    ring_end_dim(sig, field), (sig, label)


class TestEndomorphismDimensions:
    """The division-ring constants are fixed by the built representations.

    build_rep gives one copy of each of the f simple modules, each of
    dimension s = k dim D over an algebra of dimension 2**n = f k**2 dim D,
    so f s**2 = 2**n dim End: the module's size alone pins dim End.
    """

    @pytest.mark.parametrize("sig", [s for s in ALL_SMALL if s.n <= 4],
                             ids=str)
    def test_real_end_dims_match_ring(self, sig):
        desc = classify(sig)
        simple = build_rep(sig, R).dim // desc.factors
        assert desc.factors * simple ** 2 == sig.dim * desc.ring.dim_real

    @pytest.mark.parametrize("sig", [s for s in ALL_SMALL if s.n <= 4],
                             ids=str)
    def test_complex_end_dims_are_one(self, sig):
        factors = classify(sig, C).factors
        simple = build_rep(sig, C).dim // factors
        assert factors * simple ** 2 == sig.dim


class TestStructuralIsomorphisms:
    @pytest.mark.parametrize("m", range(4))
    def test_periodicity_iso(self, m):
        assert verify_periodicity_iso(m)

    def test_periodicity_bound(self):
        # (m+2) * 2**(m+2) entries: m = 14 reaches MAX_CELLS, m = 15 passes it
        with pytest.raises(BoundExceededError):
            verify_periodicity_iso(15)

    @pytest.mark.parametrize("n", range(3))
    def test_untwist_split(self, n):
        assert untwist_split_check(n)

    def test_untwist_bound(self):
        # (n+2) * 2**(n+2) entries: n = 14 reaches MAX_CELLS, n = 15 passes it
        with pytest.raises(BoundExceededError):
            untwist_split_check(15)

    def test_negative_parameters(self):
        with pytest.raises(InvalidSignatureError):
            verify_periodicity_iso(-3)
        with pytest.raises(InvalidSignatureError):
            untwist_split_check(-3)
