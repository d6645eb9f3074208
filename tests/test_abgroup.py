"""Finitely generated abelian groups: canonical forms, exactness, solving."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffk.abgroup import (
    UNKNOWN_MAP,
    FGAbelianGroup,
    GroupHom,
    Sequence,
    UnknownGroup,
    _entry_candidates,
    _hom_count,
    check_exact,
    cokernel,
    exactness_indices,
    image,
    kernel,
    smith_normal_form,
    solve_exact,
)
from cliffk.errors import IllDefinedHomError, SearchSpaceError

Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup.free(2)
TRIV = FGAbelianGroup.trivial()


def cyclic(d: int) -> FGAbelianGroup:
    return FGAbelianGroup.from_invariants(0, (d,))


def det(mat) -> Fraction:
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            fac = a[r][c] / a[c][c]
            a[r] = [x - fac * y for x, y in zip(a[r], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def rank_over_q(mat) -> int:
    a = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                fac = a[r][c] / a[rank][c]
                a[r] = [x - fac * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def matmul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


class TestSmithNormalForm:
    def test_single_entry(self):
        u, d, v = smith_normal_form([[2]])
        assert d == [[2]]
        assert abs(det(u)) == 1 and abs(det(v)) == 1

    def test_column_of_ones(self):
        u, d, v = smith_normal_form([[1], [1]])
        assert d == [[1], [0]]
        assert matmul(matmul(u, [[1], [1]]), v) == d

    def test_zero_matrix(self):
        _u, d, _v = smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert d == [[0, 0, 0], [0, 0, 0]]

    def test_divisibility_chain(self):
        mat = [[2, 0], [0, 3]]
        _u, d, _v = smith_normal_form(mat)
        assert d == [[1, 0], [0, 6]]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        min_size=1, max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_random_matrices(self, mat):
        u, d, v = smith_normal_form(mat)
        assert matmul(matmul(u, mat), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        m, n = len(mat), len(mat[0])
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == rank_over_q(mat)


class TestFGAbelianGroup:
    def test_invariant_canonicalization(self):
        assert FGAbelianGroup.from_invariants(0, (2, 3)) == cyclic(6)
        assert FGAbelianGroup.from_invariants(0, (4, 2)).torsion == (2, 4)
        assert FGAbelianGroup.from_invariants(0, (1, 5)) == cyclic(5)
        assert FGAbelianGroup.from_invariants(2) == Z2

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbelianGroup(-1)

    def test_from_presentation(self):
        got = FGAbelianGroup.from_presentation(2, [[2, 0], [0, 3]])
        assert got == cyclic(6)
        assert FGAbelianGroup.from_presentation(2, [[2], [4]]) == \
            FGAbelianGroup.from_invariants(1, (2,))
        assert FGAbelianGroup.from_presentation(2, [[], []]) == Z2
        assert FGAbelianGroup.from_presentation(0, []) == TRIV
        with pytest.raises(ValueError):
            FGAbelianGroup.from_presentation(2, [[1]])

    def test_order_and_elements(self):
        g = FGAbelianGroup.from_invariants(0, (2, 4))
        assert g.order() == 8
        assert len(list(g.elements())) == 8
        assert Z.order() is None
        assert TRIV.order() == 1
        assert list(TRIV.elements()) == [()]
        with pytest.raises(ValueError):
            list(Z.elements())

    def test_reduce(self):
        g = FGAbelianGroup.from_invariants(1, (2,))
        assert g.reduce((5, 3)) == (5, 1)
        assert g.reduce((-1, -1)) == (-1, 1)
        with pytest.raises(ValueError):
            g.reduce((1,))

    def test_str(self):
        assert str(TRIV) == "0"
        assert str(Z) == "Z"
        assert str(Z2) == "Z^2"
        assert str(FGAbelianGroup.from_invariants(1, (2, 4))) == "Z + Z/2 + Z/4"


class TestGroupHom:
    def test_shape_validation(self):
        with pytest.raises(IllDefinedHomError):
            GroupHom(Z2, Z, ((1,),))
        with pytest.raises(IllDefinedHomError):
            GroupHom(Z, Z, ((1, 2),))

    def test_well_definedness(self):
        # a generator of order d must land on an element killed by d
        with pytest.raises(IllDefinedHomError):
            GroupHom(cyclic(2), Z, ((1,),))
        with pytest.raises(IllDefinedHomError):
            GroupHom(cyclic(4), cyclic(8), ((1,),))
        ok = GroupHom(cyclic(4), cyclic(8), ((2,),))
        assert ok.matrix == ((2,),)

    def test_torsion_rows_canonicalized(self):
        f = GroupHom(Z, cyclic(3), ((5,),))
        assert f.matrix == ((2,),)
        assert f == GroupHom(Z, cyclic(3), ((-1,),))

    def test_identity_zero_apply(self):
        g = FGAbelianGroup.from_invariants(1, (4,))
        ident = GroupHom.identity(g)
        assert ident.apply((3, 7)) == (3, 3)
        z = GroupHom.zero(g, Z)
        assert z.is_zero
        assert z.apply((9, 1)) == (0,)

    def test_composition(self):
        double = GroupHom(Z, Z, ((2,),))
        to_mod2 = GroupHom(Z, cyclic(2), ((1,),))
        assert (to_mod2 @ double).is_zero
        with pytest.raises(IllDefinedHomError):
            double @ to_mod2


class TestKernelImageCokernel:
    def test_cokernel_examples(self):
        assert cokernel(GroupHom(Z, Z, ((2,),))) == cyclic(2)
        assert cokernel(GroupHom(Z2, Z, ((4, 4),))) == cyclic(4)
        assert cokernel(GroupHom(Z, Z2, ((1,), (1,)))) == Z
        assert cokernel(GroupHom(Z, cyclic(2), ((1,),))) == TRIV
        assert cokernel(GroupHom.zero(Z, Z)) == Z

    def test_kernel_examples(self):
        assert kernel(GroupHom(Z, Z, ((2,),))) == TRIV
        assert kernel(GroupHom(Z2, Z, ((1, 1),))) == Z
        assert kernel(GroupHom.zero(Z, Z)) == Z
        assert kernel(GroupHom(Z, cyclic(2), ((1,),))) == Z
        assert kernel(GroupHom(cyclic(4), cyclic(8), ((2,),))) == TRIV
        assert kernel(GroupHom(cyclic(4), cyclic(8), ((4,),))) == cyclic(2)

    def test_image_examples(self):
        assert image(GroupHom(Z, cyclic(4), ((2,),))) == cyclic(2)
        assert image(GroupHom(Z, Z, ((2,),))) == Z
        assert image(GroupHom.zero(Z2, Z)) == TRIV
        assert image(GroupHom(cyclic(4), cyclic(8), ((4,),))) == cyclic(2)

    def test_orders_agree_with_element_count_on_finite_groups(self):
        rng = random.Random(99)
        groups = [TRIV, cyclic(2), cyclic(4), cyclic(6),
                  FGAbelianGroup.from_invariants(0, (2, 2)),
                  FGAbelianGroup.from_invariants(0, (2, 4))]
        for _ in range(120):
            src, tgt = rng.choice(groups), rng.choice(groups)
            f = random_hom(rng, src, tgt)
            img = {f.apply(x) for x in src.elements()}
            ker = [x for x in src.elements() if not any(f.apply(x))]
            assert image(f).order() == len(img)
            assert kernel(f).order() == len(ker)
            assert cokernel(f).order() == tgt.order() // len(img)


def random_hom(rng: random.Random, src: FGAbelianGroup,
               tgt: FGAbelianGroup) -> GroupHom:
    # sample each cell over exactly the well-defined values so coprime
    # torsion pairs terminate instead of rejection-looping on forced zeros
    rows = []
    for e in tgt.gen_orders:
        row = []
        for d in src.gen_orders:
            if e == 0:
                row.append(rng.randrange(-4, 5) if d == 0 else 0)
            elif d == 0:
                row.append(rng.randrange(e))
            else:
                g = gcd(d, e)
                row.append((e // g) * rng.randrange(g))
        rows.append(tuple(row))
    return GroupHom(src, tgt, tuple(rows))


class TestSequenceValidation:
    def test_basic_shape(self):
        with pytest.raises(ValueError):
            Sequence((Z,), ())
        with pytest.raises(ValueError):
            Sequence((Z, Z), ())
        with pytest.raises(ValueError):
            Sequence((Z, Z), (GroupHom.identity(Z),), names=("A",))

    def test_exact_positions_must_be_interior(self):
        f = GroupHom.identity(Z)
        with pytest.raises(ValueError):
            Sequence((Z, Z), (f,), exact_at=(0,))
        with pytest.raises(ValueError):
            Sequence((Z, Z, Z), (f, f), exact_at=(2,))

    def test_map_endpoints_must_match_terms(self):
        with pytest.raises(ValueError):
            Sequence((Z, cyclic(2)), (GroupHom.identity(Z),))

    def test_fully_specified(self):
        f = GroupHom.identity(Z)
        assert Sequence((Z, Z), (f,)).is_fully_specified
        assert not Sequence((Z, Z), (UNKNOWN_MAP,)).is_fully_specified
        unknown = UnknownGroup((Z, TRIV))
        assert not Sequence((unknown, Z), (UNKNOWN_MAP,)).is_fully_specified


class TestCheckExact:
    def test_short_exact_sequence(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((2,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
        )
        assert check_exact(seq, 1)
        assert check_exact(seq, 2)

    def test_multiply_by_four_is_not_exact(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((4,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
        )
        assert not check_exact(seq, 1)
        assert check_exact(seq, 2)
        assert exactness_indices(seq, 1) == (4, 2)

    def test_isomorphism_flanked_by_zeros(self):
        def flanked(mid_matrix):
            return Sequence(
                (TRIV, Z, Z, TRIV),
                (GroupHom.zero(TRIV, Z),
                 GroupHom(Z, Z, mid_matrix),
                 GroupHom.zero(Z, TRIV)),
            )

        assert check_exact(flanked(((1,),)), 1)
        assert check_exact(flanked(((1,),)), 2)
        assert check_exact(flanked(((2,),)), 1)
        assert not check_exact(flanked(((2,),)), 2)

    def test_nonzero_composite_fails(self):
        f = GroupHom.identity(Z)
        seq = Sequence((Z, Z, Z), (f, f))
        assert not check_exact(seq, 1)

    def test_infinite_indices(self):
        seq = Sequence((Z, Z, Z),
                       (GroupHom.zero(Z, Z), GroupHom.zero(Z, Z)))
        assert exactness_indices(seq, 1) == (None, 1)

    def test_position_validation(self):
        f = GroupHom.identity(Z)
        seq = Sequence((Z, Z, Z), (f, f))
        with pytest.raises(ValueError):
            check_exact(seq, 0)
        with pytest.raises(ValueError):
            check_exact(seq, 2 + 1)

    def test_exactness_indices_rejects_end_terms(self):
        # the two end terms of a four-term sequence, and one step beyond
        seq = Sequence((TRIV, Z, Z, TRIV),
                       (GroupHom.zero(TRIV, Z), GroupHom.identity(Z),
                        GroupHom.zero(Z, TRIV)))
        for at in (-1, 0, 3, 4):
            with pytest.raises(ValueError, match="not interior"):
                exactness_indices(seq, at)
        assert exactness_indices(seq, 1) == (None, None)

    def test_needs_concrete_maps(self):
        seq = Sequence((Z, Z, Z), (UNKNOWN_MAP, GroupHom.identity(Z)))
        with pytest.raises(ValueError):
            check_exact(seq, 1)

    def test_exactness_indices_needs_concrete_maps(self):
        for maps in ((UNKNOWN_MAP, GroupHom.identity(Z)),
                     (GroupHom.identity(Z), UNKNOWN_MAP)):
            seq = Sequence((Z, Z, Z), maps)
            with pytest.raises(ValueError, match="concrete maps"):
                exactness_indices(seq, 1)

    def test_agrees_with_element_level_oracle(self):
        rng = random.Random(7)
        groups = [TRIV, cyclic(2), cyclic(3), cyclic(4),
                  FGAbelianGroup.from_invariants(0, (2, 2)),
                  FGAbelianGroup.from_invariants(0, (2, 4)),
                  cyclic(8)]
        seen = {True: 0, False: 0}
        for _ in range(200):
            a, b, c = (rng.choice(groups) for _ in range(3))
            f = random_hom(rng, a, b)
            g = random_hom(rng, b, c)
            seq = Sequence((a, b, c), (f, g))
            img = {f.apply(x) for x in a.elements()}
            ker = {x for x in b.elements() if not any(g.apply(x))}
            want = img == ker
            assert check_exact(seq, 1) == want
            seen[want] += 1
        # the sample must exercise both outcomes to mean anything
        assert seen[True] >= 10 and seen[False] >= 10


class TestSolveExact:
    def test_two_unknown_maps(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (UNKNOWN_MAP, UNKNOWN_MAP, GroupHom.zero(cyclic(2), TRIV)),
            exact_at=(1, 2),
        )
        sols = solve_exact(seq, bound=2)
        assert len(sols) == 2
        assert {s.maps[0].matrix for s in sols} == {((2,),), ((-2,),)}
        assert all(s.maps[1].matrix == ((1,),) for s in sols)
        assert all(s.is_fully_specified for s in sols)

    def test_unknown_term_forced_to_z(self):
        unknown = UnknownGroup((TRIV, Z, cyclic(2)))
        seq = Sequence(
            (TRIV, unknown, Z, TRIV),
            (UNKNOWN_MAP, UNKNOWN_MAP, UNKNOWN_MAP),
            exact_at=(1, 2),
        )
        sols = solve_exact(seq, bound=2)
        assert len(sols) == 2
        assert all(s.terms[1] == Z for s in sols)
        assert {s.maps[1].matrix for s in sols} == {((1,),), ((-1,),)}

    def test_forced_surjection(self):
        seq = Sequence((Z, cyclic(2), TRIV),
                       (UNKNOWN_MAP, GroupHom.zero(cyclic(2), TRIV)),
                       exact_at=(1,))
        sols = solve_exact(seq, bound=2)
        assert len(sols) == 1
        assert sols[0].maps[0].matrix == ((1,),)

    def test_torsion_to_torsion_candidates_filtered(self):
        # Z/2 -> Z/4 only admits 0 and 2; no exactness constraint, so the
        # solution list is exactly the well-defined candidate set
        seq = Sequence((cyclic(2), cyclic(4)), (UNKNOWN_MAP,))
        sols = solve_exact(seq, bound=2)
        assert {s.maps[0].matrix for s in sols} == {((0,),), ((2,),)}

    def test_no_unknowns_round_trips(self):
        exact = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((2,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
            exact_at=(1, 2),
        )
        assert solve_exact(exact, bound=2) == [exact]
        broken = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((4,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
            exact_at=(1, 2),
        )
        assert solve_exact(broken, bound=2) == []

    def test_fixed_map_rejects_candidate_terms(self):
        unknown = UnknownGroup((Z, cyclic(2)))
        seq = Sequence((unknown, Z), (GroupHom.identity(Z),))
        sols = solve_exact(seq, bound=2)
        assert len(sols) == 1
        assert sols[0].terms[0] == Z

    def test_search_ceiling(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (UNKNOWN_MAP, UNKNOWN_MAP, GroupHom.zero(cyclic(2), TRIV)),
            exact_at=(1, 2),
        )
        with pytest.raises(SearchSpaceError):
            solve_exact(seq, bound=2, max_assignments=3)
        big = Sequence((FGAbelianGroup.free(4), FGAbelianGroup.free(4)),
                       (UNKNOWN_MAP,))
        with pytest.raises(SearchSpaceError):
            solve_exact(big, bound=2)

    def test_ceiling_checked_before_listing_candidates(self):
        # 2 * 10**12 + 1 candidate matrices: listing them would exhaust
        # memory, so the count must come from the entry ranges alone
        seq = Sequence((Z, Z), (UNKNOWN_MAP,))
        with pytest.raises(SearchSpaceError, match="2000000000001"):
            solve_exact(seq, bound=10**12)
        # a huge torsion target costs O(candidates), not O(modulus)
        seq = Sequence((Z, cyclic(10**30)), (UNKNOWN_MAP,))
        sols = solve_exact(seq, bound=1)
        assert [s.maps[0].matrix for s in sols] == [
            ((0,),), ((1,),), ((10**30 - 1,),)]

    def test_entry_candidates_match_residue_scan(self):
        # oracle: scan every residue of the modulus
        def centered_residues(modulus, bound):
            out = []
            for r in range(modulus):
                centered = r if r <= modulus - r else r - modulus
                if abs(centered) <= bound:
                    out.append(r)
            return out

        def entry_candidates(d_src, e_tgt, bound):
            if d_src == 0:
                if e_tgt == 0:
                    return list(range(-bound, bound + 1))
                return centered_residues(e_tgt, bound)
            if e_tgt == 0:
                return [0]
            return [r for r in centered_residues(e_tgt, bound)
                    if (d_src * r) % e_tgt == 0]

        for d in range(13):
            for e in range(41):
                for bound in range(6):
                    expect = entry_candidates(d, e, bound)
                    assert _entry_candidates(d, e, bound) == expect
                    if d != 1 and e != 1:
                        # one generator each, of order d and e (0: free)
                        src = cyclic(d) if d else Z
                        tgt = cyclic(e) if e else Z
                        assert _hom_count(src, tgt, bound) == len(expect)

    def test_deterministic_order(self):
        seq = Sequence((Z, cyclic(2), TRIV),
                       (UNKNOWN_MAP, GroupHom.zero(cyclic(2), TRIV)),
                       exact_at=(1,))
        assert solve_exact(seq, bound=2) == solve_exact(seq, bound=2)
