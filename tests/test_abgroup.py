"""Finitely generated abelian groups: canonical forms, exactness, solving."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cliffk.abgroup
import exactness_oracle
import solver_oracle
from cliffk.abgroup import (
    UNKNOWN_MAP,
    FGAbelianGroup,
    GroupHom,
    Sequence,
    UnknownGroup,
    _entry_candidates,
    _hom_candidates,
    _subquotient,
    cokernel,
    exactness_at,
    image,
    image_key,
    kernel,
    kernel_key,
    smith_normal_form,
    solve_exact,
)
from cliffk.errors import (BoundExceededError, CliffkError, IllDefinedHomError,
                           InvalidGroupError, InvalidSequenceError,
                           SearchSpaceError)
from cliffk.seqfile import parse_sequence_file
from exactness_oracle import apply, elements, identity, is_zero, reduce
from solver_oracle import _hom_count

ROOT = Path(__file__).resolve().parent.parent
Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup.free(2)
TRIV = FGAbelianGroup.trivial()


def fully_specified(seq: Sequence) -> bool:
    """No unknown term and no unknown map left."""
    return all(isinstance(t, FGAbelianGroup) for t in seq.terms) and all(
        isinstance(m, GroupHom) for m in seq.maps)


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

    def test_ragged_rows(self):
        with pytest.raises(InvalidGroupError):
            smith_normal_form([[1], [2, 3]])

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

    def test_invariant_chain_matches_snf(self):
        # oracle: Smith normal form of the diagonal relation matrix, whose
        # result does not depend on the order of the diagonal, so it runs
        # once per multiset while the sweep sees every ordering
        snf_chain = {}
        for k in range(5):
            for orders in itertools.product(range(1, 13), repeat=k):
                key = tuple(sorted(orders))
                if key not in snf_chain:
                    _u, d, _v = smith_normal_form(
                        [[x if i == j else 0 for j in range(k)]
                         for i, x in enumerate(key)])
                    snf_chain[key] = tuple(d[i][i] for i in range(k)
                                           if d[i][i] > 1)
                got = FGAbelianGroup.from_invariants(0, orders).torsion
                assert got == snf_chain[key], orders
        assert len(snf_chain) == 1820

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbelianGroup(-1)

    @pytest.mark.parametrize("factor", [2.5, "4", 4.0])
    def test_torsion_entries_must_be_integers(self, factor):
        # int() would turn these into Z/2 and Z/4 without a word
        with pytest.raises(InvalidGroupError, match="not an integer"):
            FGAbelianGroup(0, (factor,))

    @pytest.mark.parametrize("call, error", [
        (lambda: FGAbelianGroup(True), InvalidGroupError),
        (lambda: FGAbelianGroup.from_invariants(True), InvalidGroupError),
        (lambda: FGAbelianGroup.from_invariants(0, (True, 2)),
         InvalidGroupError),
        (lambda: FGAbelianGroup.from_presentation(1, [[True]]),
         InvalidGroupError),
        # len(rel) != True is false for one relation row
        (lambda: FGAbelianGroup.from_presentation(True, [[2]]),
         InvalidGroupError),
        (lambda: GroupHom(Z, Z, ((True,),)), IllDefinedHomError),
        (lambda: UnknownGroup((1,)), InvalidSequenceError),
        (lambda: UnknownGroup((Z, "Z")), InvalidSequenceError),
        # the rank is checked before it is added to the factor count
        (lambda: FGAbelianGroup.from_invariants("x"), InvalidGroupError),
        (lambda: GroupHom("Z", Z, ((1,),)), IllDefinedHomError),
        (lambda: GroupHom(Z, "Z", ((1,),)), IllDefinedHomError),
        (lambda: Sequence((Z, "Z"), (UNKNOWN_MAP,)), InvalidSequenceError),
        (lambda: Sequence((None, Z), (UNKNOWN_MAP,)), InvalidSequenceError),
        (lambda: Sequence((Z, Z), ("f",)), InvalidSequenceError),
        # the endpoints are checked before the zero matrix's size
        (lambda: GroupHom.zero(Z, 3), IllDefinedHomError),
    ], ids=["rank", "from_invariants rank", "from_invariants order",
            "relation entry", "presentation generators", "hom entry",
            "candidate int", "candidate str", "from_invariants str rank",
            "hom source str", "hom target str", "sequence term str",
            "sequence term None", "sequence map str", "zero map target int"])
    def test_bool_and_non_group_data_are_refused(self, call, error):
        # isinstance(True, int) holds, so only a type() test refuses a bool
        with pytest.raises(error):
            call()

    def test_from_presentation(self):
        got = FGAbelianGroup.from_presentation(2, [[2, 0], [0, 3]])
        assert got == cyclic(6)
        assert FGAbelianGroup.from_presentation(2, [[2], [4]]) == \
            FGAbelianGroup.from_invariants(1, (2,))
        assert FGAbelianGroup.from_presentation(2, [[], []]) == Z2
        assert FGAbelianGroup.from_presentation(0, []) == TRIV
        with pytest.raises(ValueError):
            FGAbelianGroup.from_presentation(2, [[1]])

    def test_no_relations_run_no_snf(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("SNF of an empty relation matrix")

        monkeypatch.setattr(cliffk.abgroup, "smith_normal_form", refuse)
        for n in (0, 1, 3, 2000):
            assert FGAbelianGroup.from_presentation(n, [[]] * n) == \
                FGAbelianGroup.free(n)
        with pytest.raises(InvalidGroupError):
            FGAbelianGroup.from_presentation(2, [[], [1]])

    def test_order_and_elements(self):
        g = FGAbelianGroup.from_invariants(0, (2, 4))
        assert g.order() == 8
        assert len(list(elements(g))) == 8
        assert Z.order() is None
        assert TRIV.order() == 1
        assert list(elements(TRIV)) == [()]
        with pytest.raises(ValueError):
            list(elements(Z))

    def test_reduce(self):
        g = FGAbelianGroup.from_invariants(1, (2,))
        assert reduce(g, (5, 3)) == (5, 1)
        assert reduce(g, (-1, -1)) == (-1, 1)
        with pytest.raises(ValueError):
            reduce(g, (1,))

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
        ident = identity(g)
        assert apply(ident, (3, 7)) == (3, 3)
        z = GroupHom.zero(g, Z)
        assert is_zero(z)
        assert apply(z, (9, 1)) == (0,)

    def test_composition(self):
        double = GroupHom(Z, Z, ((2,),))
        to_mod2 = GroupHom(Z, cyclic(2), ((1,),))
        assert is_zero(to_mod2 @ double)
        with pytest.raises(IllDefinedHomError):
            double @ to_mod2


class TestGroupLayerInputs:
    """Any input to the group constructors ends in a value or a CliffkError;
    a value is checked against the input, an error against its cause."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(rank=st.integers(-2, 4),
           orders=st.lists(st.integers(-2, 30), max_size=5))
    @example(rank=-1, orders=[])
    @example(rank=0, orders=[0])
    def test_from_invariants(self, rank, orders):
        try:
            group = FGAbelianGroup.from_invariants(rank, orders)
        except CliffkError:
            assert rank < 0 or any(d < 1 for d in orders)
            return
        assert group.rank == rank
        assert prod(group.torsion) == prod(orders)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n_gens=st.integers(0, 4),
           relations=st.lists(st.lists(st.integers(-6, 6), max_size=4),
                              max_size=5))
    @example(n_gens=2, relations=[[1], [2, 3]])
    def test_from_presentation(self, n_gens, relations):
        try:
            group = FGAbelianGroup.from_presentation(n_gens, relations)
        except CliffkError:
            assert (len(relations) != n_gens
                    or len({len(row) for row in relations}) > 1)
            return
        rank = rank_over_q(relations)
        assert group.rank == n_gens - rank
        if relations and rank == n_gens == len(relations[0]):
            assert group.order() == abs(det(relations))

    GROUPS = st.builds(FGAbelianGroup.from_invariants, st.integers(0, 2),
                       st.lists(st.integers(1, 6), max_size=2))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(source=GROUPS, target=GROUPS,
           matrix=st.lists(st.lists(
               st.one_of(st.integers(-8, 8),
                         st.floats(-8, 8, allow_nan=False)),
               max_size=4), max_size=4))
    @example(source=Z, target=Z, matrix=[[1.5]])
    def test_group_hom(self, source, target, matrix):
        shape_ok = (len(matrix) == target.n_gens
                    and all(len(row) == source.n_gens for row in matrix))
        ints = all(isinstance(v, int) for row in matrix for v in row)
        # d times a generator of order d must be 0 in the target
        defined = shape_ok and ints and all(
            (d * matrix[i][j] % e == 0) if e else d * matrix[i][j] == 0
            for j, d in enumerate(source.gen_orders) if d
            for i, e in enumerate(target.gen_orders))
        try:
            hom = GroupHom(source, target, tuple(map(tuple, matrix)))
        except CliffkError:
            assert not defined
            return
        assert defined
        assert hom.matrix == tuple(
            tuple(v % e if e else v for v in row)
            for row, e in zip(matrix, target.gen_orders))


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
            img = {apply(f, x) for x in elements(src)}
            ker = [x for x in elements(src) if not any(apply(f, x))]
            assert image(f).order() == len(img)
            assert kernel(f).order() == len(ker)
            assert cokernel(f).order() == tgt.order() // len(img)

    def test_kernel_and_image_match_snf_oracle(self):
        # every pair of groups of rank 0-2 with these torsion parts, and
        # the homs of the bound-1 candidate box between them: all of a
        # pair's homs when it has at most 64, a seeded sample of 64 when it
        # has more (7,977 of the box's 172,386 homs)
        groups = [FGAbelianGroup(r, t) for r in range(3)
                  for t in ((), (2,), (4,), (2, 2), (3,), (2, 4))]
        rng = random.Random(18)
        seen = set()
        for src, tgt in itertools.product(groups, repeat=2):
            cells = [_entry_candidates(d, e, 1)
                     for e in tgt.gen_orders for d in src.gen_orders]
            count = prod(len(c) for c in cells)
            picks = range(count) if count <= 64 else rng.sample(range(count),
                                                                64)
            ns = src.n_gens
            for index in picks:
                flat = []
                for c in reversed(cells):
                    index, r = divmod(index, len(c))
                    flat.append(c[r])
                flat.reverse()
                f = GroupHom(src, tgt, tuple(tuple(flat[i * ns:(i + 1) * ns])
                                             for i in range(tgt.n_gens)))
                ker, img = kernel(f), image(f)
                assert ker == exactness_oracle.kernel(f), f
                assert img == exactness_oracle.image(f), f
                assert cokernel(f) == exactness_oracle.cokernel(f), f
                seen.update((ker, img))
        # mixed free and torsion classes, not only the trivial and free ones
        assert {FGAbelianGroup(1, (2,)), FGAbelianGroup(2, (4,))} <= seen

    def test_broken_key_is_an_explicit_error(self):
        # 4 * e_0 is not a multiple of the pivot 3: the division is not exact
        with pytest.raises(AssertionError, match="not in the lattice"):
            _subquotient(((3,),), [(4,)])
        # 2 * e_0 leaves (0, -2) off the pivots
        with pytest.raises(AssertionError, match="not in the lattice"):
            _subquotient(((1, 1),), [(2, 0)])


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
        with pytest.raises(InvalidSequenceError):
            Sequence((Z,), ())
        with pytest.raises(InvalidSequenceError):
            Sequence((Z, Z), ())
        with pytest.raises(InvalidSequenceError):
            Sequence((Z, Z), (identity(Z),), names=("A",))

    def test_exact_positions_must_be_interior(self):
        f = identity(Z)
        with pytest.raises(InvalidSequenceError):
            Sequence((Z, Z), (f,), exact_at=(0,))
        with pytest.raises(InvalidSequenceError):
            Sequence((Z, Z, Z), (f, f), exact_at=(2,))

    @pytest.mark.parametrize("pos", [True, 1.0, "a"])
    def test_exact_positions_must_be_ints(self, pos):
        f = identity(Z)
        with pytest.raises(InvalidSequenceError, match="exactness position"):
            Sequence((Z, Z, Z), (f, f), exact_at=(pos,))

    def test_map_endpoints_must_match_terms(self):
        with pytest.raises(InvalidSequenceError):
            Sequence((Z, cyclic(2)), (identity(Z),))

    def test_unknown_group_candidates_are_distinct(self):
        # a repeat would repeat every solution that uses it
        with pytest.raises(InvalidSequenceError, match="Z is listed twice"):
            UnknownGroup((Z, cyclic(2), Z))
        # Z + Z and Z^2 are one group, and so are Z/2 + Z/3 and Z/6
        with pytest.raises(InvalidSequenceError, match="listed twice"):
            UnknownGroup((Z2, FGAbelianGroup.from_invariants(2, ())))
        with pytest.raises(InvalidSequenceError, match="Z/6 is listed twice"):
            UnknownGroup((cyclic(6),
                          FGAbelianGroup.from_invariants(0, (2, 3))))

    def test_bad_input_is_a_cliffk_error(self):
        # the other refusals are checked above; all stay ValueErrors, for
        # callers that catch that
        assert issubclass(InvalidSequenceError, CliffkError)
        assert issubclass(InvalidSequenceError, ValueError)
        with pytest.raises(InvalidSequenceError):
            UnknownGroup(())
        with pytest.raises(InvalidSequenceError, match="negative"):
            solve_exact(Sequence((Z, Z), (UNKNOWN_MAP,)), -1)

    def test_fully_specified(self):
        f = identity(Z)
        assert fully_specified(Sequence((Z, Z), (f,)))
        assert not fully_specified(Sequence((Z, Z), (UNKNOWN_MAP,)))
        unknown = UnknownGroup((Z, TRIV))
        assert not fully_specified(Sequence((unknown, Z), (UNKNOWN_MAP,)))


class TestCheckExact:
    def test_short_exact_sequence(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((2,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
        )
        assert exactness_at(seq, 1)[0]
        assert exactness_at(seq, 2)[0]

    def test_multiply_by_four_is_not_exact(self):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (GroupHom(Z, Z, ((4,),)),
             GroupHom(Z, cyclic(2), ((1,),)),
             GroupHom.zero(cyclic(2), TRIV)),
        )
        assert exactness_at(seq, 1) == (False, 4, 2)
        assert exactness_at(seq, 2) == (True, 1, 1)

    def test_isomorphism_flanked_by_zeros(self):
        def flanked(mid_matrix):
            return Sequence(
                (TRIV, Z, Z, TRIV),
                (GroupHom.zero(TRIV, Z),
                 GroupHom(Z, Z, mid_matrix),
                 GroupHom.zero(Z, TRIV)),
            )

        assert exactness_at(flanked(((1,),)), 1)[0]
        assert exactness_at(flanked(((1,),)), 2)[0]
        assert exactness_at(flanked(((2,),)), 1)[0]
        assert not exactness_at(flanked(((2,),)), 2)[0]

    def test_nonzero_composite_fails(self):
        f = identity(Z)
        seq = Sequence((Z, Z, Z), (f, f))
        assert not exactness_at(seq, 1)[0]

    def test_infinite_indices(self):
        seq = Sequence((Z, Z, Z),
                       (GroupHom.zero(Z, Z), GroupHom.zero(Z, Z)))
        assert exactness_at(seq, 1)[1:] == (None, 1)

    def test_position_validation(self):
        f = identity(Z)
        seq = Sequence((Z, Z, Z), (f, f))
        with pytest.raises(InvalidSequenceError):
            exactness_at(seq, 0)
        with pytest.raises(InvalidSequenceError):
            exactness_at(seq, 2 + 1)
        # the rule Sequence applies to exact_at: True is not position 1
        for pos in (True, 1.0, "a"):
            with pytest.raises(InvalidSequenceError,
                               match=f"exactness position {pos!r} is not"):
                exactness_at(seq, pos)

    def test_exactness_indices_rejects_end_terms(self):
        # the two end terms of a four-term sequence, and one step beyond
        seq = Sequence((TRIV, Z, Z, TRIV),
                       (GroupHom.zero(TRIV, Z), identity(Z),
                        GroupHom.zero(Z, TRIV)))
        for at in (-1, 0, 3, 4):
            with pytest.raises(InvalidSequenceError, match="not interior"):
                exactness_at(seq, at)
        assert exactness_at(seq, 1) == (True, None, None)

    def test_exactness_indices_checks_endpoints(self):
        # an unknown middle term lets the two maps disagree on it
        unknown = UnknownGroup((Z, cyclic(2)))
        seq = Sequence((Z, unknown, cyclic(2)),
                       (GroupHom(Z, Z, ((2,),)),
                        identity(cyclic(2))))
        with pytest.raises(IllDefinedHomError):
            exactness_at(seq, 1)

    def test_needs_concrete_maps(self):
        seq = Sequence((Z, Z, Z), (UNKNOWN_MAP, identity(Z)))
        with pytest.raises(InvalidSequenceError):
            exactness_at(seq, 1)

    def test_exactness_indices_needs_concrete_maps(self):
        for maps in ((UNKNOWN_MAP, identity(Z)),
                     (identity(Z), UNKNOWN_MAP)):
            seq = Sequence((Z, Z, Z), maps)
            with pytest.raises(InvalidSequenceError, match="concrete maps"):
                exactness_at(seq, 1)

    def test_agrees_with_element_level_oracle(self):
        # the library's keys and the membership oracle alike
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
            img = {apply(f, x) for x in elements(a)}
            ker = {x for x in elements(b) if not any(apply(g, x))}
            want = img == ker
            assert exactness_at(seq, 1)[0] == want
            assert exactness_oracle.check_exact(seq, 1) == want
            seen[want] += 1
        # the sample must exercise both outcomes to mean anything
        assert seen[True] >= 10 and seen[False] >= 10


@st.composite
def well_defined_homs(draw) -> GroupHom:
    """A map between groups with free and torsion parts, the trivial group
    included, drawn cell by cell over the well-defined values."""
    src = draw(TestGroupLayerInputs.GROUPS)
    tgt = draw(TestGroupLayerInputs.GROUPS)
    rows = []
    for e in tgt.gen_orders:
        row = []
        for d in src.gen_orders:
            if e == 0:
                row.append(draw(st.integers(-6, 6)) if d == 0 else 0)
            else:
                row.append(e // gcd(d, e) * draw(st.integers(-6, 6)))
        rows.append(tuple(row))
    return GroupHom(src, tgt, tuple(rows))


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of determinant +-1, by row operations
    on the identity."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            mat[i] = [-v for v in mat[i]]
        else:
            q = rng.randint(-3, 3)
            mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]
            if rng.random() < 0.3:
                mat[i], mat[j] = mat[j], mat[i]
    return mat


def small_maps():
    """Every distinct map between {0, Z, Z^2, Z/2, Z/4, Z/2 + Z/4, Z + Z/2}
    with entries in [-2, 2], as (source, target, reduced matrix): 1,075."""
    groups = (TRIV, Z, Z2, cyclic(2), cyclic(4),
              FGAbelianGroup.from_invariants(0, (2, 4)),
              FGAbelianGroup.from_invariants(1, (2,)))
    for a, b in itertools.product(groups, repeat=2):
        matrices = set()
        for flat in itertools.product(range(-2, 3),
                                      repeat=a.n_gens * b.n_gens):
            rows = tuple(flat[i * a.n_gens:(i + 1) * a.n_gens]
                         for i in range(b.n_gens))
            try:
                matrices.add(GroupHom(a, b, rows).matrix)
            except IllDefinedHomError:
                pass
        for m in sorted(matrices):
            yield a, b, m


def span_key(ambient: FGAbelianGroup, gens) -> tuple:
    """Key of the subgroup of ``ambient`` the vectors ``gens`` span: the
    image key of the map from Z^len(gens) that sends e_i to gens[i]."""
    matrix = tuple(tuple(v[i] for v in gens) for i in range(ambient.n_gens))
    return image_key(GroupHom(FGAbelianGroup.free(len(gens)), ambient,
                              matrix))


class TestSubgroupKeys:
    """Exactness by canonical keys against the membership oracle."""

    def test_every_candidate_pair_matches_oracle(self):
        # free parts included, which the element-level test cannot reach
        seen = {True: 0, False: 0}
        for b in CORPUS:
            fs = [GroupHom(a, b, m) for a in CORPUS
                  for m in _hom_candidates(a, b, 1)]
            gs = [GroupHom(b, c, m) for c in CORPUS
                  for m in _hom_candidates(b, c, 1)]
            for f in fs:
                for g in gs:
                    seq = Sequence((f.source, b, g.target), (f, g))
                    want = exactness_oracle.check_exact(seq, 1)
                    assert exactness_at(seq, 1)[0] == want, (f, g)
                    seen[want] += 1
        # 16956 pairs
        assert seen[True] > 1000 and seen[False] > 10000

    def test_kernel_key_matches_snf_route_on_corpus(self):
        for a, b in itertools.product(CORPUS, repeat=2):
            for m in _hom_candidates(a, b, 1):
                g = GroupHom(a, b, m)
                assert kernel_key(g) == exactness_oracle.kernel_key(g), g

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(g=well_defined_homs())
    @example(g=GroupHom.zero(TRIV, TRIV))
    @example(g=GroupHom.zero(TRIV, Z))
    @example(g=GroupHom.zero(Z2, TRIV))
    @example(g=GroupHom.zero(cyclic(4), TRIV))
    def test_kernel_key_matches_snf_route(self, g):
        assert kernel_key(g) == exactness_oracle.kernel_key(g)

    def test_one_hnf_gives_both_keys(self):
        # every small map: the rows of the kernel key's HNF with a pivot in
        # the target block, cut to it, are the image-only HNF, and its
        # other rows the SNF route's kernel key
        maps = 0
        for a, b, m in small_maps():
            g = GroupHom(a, b, m)
            img, ker = cliffk.abgroup._kernel_key(m, a.gen_orders,
                                                  b.gen_orders)
            # a fresh map has no kernel key yet: its own image-only HNF
            assert img == image_key(GroupHom(a, b, m)), g
            assert ker == exactness_oracle.kernel_key(g), g
            assert (kernel_key(g), image_key(g)) == (ker, img), g
            maps += 1
        assert maps == 1075

    def test_subquotients_match_snf_oracle_on_small_maps(self):
        # cokernel, kernel and image are each one subquotient of keys; the
        # oracle presents them by SNF and shares no key code
        seen = set()
        for a, b, m in small_maps():
            g = GroupHom(a, b, m)
            got = (cokernel(g), kernel(g), image(g))
            assert got == (exactness_oracle.cokernel(g),
                           exactness_oracle.kernel(g),
                           exactness_oracle.image(g)), g
            seen.update(got)
        assert {FGAbelianGroup(1, (2,)), FGAbelianGroup(0, (2, 4))} <= seen

    def test_gapped_unsorted_checks_match_oracle(self, monkeypatch):
        # chains checked at a shuffled subset of their interior terms, as
        # the CLI loop checks them: each map touched gets one HNF
        groups = CORPUS + (FGAbelianGroup.from_invariants(0, (2, 4)),)
        rng = random.Random(2401)
        hnfs = []
        hnf = cliffk.abgroup._hnf
        monkeypatch.setattr(cliffk.abgroup, "_hnf",
                            lambda *a: hnfs.append(1) or hnf(*a))
        seen = {True: 0, False: 0}
        for _ in range(400):
            terms = [rng.choice(groups) for _ in range(rng.randint(6, 9))]
            maps = [GroupHom.zero(a, b) if rng.random() < 0.3
                    else random_hom(rng, a, b)
                    for a, b in zip(terms, terms[1:])]
            interior = range(1, len(terms) - 1)
            at = rng.sample(interior, rng.randint(1, len(interior)))
            seq = Sequence(tuple(terms), tuple(maps), exact_at=tuple(at))
            hnfs.clear()
            got = [exactness_at(seq, k) for k in at]
            assert len(hnfs) == len({m for k in at for m in (k - 1, k)})
            for k, (ok, img, ker) in zip(at, got):
                f, g = maps[k - 1], maps[k]
                want = exactness_oracle.check_exact(seq, k)
                assert (ok, img, ker) == (
                    want, cokernel(f).order(),
                    exactness_oracle.image(g).order()), (seq, k)
                seen[want] += 1
        assert seen[True] > 200 and seen[False] > 200

    def test_unmarked_check_keeps_the_image_only_form(self):
        # nothing is marked, so a check at 2 alone gives the wide map f only
        # its image-only HNF; the HNF with both its keys would be refused
        wide = FGAbelianGroup.free(800)
        f = GroupHom(wide, Z, ((1,) + (0,) * 799,))
        seq = Sequence((TRIV, wide, Z, Z, TRIV),
                       (GroupHom.zero(TRIV, wide), f,
                        GroupHom.zero(Z, Z), GroupHom.zero(Z, TRIV)))
        assert exactness_at(seq, 2) == (True, 1, 1)
        with pytest.raises(BoundExceededError):
            kernel_key(f)

    def test_indices_match_cokernel_and_image(self):
        # every candidate pair a -> b -> c at bound 1, free parts included
        for b in CORPUS:
            fs = [GroupHom(a, b, m) for a in CORPUS
                  for m in _hom_candidates(a, b, 1)]
            gs = [GroupHom(b, c, m) for c in CORPUS
                  for m in _hom_candidates(b, c, 1)]
            img_idx = [cokernel(f).order() for f in fs]
            ker_idx = [image(g).order() for g in gs]
            for f, want_img in zip(fs, img_idx):
                for g, want_ker in zip(gs, ker_idx):
                    seq = Sequence((f.source, b, g.target), (f, g))
                    assert exactness_at(seq, 1)[1:] == (want_img,
                                                        want_ker), (f, g)

    def test_key_is_canonical(self):
        rng = random.Random(23)
        groups = [Z2, FGAbelianGroup.from_invariants(1, (2,)),
                  FGAbelianGroup.from_invariants(0, (2, 4)),
                  FGAbelianGroup.from_invariants(2, (3, 6)),
                  FGAbelianGroup.from_invariants(1, (2, 4, 8))]
        for _ in range(300):
            ambient = rng.choice(groups)
            n = ambient.n_gens
            gens = [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(rng.randint(0, 4))]
            key = span_key(ambient, gens)
            shuffled = gens + [rng.choice(gens)] if gens else []
            rng.shuffle(shuffled)
            assert span_key(ambient, shuffled) == key
            if gens:
                u = unimodular(rng, len(gens))
                mixed = [[sum(u[i][k] * gens[k][j] for k in range(len(gens)))
                          for j in range(n)] for i in range(len(gens))]
                assert span_key(ambient, mixed) == key
            # adding a relation vector d_i * e_i changes nothing either
            for i, d in enumerate(ambient.gen_orders):
                if d:
                    rel = [0] * n
                    rel[i] = rng.randint(-2, 2) * d
                    assert span_key(ambient, gens + [rel]) == key

    def test_keys_tell_subgroups_apart(self):
        # the six subgroups of Z/2 + Z/4 that a single generator spans
        g24 = FGAbelianGroup.from_invariants(0, (2, 4))
        spans = [[x] for x in elements(g24)]
        keys = {}
        for gens in spans:
            members = frozenset(
                reduce(g24, (k * gens[0][0], k * gens[0][1]))
                for k in range(4))
            keys.setdefault(members, set()).add(span_key(g24, gens))
        assert len(keys) == 6
        assert all(len(ks) == 1 for ks in keys.values())
        assert len(set().union(*keys.values())) == 6

    def test_relation_row_joins_at_its_column(self):
        # reducing the row d * e_j mod d before column j is cleared would
        # drop it and make this pair look inexact
        g24 = FGAbelianGroup.from_invariants(0, (2, 4))
        f = GroupHom(g24, g24, ((0, 0), (0, 3)))
        g = GroupHom(g24, g24, ((0, 0), (2, 0)))
        seq = Sequence((g24, g24, g24), (f, g))
        assert exactness_oracle.check_exact(seq, 1)
        assert exactness_at(seq, 1)[0]
        # both are the Z/4 summand: the lattice of (0, 1) and (2, 0)
        assert image_key(f) == kernel_key(g) == ((2, 0), (0, 1))

    def test_endpoint_mismatch(self):
        unknown = UnknownGroup((Z, cyclic(2)))
        seq = Sequence((Z, unknown, Z),
                       (identity(Z), GroupHom(cyclic(2), Z,
                                                       ((0,),))))
        with pytest.raises(IllDefinedHomError):
            exactness_at(seq, 1)
        with pytest.raises(IllDefinedHomError):
            exactness_oracle.check_exact(seq, 1)


def rational_solution(mat, vec):
    """The unique c with mat c == vec over Q for a matrix of full column
    rank, or None when there is none."""
    ncols = len(mat[0])
    a = [[Fraction(v) for v in row] + [Fraction(x)]
         for row, x in zip(mat, vec)]
    for c in range(ncols):
        piv = next(r for r in range(c, len(a)) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(len(a)):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    if any(row[-1] for row in a[ncols:]):
        return None
    return [a[c][-1] for c in range(ncols)]


class TestLatticeMember:
    """The membership test of the exactness oracle, at its new home."""

    def test_combinations_are_members(self):
        rng = random.Random(5)
        for _ in range(200):
            nrows, ncols = rng.randint(1, 4), rng.randint(0, 4)
            mat = [[rng.randint(-5, 5) for _ in range(ncols)]
                   for _ in range(nrows)]
            coef = [rng.randint(-5, 5) for _ in range(ncols)]
            vec = [sum(m * c for m, c in zip(row, coef)) for row in mat]
            assert exactness_oracle._lattice_member(mat, nrows, ncols, vec)

    def test_against_rational_solve(self):
        # full column rank: vec is a member iff its unique rational
        # solution is integral
        rng = random.Random(6)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 50:
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, nrows)
            mat = [[rng.randint(-4, 4) for _ in range(ncols)]
                   for _ in range(nrows)]
            if rank_over_q(mat) != ncols:
                continue
            vec = [rng.randint(-6, 6) for _ in range(nrows)]
            sol = rational_solution(mat, vec)
            want = sol is not None and all(c.denominator == 1 for c in sol)
            got = exactness_oracle._lattice_member(mat, nrows, ncols, vec)
            assert got == want, (mat, vec)
            seen[want] += 1


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
        assert all(fully_specified(s) for s in sols)

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
        seq = Sequence((unknown, Z), (identity(Z),))
        sols = solve_exact(seq, bound=2)
        assert len(sols) == 1
        assert sols[0].terms[0] == Z

    def test_search_ceiling(self, monkeypatch):
        seq = Sequence(
            (Z, Z, cyclic(2), TRIV),
            (UNKNOWN_MAP, UNKNOWN_MAP, GroupHom.zero(cyclic(2), TRIV)),
            exact_at=(1, 2),
        )
        with monkeypatch.context() as patched:
            patched.setattr(cliffk.abgroup, "MAX_ASSIGNMENTS", 3)
            with pytest.raises(SearchSpaceError, match="ceiling of 3$"):
                solve_exact(seq, bound=2)
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
        # 2 * 10**5000 + 1 has too many digits to print: the message names
        # the power of two below it, 2^16610 <= n < 2^16611
        with pytest.raises(SearchSpaceError,
                           match=r"at least 2\^16610 assignments"):
            solve_exact(seq, bound=10**5000)
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

    @pytest.mark.parametrize("kwargs", [
        {"bound": 1.5}, {"bound": 2.0}, {"bound": True}], ids=str)
    def test_integer_arguments_must_be_ints(self, kwargs):
        seq = Sequence((Z, Z), (UNKNOWN_MAP,))
        with pytest.raises(InvalidSequenceError, match="not an integer"):
            solve_exact(seq, **kwargs)

    @pytest.mark.parametrize("src, tgt, extra", [
        (cyclic(2), cyclic(4), 1),  # 2 * 1 is not 0 mod 4
        (cyclic(2), Z, 1),          # 2 * 1 is not 0 in Z
        (Z, cyclic(3), 3),          # not reduced into [0, 3)
        (Z, cyclic(3), -1),
    ], ids=["torsion row", "free row", "unreduced", "negative"])
    def test_ill_defined_candidate_entry_is_refused(self, monkeypatch, src,
                                                    tgt, extra):
        # solver candidates are not GroupHoms until a solution uses them, so
        # a cell range that admits a bad entry must be caught per cell
        orders = (src.gen_orders[0], tgt.gen_orders[0])
        real = cliffk.abgroup._entry_ranges

        def leaky(d_src, e_tgt, bound):
            runs = real(d_src, e_tgt, bound)
            if (d_src, e_tgt) == orders:
                runs += (range(extra, extra + 1),)
            return runs

        monkeypatch.setattr(cliffk.abgroup, "_entry_ranges", leaky)
        seq = Sequence((src, tgt), (UNKNOWN_MAP,))
        with pytest.raises(IllDefinedHomError, match="not well-defined"):
            solve_exact(seq, bound=2)

    @pytest.mark.parametrize("path", ["sequences/five_term.seq",
                                      "tests/golden/unknown_term.seq"])
    def test_grouphoms_built_only_for_answer_maps(self, monkeypatch, path):
        sf = parse_sequence_file((ROOT / path).read_text(encoding="utf-8"))
        seq = sf.sequence
        built = []
        post_init = GroupHom.__post_init__

        def counted(hom):
            built.append(hom)
            post_init(hom)

        monkeypatch.setattr(GroupHom, "__post_init__", counted)
        sols = solve_exact(seq, sf.solve_bound)
        answers = [(i, m) for s in sols for i, m in enumerate(s.maps)
                   if seq.maps[i] is UNKNOWN_MAP]
        distinct = set(answers)
        assert len(sols) > 1 and len(answers) > len(distinct)
        assert len(built) == len(distinct)
        # an equal map in two solutions is one shared object
        assert len({(i, id(m)) for i, m in answers}) == len(distinct)


# groups of the exhaustive comparison with the product-enumeration oracle
CORPUS = (TRIV, Z, cyclic(2), cyclic(4), Z2,
          FGAbelianGroup.from_invariants(1, (2,)))
# per-instance assignment ceiling of that comparison: the oracle walks every
# assignment, so this keeps the whole class within a few seconds
DIFF_CEILING = 256


@pytest.fixture
def shared_exactness_memo(monkeypatch):
    """The oracle's check_exact memoized by its two maps.

    The oracle's exactness test is pure and tested on its own above; a
    memo shared across the cases makes the exhaustive comparison fast
    without changing what the oracle decides or the order in which it
    walks.  The library solver does not call check_exact.
    """
    memo = {}

    def memoized(seq, at):
        key = (seq.maps[at - 1], seq.maps[at])
        if key not in memo:
            memo[key] = exactness_oracle.check_exact(seq, at)
        return memo[key]

    monkeypatch.setattr(solver_oracle, "check_exact", memoized)


def outcome(solver, seq, bound):
    """The ordered solution list under DIFF_CEILING, or SearchSpaceError
    when it is refused.

    The messages differ: the solver stops counting past the ceiling.
    """
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cliffk.abgroup, "MAX_ASSIGNMENTS", DIFF_CEILING)
        try:
            return solver(seq, bound)
        except SearchSpaceError:
            return SearchSpaceError


def compare_with_oracle(cases) -> tuple[int, int]:
    """Require equal outcomes; return (instances solved, solutions)."""
    solved = solutions = 0
    for seq, bound in cases:
        want = outcome(solver_oracle.solve_exact, seq, bound)
        assert outcome(solve_exact, seq, bound) == want, (seq, bound)
        if isinstance(want, list):
            solved += 1
            solutions += len(want)
    return solved, solutions


def all_unknown(terms, exact_at=None) -> Sequence:
    if exact_at is None:
        exact_at = tuple(range(1, len(terms) - 1))
    return Sequence(tuple(terms), (UNKNOWN_MAP,) * (len(terms) - 1),
                    exact_at=exact_at)


@pytest.mark.usefixtures("shared_exactness_memo")
class TestSolveAgainstOracle:
    """solve_exact returns the oracle's solutions in the oracle's order."""

    def test_every_short_sequence(self):
        cases = [(all_unknown(terms), bound)
                 for length in (3, 4)
                 for terms in itertools.product(CORPUS, repeat=length)
                 for bound in (1, 2)]
        solved, solutions = compare_with_oracle(cases)
        # 2565 of the 3024 instances fit under the ceiling
        assert solved == 2565 and solutions > 1000

    def test_partial_exactness(self):
        cases = [(all_unknown(terms, exact_at), bound)
                 for terms in itertools.product(CORPUS[:4], repeat=4)
                 for exact_at in ((), (1,), (2,))
                 for bound in (1, 2)]
        solved, solutions = compare_with_oracle(cases)
        assert solved == len(cases) and solutions > 1000

    def test_unknown_terms(self):
        some = UnknownGroup((TRIV, Z, cyclic(2), cyclic(4)))
        few = UnknownGroup((Z, cyclic(2)))
        cases = []
        for a, b in itertools.product(CORPUS, repeat=2):
            for bound in (1, 2):
                cases += [(all_unknown((a, some, b)), bound),
                          (all_unknown((some, a, b)), bound),
                          (all_unknown((a, some, few, b)), bound),
                          (all_unknown((few, a, b, some), (2,)), bound)]
        solved, solutions = compare_with_oracle(cases)
        assert solved > len(cases) // 2 and solutions > 1000

    def test_fixed_maps_reject_term_choices(self):
        choices = UnknownGroup(CORPUS[:4])
        fixed = [identity(Z), GroupHom(Z, cyclic(2), ((1,),)),
                 GroupHom(cyclic(4), cyclic(2), ((1,),)),
                 GroupHom.zero(cyclic(2), TRIV), GroupHom.zero(TRIV, Z2)]
        cases = []
        for f in fixed:
            for pos in range(3):
                for other in CORPUS:
                    terms = [other] * 4
                    terms[pos], terms[pos + 1] = choices, choices
                    maps = [UNKNOWN_MAP] * 3
                    maps[pos] = f
                    seq = Sequence(tuple(terms), tuple(maps), exact_at=(1, 2))
                    cases += [(seq, 1), (seq, 2)]
        solved, solutions = compare_with_oracle(cases)
        assert solved > len(cases) // 2 and solutions > 50

    def test_five_term_case(self):
        seq = all_unknown((Z, Z2, Z2, FGAbelianGroup.from_invariants(0, (2, 2)),
                           TRIV))
        # 40000 assignments at bound 1, past DIFF_CEILING, all inexact
        assert solve_exact(seq, bound=1) == solver_oracle.solve_exact(
            seq, bound=1) == []
