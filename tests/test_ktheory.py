"""Point K groups, degree towers, stability, and the comparison sequences."""

import pytest

import cliffk.abgroup
import cliffk.ktheory
import cliffk.reps
from adams_oracle import adams_f
from cliffk import structure
from cliffk.abgroup import (FGAbelianGroup, GroupHom, UnknownMap, cokernel,
                            kernel, solve_exact)
from cliffk.blades import Signature
from cliffk.cli import main
from cliffk.errors import (BoundExceededError, EmbeddingError,
                           InvalidSignatureError)
from cliffk.ktheory import (
    KTheory,
    RelativeK,
    bott_sequence_instance,
    fiber_twist_check,
    forgetful_k_map,
    k0,
    point_k,
    reduced_k_rpn,
    relative_k,
    sequence_E_point_instance,
    thom_stability,
)
from cliffk.structure import ScalarField

KO, KU = KTheory.KO, KTheory.KU
Z = FGAbelianGroup.free(1)
TRIV = FGAbelianGroup.trivial()


# Bott periodicity of each theory
PERIOD = {KO: 8, KU: 2}


def cyclic(d: int) -> FGAbelianGroup:
    return FGAbelianGroup.from_invariants(0, (d,))


class TestTheoryEnum:
    def test_fields_and_periods(self):
        from cliffk.structure import ScalarField

        assert KO.field is ScalarField.REAL
        assert KU.field is ScalarField.COMPLEX


class TestK0AndForgetful:
    def test_k0_counts_simple_factors(self):
        assert k0(Signature(0, 0)) == Z
        assert k0(Signature(3, 0)) == FGAbelianGroup.free(2)
        assert k0(Signature(1, 0)) == Z
        assert k0(Signature(0, 1)) == FGAbelianGroup.free(2)
        assert k0(Signature(1, 0), KU.field) == FGAbelianGroup.free(2)

    def test_functor_requires_embedding(self, monkeypatch):
        # the restriction matrix comes first: no K0 group is built for a
        # pair that does not embed
        def refuse(*_args, **_kwargs):
            raise AssertionError("a K0 group was built")

        monkeypatch.setattr(cliffk.ktheory, "k0", refuse)
        for call in (forgetful_k_map, relative_k):
            with pytest.raises(EmbeddingError,
                               match=r"C\^\{0,2\} does not embed in "
                                     r"C\^\{1,0\}"):
                call(Signature(1, 0), Signature(0, 2))

    def test_forgetful_matrices(self):
        f = forgetful_k_map(Signature(1, 0), Signature(0, 0))
        assert f.matrix == ((2,),)
        assert f.source == Z and f.target == Z

        f = forgetful_k_map(Signature(3, 0), Signature(0, 0))
        assert f.matrix == ((4, 4),)
        assert f.source == FGAbelianGroup.free(2)

        f = forgetful_k_map(Signature(4, 0), Signature(3, 0))
        assert f.matrix == ((1,), (1,))

    def test_generator_bound_propagates(self):
        # classify's digit limit: 2**14285 has too many decimal digits
        with pytest.raises(BoundExceededError):
            forgetful_k_map(Signature(14285, 0), Signature(14284, 0))


class TestRelativeK:
    def test_examples(self):
        got = relative_k(Signature(1, 0), Signature(0, 0))
        assert got == RelativeK(cyclic(2), TRIV)
        assert str(got) == "(coker Z/2, ker 0)"

        got = relative_k(Signature(3, 0), Signature(0, 0))
        assert got == RelativeK(cyclic(4), Z)

        same = relative_k(Signature(2, 0), Signature(2, 0))
        assert same == RelativeK(TRIV, TRIV)

    @pytest.mark.parametrize("big,small", [
        ((1, 0), (0, 0)), ((2, 0), (1, 0)), ((3, 0), (2, 0)),
        ((0, 2), (0, 1)), ((2, 1), (2, 0)), ((3, 0), (0, 0)),
    ])
    def test_invariant_under_diagonal_shift(self, big, small):
        base = relative_k(Signature(*big), Signature(*small))
        for shift in (1, 2):
            shifted = relative_k(Signature(big[0] + shift, big[1] + shift),
                                 Signature(small[0] + shift, small[1] + shift))
            assert shifted == base


def inclusions(limit: int = 12):
    """Every generator-segment inclusion (p, q) in (P, Q), P, Q <= limit."""
    for big_p in range(limit + 1):
        for big_q in range(limit + 1):
            for p in range(big_p + 1):
                for q in range(big_q + 1):
                    yield Signature(big_p, big_q), Signature(p, q)


@pytest.mark.parametrize("field", list(ScalarField), ids=["real", "complex"])
def test_relative_k_matches_the_snf_oracle(field):
    # the rank-one closed form against the Smith and Hermite normal forms
    # of the validated K0 map, over all 8281 inclusions
    count = 0
    for big, small in inclusions():
        f = forgetful_k_map(big, small, field)
        assert relative_k(big, small, field) == \
            RelativeK(cokernel(f), kernel(f)), (big, small)
        count += 1
    assert count == 8281


class TestClosedFormBranches:
    """Matrices the classification table never gives, planted in place of
    the restriction matrix: m = 0 is read off, any other shape raises."""

    def plant(self, monkeypatch, matrix):
        monkeypatch.setattr(cliffk.ktheory, "restriction_multiplicities",
                            lambda *_args: matrix)

    @pytest.mark.parametrize("matrix", [((0,),), ((0, 0),), ((0,), (0,))])
    def test_zero_multiple_matches_the_oracle(self, monkeypatch, matrix):
        self.plant(monkeypatch, matrix)
        f = GroupHom(FGAbelianGroup.free(len(matrix[0])),
                     FGAbelianGroup.free(len(matrix)), matrix)
        got = relative_k(Signature(1, 0), Signature(0, 0))
        assert got == RelativeK(cokernel(f), kernel(f))

    @pytest.mark.parametrize("matrix", [((1, 2),), ((2,), (4,)),
                                        ((1, 0), (0, 1))])
    def test_other_shapes_raise(self, monkeypatch, matrix):
        self.plant(monkeypatch, matrix)
        with pytest.raises(AssertionError, match="all-ones"):
            relative_k(Signature(3, 0), Signature(0, 0))


class TestAdamsCount:
    def test_pinned_values(self):
        want = [0, 1, 2, 2, 3, 3, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7, 8]
        assert [adams_f(n) for n in range(17)] == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adams_f(-1)


BAD_DEGREES = {
    "point_k(-1)": lambda: point_k(-1),
    "reduced_k_rpn(0)": lambda: reduced_k_rpn(0),
    "thom_stability(-1, 0)": lambda: thom_stability(-1, 0),
    "thom_stability(0, -1)": lambda: thom_stability(0, -1),
    "bott_sequence_instance(-1)": lambda: bott_sequence_instance(-1),
    # not an int: a float or bool degree is refused, not rounded
    "point_k(2.0)": lambda: point_k(2.0),
    "point_k(0.0)": lambda: point_k(0.0),
    "point_k(False)": lambda: point_k(False),
    "reduced_k_rpn(2.5)": lambda: reduced_k_rpn(2.5),
    "bott_sequence_instance(2.0)": lambda: bott_sequence_instance(2.0),
    "bott_sequence_instance(0.0)": lambda: bott_sequence_instance(0.0),
    "thom_stability(0, 0.5)": lambda: thom_stability(0, 0.5),
    "thom_stability(0, True)": lambda: thom_stability(0, True),
    "thom_stability(1.0, 0)": lambda: thom_stability(1.0, 0),
    "untwist_split_check(2.0)": lambda: cliffk.reps.untwist_split_check(2.0),
    "untwist_split_check(True)": lambda: cliffk.reps.untwist_split_check(True),
}


@pytest.mark.parametrize("call", BAD_DEGREES)
def test_degree_out_of_range_is_a_cliffk_error(call):
    with pytest.raises(InvalidSignatureError):
        BAD_DEGREES[call]()


BAD_ARGUMENTS = {
    "point_k(1, [])": lambda: point_k(1, []),
    "point_k(1, 'ko')": lambda: point_k(1, "ko"),
    "point_k(0, None)": lambda: point_k(0, None),
    "reduced_k_rpn(2, 'ko')": lambda: reduced_k_rpn(2, "ko"),
    "reduced_k_rpn('x')": lambda: reduced_k_rpn("x"),
    "relative_k('x', C^{0,0})": lambda: relative_k("x", Signature(0, 0)),
    "forgetful_k_map(C^{1,0}, (0, 0))":
        lambda: forgetful_k_map(Signature(1, 0), (0, 0)),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS)
def test_non_k_arguments_are_a_cliffk_error(call):
    # checked before the cache, which cannot hash a list, and before any
    # attribute of a wrong object is read
    with pytest.raises(InvalidSignatureError):
        BAD_ARGUMENTS[call]()


def test_cached_degree_does_not_admit_an_equal_float():
    # 2.0 == 2 and hash(2.0) == hash(2): one cache key unless typed
    assert point_k(2) == cyclic(2)
    with pytest.raises(InvalidSignatureError):
        point_k(2.0)
    assert point_k(2) == cyclic(2)


class TestProjectiveSpace:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_real_orders_follow_adams_count(self, n):
        group = reduced_k_rpn(n, KO)
        assert group == cyclic(2 ** adams_f(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_complex_orders(self, n):
        group = reduced_k_rpn(n, KU)
        if n < 2:
            assert group == TRIV
        else:
            assert group == cyclic(2 ** (n // 2))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            reduced_k_rpn(0)


class TestPointTower:
    def test_real_row(self):
        want = [Z, cyclic(2), cyclic(2), TRIV, Z, TRIV, TRIV, TRIV]
        assert [point_k(i, KO) for i in range(8)] == want

    def test_real_periodicity_spot_checks(self):
        assert point_k(8, KO) == Z
        assert point_k(9, KO) == cyclic(2)
        assert point_k(12, KO) == Z

    def test_complex_row(self):
        assert [point_k(i, KU) for i in range(6)] == [Z, TRIV, Z, TRIV, Z, TRIV]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            point_k(-1)


def step_coker(p: int, q: int, theory: KTheory) -> FGAbelianGroup:
    """Cokernel of the K0 restriction along C^{p,q} in C^{p+1,q}."""
    return cokernel(forgetful_k_map(Signature(p + 1, q), Signature(p, q),
                                    theory.field))


@pytest.mark.parametrize("theory", [KO, KU], ids=["ko", "ku"])
def test_periodicity_is_recomputed_not_assumed(theory):
    # every p, q <= 12, each group from a cold classify: the step cokernel
    # is invariant under (1,1), under the theory's period in p, and on the
    # diagonal p >= q it is the degree -(p-q+1) point group
    for p in range(13):
        for q in range(13):
            structure._classify.cache_clear()
            cliffk.ktheory._point_k.cache_clear()
            base = step_coker(p, q, theory)
            assert step_coker(p + 1, q + 1, theory) == base, (p, q)
            assert step_coker(p + PERIOD[theory], q, theory) == base, (p, q)
            if p >= q:
                assert point_k(p - q + 1, theory) == base, (p, q)


class TestThomStability:
    def test_all_checks_pass(self):
        report = thom_stability(1, 2)
        assert report.passed
        assert bool(report)
        assert len(report.period_checks) == 3
        assert len(report.shift_checks) == 3
        for m, low, high, ok in report.period_checks:
            assert ok and low == high
        for m, j, b_pair, a_pair, ok in report.shift_checks:
            assert ok and b_pair == a_pair
            assert j == ((m - 2) % 8) + 1

    def test_derivation_lines(self):
        report = thom_stability(0, 1)
        lines = report.derivation
        assert len(lines) == 4
        assert all("match" in line for line in lines)
        assert any("degree j=" in line for line in lines)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            thom_stability(-1, 0)
        with pytest.raises(ValueError):
            thom_stability(0, -1)


BOTT_TERMS = {
    0: (Z, Z, cyclic(2), TRIV),
    1: (TRIV, cyclic(2), cyclic(2), Z),
    2: (Z, cyclic(2), TRIV, TRIV),
    3: (TRIV, TRIV, Z, Z),
    4: (Z, Z, TRIV, TRIV),
    5: (TRIV, TRIV, TRIV, Z),
    6: (Z, TRIV, TRIV, TRIV),
    7: (TRIV, TRIV, Z, Z),
}

# number of exact completions at bound 2: unique up to sign where a free
# generator must land on an index-2 subgroup, four-fold where two free
# slots each admit a sign
BOTT_SOLUTION_COUNTS = {0: 2, 1: 1, 2: 1, 3: 4, 4: 2, 5: 1, 6: 1, 7: 4}


class TestBottSequence:
    @pytest.mark.parametrize("i", range(8))
    def test_terms(self, i):
        seq = bott_sequence_instance(i)
        assert seq.terms == BOTT_TERMS[i]
        assert seq.exact_at == (1, 2)
        assert all(isinstance(m, UnknownMap) for m in seq.maps)

    def test_names(self):
        seq = bott_sequence_instance(2)
        assert seq.names == ("KU^-2", "KO^-2", "KO^-3", "KU^-3")
        assert bott_sequence_instance(0).names[-1] == "KU^-1"

    @pytest.mark.parametrize("i", range(8))
    def test_solvable_at_bound_two(self, i):
        sols = solve_exact(bott_sequence_instance(i), bound=2)
        assert len(sols) == BOTT_SOLUTION_COUNTS[i]

    def test_degree_zero_solutions_pinned(self):
        sols = solve_exact(bott_sequence_instance(0), bound=2)
        got = [tuple(m.matrix for m in s.maps) for s in sols]
        assert got == [
            (((-2,),), ((1,),), ()),
            (((2,),), ((1,),), ()),
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bott_sequence_instance(-1)


class TestFreeInvolutionSequence:
    def test_degree_zero(self):
        seq = sequence_E_point_instance()
        assert seq.terms == (Z, Z, cyclic(2), TRIV)
        assert seq.names == ("KR", "KO_G(X)", "KO_G(XxR)", "KR^-1")
        assert seq.exact_at == (1, 2)

    def test_other_degrees(self):
        assert sequence_E_point_instance(2).terms == (Z, cyclic(2), TRIV, TRIV)
        assert sequence_E_point_instance(5).terms == (TRIV, TRIV, TRIV, Z)


class TestFiberTwist:
    def test_report(self):
        report = fiber_twist_check()
        assert report.passed
        assert bool(report)
        assert [c.name for c in report.checks] == [
            "complex-fiber-modules",
            "source-equivalence",
            "target-equivalence",
            "k0-square-commutes",
        ]
        assert all(c.passed for c in report.checks)
        assert "((2,),)" in report.checks[3].detail


KO_ROW = ("Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0")
GROWTH_PAIRS = ("(coker 0, ker Z)", "(coker Z, ker 0)", "(coker Z/2, ker 0)",
                "(coker Z/2, ker 0)", "(coker 0, ker Z)")


class TestNoRepresentationOnKPath:
    """The K tables come from the classification table alone: with build_rep
    made to raise, every K computation still gives its pinned answer."""

    @pytest.fixture(autouse=True)
    def refuse_build_rep(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the K path built a representation")

        monkeypatch.setattr(cliffk.reps, "build_rep", refuse)
        cliffk.ktheory._point_k.cache_clear()

    @pytest.mark.parametrize("theory,row", [("ko", KO_ROW), ("ku", ("Z", "0"))],
                             ids=["ko", "ku"])
    def test_bott_table(self, capsys, theory, row):
        assert main(["bott", "--max", "30", "--theory", theory]) == 0
        label = theory.upper()
        assert capsys.readouterr().out == "".join(
            f"{label}^-{i}: {row[i % len(row)]}\n" for i in range(31))

    def test_projective_space(self, capsys):
        assert main(["rpn", "30"]) == 0
        assert capsys.readouterr().out == "Z/32768\n"

    @pytest.mark.parametrize("n", range(3))
    def test_thom_stability(self, n):
        report = thom_stability(n, 2)
        assert report.passed
        assert [str(low) for _m, low, _high, _ok in report.period_checks] == \
            list(GROWTH_PAIRS[n:n + 3])

    def test_fiber_twist(self):
        report = fiber_twist_check()
        assert report.passed
        assert report.checks[3].detail == \
            "direct route ((2,),), twisted route ((2,),)"


class TestNoNormalFormOnKPath:
    """The K groups are read off the rank-one restriction matrix: with the
    normal forms and GroupHom construction made to raise, and cold caches,
    every K computation still gives its pinned answer."""

    @pytest.fixture(autouse=True)
    def refuse_normal_forms(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the K path reached a normal form or a "
                                 "GroupHom")

        monkeypatch.setattr(cliffk.abgroup, "smith_normal_form", refuse)
        monkeypatch.setattr(cliffk.abgroup, "_hnf", refuse)
        monkeypatch.setattr(GroupHom, "__post_init__", refuse)
        structure._classify.cache_clear()
        cliffk.ktheory._point_k.cache_clear()

    @pytest.mark.parametrize("theory,row", [("ko", KO_ROW), ("ku", ("Z", "0"))],
                             ids=["ko", "ku"])
    def test_bott_table(self, capsys, theory, row):
        assert main(["bott", "--max", "20", "--theory", theory]) == 0
        label = theory.upper()
        assert capsys.readouterr().out == "".join(
            f"{label}^-{i}: {row[i % len(row)]}\n" for i in range(21))

    @pytest.mark.parametrize("n", range(1, 41))
    def test_projective_space(self, n):
        assert reduced_k_rpn(n, KO) == cyclic(2 ** adams_f(n))
        assert reduced_k_rpn(n, KU) == \
            (cyclic(2 ** (n // 2)) if n >= 2 else TRIV)

    @pytest.mark.parametrize("n", range(3))
    def test_thom_stability(self, n):
        report = thom_stability(n, 2)
        assert report.passed
        assert [str(low) for _m, low, _high, _ok in report.period_checks] == \
            list(GROWTH_PAIRS[n:n + 3])
