"""Point-level K-theory from Clifford classification data.

Everything here reduces to one mechanism: the K0 group of C^{p,q} is free
on its simple factors, an algebra inclusion induces the restriction
multiplicity matrix on K0, and the interesting groups are kernels and
cokernels of those integer maps.  There is one degree ladder: for i >= 1
the degree -i group is the cokernel along C^{i-1,0} in C^{i,0}
(Atiyah-Bott-Shapiro, "Clifford modules", section 5), and _ladder is the
only place that names that pair.  The multiplicities are read off the
classification table of cliffk.structure in closed form; no representation
is built here.  So the 8- and 2-fold periodicity of the tables comes from
the classification table, and acceptance criterion 1 checks that table
against explicit representations (cliffk.reps.verify_classification).
Periodicity is not assumed: it falls out of the computed tables and is
checked by recomputation.

The rank-one lemma makes the kernel and cokernel closed forms too.  The
restriction matrix of an inclusion is the identity when the two algebras
are equal, and otherwise m times the all-ones matrix J, with f_small rows
and f_big columns, each f in {1, 2}: every simple module of the big
algebra restricts to m copies of each simple module of the small one.  The
vector of ones is primitive, so the cokernel of m J is Z^(f_small - 1) +
Z/m and its kernel is Z^(f_big - 1).  relative_k reads both off the
matrix; no Smith or Hermite normal form and no GroupHom is built on the
K-group path.  The tier-1 oracle for that lemma is cokernel and kernel of
forgetful_k_map, each read off HNF keys as one subquotient (abgroup).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .abgroup import FGAbelianGroup, GroupHom, Sequence, UNKNOWN_MAP
from .blades import Signature
from .errors import InvalidSignatureError
from .structure import ScalarField, classify, restriction_multiplicities


class KTheory(Enum):
    """Which topological K-theory a point computation feeds."""

    KO = "ko"
    KU = "ku"

    @property
    def field(self) -> ScalarField:
        return ScalarField.REAL if self is KTheory.KO else ScalarField.COMPLEX


def k0(sig: Signature, field: ScalarField = ScalarField.REAL) -> FGAbelianGroup:
    """Grothendieck group of finitely generated modules: Z^(simple factors).

    >>> str(k0(Signature(3, 0)))
    'Z^2'
    >>> str(k0(Signature(2, 0)))
    'Z'
    """
    return FGAbelianGroup.free(classify(sig, field).factors)


def forgetful_k_map(big: Signature, small: Signature,
                    field: ScalarField = ScalarField.REAL) -> GroupHom:
    """The K0 map of restriction along small in big: the restriction
    multiplicity matrix, one column per big simple factor, one row per
    small one.  EmbeddingError when small does not embed in big.

    >>> forgetful_k_map(Signature(1, 0), Signature(0, 0)).matrix
    ((2,),)
    """
    matrix = restriction_multiplicities(big, small, field)
    return GroupHom(k0(big, field), k0(small, field), matrix)


class RelativeK(NamedTuple):
    """The two groups a rank-one relative K computation produces."""

    coker: FGAbelianGroup
    ker: FGAbelianGroup

    def __str__(self):
        return f"(coker {self.coker}, ker {self.ker})"


def relative_k(big: Signature, small: Signature,
               field: ScalarField = ScalarField.REAL) -> RelativeK:
    """Cokernel and kernel of the K0 restriction map, in closed form.

    By the rank-one lemma (module docstring) the restriction matrix is the
    identity when big == small, with both groups trivial, and otherwise
    m J with f_small rows and f_big columns: the cokernel is
    Z^(f_small - 1) + Z/m and the kernel Z^(f_big - 1), or Z^f_small and
    Z^f_big if m = 0.  Any other matrix raises.  The tier-1 oracle is
    cokernel and kernel of forgetful_k_map(big, small, field), over every
    inclusion with p, q <= 12.

    >>> str(relative_k(Signature(1, 0), Signature(0, 0)))
    '(coker Z/2, ker 0)'
    """
    matrix = restriction_multiplicities(big, small, field)
    if big == small:
        trivial = FGAbelianGroup.trivial()
        return RelativeK(trivial, trivial)
    m = matrix[0][0]
    f_big = len(matrix[0])
    if any(row != (m,) * f_big for row in matrix):
        raise AssertionError(
            f"restriction matrix {matrix} of {small} in {big} is not a "
            f"multiple of the all-ones matrix")
    if not m:
        return RelativeK(FGAbelianGroup.free(len(matrix)),
                         FGAbelianGroup.free(f_big))
    return RelativeK(FGAbelianGroup.from_invariants(len(matrix) - 1, (m,)),
                     FGAbelianGroup.free(f_big - 1))


def _check_theory(theory) -> None:
    """Refuse a theory that is not a KTheory, before any cache sees it."""
    if not isinstance(theory, KTheory):
        raise InvalidSignatureError(f"expected a KTheory, got {theory!r}")


def reduced_k_rpn(n: int, theory: KTheory = KTheory.KO) -> FGAbelianGroup:
    """Reduced K of n-dimensional real projective space, as the cokernel of
    the K0 restriction along (n,0) over (0,0), read off by relative_k.
    A theory that is not a KTheory raises InvalidSignatureError.

    >>> str(reduced_k_rpn(4, KTheory.KO))
    'Z/8'
    >>> str(reduced_k_rpn(3, KTheory.KU))
    'Z/2'
    """
    _check_theory(theory)
    if type(n) is not int:
        raise InvalidSignatureError(f"n {n!r} is not an integer")
    if n < 1:
        raise InvalidSignatureError("n must be positive")
    return relative_k(Signature(n, 0), Signature(0, 0), theory.field).coker


def _ladder(i: int) -> tuple[Signature, Signature]:
    """The inclusion C^{i-1,0} in C^{i,0} whose cokernel is degree -i."""
    return Signature(i, 0), Signature(i - 1, 0)


def _check_degree(i) -> None:
    """Refuse a degree index that is not a non-negative int (bool too)."""
    if type(i) is not int:
        raise InvalidSignatureError(f"degree index {i!r} is not an integer")
    if i < 0:
        raise InvalidSignatureError("degree index must be non-negative")


def point_k(i: int, theory: KTheory = KTheory.KO) -> FGAbelianGroup:
    """Degree -i K group of a point: Z at i = 0 by definition, and for
    i >= 1 the cokernel of the K0 restriction along _ladder(i), read off
    the rank-one restriction matrix by relative_k.  The arguments are
    checked before the cache: a degree that is not a non-negative int, or
    a theory that is not a KTheory, raises InvalidSignatureError.

    >>> str(point_k(1, KTheory.KO))
    'Z/2'
    >>> str(point_k(4, KTheory.KO))
    'Z'
    >>> str(point_k(1, KTheory.KU))
    '0'
    """
    _check_degree(i)
    _check_theory(theory)
    return _point_k(i, theory)


@lru_cache(maxsize=None)
def _point_k(i: int, theory: KTheory) -> FGAbelianGroup:
    if i == 0:
        return FGAbelianGroup.free(1)
    return relative_k(*_ladder(i), theory.field).coker


@dataclass(frozen=True)
class ThomStabilityReport:
    """Outcome of the r-stability check for one fiber dimension.

    period_checks compares the (coker, ker) pair at growth parameter m
    against m+8, both computed from scratch.  shift_checks compares the
    growth tower against the degree tower at the residue the derivation
    records: the pair of (0,m+1) over (0,m) must match the pair of the
    degree ladder _ladder(j) at j = ((m-2) mod 8) + 1.
    """

    n: int
    r_max: int
    period_checks: tuple
    shift_checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for *_data, ok in self.period_checks + self.shift_checks)

    def __bool__(self) -> bool:
        return self.passed

    @property
    def derivation(self) -> tuple[str, ...]:
        lines = []
        for m, a, b, ok in self.period_checks:
            lines.append(f"m={m} vs m={m + 8}: {a} vs {b}: "
                         f"{'match' if ok else 'MISMATCH'}")
        for m, j, b_pair, a_pair, ok in self.shift_checks:
            lines.append(f"growth m={m} vs degree j={j}: {b_pair} vs {a_pair}: "
                         f"{'match' if ok else 'MISMATCH'}")
        return tuple(lines)


def thom_stability(n: int, r_max: int) -> ThomStabilityReport:
    """r-independence of the relative K pair for rank growth over a point.

    For each 0 <= r <= r_max, with m = n + r, the pair of the restriction
    along (0, m+1) over (0, m) is recomputed at m and at m + 8 and
    compared, and additionally matched against the degree tower at the
    shifted residue.  Truthiness of the report is the conjunction.
    """
    if type(n) is not int or type(r_max) is not int:
        raise InvalidSignatureError(
            f"n {n!r} and r_max {r_max!r} must be integers")
    if n < 0 or r_max < 0:
        raise InvalidSignatureError("n and r_max must be non-negative")

    def growth_pair(m: int) -> RelativeK:
        return relative_k(Signature(0, m + 1), Signature(0, m))

    period_checks = []
    shift_checks = []
    for r in range(r_max + 1):
        m = n + r
        low, high = growth_pair(m), growth_pair(m + 8)
        period_checks.append((m, low, high, low == high))
        j = ((m - 2) % 8) + 1
        deg = relative_k(*_ladder(j))
        shift_checks.append((m, j, low, deg, low == deg))
    return ThomStabilityReport(n, r_max, tuple(period_checks),
                               tuple(shift_checks))


def bott_sequence_instance(i: int) -> Sequence:
    """Degree -i window of Wood's sequence
    KU^-i -> KO^-i -> KO^-(i+1) -> KU^-(i+1) (Karoubi, K-Theory, III.5),
    every term read off the one degree ladder by point_k, maps left unknown
    for the exact solver, exactness marked at the two interior positions.
    """
    _check_degree(i)
    terms = (point_k(i, KTheory.KU), point_k(i, KTheory.KO),
             point_k(i + 1, KTheory.KO), point_k(i + 1, KTheory.KU))
    names = (f"KU^-{i}", f"KO^-{i}", f"KO^-{i + 1}", f"KU^-{i + 1}")
    return Sequence(terms, (UNKNOWN_MAP, UNKNOWN_MAP, UNKNOWN_MAP),
                    names=names, exact_at=(1, 2))


def sequence_E_point_instance(i: int = 0) -> Sequence:
    """The free-involution sequence over a doubled point, in degree -i.

    Same underlying terms and unknown maps as bott_sequence_instance(i);
    only the labels change: the involutive theory of the doubled point is
    the complex theory of the point, the equivariant terms are the real
    groups in degrees -i and -(i+1).
    """
    base = bott_sequence_instance(i)
    names = ("KR", "KO_G(X)", "KO_G(XxR)", "KR^-1")
    return Sequence(base.terms, base.maps, names=names,
                    exact_at=base.exact_at)


@dataclass(frozen=True)
class FiberCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FiberTwistReport:
    """Fiber-level checks for the twisted comparison over a trivialized
    line bundle: module identifications, the two Morita equivalences, and
    commutativity of the induced K0 square."""

    checks: tuple[FiberCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed


def _morita_equal(a, b) -> bool:
    return a.ring is b.ring and a.factors == b.factors


def fiber_twist_check() -> FiberTwistReport:
    """Run the four fiber-level checks and report each pass/fail.

    (a) modules over the rank-one fiber algebra C^{1,0} are complex vector
        spaces with K0 = Z; (b) C^{0,3} is Morita equivalent to C^{1,0};
    (c) C^{0,2} is Morita equivalent to C^{0,0}; (d) the K0 square
    commutes: restriction along both vertical routes is multiplication
    by 2.
    """
    checks = []

    desc_c = classify(Signature(1, 0))
    group = k0(Signature(1, 0))
    ok_a = (desc_c.ring.name == "C" and desc_c.factors == 1
            and group == FGAbelianGroup.free(1))
    checks.append(FiberCheck(
        "complex-fiber-modules", ok_a,
        f"classify(C^(1,0)) = {desc_c}, K0 = {group}"))

    desc_b = classify(Signature(0, 3))
    ok_b = _morita_equal(desc_b, desc_c)
    checks.append(FiberCheck(
        "source-equivalence", ok_b,
        f"classify(C^(0,3)) = {desc_b} ~ {desc_c}"))

    desc_2 = classify(Signature(0, 2))
    desc_0 = classify(Signature(0, 0))
    ok_c = _morita_equal(desc_2, desc_0)
    checks.append(FiberCheck(
        "target-equivalence", ok_c,
        f"classify(C^(0,2)) = {desc_2} ~ {desc_0}"))

    direct = restriction_multiplicities(Signature(1, 0), Signature(0, 0))
    twisted = restriction_multiplicities(Signature(0, 3), Signature(0, 2))
    ok_d = direct == twisted == ((2,),)
    checks.append(FiberCheck(
        "k0-square-commutes", ok_d,
        f"direct route {direct}, twisted route {twisted}"))

    return FiberTwistReport(tuple(checks))
