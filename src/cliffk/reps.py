"""Explicit faithful matrix representations of Clifford algebras.

Every representation built here uses monomial matrices whose entries are
fourth roots of unity, so products and traces stay exact and sparse.
Restriction multiplicities and endomorphism dimensions are character
pairings over the central blades, read off those traces.  The construction
is a fixed recursion producing a minimal faithful module in every signature:

* mixed signature: (p, q) doubles (p-1, q-1), sending an old generator g to
  diag(g, -g) and adjoining [[0, -I], [I, 0]] (negative square) and
  [[0, I], [I, 0]] (positive square);
* (0, q) for q >= 3 comes from (q-2, 0) (x) (0, 2), sending the first q - 2
  generators to a (x) b1 b2 and the last two to 1 (x) b1, 1 (x) b2;
* (p, 0) for p in {3, 4} comes from (0, p-2) (x) (2, 0) the same way;
* (p, 0) for p >= 5 reuses (p-4, 4): with f1..f4 the four positive
  generators and W = f1 f2 f3 f4, the elements fi W square to -1 and
  anticommute with each other and with the negative generators, so they
  serve as four extra negative generators on the same space.

Complex representations use the alternating sigma1/sigma2 tensor pattern for
an even number of positive generators, a two-block doubling with the scaled
volume element for an odd number, and multiply the first p generators by i to
move p squares from +1 to -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _kernel_py as kernel
from .blades import CliffordElement, Signature, TensorElement
from .errors import BoundExceededError, EmbeddingError
from .scalars import ScalarField
from .structure import classify, min_faithful_dim

_REAL = ScalarField.REAL
_COMPLEX = ScalarField.COMPLEX


class UnitPermMatrix:
    """A monomial matrix with entries in {1, i, -1, -i}.

    Column j has its unique nonzero in row ``rows[j]`` with value
    i**codes[j].  Real matrices are exactly those with even codes.  Products,
    inverses, and scalar multiples by units stay in this class, which keeps
    every representation-level computation on permutations plus code
    arithmetic mod 4.
    """

    __slots__ = ("n", "rows", "codes", "_inv")

    def __init__(self, rows, codes):
        self.n = len(rows)
        self.rows = tuple(rows)
        self.codes = tuple(c & 3 for c in codes)
        self._inv = None
        if sorted(self.rows) != list(range(self.n)):
            raise ValueError("rows must be a permutation")
        if len(self.codes) != self.n:
            raise ValueError("one unit code per column required")

    @classmethod
    def identity(cls, n: int) -> "UnitPermMatrix":
        return cls(tuple(range(n)), (0,) * n)

    def __matmul__(self, other: "UnitPermMatrix") -> "UnitPermMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        srows, scodes = self.rows, self.codes
        orows, ocodes = other.rows, other.codes
        rows = tuple(srows[orows[j]] for j in range(self.n))
        codes = tuple(scodes[orows[j]] + ocodes[j] for j in range(self.n))
        return UnitPermMatrix(rows, codes)

    def __neg__(self) -> "UnitPermMatrix":
        return UnitPermMatrix(self.rows, tuple(c + 2 for c in self.codes))

    def mul_unit(self, code: int) -> "UnitPermMatrix":
        """Multiply the whole matrix by i**code."""
        return UnitPermMatrix(self.rows, tuple(c + code for c in self.codes))

    def inverse_rows(self) -> tuple[int, ...]:
        """Permutation lookup: inverse_rows()[a] is the column hitting row a."""
        if self._inv is None:
            inv = [0] * self.n
            for j, a in enumerate(self.rows):
                inv[a] = j
            self._inv = tuple(inv)
        return self._inv

    @property
    def is_real(self) -> bool:
        return all(c % 2 == 0 for c in self.codes)

    def trace_quadruple(self) -> tuple[int, int, int, int]:
        """Count of diagonal entries equal to 1, i, -1, -i respectively."""
        counts = [0, 0, 0, 0]
        for j, a in enumerate(self.rows):
            if a == j:
                counts[self.codes[j]] += 1
        return tuple(counts)

    def dense(self) -> list[list]:
        """Entries as ints (real) or (re, im) int pairs (complex)."""
        if self.is_real:
            out = [[0] * self.n for _ in range(self.n)]
            for j, a in enumerate(self.rows):
                out[a][j] = 1 if self.codes[j] == 0 else -1
            return out
        out = [[(0, 0)] * self.n for _ in range(self.n)]
        unit = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
        for j, a in enumerate(self.rows):
            out[a][j] = unit[self.codes[j]]
        return out

    def __eq__(self, other):
        if not isinstance(other, UnitPermMatrix):
            return NotImplemented
        return self.rows == other.rows and self.codes == other.codes

    def __hash__(self):
        return hash((self.rows, self.codes))

    def __repr__(self):
        return f"UnitPermMatrix({self.rows}, {self.codes})"


def kron(a: UnitPermMatrix, b: UnitPermMatrix) -> UnitPermMatrix:
    """Kronecker product; index (ia, ib) is flattened to ia * b.n + ib."""
    nb = b.n
    rows = []
    codes = []
    for ja in range(a.n):
        ra, ca = a.rows[ja], a.codes[ja]
        for jb in range(nb):
            rows.append(ra * nb + b.rows[jb])
            codes.append(ca + b.codes[jb])
    return UnitPermMatrix(rows, codes)


def _block_diag_pm(g: UnitPermMatrix) -> UnitPermMatrix:
    """diag(g, -g) on a doubled space."""
    d = g.n
    rows = list(g.rows) + [d + r for r in g.rows]
    codes = list(g.codes) + [c + 2 for c in g.codes]
    return UnitPermMatrix(rows, codes)


def _block_diag(g: UnitPermMatrix, h: UnitPermMatrix) -> UnitPermMatrix:
    d = g.n
    rows = list(g.rows) + [d + r for r in h.rows]
    codes = list(g.codes) + list(h.codes)
    return UnitPermMatrix(rows, codes)


def _offdiag(d: int, upper_code: int) -> UnitPermMatrix:
    """[[0, i**upper_code * I], [I, 0]] on a doubled space."""
    rows = [d + j for j in range(d)] + list(range(d))
    codes = [0] * d + [upper_code] * d
    return UnitPermMatrix(rows, codes)


@lru_cache(maxsize=None)
def _real_gens(p: int, q: int) -> tuple[int, tuple[UnitPermMatrix, ...]]:
    if p >= 1 and q >= 1:
        d, sub = _real_gens(p - 1, q - 1)
        emb = [_block_diag_pm(g) for g in sub]
        new_neg = _offdiag(d, 2)
        new_pos = _offdiag(d, 0)
        gens = emb[: p - 1] + [new_neg] + emb[p - 1 :] + [new_pos]
        return 2 * d, tuple(gens)
    if p == 0:
        if q == 0:
            return 1, ()
        if q == 1:
            return 2, (UnitPermMatrix((0, 1), (0, 2)),)
        if q == 2:
            return 2, (
                UnitPermMatrix((0, 1), (0, 2)),
                UnitPermMatrix((1, 0), (0, 0)),
            )
        da, gens_a = _real_gens(q - 2, 0)
        _db, gens_b = _real_gens(0, 2)
        b12 = gens_b[0] @ gens_b[1]
        ida = UnitPermMatrix.identity(da)
        gens = [kron(a, b12) for a in gens_a] + [kron(ida, b) for b in gens_b]
        return 2 * da, tuple(gens)
    # q == 0
    if p == 1:
        return 2, (UnitPermMatrix((1, 0), (0, 2)),)
    if p == 2:
        # left multiplication by i and j on the quaternions with basis
        # (1, i, j, k)
        li = UnitPermMatrix((1, 0, 3, 2), (0, 2, 0, 2))
        lj = UnitPermMatrix((2, 3, 0, 1), (0, 2, 2, 0))
        return 4, (li, lj)
    if p <= 4:
        da, gens_a = _real_gens(0, p - 2)
        _db, gens_b = _real_gens(2, 0)
        c12 = gens_b[0] @ gens_b[1]
        ida = UnitPermMatrix.identity(da)
        gens = [kron(a, c12) for a in gens_a] + [kron(ida, c) for c in gens_b]
        return 4 * da, tuple(gens)
    # p >= 5
    d, gens = _real_gens(p - 4, 4)
    negs = list(gens[: p - 4])
    f = gens[p - 4 :]
    w = f[0] @ f[1] @ f[2] @ f[3]
    return d, tuple(negs + [fi @ w for fi in f])


_SIGMA1 = UnitPermMatrix((1, 0), (0, 0))
_SIGMA2 = UnitPermMatrix((1, 0), (1, 3))
_SIGMA3 = UnitPermMatrix((0, 1), (0, 2))


@lru_cache(maxsize=None)
def _complex_positive_gens(n: int) -> tuple[int, tuple[UnitPermMatrix, ...]]:
    """n pairwise anticommuting complex matrices squaring to +I."""
    if n == 0:
        return 1, ()
    if n % 2 == 0:
        k = n // 2
        d = 1 << k
        gens = []
        for j in range(k):
            pre = UnitPermMatrix.identity(1)
            for _ in range(j):
                pre = kron(pre, _SIGMA3)
            post = UnitPermMatrix.identity(1 << (k - 1 - j))
            gens.append(kron(kron(pre, _SIGMA1), post))
            gens.append(kron(kron(pre, _SIGMA2), post))
        return d, tuple(gens)
    d, gens = _complex_positive_gens(n - 1)
    k = (n - 1) // 2
    delta = UnitPermMatrix.identity(d)
    for g in gens:
        delta = delta @ g
    # (g1 ... g2k)**2 = (-1)**k, so i**k makes the square +I
    delta = delta.mul_unit(k)
    doubled = [_block_diag(g, g) for g in gens]
    doubled.append(_block_diag(delta, -delta))
    return 2 * d, tuple(doubled)


@lru_cache(maxsize=None)
def _complex_gens(p: int, q: int) -> tuple[int, tuple[UnitPermMatrix, ...]]:
    d, gens = _complex_positive_gens(p + q)
    out = [g.mul_unit(1) if t < p else g for t, g in enumerate(gens)]
    return d, tuple(out)


@dataclass(frozen=True)
class MatrixRep:
    """A Clifford representation: one unit-permutation matrix per generator."""

    sig: Signature
    field: ScalarField
    dim: int
    gens: tuple[UnitPermMatrix, ...]

    def blade_matrices(self) -> list[UnitPermMatrix]:
        """All 2**n blade images, indexed by mask, via shared prefixes."""
        mats = [UnitPermMatrix.identity(self.dim)] * self.sig.dim
        for mask in range(1, self.sig.dim):
            low = mask & -mask
            gen = self.gens[low.bit_length() - 1]
            mats[mask] = gen @ mats[mask ^ low]
        return mats


def build_rep(sig: Signature, field: ScalarField = _REAL,
              max_total: int = 12) -> MatrixRep:
    """Minimal faithful representation by the fixed recursion above.

    Deterministic: the same signature always yields the same matrices.  The
    module has dimension equal to the sum of the simple module dimensions
    (one copy of each).  Raises BoundExceededError past ``max_total``
    generators; callers with a genuine need may raise the bound.
    """
    if sig.n > max_total:
        raise BoundExceededError(
            f"build_rep limited to {max_total} generators, got {sig.n}")
    if field is _REAL:
        dim, gens = _real_gens(sig.p, sig.q)
    else:
        dim, gens = _complex_gens(sig.p, sig.q)
    return MatrixRep(sig, field, dim, gens)


def check_relations(rep: MatrixRep) -> bool:
    """Exact generator relations: squares are -+I, distinct pairs anticommute."""
    ident = UnitPermMatrix.identity(rep.dim)
    for t, g in enumerate(rep.gens):
        want = -ident if t < rep.sig.p else ident
        if g @ g != want:
            return False
    for a in range(len(rep.gens)):
        for b in range(a + 1, len(rep.gens)):
            ga, gb = rep.gens[a], rep.gens[b]
            if ga @ gb != -(gb @ ga):
                return False
    return True


def _central_involution(rep: MatrixRep) -> UnitPermMatrix:
    """The volume element, unit-scaled if needed so that it squares to +I.

    Only meaningful for two-factor algebras, where it separates the two
    simple summands by its +-1 eigenvalue.
    """
    m = UnitPermMatrix.identity(rep.dim)
    for g in rep.gens:
        m = m @ g
    sq = m @ m
    ident = UnitPermMatrix.identity(rep.dim)
    if sq == ident:
        return m
    if sq == -ident:
        if rep.field is _COMPLEX:
            return m.mul_unit(1)
        raise AssertionError("volume element of a real two-factor algebra "
                             "must square to +I")
    raise AssertionError("volume element square is not central +-I")


def _factor_labels(desc) -> tuple:
    return (1, -1) if desc.factors == 2 else (None,)


def _assert_minimal_faithful(rep: MatrixRep) -> None:
    desc = classify(rep.sig, rep.field)
    expected = min_faithful_dim(rep.sig, rep.field)
    if rep.dim != expected:
        raise AssertionError(
            f"representation of {rep.sig} has dimension {rep.dim}, "
            f"expected {expected}")
    if desc.factors == 2:
        # one copy of each simple summand makes the central involution
        # traceless; two copies of the same summand would give trace -+dim
        if _trace(_central_involution(rep)) != (0, 0):
            raise AssertionError(
                f"representation of {rep.sig} is not one-of-each on the "
                f"two simple summands")


def _trace(m: UnitPermMatrix) -> tuple[int, int]:
    """Trace as a Gaussian integer (re, im)."""
    t1, ti, tm1, tmi = m.trace_quadruple()
    return t1 - tm1, ti - tmi


def _summand_characters(rep: MatrixRep, gens) -> dict:
    """Doubled characters of the simple summands at the central blades.

    ``gens`` are the images in ``rep`` of the generators of a subalgebra (all
    of ``rep.gens`` for the algebra itself).  Its central blades are 1 and,
    for an odd number of generators, their product.  For each summand label
    (see _factor_labels) the value at a central blade x is the Gaussian
    integer 2 tr(x (1 + label c)/2) = tr(x) + label tr(x c), with c the
    central involution of ``rep``'s own algebra (the identity, label 1, when
    that algebra is simple).  The projectors commute with every generator.
    """
    ident = UnitPermMatrix.identity(rep.dim)
    blades = [ident]
    if len(gens) % 2:
        vol = ident
        for g in gens:
            vol = vol @ g
        blades.append(vol)
    desc = classify(rep.sig, rep.field)
    c = _central_involution(rep) if desc.factors == 2 else ident
    traces = [(_trace(x), _trace(x @ c)) for x in blades]
    return {label: [(re + (label or 1) * cre, im + (label or 1) * cim)
                    for (re, im), (cre, cim) in traces]
            for label in _factor_labels(desc)}


def _pairing(chi_s, chi_b, n_small: int) -> int:
    """dim Hom(S, B) over the scalar field, from doubled central characters.

    Modules of an n-generator Clifford algebra are the representations of
    the finite group {+-e_A} in which -1 acts as -1, so dim Hom(S, B) is
    2**-n times the sum over all blades of conj(chi_S) chi_B.  A blade that
    is not central anticommutes with some generator g, which commutes with
    the summand projectors, so its character is zero (conjugate by g).  Only
    the central blades remain, and the doubling adds a factor 4.  Over R the
    complexified characters give the real dimension.
    """
    re = im = 0
    for (a, b), (c, d) in zip(chi_s, chi_b):
        re += a * c + b * d
        im += a * d - b * c
    hom, rem = divmod(re, 4 << n_small)
    if im or rem:
        raise AssertionError(
            f"character pairing {re}{im:+}i is not a multiple of "
            f"{4 << n_small}")
    return hom


def _embedding_indices(big: Signature, small: Signature) -> tuple[int, ...]:
    if not big.contains(small):
        raise EmbeddingError(f"{small} does not embed in {big}")
    return tuple(range(small.p)) + tuple(big.p + t for t in range(small.q))


@lru_cache(maxsize=None)
def _restriction(big: Signature, small: Signature,
                 field: ScalarField) -> tuple[tuple[int, ...], ...]:
    emb_idx = _embedding_indices(big, small)
    rep_b = build_rep(big, field, max_total=max(12, big.n))
    rep_s = build_rep(small, field, max_total=max(12, small.n))
    _assert_minimal_faithful(rep_b)
    _assert_minimal_faithful(rep_s)
    chi_b = _summand_characters(rep_b, [rep_b.gens[t] for t in emb_idx])
    chi_s = _summand_characters(rep_s, rep_s.gens)
    rows = []
    for xs in chi_s.values():
        end_dim = _pairing(xs, xs, small.n)
        row = []
        for xb in chi_b.values():
            hom = _pairing(xs, xb, small.n)
            mult, rem = divmod(hom, end_dim)
            if rem:
                raise AssertionError(
                    f"dim Hom {hom} over {small} in {big} ({field}) is not "
                    f"a multiple of dim End {end_dim}")
            row.append(mult)
        rows.append(tuple(row))
    return tuple(rows)


def restriction_multiplicities(big: Signature, small: Signature,
                               field: ScalarField = _REAL,
                               max_total: int = 10) -> tuple[tuple[int, ...], ...]:
    """Multiplicity of each simple summand of the big algebra over the small.

    Restricting along the generator-segment embedding of C^{small} into
    C^{big}, entry [s][b] is the multiplicity of the small algebra's simple
    module s inside the restriction of the big algebra's simple module b.
    Computed as dim Hom(S, B|small) / dim End(S), each an exact character
    pairing over the central blades of the small algebra (1, and the volume
    element when it has an odd number of generators), with the summands cut
    out by the central involutions.  The tests check it against explicit
    intertwiner solves.

    >>> from cliffk.blades import Signature
    >>> restriction_multiplicities(Signature(1, 0), Signature(0, 0))
    ((2,),)
    >>> restriction_multiplicities(Signature(3, 0), Signature(2, 0))
    ((1, 1),)
    """
    if big.n > max_total:
        raise BoundExceededError(
            f"restriction_multiplicities limited to {max_total} generators, "
            f"got {big.n}")
    _embedding_indices(big, small)
    return _restriction(big, small, field)


def irrep_end_dim(sig: Signature, field: ScalarField = _REAL,
                  label=None) -> int:
    """dim over the scalar field of End of one simple module, as <chi, chi>.

    ``label`` picks the summand (+1 or -1) for two-factor algebras.  This is
    the character pairing restriction_multiplicities divides by; the tests
    check it against the division-ring table of cliffk.structure.
    """
    desc = classify(sig, field)
    if desc.factors == 2 and label not in (1, -1):
        raise ValueError("two-factor algebra needs a +-1 summand label")
    rep = build_rep(sig, field)
    chi = _summand_characters(rep, rep.gens)[
        label if desc.factors == 2 else None]
    return _pairing(chi, chi, sig.n)


def verify_classification(sig: Signature, field: ScalarField = _REAL,
                          max_total: int = 8) -> bool:
    """Check the classification table against the explicit representation.

    True iff the built representation satisfies the generator relations, has
    the minimal faithful dimension predicted by the table, and its 2**n blade
    images span a space of exact dimension 2**n over the scalar field (so the
    image algebra has the full dimension and the module is faithful with the
    stated summand multiplicities).
    """
    if sig.n > max_total:
        raise BoundExceededError(
            f"verify_classification limited to {max_total} generators, "
            f"got {sig.n}")
    rep = build_rep(sig, field, max_total=max(12, sig.n))
    desc = classify(sig, field)
    if not check_relations(rep):
        return False
    if rep.dim != min_faithful_dim(sig, field):
        return False
    if desc.dim_over_field != sig.dim:
        return False
    mats = rep.blade_matrices()
    d = rep.dim
    if field is _REAL:
        rows = []
        for m in mats:
            row = {}
            for j, a in enumerate(m.rows):
                row[a * d + j] = 1 if m.codes[j] == 0 else -1
            rows.append(row)
        return kernel.sparse_rank(rows, d * d) == sig.dim
    # complex: realify the C-span of the blade images; including the i-scaled
    # copies makes the real rank exactly twice the complex dimension
    rows = []
    unit_part = {0: (0, 1), 1: (1, 1), 2: (0, -1), 3: (1, -1)}
    for m in mats:
        for shift in (0, 1):
            row = {}
            for j, a in enumerate(m.rows):
                part, v = unit_part[(m.codes[j] + shift) & 3]
                row[2 * (a * d + j) + part] = v
            rows.append(row)
    return kernel.sparse_rank(rows, 2 * d * d) == 2 * sig.dim


def verify_periodicity_iso(m: int, max_m: int = 6) -> bool:
    """Explicit generator-level isomorphism C^{0,m+2} -> C^{m,0} (x) C^{0,2}.

    Sends the first m generators to t_j (x) e1 e2 and the last two to
    1 (x) e1, 1 (x) e2.  Checks the images satisfy the domain relations
    (square +1, pairwise anticommuting) and that the 2**(m+2) blade images
    are linearly independent, so the map is an isomorphism of algebras.
    """
    if not 0 <= m <= max_m:
        raise BoundExceededError(f"verify_periodicity_iso limited to {max_m}")
    left = Signature(m, 0)
    right = Signature(0, 2)
    one_l = CliffordElement.one(left)
    e1 = CliffordElement.generator(right, 1)
    e2 = CliffordElement.generator(right, 2)
    e12 = e1 * e2
    images = [TensorElement.of(CliffordElement.generator(left, j + 1), e12)
              for j in range(m)]
    images.append(TensorElement.of(one_l, e1))
    images.append(TensorElement.of(one_l, e2))
    one_t = TensorElement.one(left, right)
    for g in images:
        if g * g != one_t:
            return False
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if not (images[a] * images[b] + images[b] * images[a]).is_zero():
                return False
    # blade images, by shared-prefix recursion; each is a single tensor term
    total = 1 << (m + 2)
    blade_imgs: list[TensorElement] = [one_t] * total
    for mask in range(1, total):
        low = mask & -mask
        blade_imgs[mask] = images[low.bit_length() - 1] * blade_imgs[mask ^ low]
    rows = []
    for img in blade_imgs:
        row = {}
        for (ml, mr), coeff in img.terms.items():
            row[ml * 4 + mr] = int(coeff)
        rows.append(row)
    return kernel.sparse_rank(rows, left.dim * 4) == total


def _crossed_mul(t1, t2, n: int):
    """Multiply basis terms of C^{0,n+1} extended by the involution eta.

    Terms are (mask, e) with e in {0, 1} the eta exponent; eta anticommutes
    with the first n generators (the reflected directions) and commutes with
    generator n+1 (the added one).  Returns (sign, (mask, e)).
    """
    (m1, a), (m2, c) = t1, t2
    sign = 1
    if a and (m2 & ((1 << n) - 1)).bit_count() & 1:
        sign = -sign
    s, m = kernel.blade_mul_mask(m1, m2, 0)
    return sign * s, (m, a ^ c)


def untwist_split_check(n: int, max_n: int = 6) -> bool:
    """Splitting of the eta-extended algebra by the top-generator twist.

    In C^{0,n+1} extended by an involution eta that anticommutes with the
    first n generators and commutes with the last, the element z = eta *
    e_{n+1} is checked to be a central involution; the two corners cut out by
    (1 +- z)/2 then each have dimension 2**(n+1) and multiplication by either
    idempotent embeds C^{0,n+1} isomorphically onto its corner.
    """
    if not 0 <= n <= max_n:
        raise BoundExceededError(f"untwist_split_check limited to {max_n}")
    nblades = 1 << (n + 1)
    total = 2 * nblades

    def key(term):
        mask, e = term
        return e * nblades + mask

    z = (1 << n, 1)
    # centrality against every generator and against eta itself
    gens = [((1 << i, 0)) for i in range(n + 1)] + [(0, 1)]
    for g in gens:
        s1, t1 = _crossed_mul(z, g, n)
        s2, t2 = _crossed_mul(g, z, n)
        if (s1, t1) != (s2, t2):
            return False
    sz, tz = _crossed_mul(z, z, n)
    if sz != 1 or tz != (0, 0):
        return False
    # corner ranks: x * (1 +- z)/2 for x over the full basis
    for eps in (1, -1):
        rows = []
        for mask in range(nblades):
            for e in (0, 1):
                x = (mask, e)
                s, t = _crossed_mul(x, z, n)
                rows.append({key(x): 1, key(t): eps * s})
        if kernel.sparse_rank(rows, total) != nblades:
            return False
        # restriction of the corner projection to the eta-free subalgebra
        # is injective, hence an algebra isomorphism onto the corner
        sub_rows = []
        for mask in range(nblades):
            x = (mask, 0)
            s, t = _crossed_mul(x, z, n)
            sub_rows.append({key(x): 1, key(t): eps * s})
        if kernel.sparse_rank(sub_rows, total) != nblades:
            return False
    return True
