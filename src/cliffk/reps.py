"""Explicit faithful matrix representations of Clifford algebras.

Every representation built here uses monomial matrices whose entries are
fourth roots of unity, so products and traces stay exact and sparse.  They
are the evidence for the classification table: verify_classification checks
each table entry against a built module.  The K-theory path reads the table
alone and builds none of them.  The construction is a fixed recursion
producing a minimal faithful module in every signature:

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
from functools import lru_cache, reduce
from operator import matmul

from .blades import Signature, blade_mul_mask
from .errors import BoundExceededError, InvalidSignatureError, check_size
from .structure import ScalarField, classify, min_faithful_dim

_REAL = ScalarField.REAL


class UnitPermMatrix:
    """A monomial matrix with entries in {1, i, -1, -i}.

    Column j has its unique nonzero in row ``rows[j]`` with value
    i**codes[j].  Real matrices are exactly those with even codes.  Products,
    inverses, and scalar multiples by units stay in this class, which keeps
    every representation-level computation on permutations plus code
    arithmetic mod 4.
    """

    __slots__ = ("n", "rows", "codes")

    def __init__(self, rows, codes):
        self.n = len(rows)
        self.rows = tuple(rows)
        self.codes = tuple(c & 3 for c in codes)
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

    def trace_quadruple(self) -> tuple[int, int, int, int]:
        """Count of diagonal entries equal to 1, i, -1, -i respectively."""
        counts = [0, 0, 0, 0]
        for j, a in enumerate(self.rows):
            if a == j:
                counts[self.codes[j]] += 1
        return tuple(counts)

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


def build_rep(sig: Signature, field: ScalarField = _REAL) -> MatrixRep:
    """Minimal faithful representation by the fixed recursion above.

    Deterministic: the same signature always yields the same matrices.  The
    module has dimension equal to the sum of the simple module dimensions
    (one copy of each).  Raises BoundExceededError, before building anything,
    when the n generator images of that dimension pass MAX_CELLS entries.
    """
    check_size("build_rep of {}", sig.n * min_faithful_dim(sig, field), sig)
    if field is _REAL:
        dim, gens = _real_gens(sig.p, sig.q)
    else:
        dim, gens = _complex_gens(sig.p, sig.q)
    return MatrixRep(sig, field, dim, gens)


def check_relations(rep: MatrixRep) -> bool:
    """Exact generator relations: squares are -+I, distinct pairs anticommute.

    Read off rows and codes, with no product built: column j of g h has its
    nonzero in row g.rows[h.rows[j]] with code g.codes[h.rows[j]] +
    h.codes[j] mod 4.  So g g = -+I says that g.rows[g.rows[j]] is j with
    code 2 or 0, and g h = -h g that both products put column j in the
    same row with codes 2 apart.  A generator of the wrong size fails.
    """
    dim, gens = rep.dim, rep.gens
    cols = range(dim)
    for t, g in enumerate(gens):
        if g.n != dim:
            return False
        want = 2 if t < rep.sig.p else 0
        rows, codes = g.rows, g.codes
        for j in cols:
            r = rows[j]
            if rows[r] != j or (codes[r] + codes[j]) & 3 != want:
                return False
    for a, ga in enumerate(gens):
        ga_rows, ga_codes = ga.rows, ga.codes
        for gb in gens[a + 1:]:
            gb_rows, gb_codes = gb.rows, gb.codes
            for j in cols:
                ra, rb = ga_rows[j], gb_rows[j]
                if (ga_rows[rb] != gb_rows[ra]
                        or (ga_codes[rb] + gb_codes[j] - gb_codes[ra]
                            - ga_codes[j]) & 3 != 2):
                    return False
    return True


def verify_classification(sig: Signature, field: ScalarField = _REAL,
                          max_total: int | None = None) -> bool:
    """Check the classification table against the explicit representation.

    True iff the built representation satisfies the generator relations, has
    the minimal faithful dimension predicted by the table, and every blade
    image but the identity has trace 0.  Certificate: under the relations
    E_A**-1 E_B is a sign times E_(A xor B), so zero traces make the trace
    form tr(E_A**-1 E_B) equal to dim * I and the 2**n blade images
    independent over the scalar field (so the image algebra has the full
    dimension and the module is faithful with the stated summand
    multiplicities).  Only one trace needs reading: every blade but 1 and,
    for odd n, the volume element anticommutes with some generator, so the
    relations already give it trace 0.  The volume image is the product of
    the n generators.  The 2**n blade images the certificate stands for are
    bounded by MAX_CELLS; ``max_total``, when given, also caps the
    generator count.
    """
    if max_total is not None and sig.n > max_total:
        raise BoundExceededError(f"{sig} has more than {max_total} generators")
    rep = build_rep(sig, field)
    check_size("blade_matrices of {}", sig.dim * rep.dim, sig)
    desc = classify(sig, field)
    if not check_relations(rep):
        return False
    if rep.dim != min_faithful_dim(sig, field):
        return False
    if desc.dim_over_field != sig.dim:
        return False
    if sig.n % 2 == 0:
        return True
    volume = reduce(matmul, rep.gens)
    # a trace is 0 iff its 1s balance its -1s and its i's balance its -i's
    t1, ti, tm1, tmi = volume.trace_quadruple()
    return t1 == tm1 and ti == tmi


def _periodicity_images(m: int) -> list[tuple[int, int, int]]:
    """Generator images of C^{0,m+2} in C^{m,0} (x) C^{0,2} as (sign, left
    mask, right mask): t_j (x) e1 e2 for j = 1..m, then 1 (x) e1, 1 (x) e2."""
    return [(1, 1 << j, 0b11) for j in range(m)] + [(1, 0, 0b01), (1, 0, 0b10)]


def verify_periodicity_iso(m: int) -> bool:
    """Explicit generator-level isomorphism C^{0,m+2} -> C^{m,0} (x) C^{0,2}.

    Sends the first m generators to t_j (x) e1 e2 and the last two to
    1 (x) e1, 1 (x) e2.  Checks the images satisfy the domain relations
    (square +1, pairwise anticommuting) and that the 2**(m+2) blade images
    are linearly independent, so the map is an isomorphism of algebras.
    Every image is a signed pure tensor of two blades, (sign, left mask,
    right mask), and a product multiplies each side by blade_mul_mask.
    Certificate: a single signed term per blade image, so the images are
    independent iff their (left, right) supports are distinct.  Its
    (m+2) * 2**(m+2) blade-image entries are bounded by MAX_CELLS.
    """
    Signature(m, 0)  # rejects a negative m
    check_size("verify_periodicity_iso({})", (m + 2) << (m + 2), m)
    mul = blade_mul_mask

    def times(x, y):
        sl, left = mul(x[1], y[1], m)
        sr, right = mul(x[2], y[2], 0)
        return x[0] * y[0] * sl * sr, left, right

    images = _periodicity_images(m)
    for g in images:
        if times(g, g) != (1, 0, 0):
            return False
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            sign, left, right = times(images[a], images[b])
            if times(images[b], images[a]) != (-sign, left, right):
                return False
    # blade images, by shared-prefix recursion
    total = 1 << (m + 2)
    blade_imgs = [(1, 0, 0)] * total
    for mask in range(1, total):
        low = mask & -mask
        blade_imgs[mask] = times(images[low.bit_length() - 1],
                                 blade_imgs[mask ^ low])
    return len({(left, right) for _s, left, right in blade_imgs}) == total


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
    s, m = blade_mul_mask(m1, m2, 0)
    return sign * s, (m, a ^ c)


def untwist_split_check(n: int) -> bool:
    """Splitting of the eta-extended algebra by the top-generator twist.

    In C^{0,n+1} extended by an involution eta that anticommutes with the
    first n generators and commutes with the last, the element z = eta *
    e_{n+1} is checked to be a central involution; the two corners cut out by
    (1 +- z)/2 then each have dimension 2**(n+1) and multiplication by either
    idempotent embeds C^{0,n+1} isomorphically onto its corner.
    Certificate: x -> x * z pairs each eta-free basis term with an eta-ful
    one, and the two rows x (1 +- z) of a pair are proportional iff their
    product signs multiply to 1.  Its (n+2) * 2**(n+2) entries are bounded
    by MAX_CELLS.
    """
    if type(n) is not int:
        raise InvalidSignatureError(
            f"reflected-direction count {n!r} is not an integer")
    if n < 0:
        raise InvalidSignatureError(f"negative reflected-direction count {n}")
    check_size("untwist_split_check({})", (n + 2) << (n + 2), n)
    nblades = 1 << (n + 1)
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
    # pairs have disjoint supports and each holds one eta-free x, so both
    # corners, and their eta-free rows alone, have rank 2**(n+1) for either
    # sign iff every pair has rank 1
    for mask in range(nblades):
        x = (mask, 0)
        s, t = _crossed_mul(x, z, n)
        s_back, back = _crossed_mul(t, z, n)
        if t[1] != 1 or back != x or s * s_back != 1:
            return False
    return True
