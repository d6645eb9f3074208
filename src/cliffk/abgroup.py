"""Finitely generated abelian groups, homomorphisms, and exact sequences.

Groups are kept in invariant-factor form: a free rank plus a divisibility
chain d1 | d2 | ... of torsion orders, computed by Smith normal form from a
presentation, or by a gcd/lcm sweep from a list of cyclic orders.
Generators are ordered free-first, then torsion in chain order, so elements
and homomorphism matrices have a fixed coordinate convention throughout.

Subgroups are integer lattices.  A subgroup H of Z^n / col(R) is kept
as one canonical key: the Hermite normal form of the lattice H + col(R)
(image_key, kernel_key).  Two subgroups of a group are equal iff their
keys are, so exactness is key equality, and the solver buckets candidate
maps by key instead of testing pairs.  The solver's candidates stay integer
matrices: they are keyed from the matrix and the groups' gen_orders, their
well-definedness is checked once per matrix cell, and a GroupHom is built
only for a map that a solution returns.  A kernel key is read off one HNF,
and a subgroup's index is the product of its key's pivots (exactness_at).
Isomorphism classes (kernel, image) are read off the keys as well: the key
rows are a basis of H + col(R), so H is presented by the coordinates of
the relation vectors in that basis.  Smith normal form is used only to
turn a presentation into invariant factors (from_presentation, cokernel).

Both normal forms are implemented here, on lists of Python ints
(Cohen, A Course in Computational Algebraic Number Theory, 2.4):
smith_normal_form with its unimodular transforms, and _hnf, the key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .errors import (IllDefinedHomError, InvalidGroupError,
                     InvalidSequenceError, SearchSpaceError, check_size)


def _row_sub(M: list, i: int, t: int, q: int) -> None:
    if q:
        Mi, Mt = M[i], M[t]
        for j in range(len(Mi)):
            Mi[j] -= q * Mt[j]


def _col_sub(M: list, j: int, t: int, q: int) -> None:
    if q:
        for row in M:
            row[j] -= q * row[t]


def _col_swap(M: list, a: int, b: int) -> None:
    for row in M:
        row[a], row[b] = row[b], row[a]


def _bal_div(x: int, d: int) -> int:
    """Quotient leaving the minimal-magnitude remainder: |x - q*d| <= |d|/2."""
    q, r = divmod(x, d)
    if 2 * abs(r) > abs(d):
        q += 1
    return q


def _diagonalize(D: list, U: list, V: list, m: int, n: int) -> None:
    t = 0
    while t < m and t < n:
        while True:
            # re-picking the smallest pivot every pass keeps quotients, and
            # with them fill-in, from compounding across remainder chases
            best = None
            for i in range(t, m):
                Di = D[i]
                for j in range(t, n):
                    v = Di[j]
                    if v:
                        a = -v if v < 0 else v
                        if best is None or a < best[0]:
                            best = (a, i, j)
            if best is None:
                return
            _, bi, bj = best
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
            if not dirty and all(D[i][t] == 0 for i in range(m) if i != t):
                break
        t += 1


def smith_normal_form(mat) -> tuple[list, list, list]:
    """(U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with non-negative entries forming a divisibility chain
    d1 | d2 | ..., zeros last.  ``mat`` is a list of equal-length rows;
    ragged rows raise InvalidGroupError.  A shape whose transforms U and V
    would exceed MAX_CELLS entries raises BoundExceededError.

    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if any(len(row) != ncols for row in mat):
        raise InvalidGroupError("ragged matrix")
    check_size("Smith normal form of a {} x {} matrix",
               nrows * nrows + ncols * ncols, nrows, ncols)
    D = [list(row) for row in mat]
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    for _ in range(10000):
        _diagonalize(D, U, V, nrows, ncols)
        for t in range(min(nrows, ncols)):
            if D[t][t] < 0:
                for j in range(ncols):
                    D[t][j] = -D[t][j]
                for j in range(nrows):
                    U[t][j] = -U[t][j]
        fix = -1
        for t in range(min(nrows, ncols) - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if a and b and b % a:
                fix = t
                break
        if fix < 0:
            return U, D, V
        # merge the offending pair and rediagonalize
        _col_sub(D, fix, fix + 1, -1)
        _col_sub(V, fix, fix + 1, -1)
    raise AssertionError("Smith normal form failed to converge")


def _push_run(runs: list, value: int, count: int) -> None:
    if runs and runs[-1][0] == value:
        runs[-1][1] += count
    else:
        runs.append([value, count])


def _invariant_chain(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of Z/o1 + Z/o2 + ..., all above 1.

    The orders enter one at a time.  Inserting Z/x into a chain, walked
    from the top, replaces each c by lcm(c, x) and carries gcd(c, x) on
    down: prime by prime, that slots x's exponent into the sorted exponents
    of the chain.  The chain is kept as runs of equal values.  A carry that
    divides a run's value passes it unchanged, and one that does not
    changes only the run's first element, so an insertion costs O(runs),
    not O(k): 1000 copies of Z/2 make one run.
    """
    runs: list = []  # [value, count], top of the chain first
    for x in orders:
        new: list = []
        for c, n in runs:
            if c % x:
                g = gcd(c, x)
                _push_run(new, c // g * x, 1)
                if n > 1:
                    _push_run(new, c, n - 1)
                x = g
            else:
                _push_run(new, c, n)
        if x > 1:
            _push_run(new, x, 1)
        runs = new
    return tuple(c for c, n in reversed(runs) for _ in range(n))


def _check_rank(rank) -> None:
    # type(), not isinstance(): a bool is an int, and would print as Z
    if type(rank) is not int or rank < 0:
        raise InvalidGroupError(f"rank {rank!r} is not a non-negative integer")


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^rank plus cyclic factors Z/d1 + Z/d2 + ... with d1 | d2 | ...

    >>> FGAbelianGroup.from_invariants(1, (2, 4))
    FGAbelianGroup(rank=1, torsion=(2, 4))
    >>> str(FGAbelianGroup.from_invariants(0, (2, 3)))
    'Z/6'
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        _check_rank(self.rank)
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if type(d) is not int or d < 2:
                raise InvalidGroupError(
                    f"invariant factor {d!r} is not an integer of at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvalidGroupError(
                    f"invariant factors {a}, {b} break the chain")

    @classmethod
    def from_presentation(cls, n_gens: int, relations) -> "FGAbelianGroup":
        """Z^n_gens modulo the columns of the relation matrix (n_gens rows)."""
        rel = [list(r) for r in relations]
        if len(rel) != n_gens:
            raise InvalidGroupError(
                "relation matrix must have one row per generator")
        ncols = len(rel[0]) if rel else 0
        if any(len(row) != ncols or not all(type(v) is int for v in row)
               for row in rel):
            raise InvalidGroupError(
                "relation matrix must be rectangular, with integer entries")
        if not ncols:
            return cls.free(n_gens)
        _u, d, _v = smith_normal_form(rel)
        diag = [d[i][i] for i in range(min(n_gens, ncols))]
        nonzero = [x for x in diag if x]
        return cls(n_gens - len(nonzero), tuple(x for x in nonzero if x > 1))

    @classmethod
    def from_invariants(cls, rank: int, factors=()) -> "FGAbelianGroup":
        """Canonicalize arbitrary cyclic factor orders into a chain.

        The torsion chain comes from a gcd/lcm sweep over the orders
        (_invariant_chain), with no matrix; the free rank passes through
        unchanged.
        """
        _check_rank(rank)
        factors = list(factors)
        if any(type(d) is not int or d < 1 for d in factors):
            raise InvalidGroupError(
                "cyclic factor orders must be positive integers")
        k = len(factors)
        check_size("group of rank {} with {} cyclic factors", rank + k, rank, k)
        return cls(rank, _invariant_chain(factors))

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @property
    def n_gens(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def gen_orders(self) -> tuple[int, ...]:
        """Per-generator order, 0 meaning infinite."""
        return (0,) * self.rank + self.torsion

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def relation_matrix(self) -> list[list[int]]:
        """n_gens x len(torsion) diagonal-style relation columns."""
        rel = [[0] * len(self.torsion) for _ in range(self.n_gens)]
        for j, d in enumerate(self.torsion):
            rel[self.rank + j][j] = d
        return rel

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)


def _cell_well_defined(d: int, e: int, v: int) -> bool:
    """Whether a generator of order d (0: free) may map to the already
    reduced value v in a target coordinate of order e (0: free): d * v must
    vanish there."""
    return d * v % e == 0 if e else d * v == 0


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism, stored as its matrix on canonical generators.

    ``matrix`` has one row per target coordinate and one column per source
    generator; torsion-coordinate rows are reduced mod their order at
    construction.  Construction verifies well-definedness: a source generator
    of order d must map to an element killed by d.
    """

    source: FGAbelianGroup
    target: FGAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for end in (self.source, self.target):
            if not isinstance(end, FGAbelianGroup):
                raise IllDefinedHomError(f"map endpoint {end!r} is not a group")
        ns, nt = self.source.n_gens, self.target.n_gens
        mat = [list(row) for row in self.matrix]
        if len(mat) != nt or any(len(row) != ns for row in mat):
            raise IllDefinedHomError(
                f"matrix must be {nt} x {ns} for {self.target} <- {self.source}")
        if not all(type(v) is int for row in mat for v in row):
            raise IllDefinedHomError("matrix entries must be integers")
        t_orders = self.target.gen_orders
        for i, e in enumerate(t_orders):
            if e:
                mat[i] = [v % e for v in mat[i]]
        for j, d in enumerate(self.source.gen_orders):
            if not d:
                continue
            for i, e in enumerate(t_orders):
                if not _cell_well_defined(d, e, mat[i][j]):
                    raise IllDefinedHomError(
                        f"generator {j} of order {d} maps outside its order "
                        f"(target coordinate {i})")
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in mat))

    @classmethod
    def zero(cls, source: FGAbelianGroup, target: FGAbelianGroup) -> "GroupHom":
        check_size("zero map {} -> {}", source.n_gens * target.n_gens,
                   source, target)
        return cls(source, target,
                   tuple((0,) * source.n_gens for _ in range(target.n_gens)))

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        """Composition self o other."""
        if other.target != self.source:
            raise IllDefinedHomError("composition endpoint mismatch")
        # shapes come from the groups, not the matrices: a trivial middle
        # group leaves no rows or columns to infer them from
        ns, nt, inner = (other.source.n_gens, self.target.n_gens,
                         self.source.n_gens)
        prod_mat = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j]
                      for k in range(inner))
                  for j in range(ns))
            for i in range(nt))
        return GroupHom(other.source, self.target, prod_mat)


def cokernel(f: GroupHom) -> FGAbelianGroup:
    """Target modulo the image, in canonical form.

    >>> Z = FGAbelianGroup.free(1)
    >>> str(cokernel(GroupHom(Z, Z, ((2,),))))
    'Z/2'
    """
    rel = [[*t, *r] for t, r in zip(f.target.relation_matrix(), f.matrix)]
    return FGAbelianGroup.from_presentation(f.target.n_gens, rel)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _hnf(gens, moduli) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by ``gens`` and the
    vectors moduli[j] * e_j, as a tuple of its nonzero rows.

    ``moduli[j]`` is 0 for a free coordinate.  The form is canonical: rows
    in echelon order, each pivot positive, and every entry above a pivot
    reduced into [0, pivot).  So two generator lists span the same lattice
    iff their forms are equal, which makes the form a key for a subgroup
    of Z^r + Z/d_1 + ... (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.2).  Every torsion column ends up a pivot column.

    Columns are cleared left to right by extended-gcd row pairs.  The row
    d_j * e_j joins when column j is cleared: it has zeros to the left, and
    added earlier it would be reduced mod d_j to nothing.  Entries in a
    torsion column k not yet cleared are reduced mod d_k throughout, which
    the lattice allows and which keeps them small.
    """
    n = len(moduli)
    gens = list(gens)
    check_size("Hermite normal form of {} generators in {} coordinates",
               (len(gens) + n) * n, len(gens), n)
    tors = [k for k in range(n) if moduli[k]]
    rows = []
    for v in gens:
        r = list(v)
        for k in tors:
            r[k] %= moduli[k]
        if any(r):
            rows.append(r)
    out = []
    pivots = []
    for j in range(n):
        d = moduli[j]
        if d:
            r = [0] * n
            r[j] = d
            rows.append(r)
        piv = None
        rest = []
        later = [k for k in tors if k > j]
        for r in rows:
            x = r[j]
            if not x:
                # untouched: still reduced, still nonzero
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                a = piv[j]
                if x % a == 0:
                    q = x // a
                    r = [u - q * w for u, w in zip(r, piv)]
                else:
                    g, s, t = _xgcd(a, x)
                    ag, xg = a // g, x // g
                    piv, r = ([s * w + t * u for w, u in zip(piv, r)],
                              [xg * w - ag * u for w, u in zip(piv, r)])
                for k in later:
                    r[k] %= moduli[k]
                if any(r):
                    rest.append(r)
        rows = rest
        if piv is not None:
            if piv[j] < 0:
                piv = [-w for w in piv]
            for k in later:
                piv[k] %= moduli[k]
            out.append(piv)
            pivots.append(j)
    # reduce above each pivot, left to right: a pivot row is zero left of
    # its pivot, so it leaves the entries reduced before it alone
    for i, (c, row) in enumerate(zip(pivots, out)):
        p = row[c]
        for r in out[:i]:
            q = r[c] // p
            if q:
                for k in range(c, n):
                    r[k] -= q * row[k]
    return tuple(tuple(r) for r in out)


def _image_key(matrix, t_orders) -> tuple:
    return _hnf(zip(*matrix), t_orders)


def image_key(f: GroupHom) -> tuple:
    """Canonical key of im f as a subgroup of f.target: the Hermite normal
    form of the image columns stacked with the relation vectors d_i * e_i,
    so equal subgroups, and only they, get equal keys."""
    return _image_key(f.matrix, f.target.gen_orders)


def _kernel_key(matrix, s_orders, t_orders) -> tuple:
    nt, ns = len(t_orders), len(s_orders)
    check_size("Hermite normal form of {} generators in {} coordinates",
               (2 * ns + nt) * (ns + nt), ns, ns + nt)
    rows = [[row[j] for row in matrix] + [int(i == j) for i in range(ns)]
            for j in range(ns)]
    form = _hnf(rows, t_orders + s_orders)
    return tuple(r[nt:] for r in form if not any(r[:nt]))


def kernel_key(f: GroupHom) -> tuple:
    """Canonical key of ker f as a subgroup of f.source; one HNF, no SNF.

    The rows (F e_j | e_j), one per source generator, and the relation
    rows of target and source span the lattice L = {(F x + R_t y, x)}:
    well-definedness puts F R_s inside col(R_t), so the source relations
    add nothing new.  L meets 0 + Z^ns exactly in ker f, and the HNF rows
    of L that vanish on the target block are the HNF of that intersection,
    which is the key.  The size of that HNF is checked before its rows are
    built.
    """
    return _kernel_key(f.matrix, f.source.gen_orders, f.target.gen_orders)


def _key_group(key: tuple, moduli) -> FGAbelianGroup:
    """Isomorphism class of the subgroup H of Z^n / (moduli[j] * e_j) whose
    key is ``key``.

    The key rows are a basis of the lattice H + R, R spanned by the
    relation vectors d_j * e_j, which lie in it.  So H = (H + R) / R is
    Z^rows modulo the coordinates of each d_j * e_j in that basis, read off
    by walking the pivots in echelon order.  Each division there is exact:
    a remainder left at a pivot would stay, since later rows vanish there,
    and is raised as a broken key.
    """
    pivots = [next(k for k, x in enumerate(row) if x) for row in key]
    cols = []
    for j, d in enumerate(moduli):
        if not d:
            continue
        v = [0] * len(moduli)
        v[j] = d
        col = []
        for p, row in zip(pivots, key):
            c = v[p] // row[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
            col.append(c)
        if any(v):
            raise AssertionError(
                f"relation vector {d} * e_{j} is not in the lattice of the "
                f"key {key}")
        cols.append(col)
    return FGAbelianGroup.from_presentation(
        len(key), [[col[i] for col in cols] for i in range(len(key))])


def kernel(f: GroupHom) -> FGAbelianGroup:
    """Isomorphism class of the kernel, read off its key.

    >>> Z = FGAbelianGroup.free(1)
    >>> Z2 = FGAbelianGroup.from_invariants(0, (2,))
    >>> str(kernel(GroupHom(Z, Z2, ((1,),))))
    'Z'
    """
    return _key_group(kernel_key(f), f.source.gen_orders)


def image(f: GroupHom) -> FGAbelianGroup:
    """Isomorphism class of the image, read off its key."""
    return _key_group(image_key(f), f.target.gen_orders)


@dataclass(frozen=True)
class UnknownGroup:
    """A sequence slot to be filled from a finite candidate list."""

    candidates: tuple[FGAbelianGroup, ...]

    def __post_init__(self):
        if not self.candidates:
            raise InvalidSequenceError(
                "unknown group needs at least one candidate")
        for grp in self.candidates:
            if not isinstance(grp, FGAbelianGroup):
                raise InvalidSequenceError(
                    f"unknown group candidate {grp!r} is not a group")


@dataclass(frozen=True)
class UnknownMap:
    """A sequence arrow to be enumerated by solve_exact."""


UNKNOWN_MAP = UnknownMap()


@dataclass(frozen=True)
class Sequence:
    """Terms joined by maps, with marked positions where exactness is asked.

    ``exact_at`` holds 0-based indices of interior terms.  Terms may be
    UnknownGroup and maps UnknownMap; solve_exact fills them in.
    """

    terms: tuple
    maps: tuple
    names: tuple[str, ...] | None = None
    exact_at: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.terms) < 2:
            raise InvalidSequenceError("a sequence needs at least two terms")
        if len(self.maps) != len(self.terms) - 1:
            raise InvalidSequenceError(
                "need exactly one map between consecutive terms")
        if self.names is not None and len(self.names) != len(self.terms):
            raise InvalidSequenceError("one name per term")
        for term in self.terms:
            if not isinstance(term, (FGAbelianGroup, UnknownGroup)):
                raise InvalidSequenceError(f"term {term!r} is not a group")
        for pos in self.exact_at:
            if not 1 <= pos <= len(self.terms) - 2:
                raise InvalidSequenceError(
                    f"exactness position {pos} is not interior")
        for i, m in enumerate(self.maps):
            if isinstance(m, UnknownMap):
                continue
            if not isinstance(m, GroupHom):
                raise InvalidSequenceError(f"map {m!r} is not a GroupHom")
            for side, term in ((m.source, self.terms[i]),
                               (m.target, self.terms[i + 1])):
                if isinstance(term, FGAbelianGroup) and side != term:
                    raise InvalidSequenceError(
                        f"map {i} endpoints disagree with the terms")


def _maps_around(seq: Sequence, at: int) -> tuple[GroupHom, GroupHom]:
    """The concrete maps into and out of interior term ``at``."""
    if not 1 <= at <= len(seq.terms) - 2:
        raise InvalidSequenceError(f"exactness position {at} is not interior")
    f, g = seq.maps[at - 1], seq.maps[at]
    if not isinstance(f, GroupHom) or not isinstance(g, GroupHom):
        raise InvalidSequenceError("exactness check needs concrete maps")
    return f, g


def _key_index(key: tuple, n_gens: int) -> int | None:
    """Index in Z^n_gens of the lattice a key spans, None if infinite.

    A key of full rank has its pivots on the diagonal, and the index is
    their product.
    """
    if len(key) != n_gens:
        return None
    return prod(row[i] for i, row in enumerate(key))


def exactness_at(seq: Sequence, at: int) -> tuple[bool, int | None,
                                                  int | None]:
    """(exact at ``at``, [middle : image], [middle : kernel]), from one
    image key and one kernel key.

    Exactness is equality of the keys (image_key, kernel_key).  A
    subgroup's key spans it together with the middle term's relations, so
    the subgroup's index in the middle term, None if infinite, is the key
    lattice's index in Z^n.  Image equal to kernel already forces the
    composite to be zero, so no composition is formed.  The maps around
    ``at`` must be concrete and meet at the middle term.

    >>> Z = FGAbelianGroup.free(1)
    >>> Z2 = FGAbelianGroup.from_invariants(0, (2,))
    >>> seq = Sequence((Z, Z, Z2), (GroupHom(Z, Z, ((2,),)),
    ...                             GroupHom(Z, Z2, ((1,),))))
    >>> exactness_at(seq, 1)
    (True, 2, 2)
    """
    f, g = _maps_around(seq, at)
    if f.target != g.source:
        raise IllDefinedHomError("composition endpoint mismatch")
    n, img, ker = f.target.n_gens, image_key(f), kernel_key(g)
    return img == ker, _key_index(img, n), _key_index(ker, n)


def _entry_ranges(d_src: int, e_tgt: int, bound: int) -> tuple[range, ...]:
    """Candidate images of one source generator in one target coordinate.

    A free coordinate takes the integers in [-bound, bound], or only 0 when
    the source generator has finite order.  A torsion coordinate of order e
    takes the residues r in [0, e) whose centered representative has
    absolute value at most ``bound`` and with d_src * r divisible by e: the
    multiples of e // gcd(d_src, e) in two ascending runs, so that a count
    costs O(1) and a listing O(candidates).
    """
    if e_tgt == 0:
        return (range(-bound, bound + 1),) if d_src == 0 else (range(1),)
    step = e_tgt // gcd(d_src, e_tgt)
    half = e_tgt // 2
    top = max(half + 1, e_tgt - bound)
    return (range(0, min(bound, half) + 1, step),
            range(-(-top // step) * step, e_tgt, step))


def _entry_candidates(d_src: int, e_tgt: int, bound: int) -> list[int]:
    """The values of _entry_ranges, each checked once against GroupHom's
    test for one cell: reduced to [0, e_tgt) in a torsion row, and
    _cell_well_defined."""
    values = [r for run in _entry_ranges(d_src, e_tgt, bound) for r in run]
    for v in values:
        if ((e_tgt and not 0 <= v < e_tgt)
                or not _cell_well_defined(d_src, e_tgt, v)):
            raise IllDefinedHomError(
                f"candidate entry {v} for a generator of order {d_src} in a "
                f"coordinate of order {e_tgt} is not well-defined")
    return values


def _cell_counts(src: FGAbelianGroup, tgt: FGAbelianGroup, bound: int):
    """Candidate count of each matrix cell, row by row.

    Counted by arithmetic on the ranges: ``len`` of a range fails past
    sys.maxsize.
    """
    for e in tgt.gen_orders:
        for d in src.gen_orders:
            yield sum(max(0, (run.stop - run.start + run.step - 1) // run.step)
                      for run in _entry_ranges(d, e, bound))


def _hom_candidates(src: FGAbelianGroup, tgt: FGAbelianGroup, bound: int):
    """Candidate matrices in deterministic order, as tuples of integer rows
    in GroupHom's reduced form.  GroupHom's test is a conjunction over the
    cells, so it runs once per cell value (_entry_candidates), not once per
    matrix."""
    cells = [
        _entry_candidates(d, e, bound)
        for e in tgt.gen_orders
        for d in src.gen_orders
    ]
    ns = src.n_gens
    for flat in itertools.product(*cells):
        yield tuple(flat[i * ns:(i + 1) * ns] for i in range(tgt.n_gens))


def _term_choices(seq: Sequence):
    """Each choice of the unknown terms, as a tuple of concrete terms."""
    slots = [i for i, t in enumerate(seq.terms) if isinstance(t, UnknownGroup)]
    for combo in itertools.product(*(seq.terms[i].candidates for i in slots)):
        terms = list(seq.terms)
        for slot, grp in zip(slots, combo):
            terms[slot] = grp
        yield tuple(terms)


def _search_space(seq: Sequence, bound: int, ceiling: int) -> int:
    """Assignments before pruning, summed over the term choices.

    Each unknown map's matrix size is checked before its cells are counted,
    so a map too large to build is refused even when it has few candidates.

    With bound >= 0 every cell admits 0, so partial counts only grow, and
    the count stops as soon as one passes ``ceiling``: it is exact up to
    the ceiling and a lower bound above it, so a huge search space costs
    no huge product.
    """
    total = 0
    for terms in _term_choices(seq):
        subtotal = 1
        for i, m in enumerate(seq.maps):
            if isinstance(m, UnknownMap):
                src, tgt = terms[i], terms[i + 1]
                check_size("candidates of unknown map {}, {} x {} matrices",
                           src.n_gens * tgt.n_gens, i, tgt.n_gens, src.n_gens)
                for count in _cell_counts(src, tgt, bound):
                    subtotal *= count
                    if total + subtotal > ceiling:
                        return total + subtotal
        total += subtotal
        if total > ceiling:
            return total
    return total


def _decimal(n: int) -> str:
    """n in decimal, or a power of two below it when n is too long to print
    under the interpreter's integer string limit."""
    try:
        return str(n)
    except ValueError:
        return f"2^{n.bit_length() - 1}"


def _exact_picks(candidates, orders, exact_at):
    """Candidate indices of the maps, one tuple per exact assignment, in
    lexicographic order.

    ``candidates[k]`` lists the matrices of map k, and ``orders[k]`` is the
    gen_orders of term k, so map k runs from orders[k] to orders[k + 1].
    Depth-first over the maps from left to right.  For each marked term k,
    the candidates of map k are bucketed by kernel key, in ascending index
    order, and each candidate of map k - 1 is given the bucket of its image
    key.  Once map k - 1 is fixed, the search visits only that bucket at
    map k: exactly the candidates exact with it, in the order a full product
    enumeration meets them.  Each candidate gets at most one key of each
    kind, so the work is linear in the candidates plus the solutions.
    """
    follow = {}
    for k in exact_at:
        buckets = {}
        for i, g in enumerate(candidates[k]):
            buckets.setdefault(_kernel_key(g, orders[k], orders[k + 1]),
                               []).append(i)
        follow[k] = [buckets.get(_image_key(f, orders[k]), ())
                     for f in candidates[k - 1]]
    last = len(candidates) - 1
    picks = [0] * len(candidates)
    stack = [iter(range(len(candidates[0])))]
    while stack:
        k = len(stack) - 1
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            continue
        picks[k] = p
        if k == last:
            yield tuple(picks)
        elif k + 1 in follow:
            stack.append(iter(follow[k + 1][p]))
        else:
            stack.append(iter(range(len(candidates[k + 1]))))


def solve_exact(seq: Sequence, bound: int,
                max_assignments: int = 2_000_000) -> list[Sequence]:
    """All completions of the unknown slots exact at every marked position.

    Unknown terms range over their candidate lists; unknown maps range over
    matrices with free-generator image coordinates of absolute value at most
    ``bound`` (torsion coordinates use centered representatives).  The
    assignments, before any pruning, are counted up front and a
    SearchSpaceError raised if they exceed ``max_assignments``; the count
    stops at the first partial sum past the ceiling.  An unknown map whose
    matrix has more than MAX_CELLS entries raises BoundExceededError before
    any candidate is counted.  A ``bound`` or ``max_assignments`` that is
    not an int (a bool included), or a negative ``bound``, raises
    InvalidSequenceError.

    For each choice of unknown terms, every map's candidates are listed once
    as integer matrices, checked once per matrix cell (_hom_candidates), and
    a choice that a fixed map's endpoints reject is skipped whole.  At each
    marked term k, every candidate of map k - 1 gets one image key and every
    candidate of map k one kernel key, read off the matrix and the terms'
    gen_orders.  A depth-first search then fixes map 0, map 1, ... in turn,
    and at a marked k visits only the map-k candidates whose kernel key
    equals the image key of the fixed map k - 1.  A GroupHom is built only
    for a candidate that a solution uses, once, and shared by every solution
    that uses it.  Results come in the order of a full product enumeration:
    term choices outermost, then maps in lexicographic candidate order.

    >>> Z = FGAbelianGroup.free(1)
    >>> seq = Sequence((Z, Z, FGAbelianGroup.trivial()),
    ...                (UNKNOWN_MAP, UNKNOWN_MAP), exact_at=(1,))
    >>> [s.maps[0].matrix for s in solve_exact(seq, bound=1)]
    [((-1,),), ((1,),)]
    """
    for name, value in (("solve bound", bound),
                        ("assignment ceiling", max_assignments)):
        if type(value) is not int:
            raise InvalidSequenceError(f"{name} {value!r} is not an integer")
    if bound < 0:
        raise InvalidSequenceError(f"solve bound {bound} is negative")
    total = _search_space(seq, bound, max_assignments)
    if total > max_assignments:
        raise SearchSpaceError(
            f"solve_exact search space has at least {_decimal(total)} "
            f"assignments, exceeding the ceiling of "
            f"{_decimal(max_assignments)}")

    exact_at = set(seq.exact_at)
    results = []
    for terms in _term_choices(seq):
        try:
            Sequence(terms, seq.maps, seq.names, seq.exact_at)
        except InvalidSequenceError:
            # a fixed map's endpoints reject this combination of terms
            continue
        candidates = [
            list(_hom_candidates(terms[i], terms[i + 1], bound))
            if isinstance(m, UnknownMap) else [m.matrix]
            for i, m in enumerate(seq.maps)]
        # per map, candidate index -> the one GroupHom every solution shares
        homs = [{} if isinstance(m, UnknownMap) else {0: m} for m in seq.maps]
        for picks in _exact_picks(candidates,
                                  [t.gen_orders for t in terms], exact_at):
            for i, p in enumerate(picks):
                if p not in homs[i]:
                    homs[i][p] = GroupHom(terms[i], terms[i + 1],
                                          candidates[i][p])
            results.append(Sequence(
                terms, tuple(homs[i][p] for i, p in enumerate(picks)),
                seq.names, seq.exact_at))
    return results
