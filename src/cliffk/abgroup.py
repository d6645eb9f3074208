"""Finitely generated abelian groups, homomorphisms, and exact sequences.

Groups are kept in invariant-factor form: a free rank plus a divisibility
chain d1 | d2 | ... of torsion orders, computed by Smith normal form.
Generators are ordered free-first, then torsion in chain order, so elements
and homomorphism matrices have a fixed coordinate convention throughout.

Subgroup and quotient computations reduce to integer lattice work: a
subgroup given by generator columns S inside Z^n / col(R) is presented by
the relations {c : S c in col(R)}, obtained from the kernel lattice of
[S | R]; containment of lattices is decided by exact solvability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from . import _kernel_py as _kernel
from .errors import IllDefinedHomError, SearchSpaceError


def smith_normal_form(mat) -> tuple[list, list, list]:
    """(U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with non-negative entries forming a divisibility chain,
    zeros last.  ``mat`` is a list of equal-length rows.

    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")
    return _kernel.snf(mat, m, n)


def _hstack(a, b):
    if not a and not b:
        return []
    if not a:
        return [list(r) for r in b]
    if not b:
        return [list(r) for r in a]
    return [list(ra) + list(rb) for ra, rb in zip(a, b, strict=True)]


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
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors {a}, {b} break the chain")

    @classmethod
    def from_presentation(cls, n_gens: int, relations) -> "FGAbelianGroup":
        """Z^n_gens modulo the columns of the relation matrix (n_gens rows)."""
        rel = [list(r) for r in relations]
        if len(rel) != n_gens:
            raise ValueError("relation matrix must have one row per generator")
        ncols = len(rel[0]) if rel else 0
        _u, d, _v = _kernel.snf(rel, n_gens, ncols)
        diag = [d[i][i] for i in range(min(n_gens, ncols))]
        nonzero = [x for x in diag if x]
        return cls(n_gens - len(nonzero), tuple(x for x in nonzero if x > 1))

    @classmethod
    def from_invariants(cls, rank: int, factors=()) -> "FGAbelianGroup":
        """Canonicalize arbitrary cyclic factor orders into a chain."""
        factors = [int(d) for d in factors]
        if any(d < 1 for d in factors):
            raise ValueError("cyclic factor orders must be positive")
        n = rank + len(factors)
        rel = [[0] * len(factors) for _ in range(n)]
        for j, d in enumerate(factors):
            rel[rank + j][j] = d
        return cls.from_presentation(n, rel)

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

    def reduce(self, coords) -> tuple[int, ...]:
        """Canonical coordinates: torsion entries mod their order."""
        coords = list(coords)
        if len(coords) != self.n_gens:
            raise ValueError("coordinate length mismatch")
        for i, d in enumerate(self.gen_orders):
            if d:
                coords[i] %= d
        return tuple(coords)

    def elements(self):
        """All elements of a finite group, as canonical coordinate tuples."""
        if self.rank:
            raise ValueError("infinite group")
        return itertools.product(*(range(d) for d in self.torsion))

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
        ns, nt = self.source.n_gens, self.target.n_gens
        mat = [list(row) for row in self.matrix]
        if len(mat) != nt or any(len(row) != ns for row in mat):
            raise IllDefinedHomError(
                f"matrix must be {nt} x {ns} for {self.target} <- {self.source}")
        t_orders = self.target.gen_orders
        for i, e in enumerate(t_orders):
            if e:
                mat[i] = [v % e for v in mat[i]]
        for j, d in enumerate(self.source.gen_orders):
            if not d:
                continue
            for i, e in enumerate(t_orders):
                v = d * mat[i][j]
                if (e == 0 and v != 0) or (e != 0 and v % e):
                    raise IllDefinedHomError(
                        f"generator {j} of order {d} maps outside its order "
                        f"(target coordinate {i})")
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in mat))

    @classmethod
    def identity(cls, group: FGAbelianGroup) -> "GroupHom":
        n = group.n_gens
        return cls(group, group,
                   tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, source: FGAbelianGroup, target: FGAbelianGroup) -> "GroupHom":
        return cls(source, target,
                   tuple((0,) * source.n_gens for _ in range(target.n_gens)))

    @property
    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.matrix)

    def apply(self, coords) -> tuple[int, ...]:
        coords = list(coords)
        if len(coords) != self.source.n_gens:
            raise ValueError("coordinate length mismatch")
        out = [sum(row[j] * coords[j] for j in range(len(coords)))
               for row in self.matrix]
        return self.target.reduce(out)

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
    rel = _hstack(f.target.relation_matrix(), [list(r) for r in f.matrix])
    return FGAbelianGroup.from_presentation(f.target.n_gens, rel)


def _kernel_lattice_basis(mat, nrows: int, ncols: int) -> list[list[int]]:
    """Columns forming a basis of the integer kernel of ``mat``."""
    _u, d, v = _kernel.snf([list(r) for r in mat], nrows, ncols)
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def _kernel_gen_columns(f: GroupHom) -> list[list[int]]:
    """Generators of ker f as columns in source coordinates.

    x lies in the kernel iff F x is a target relation combination, so the
    kernel subgroup is the projection to the first block of the kernel
    lattice of [F | R_target]; source relations land there automatically by
    well-definedness.
    """
    ns = f.source.n_gens
    aug = _hstack([list(r) for r in f.matrix], f.target.relation_matrix())
    ncols = ns + len(f.target.torsion)
    basis = _kernel_lattice_basis(aug, f.target.n_gens, ncols)
    cols = [[col[i] for i in range(ns)] for col in basis]
    # ensure the source relations are present even if projection lost them
    for col in _columns(f.source.relation_matrix()):
        cols.append(col)
    return cols


def _columns(mat) -> list[list[int]]:
    if not mat:
        return []
    return [[row[j] for row in mat] for j in range(len(mat[0]))]


def _from_columns(cols, nrows: int) -> list[list[int]]:
    return [[col[i] for col in cols] for i in range(nrows)]


def _subgroup_iso_class(ambient: FGAbelianGroup, gen_cols) -> FGAbelianGroup:
    """Isomorphism class of the subgroup generated by the given columns."""
    s = len(gen_cols)
    if s == 0:
        return FGAbelianGroup.trivial()
    n = ambient.n_gens
    aug = _hstack(_from_columns(gen_cols, n), ambient.relation_matrix())
    ncols = s + len(ambient.torsion)
    basis = _kernel_lattice_basis(aug, n, ncols)
    rel_cols = [[col[i] for i in range(s)] for col in basis]
    return FGAbelianGroup.from_presentation(s, _from_columns(rel_cols, s))


def kernel(f: GroupHom) -> FGAbelianGroup:
    """Isomorphism class of the kernel.

    >>> Z = FGAbelianGroup.free(1)
    >>> Z2 = FGAbelianGroup.from_invariants(0, (2,))
    >>> str(kernel(GroupHom(Z, Z2, ((1,),))))
    'Z'
    """
    return _subgroup_iso_class(f.source, _kernel_gen_columns(f))


def image(f: GroupHom) -> FGAbelianGroup:
    """Isomorphism class of the image."""
    return _subgroup_iso_class(f.target, _columns([list(r) for r in f.matrix]))


def _lattice_member(mat, nrows: int, ncols: int, vec) -> bool:
    """Whether vec lies in the column lattice of mat, by exact solve."""
    u, d, _v = _kernel.snf([list(r) for r in mat], nrows, ncols)
    w = [sum(u[i][k] * vec[k] for k in range(nrows)) for i in range(nrows)]
    for i in range(nrows):
        di = d[i][i] if i < ncols else 0
        if di:
            if w[i] % di:
                return False
        elif w[i]:
            return False
    return True


@dataclass(frozen=True)
class UnknownGroup:
    """A sequence slot to be filled from a finite candidate list."""

    candidates: tuple[FGAbelianGroup, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("unknown group needs at least one candidate")


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
            raise ValueError("a sequence needs at least two terms")
        if len(self.maps) != len(self.terms) - 1:
            raise ValueError("need exactly one map between consecutive terms")
        if self.names is not None and len(self.names) != len(self.terms):
            raise ValueError("one name per term")
        for pos in self.exact_at:
            if not 1 <= pos <= len(self.terms) - 2:
                raise ValueError(f"exactness position {pos} is not interior")
        for i, m in enumerate(self.maps):
            if isinstance(m, GroupHom):
                for side, term in ((m.source, self.terms[i]),
                                   (m.target, self.terms[i + 1])):
                    if isinstance(term, FGAbelianGroup) and side != term:
                        raise ValueError(
                            f"map {i} endpoints disagree with the terms")

    def term_name(self, i: int) -> str:
        return self.names[i] if self.names else f"T{i}"

    @property
    def is_fully_specified(self) -> bool:
        return all(isinstance(t, FGAbelianGroup) for t in self.terms) and all(
            isinstance(m, GroupHom) for m in self.maps)


def _maps_around(seq: Sequence, at: int) -> tuple[GroupHom, GroupHom]:
    """The concrete maps into and out of interior term ``at``."""
    if not 1 <= at <= len(seq.terms) - 2:
        raise ValueError(f"exactness position {at} is not interior")
    f, g = seq.maps[at - 1], seq.maps[at]
    if not isinstance(f, GroupHom) or not isinstance(g, GroupHom):
        raise ValueError("exactness check needs concrete maps")
    return f, g


def check_exact(seq: Sequence, at: int) -> bool:
    """Exactness at interior term ``at``: image of the incoming map equals
    the kernel of the outgoing one, as subgroups of the middle term.

    The composite being zero gives image inside kernel; the reverse
    containment is checked on kernel generators against the image lattice
    (image columns plus middle relations).
    """
    f, g = _maps_around(seq, at)
    if not (g @ f).is_zero:
        return False
    middle = f.target
    n = middle.n_gens
    lat = _hstack([list(r) for r in f.matrix], middle.relation_matrix())
    lat_cols = len(lat[0]) if lat else 0
    for col in _kernel_gen_columns(g):
        if not _lattice_member(lat, n, lat_cols, col):
            return False
    return True


def exactness_indices(seq: Sequence, at: int) -> tuple[int | None, int | None]:
    """([middle : image], [middle : kernel]) as orders, None if infinite.

    ``at`` and the maps around it are checked as in check_exact.
    """
    f, g = _maps_around(seq, at)
    img_idx = cokernel(f).order()
    ker_idx = image(g).order()
    return img_idx, ker_idx


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
    return [r for run in _entry_ranges(d_src, e_tgt, bound) for r in run]


def _hom_count(src: FGAbelianGroup, tgt: FGAbelianGroup, bound: int) -> int:
    """Number of candidate matrices, counted without listing any."""
    return prod(sum(len(run) for run in _entry_ranges(d, e, bound))
                for e in tgt.gen_orders for d in src.gen_orders)


def _hom_candidates(src: FGAbelianGroup, tgt: FGAbelianGroup, bound: int):
    """Candidate matrices in deterministic order."""
    cells = [
        _entry_candidates(d, e, bound)
        for e in tgt.gen_orders
        for d in src.gen_orders
    ]
    ns = src.n_gens
    for flat in itertools.product(*cells):
        yield tuple(flat[i * ns:(i + 1) * ns] for i in range(tgt.n_gens))


def solve_exact(seq: Sequence, bound: int,
                max_assignments: int = 2_000_000) -> list[Sequence]:
    """All completions of the unknown slots exact at every marked position.

    Unknown terms range over their candidate lists; unknown maps range over
    matrices with free-generator image coordinates of absolute value at most
    ``bound`` (torsion coordinates use centered representatives).  The total
    assignment count is computed up front and a SearchSpaceError raised if it
    exceeds ``max_assignments``; results come in deterministic order.
    """
    term_slots = [i for i, t in enumerate(seq.terms)
                  if isinstance(t, UnknownGroup)]
    term_choices = [seq.terms[i].candidates for i in term_slots]

    total = 0
    for combo in itertools.product(*term_choices):
        terms = list(seq.terms)
        for slot, grp in zip(term_slots, combo):
            terms[slot] = grp
        subtotal = 1
        for i, m in enumerate(seq.maps):
            if isinstance(m, UnknownMap):
                subtotal *= _hom_count(terms[i], terms[i + 1], bound)
        total += subtotal
    if total > max_assignments:
        raise SearchSpaceError(
            f"solve_exact search space has {total} assignments, "
            f"exceeding the ceiling of {max_assignments}")

    results = []
    for combo in itertools.product(*term_choices):
        terms = list(seq.terms)
        for slot, grp in zip(term_slots, combo):
            terms[slot] = grp
        map_gens = []
        for i, m in enumerate(seq.maps):
            if isinstance(m, UnknownMap):
                map_gens.append(
                    list(_hom_candidates(terms[i], terms[i + 1], bound)))
            else:
                map_gens.append([None])
        for picks in itertools.product(*map_gens):
            maps = []
            ok = True
            for i, pick in enumerate(picks):
                if pick is None:
                    maps.append(seq.maps[i])
                    continue
                try:
                    maps.append(GroupHom(terms[i], terms[i + 1], pick))
                except IllDefinedHomError:
                    ok = False
                    break
            if not ok:
                continue
            try:
                candidate = Sequence(tuple(terms), tuple(maps), seq.names,
                                     seq.exact_at)
            except ValueError:
                # a fixed map's endpoints reject this combination of terms
                continue
            if all(check_exact(candidate, pos) for pos in seq.exact_at):
                results.append(candidate)
    return results
