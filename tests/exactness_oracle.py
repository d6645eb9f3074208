"""Reference kernels, images, cokernels and exactness by SNF routes.

A subgroup given by generator columns S inside Z^n / col(R) is presented
by the relations {c : S c in col(R)}, read off the SNF kernel lattice of
[S | R].  This is how ``cliffk.abgroup.kernel`` and ``image`` computed
isomorphism classes before they were read off the HNF keys, and it shares
no key code with the library: ``kernel`` and ``image`` here are the
oracles of the library's.

``cokernel`` is the body ``cliffk.abgroup.cokernel`` had before it became
the subquotient of Z^n over the image key: the target presented by its
relations and the map's columns, [R_t | F], read off by one SNF.

``check_exact`` is the test ``cliffk.abgroup`` had before exactness became
equality of canonical subgroup keys: the composite must vanish, and every
kernel generator must solve into the image lattice by one SNF each.  It
serves as the exactness check of the product-enumeration oracle in
tests/solver_oracle.py and as the oracle of the key tests.

``kernel_key`` is the SNF route to the kernel key, the body
``cliffk.abgroup.kernel_key`` had before it read the key off one HNF:
kernel generators from the SNF of [G | R_target], then their HNF.

The element-level helpers (identity, is_zero, apply, reduce, elements) let
the tests check kernels, images and exactness on finite groups by listing
every element.  The library computes only on lattices and needs none of
them.
"""

import itertools

from cliffk.abgroup import (FGAbelianGroup, GroupHom, Sequence, _hnf,
                            smith_normal_form)


def identity(group: FGAbelianGroup) -> GroupHom:
    n = group.n_gens
    return GroupHom(group, group, tuple(tuple(int(i == j) for j in range(n))
                                        for i in range(n)))


def is_zero(f: GroupHom) -> bool:
    return not any(any(row) for row in f.matrix)


def reduce(group: FGAbelianGroup, coords) -> tuple[int, ...]:
    """Canonical coordinates: torsion entries mod their order."""
    coords = list(coords)
    if len(coords) != group.n_gens:
        raise ValueError("coordinate length mismatch")
    return tuple(x % d if d else x for x, d in zip(coords, group.gen_orders))


def apply(f: GroupHom, coords) -> tuple[int, ...]:
    """f of an element of its source, in canonical target coordinates."""
    coords = list(coords)
    if len(coords) != f.source.n_gens:
        raise ValueError("coordinate length mismatch")
    return reduce(f.target, [sum(a * x for a, x in zip(row, coords))
                             for row in f.matrix])


def elements(group: FGAbelianGroup):
    """All elements of a finite group, as canonical coordinate tuples."""
    if group.rank:
        raise ValueError("infinite group")
    return itertools.product(*(range(d) for d in group.torsion))


def _hstack(a, b):
    if not a and not b:
        return []
    if not a:
        return [list(r) for r in b]
    if not b:
        return [list(r) for r in a]
    return [list(ra) + list(rb) for ra, rb in zip(a, b, strict=True)]


def _columns(mat) -> list[list[int]]:
    if not mat:
        return []
    return [[row[j] for row in mat] for j in range(len(mat[0]))]


def _from_columns(cols, nrows: int) -> list[list[int]]:
    return [[col[i] for col in cols] for i in range(nrows)]


def _kernel_lattice_basis(mat, nrows: int, ncols: int) -> list[list[int]]:
    """Columns forming a basis of the integer kernel of ``mat``."""
    # a zero row keeps the ncols columns of a matrix with no rows
    _u, d, v = smith_normal_form([list(r) for r in mat] or [[0] * ncols])
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def _kernel_gen_columns(f) -> list[list[int]]:
    """Generators of ker f as columns in source coordinates.

    x lies in the kernel iff F x is a target relation combination, so the
    kernel subgroup is the projection to the first block of the kernel
    lattice of [F | R_target]; the source relations are appended.
    """
    ns = f.source.n_gens
    aug = _hstack([list(r) for r in f.matrix], f.target.relation_matrix())
    ncols = ns + len(f.target.torsion)
    basis = _kernel_lattice_basis(aug, f.target.n_gens, ncols)
    cols = [[col[i] for i in range(ns)] for col in basis]
    return cols + _columns(f.source.relation_matrix())


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


def kernel(f) -> FGAbelianGroup:
    """Isomorphism class of ker f, by the SNF kernel lattice."""
    return _subgroup_iso_class(f.source, _kernel_gen_columns(f))


def image(f) -> FGAbelianGroup:
    """Isomorphism class of im f, by the SNF kernel lattice."""
    return _subgroup_iso_class(f.target, _columns(f.matrix))


def cokernel(f) -> FGAbelianGroup:
    """Isomorphism class of coker f, by the SNF of [R_target | F]."""
    rel = [[*t, *r] for t, r in zip(f.target.relation_matrix(), f.matrix)]
    return FGAbelianGroup.from_presentation(f.target.n_gens, rel)


def _lattice_member(mat, nrows: int, ncols: int, vec) -> bool:
    """Whether vec lies in the column lattice of mat, by exact solve."""
    u, d, _v = smith_normal_form([list(r) for r in mat])
    w = [sum(u[i][k] * vec[k] for k in range(nrows)) for i in range(nrows)]
    for i in range(nrows):
        di = d[i][i] if i < ncols else 0
        if di:
            if w[i] % di:
                return False
        elif w[i]:
            return False
    return True


def kernel_key(g) -> tuple:
    """Canonical key of ker g, by SNF kernel generators and their HNF."""
    return _hnf(_kernel_gen_columns(g), g.source.gen_orders)


def check_exact(seq: Sequence, at: int) -> bool:
    """Exactness at interior term ``at``, as ``exactness_at(seq, at)[0]``.

    The composite being zero gives image inside kernel; the reverse
    containment is checked on kernel generators against the image lattice
    (image columns plus middle relations).
    """
    f, g = seq.maps[at - 1], seq.maps[at]
    if not is_zero(g @ f):
        return False
    middle = f.target
    n = middle.n_gens
    lat = _hstack([list(r) for r in f.matrix], middle.relation_matrix())
    lat_cols = len(lat[0]) if lat else 0
    for col in _kernel_gen_columns(g):
        if not _lattice_member(lat, n, lat_cols, col):
            return False
    return True
