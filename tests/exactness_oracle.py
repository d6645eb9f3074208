"""Reference exactness test by composition and lattice membership.

This is the body ``cliffk.abgroup.check_exact`` had before exactness became
equality of canonical subgroup keys: the composite must vanish, and every
kernel generator must solve into the image lattice by one SNF each.  It
shares no key code with the library, so it serves as the exactness check of
the product-enumeration oracle in tests/solver_oracle.py and as the oracle
of the key tests.

``kernel_key`` is the SNF route to the kernel key, the body
``cliffk.abgroup.kernel_key`` had before it read the key off one HNF:
kernel generators from the SNF of [G | R_target], then their HNF.
"""

from cliffk import _kernel_py as _kernel
from cliffk.abgroup import (Sequence, _hstack, _kernel_gen_columns,
                            _maps_around)


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


def kernel_key(g) -> tuple:
    """Canonical key of ker g, by SNF kernel generators and their HNF."""
    return _kernel.hnf(_kernel_gen_columns(g), g.source.gen_orders)


def check_exact(seq: Sequence, at: int) -> bool:
    """Same contract as cliffk.abgroup.check_exact.

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
