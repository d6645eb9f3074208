"""Independent arithmetic on finitely generated abelian groups.

The benchmark checks cliffk's exact-sequence answers with this module, so
it shares no code with the library: groups are (rank, torsion) pairs,
homomorphisms are tuples of integer rows (one row per target generator,
one column per source generator, the convention of cliffk's sequence
files), and exactness is decided by comparing Hermite normal forms of two
lattices instead of by Smith normal form.
"""

from __future__ import annotations

import itertools
from math import prod

Group = tuple  # (rank, (d1, d2, ...)) with d1 | d2 | ...


def group_text(group: Group) -> str:
    """The sequence-file spelling of a group: 0, Z, Z^r, Z/d joined by +."""
    rank, torsion = group
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def gen_orders(group: Group) -> tuple[int, ...]:
    """Order of each canonical generator, 0 meaning infinite."""
    rank, torsion = group
    return (0,) * rank + tuple(torsion)


def is_finite(group: Group) -> bool:
    return group[0] == 0


def _centered_residues(modulus: int, bound: int) -> list[int]:
    out = []
    for r in range(modulus):
        if min(r, modulus - r) <= bound:
            out.append(r)
    return out


def entry_candidates(d_src: int, e_tgt: int, bound: int) -> list[int]:
    """Matrix entries a solver at ``bound`` must try for one cell.

    A free target coordinate takes -bound..bound, a torsion coordinate
    the residues with a centered representative of size at most bound;
    a cell from a torsion generator keeps only entries it kills.
    """
    if e_tgt == 0:
        return list(range(-bound, bound + 1)) if d_src == 0 else [0]
    return [r for r in _centered_residues(e_tgt, bound)
            if (d_src * r) % e_tgt == 0]


def hom_candidates(src: Group, tgt: Group, bound: int) -> list[tuple]:
    """Every candidate matrix for an unknown map src -> tgt."""
    s_orders, t_orders = gen_orders(src), gen_orders(tgt)
    ns = len(s_orders)
    cells = [entry_candidates(d, e, bound) for e in t_orders for d in s_orders]
    return [tuple(tuple(flat[i * ns:(i + 1) * ns]) for i in range(len(t_orders)))
            for flat in itertools.product(*cells)]


def is_candidate(mat, src: Group, tgt: Group, bound: int) -> bool:
    """Whether a returned matrix is one of the solver's candidates."""
    s_orders, t_orders = gen_orders(src), gen_orders(tgt)
    if len(mat) != len(t_orders) or any(len(r) != len(s_orders) for r in mat):
        return False
    return all(v in entry_candidates(d, e, bound)
               for row, e in zip(mat, t_orders)
               for v, d in zip(row, s_orders))


def search_space(terms: list, bound: int) -> int:
    """How many assignments of the unknown maps a solver at ``bound`` has
    to consider: the product of the candidate counts of all cells."""
    return prod(len(entry_candidates(d, e, bound))
                for src, tgt in zip(terms, terms[1:])
                for e in gen_orders(tgt) for d in gen_orders(src))


def hnf(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the row lattice: canonical, so two lattices
    are equal exactly when their forms are equal."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    pivots = []
    for col in range(width):
        if not rows:
            break
        nonzero = [r for r in rows if r[col]]
        if not nonzero:
            continue
        rest = [r for r in rows if not r[col]]
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            piv = nonzero[0]
            keep = [piv]
            for r in nonzero[1:]:
                q = r[col] // piv[col]
                r = [a - q * b for a, b in zip(r, piv)]
                if r[col]:
                    keep.append(r)
                elif any(r):
                    rest.append(r)
            nonzero = keep
        piv = nonzero[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        out.append(piv)
        pivots.append(col)
        rows = rest
    for i, col in enumerate(pivots):
        for j in range(i):
            q = out[j][col] // out[i][col]
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return tuple(tuple(r) for r in out)


def _relations(group: Group) -> list[list[int]]:
    """Relation vectors d_i e_i of the torsion generators."""
    orders = gen_orders(group)
    n = len(orders)
    return [[d if k == i else 0 for k in range(n)]
            for i, d in enumerate(orders) if d]


def _preimage_of_relations(g, middle: Group, target: Group) -> list[list[int]]:
    """Basis of {x in Z^n : g x is a target relation}, i.e. of ker g."""
    n = len(gen_orders(middle))
    t_orders = gen_orders(target)
    m = len(t_orders)
    # unknowns: x (n of them), then one multiplier per target relation
    columns = [[g[i][j] for i in range(m)] for j in range(n)]
    columns += [[-d if i == k else 0 for i in range(m)]
                for k, d in enumerate(t_orders) if d]
    u = len(columns)
    aug = [col + [1 if k == j else 0 for k in range(u)]
           for j, col in enumerate(columns)]
    basis = [r[m:m + n] for r in hnf(aug, m + u) if not any(r[:m])]
    return basis


def composite_is_zero(f, g, target: Group) -> bool:
    """Whether g o f vanishes in the target group."""
    inner = len(g[0]) if g else 0
    ncols = len(f[0]) if f else 0
    for i, e in enumerate(gen_orders(target)):
        for j in range(ncols):
            v = sum(g[i][k] * f[k][j] for k in range(inner))
            if (v % e) if e else v:
                return False
    return True


def exact_at(f, g, source: Group, middle: Group, target: Group) -> bool:
    """Exactness of source -f-> middle -g-> target, by lattice equality
    im f + R = ker g inside Z^n, R the middle relations."""
    n = len(gen_orders(middle))
    if n == 0:
        return True
    if not composite_is_zero(f, g, target):
        return False
    rel = _relations(middle)
    ns = len(gen_orders(source))
    image = [[f[i][j] for i in range(n)] for j in range(ns)] + rel
    kernel = _preimage_of_relations(g, middle, target) + rel
    return hnf(image, n) == hnf(kernel, n)


def _apply(mat, coords, target: Group) -> tuple[int, ...]:
    out = []
    for row, e in zip(mat, gen_orders(target)):
        v = sum(a * x for a, x in zip(row, coords))
        out.append(v % e if e else v)
    return tuple(out)


def _elements(group: Group):
    if group[0]:
        raise ValueError("infinite group has no element list")
    return itertools.product(*(range(d) for d in group[1]))


def exact_at_elements(f, g, source: Group, middle: Group,
                      target: Group) -> bool:
    """Exactness of finite groups by listing every element: the set of
    images of f equals the set of middle elements that g kills."""
    zero = (0,) * len(gen_orders(target))
    image = {_apply(f, a, middle) for a in _elements(source)}
    kernel = {x for x in _elements(middle) if _apply(g, x, target) == zero}
    return image == kernel


def count_exact_chains(terms: list, bound: int) -> int:
    """Number of ways to fill every map of the sequence with a candidate at
    ``bound`` so that it is exact at each interior term.

    Exactness at term k depends on maps k-1 and k only, so the chains are
    counted map by map instead of by listing every assignment.
    """
    cands = [hom_candidates(terms[k], terms[k + 1], bound)
             for k in range(len(terms) - 1)]
    ways = {c: 1 for c in cands[0]}
    for k in range(1, len(cands)):
        src, mid, tgt = terms[k - 1], terms[k], terms[k + 1]
        nxt = {}
        for g in cands[k]:
            total = sum(w for f, w in ways.items()
                        if exact_at(f, g, src, mid, tgt))
            if total:
                nxt[g] = total
        ways = nxt
    return sum(ways.values())
