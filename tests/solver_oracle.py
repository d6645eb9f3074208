"""Reference exact-sequence solver by full product enumeration.

This is the solver ``cliffk.abgroup.solve_exact`` used before it became a
pruned depth-first search: it walks the whole Cartesian product of candidate
maps, builds every assignment as a Sequence and checks exactness at every
marked position.  It is slow, and kept as the oracle of a differential test:
both must return the same solutions in the same order, and refuse the same
inputs with SearchSpaceError.  Its exactness test is the composition and
membership check of tests/exactness_oracle.py, not the library's key test.
"""

import itertools
from math import prod

from cliffk import abgroup
from cliffk.abgroup import (GroupHom, Sequence, UnknownGroup, UnknownMap,
                            _cell_counts, _hom_candidates)
from cliffk.errors import IllDefinedHomError, SearchSpaceError
from exactness_oracle import check_exact


def _hom_count(src, tgt, bound: int) -> int:
    """Number of candidate matrices, counted without listing any."""
    return prod(_cell_counts(src, tgt, bound))


def solve_exact(seq: Sequence, bound: int) -> list[Sequence]:
    """Same contract as cliffk.abgroup.solve_exact, by product enumeration,
    under the same ceiling, abgroup.MAX_ASSIGNMENTS, read at call time."""
    ceiling = abgroup.MAX_ASSIGNMENTS
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
    if total > ceiling:
        raise SearchSpaceError(
            f"solve_exact search space has {total} assignments, "
            f"exceeding the ceiling of {ceiling}")

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
