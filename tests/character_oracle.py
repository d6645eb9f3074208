"""Reference restriction multiplicities by character pairing.

The library reads restriction multiplicities and endomorphism dimensions
off the classification table in closed form (cliffk.structure).  This
module computes them from explicit monomial representations instead: the
characters of the simple summands, read off traces as Gaussian integers,
are paired over the central blades of the small algebra.  It serves as an
oracle for the differential tests, and tests/intertwiner_oracle.py takes
its summand labels and central involutions from here.
"""

from __future__ import annotations

from cliffk.blades import Signature
from cliffk.errors import EmbeddingError
from cliffk.reps import MatrixRep, UnitPermMatrix, build_rep
from cliffk.structure import ScalarField, classify, min_faithful_dim

_REAL = ScalarField.REAL
_COMPLEX = ScalarField.COMPLEX


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


def restriction_multiplicities(big: Signature, small: Signature,
                               field: ScalarField = _REAL
                               ) -> tuple[tuple[int, ...], ...]:
    """Same contract as cliffk.structure.restriction_multiplicities, as
    dim Hom(S, B|small) / dim End(S), each an exact character pairing over
    the central blades of the small algebra (1, and the volume element when
    it has an odd number of generators), with the summands cut out by the
    central involutions."""
    emb_idx = _embedding_indices(big, small)
    rep_b = build_rep(big, field)
    rep_s = build_rep(small, field)
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


def irrep_end_dim(sig: Signature, field: ScalarField = _REAL,
                  label=None) -> int:
    """dim over the field of End of the simple module picked by ``label``
    (+1 or -1 for two-factor algebras), as <chi, chi>."""
    desc = classify(sig, field)
    if desc.factors == 2 and label not in (1, -1):
        raise ValueError("two-factor algebra needs a +-1 summand label")
    rep = build_rep(sig, field)
    chi = _summand_characters(rep, rep.gens)[
        label if desc.factors == 2 else None]
    return _pairing(chi, chi, sig.n)
