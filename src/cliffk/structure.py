"""Classification of Clifford algebras as matrix algebras over R, C, H.

Over the reals the Morita type of C^{p,q} depends only on (p - q) mod 8; over
the complex numbers only on (p + q) mod 2.  The matrix size is then pinned
down by the dimension identity factors * k**2 * dim(D) = dim C^{p,q}.  The
table below is the classical eightfold one; it is validated against explicit
representations in cliffk.reps, not assumed there.  The module dimensions
of the table also give the restriction multiplicities along subalgebra
inclusions, in closed form.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .blades import Signature
from .errors import BoundExceededError, EmbeddingError, InvalidSignatureError


class ScalarField(enum.Enum):
    """Ground field marker for algebras and representations.

    Only the choice is recorded.  Nothing in the package computes with
    field elements: classification reads tables, and representations hold
    integer row indices and powers of i (cliffk.reps), so every result
    stays exact.
    """

    REAL = "real"
    COMPLEX = "complex"


class DivisionRing(enum.Enum):
    R = "R"
    C = "C"
    H = "H"

    @property
    def dim_real(self) -> int:
        return {"R": 1, "C": 2, "H": 4}[self.value]


# (p - q) mod 8 -> (number of simple factors, division ring)
_REAL_TYPE = {
    0: (1, DivisionRing.R),
    1: (1, DivisionRing.C),
    2: (1, DivisionRing.H),
    3: (2, DivisionRing.H),
    4: (1, DivisionRing.H),
    5: (1, DivisionRing.C),
    6: (1, DivisionRing.R),
    7: (2, DivisionRing.R),
}


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A product of ``factors`` copies of k x k matrices over ``ring``."""

    factors: int
    matrix_size: int
    ring: DivisionRing
    scalar_field: ScalarField

    def __post_init__(self):
        if self.factors not in (1, 2):
            raise ValueError(f"factors must be 1 or 2, got {self.factors}")
        if self.matrix_size < 1:
            raise ValueError(f"matrix size must be positive, got {self.matrix_size}")
        if self.scalar_field is ScalarField.COMPLEX and self.ring is not DivisionRing.C:
            raise ValueError("complex-field algebras are matrix algebras over C")

    @property
    def dim_real(self) -> int:
        """Dimension over R (so twice the complex dimension for C-algebras)."""
        return self.factors * self.matrix_size**2 * self.ring.dim_real

    @property
    def dim_over_field(self) -> int:
        d = self.dim_real
        return d // 2 if self.scalar_field is ScalarField.COMPLEX else d

    def __str__(self):
        one = f"M_{self.matrix_size}({self.ring.value})"
        return " (+) ".join([one] * self.factors)


@lru_cache(maxsize=None)
def _max_printable_exponent(digits: int) -> int:
    """Largest n such that 2**n has at most ``digits`` decimal digits."""
    return (10 ** digits).bit_length() - 1


def _check_signature(sig) -> None:
    if not isinstance(sig, Signature):
        raise InvalidSignatureError(f"expected a Signature, got {sig!r}")


def classify(sig: Signature, field: ScalarField = ScalarField.REAL) -> AlgebraDescriptor:
    """Matrix-algebra form of C^{p,q} over the given scalar field.

    >>> str(classify(Signature(2, 0)))
    'M_1(H)'
    >>> str(classify(Signature(0, 2)))
    'M_2(R)'
    >>> str(classify(Signature(3, 0), ScalarField.REAL))
    'M_1(H) (+) M_1(H)'

    The arguments are checked before the cache, so a signature that is not
    a Signature or a field that is not a ScalarField raises
    InvalidSignatureError, unhashable ones too.  The dimension 2**n must be
    printable: past the interpreter's integer string limit
    BoundExceededError is raised before any big-integer work.
    """
    _check_signature(sig)
    # _classify reads a field that is not REAL as complex
    if not isinstance(field, ScalarField):
        raise InvalidSignatureError(f"expected a ScalarField, got {field!r}")
    return _classify(sig, field)


@lru_cache(maxsize=None)
def _classify(sig: Signature, field: ScalarField) -> AlgebraDescriptor:
    n = sig.n
    digits = (sys.get_int_max_str_digits()
              or sys.int_info.default_max_str_digits)
    # 2**(3d) = 8**d < 10**d, so n <= 3d always prints: only a larger n
    # pays for the exact test and its 10**digits
    if n > 3 * digits and n > _max_printable_exponent(digits):
        raise BoundExceededError(
            f"{sig}: dimension 2**{n} has more than {digits} decimal digits")
    if field is ScalarField.REAL:
        factors, ring = _REAL_TYPE[(sig.p - sig.q) % 8]
    else:
        factors, ring = (1, DivisionRing.C) if n % 2 == 0 else (2, DivisionRing.C)
    # factors * k**2 * dim(D) accounts for the full 2**n (real dimension over
    # R; complex dimension over C)
    total = 1 << n
    per_factor, rem = divmod(total, factors * (ring.dim_real if field is ScalarField.REAL else 1))
    if rem:
        raise AssertionError(
            f"{sig} over {field}: 2**{n} is not divisible by the factor count "
            f"and ring dimension of the table entry")
    k = isqrt(per_factor)
    if k * k != per_factor:
        raise AssertionError(
            f"{sig} over {field}: {per_factor} per factor is not a square "
            f"matrix size")
    return AlgebraDescriptor(factors, k, ring, field)


def irrep_dims(sig: Signature, field: ScalarField = ScalarField.REAL) -> tuple[int, ...]:
    """Dimensions of the simple modules, over the given scalar field.

    One entry per simple factor: a k x k matrix algebra over D acts
    irreducibly on D**k, of dimension k * dim(D) over R and k over C.

    >>> irrep_dims(Signature(3, 0))
    (4, 4)
    >>> irrep_dims(Signature(5, 0))
    (8,)
    """
    desc = classify(sig, field)
    if field is ScalarField.REAL:
        entry = desc.matrix_size * desc.ring.dim_real
    else:
        entry = desc.matrix_size
    return (entry,) * desc.factors


def restriction_multiplicities(big: Signature, small: Signature,
                               field: ScalarField = ScalarField.REAL
                               ) -> tuple[tuple[int, ...], ...]:
    """Multiplicity of each simple summand of the big algebra over the small.

    Restricting along the generator-segment embedding of C^{small} into
    C^{big}, entry [s][b] is the multiplicity of the small algebra's simple
    module s inside the restriction of the big algebra's simple module b.

    It is dim Hom(S, B) / dim End(S), and for a proper inclusion
    dim Hom(S, B) = dim S * dim B / 2**n_small (Atiyah-Bott-Shapiro,
    "Clifford modules", section 5).  Pair the characters of the group
    {+-e_A} of the small algebra: a blade that is not central anticommutes
    with a small generator, and for n_small odd the volume element
    anticommutes with any big generator outside the small algebra, so on
    each big simple module only the blade 1 has non-zero trace.  With
    2**n_small = f * k**2 * dim D this gives dim B / (f * dim S), where f is
    the number of simple factors of the small algebra.  The inclusion of an
    algebra in itself gives the identity matrix.  The tests check this
    against character pairings and intertwiner solves on explicit
    representations.  The only bound is classify's.

    >>> restriction_multiplicities(Signature(1, 0), Signature(0, 0))
    ((2,),)
    >>> restriction_multiplicities(Signature(3, 0), Signature(2, 0))
    ((1, 1),)

    A big or small that is not a Signature raises InvalidSignatureError.
    """
    _check_signature(big)
    _check_signature(small)
    if not big.contains(small):
        raise EmbeddingError(f"{small} does not embed in {big}")
    dims_b = irrep_dims(big, field)
    dims_s = irrep_dims(small, field)
    if big == small:
        return tuple(tuple(int(s == b) for b in range(len(dims_b)))
                     for s in range(len(dims_s)))
    # the simple modules of one algebra all have the same dimension
    mult, rem = divmod(dims_b[0], len(dims_s) * dims_s[0])
    if rem:
        raise AssertionError(
            f"simple module of dimension {dims_b[0]} of {big} ({field}) does "
            f"not restrict to copies of {small}'s, of dimension {dims_s[0]}")
    return ((mult,) * len(dims_b),) * len(dims_s)


def min_faithful_dim(sig: Signature, field: ScalarField = ScalarField.REAL) -> int:
    """Smallest dimension of a faithful module: one copy of each simple module."""
    return sum(irrep_dims(sig, field))
