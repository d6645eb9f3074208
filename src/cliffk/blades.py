"""Clifford algebra signatures and signed basis-blade arithmetic.

The algebra of signature (p, q) has p + q anticommuting generators e1..e(p+q);
the first p square to -1 and the remaining q square to +1.  A basis blade is
an increasing product of distinct generators, encoded as a bitmask with bit
i - 1 standing for ei, so the algebra has dimension 2**(p+q).  The product
of two blades is a sign and a mask; every computation in the package works
on such signed blades, never on general elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidBladeError, InvalidSignatureError, check_size


@dataclass(frozen=True, order=True)
class Signature:
    """Number of generators of negative (p) and positive (q) square."""

    p: int
    q: int

    def __post_init__(self):
        # bool is an int subclass, and a float part would reach the
        # classification table as a key that is not there
        if type(self.p) is not int or type(self.q) is not int:
            raise InvalidSignatureError(
                f"signature parts must be integers, got ({self.p!r}, "
                f"{self.q!r})")
        if self.p < 0 or self.q < 0:
            raise InvalidSignatureError(f"negative signature ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.n

    def contains(self, other: "Signature") -> bool:
        """Whether the other algebra embeds by an initial generator segment."""
        return other.p <= self.p and other.q <= self.q

    def __str__(self):
        return f"C^{{{self.p},{self.q}}}"


def blade_mul_mask(a: int, b: int, p: int) -> tuple[int, int]:
    """Multiply basis blades given as bitmasks; bit i is generator i+1.

    The first ``p`` generators square to -1, the rest to +1.  Returns
    ``(sign, mask)`` with sign in {+1, -1} and ``mask == a ^ b``.  The sign
    counts the transpositions needed to interleave the two sorted generator
    words, plus one -1 per annihilated generator pair of negative square.
    No checks: blade_mul is the checked entry point.
    """
    swaps = 0
    bb = b
    while bb:
        low = bb & -bb
        # generators of `a` strictly above this one must be moved past it
        swaps += (a >> low.bit_length()).bit_count()
        bb ^= low
    neg = (a & b & ((1 << p) - 1)).bit_count()
    sign = -1 if (swaps + neg) & 1 else 1
    return sign, a ^ b


def _check_mask(mask: int, sig: Signature) -> None:
    if not isinstance(mask, int) or mask < 0 or mask >= sig.dim:
        raise InvalidBladeError(f"blade mask {mask!r} does not fit {sig}")


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades: (sign, result mask).

    >>> blade_mul(0b1, 0b1, Signature(1, 0))
    (-1, 0)
    >>> blade_mul(0b10, 0b01, Signature(0, 2))
    (-1, 3)
    """
    _check_mask(a, sig)
    _check_mask(b, sig)
    return blade_mul_mask(a, b, sig.p)


def center_basis(sig: Signature) -> list[int]:
    """Basis of the center: the masks of the central blades, ascending.

    Conjugation by a generator multiplies each blade by +-1, so an element
    is central exactly when each of its blades is.  A blade b is central
    when b * g and g * b agree in sign for every generator g (their masks
    are both b ^ g).  Raises BoundExceededError when the n * 2**n sign
    tests pass MAX_CELLS.

    >>> center_basis(Signature(0, 2))
    [0]
    >>> center_basis(Signature(3, 0))
    [0, 7]
    """
    check_size("center_basis of {}", sig.n * sig.dim, sig)
    gens = [1 << i for i in range(sig.n)]
    mul = blade_mul_mask
    return [b for b in range(sig.dim)
            if all(mul(b, g, sig.p)[0] == mul(g, b, sig.p)[0] for g in gens)]
