"""Exact Clifford algebra arithmetic over basis blades.

The algebra of signature (p, q) has p + q anticommuting generators e1..e(p+q);
the first p square to -1 and the remaining q square to +1.  A basis blade is
an increasing product of distinct generators, encoded as a bitmask with bit
i - 1 standing for ei, so the algebra has dimension 2**(p+q).  Elements store
a {mask: coefficient} map with exact coefficients: Fraction over the real
field, GaussianRational over the complex field.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel_py as kernel
from .errors import (
    InvalidBladeError,
    InvalidSignatureError,
    SignatureMismatchError,
    check_size,
)
from .scalars import ScalarField


@dataclass(frozen=True, order=True)
class Signature:
    """Number of generators of negative (p) and positive (q) square."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InvalidSignatureError(f"negative signature ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.n

    def square_sign(self, i: int) -> int:
        """Square of generator ei, 1-based."""
        if not 1 <= i <= self.n:
            raise InvalidBladeError(f"generator index {i} outside 1..{self.n}")
        return -1 if i <= self.p else 1

    def contains(self, other: "Signature") -> bool:
        """Whether the other algebra embeds by an initial generator segment."""
        return other.p <= self.p and other.q <= self.q

    def __str__(self):
        return f"C^{{{self.p},{self.q}}}"


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
    return kernel.blade_mul_mask(a, b, sig.p)


def blade_grade(mask: int) -> int:
    return mask.bit_count()


class CliffordElement:
    """An exact element of a Clifford algebra.

    Immutable by convention: no public mutators, and arithmetic returns new
    elements.  ``terms`` maps blade masks to nonzero coefficients.
    """

    __slots__ = ("sig", "field", "terms")

    def __init__(self, sig: Signature, terms: dict | None = None,
                 field: ScalarField = ScalarField.REAL):
        self.sig = sig
        self.field = field
        clean = {}
        if terms:
            for mask, coeff in terms.items():
                _check_mask(mask, sig)
                c = field.coerce(coeff)
                if c:
                    clean[mask] = c
        self.terms = clean

    @classmethod
    def zero(cls, sig: Signature, field: ScalarField = ScalarField.REAL):
        return cls(sig, {}, field)

    @classmethod
    def scalar(cls, sig: Signature, value, field: ScalarField = ScalarField.REAL):
        return cls(sig, {0: value}, field)

    @classmethod
    def one(cls, sig: Signature, field: ScalarField = ScalarField.REAL):
        return cls.scalar(sig, 1, field)

    @classmethod
    def generator(cls, sig: Signature, i: int, field: ScalarField = ScalarField.REAL):
        """ei as an element, 1-based index."""
        if not 1 <= i <= sig.n:
            raise InvalidBladeError(f"generator index {i} outside 1..{sig.n}")
        return cls(sig, {1 << (i - 1): 1}, field)

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1,
              field: ScalarField = ScalarField.REAL):
        return cls(sig, {mask: coeff}, field)

    def coefficient(self, mask: int):
        _check_mask(mask, self.sig)
        return self.terms.get(mask, self.field.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other: "CliffordElement") -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(
                f"mixing elements of {self.sig} and {other.sig}")
        if self.field != other.field:
            raise SignatureMismatchError(
                f"mixing {self.field.value}- and {other.field.value}-field elements")

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            acc = terms.get(mask)
            acc = c if acc is None else acc + c
            if acc:
                terms[mask] = acc
            elif mask in terms:
                del terms[mask]
        return self._wrap(terms)

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            self._require_same(other)
            return self._wrap(kernel.mul_term_maps(self.terms, other.terms, self.sig.p))
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so scaling is side-independent
        return self.scale(other)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if not c:
            return CliffordElement.zero(self.sig, self.field)
        return self._wrap({m: c * v for m, v in self.terms.items()})

    def _wrap(self, terms: dict) -> "CliffordElement":
        # internal fast path: terms are already checked and coerced
        out = CliffordElement.__new__(CliffordElement)
        out.sig = self.sig
        out.field = self.field
        out.terms = terms
        return out

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return (self.sig == other.sig and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.sig, self.field, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            name = blade_name(mask)
            parts.append(f"({c})*{name}" if mask else f"({c})")
        return " + ".join(parts)


def blade_name(mask: int) -> str:
    if not mask:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def elem_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Algebra product of two elements over the same signature and field."""
    if not isinstance(x, CliffordElement) or not isinstance(y, CliffordElement):
        raise TypeError("elem_mul expects two CliffordElement values")
    return x * y


def top_element(sig: Signature, field: ScalarField = ScalarField.REAL) -> CliffordElement:
    """The ordered product e1 e2 ... en of all generators.

    Its square is (-1)**(n(n-1)/2 + p) and it is central exactly when n is
    odd; both facts are consequences of the blade product rules and are
    exercised in the tests rather than assumed here.
    """
    return CliffordElement.blade(sig, sig.dim - 1, 1, field)


def center_basis(sig: Signature, field: ScalarField = ScalarField.REAL
                 ) -> list[CliffordElement]:
    """Basis of the center: the central blades, in ascending mask order.

    Conjugation by a generator multiplies each blade by +-1, so an element
    is central exactly when each of its blades is.  A blade b is central
    when b * g and g * b agree in sign for every generator g (their masks
    are both b ^ g).  Raises BoundExceededError when the n * 2**n sign
    tests pass MAX_CELLS.

    >>> [str(b) for b in center_basis(Signature(0, 2))]
    ['(1)']
    >>> len(center_basis(Signature(3, 0)))
    2
    """
    check_size(f"center_basis of {sig}", sig.n * sig.dim)
    gens = [1 << i for i in range(sig.n)]
    mul = kernel.blade_mul_mask
    return [CliffordElement(sig, {b: 1}, field) for b in range(sig.dim)
            if all(mul(b, g, sig.p)[0] == mul(g, b, sig.p)[0] for g in gens)]


class TensorElement:
    """An element of a tensor product of two Clifford algebras.

    Terms map (left mask, right mask) pairs to coefficients; the product is
    componentwise on pure tensors, (a (x) b)(a' (x) b') = (a a') (x) (b b'),
    extended bilinearly.  Scalars are even, so no Koszul sign enters.
    """

    __slots__ = ("left", "right", "field", "terms")

    def __init__(self, left: Signature, right: Signature, terms: dict | None = None,
                 field: ScalarField = ScalarField.REAL):
        self.left = left
        self.right = right
        self.field = field
        clean = {}
        if terms:
            for (ml, mr), coeff in terms.items():
                _check_mask(ml, left)
                _check_mask(mr, right)
                c = field.coerce(coeff)
                if c:
                    clean[(ml, mr)] = c
        self.terms = clean

    @classmethod
    def of(cls, x: CliffordElement, y: CliffordElement) -> "TensorElement":
        """The pure tensor x (x) y."""
        if x.field != y.field:
            raise SignatureMismatchError("tensor factors over different fields")
        terms = {}
        for ml, cl in x.terms.items():
            for mr, cr in y.terms.items():
                terms[(ml, mr)] = cl * cr
        return cls(x.sig, y.sig, terms, x.field)

    @classmethod
    def one(cls, left: Signature, right: Signature,
            field: ScalarField = ScalarField.REAL) -> "TensorElement":
        return cls(left, right, {(0, 0): 1}, field)

    def _require_same(self, other: "TensorElement") -> None:
        if self.left != other.left or self.right != other.right:
            raise SignatureMismatchError("mixing different tensor products")
        if self.field != other.field:
            raise SignatureMismatchError("mixing scalar fields")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key)
            acc = c if acc is None else acc + c
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return TensorElement(self.left, self.right, terms, self.field)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorElement(self.left, self.right,
                             {k: -c for k, c in self.terms.items()}, self.field)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._require_same(other)
        out: dict = {}
        for (al, ar), ca in self.terms.items():
            for (bl, br), cb in other.terms.items():
                sl, ml = kernel.blade_mul_mask(al, bl, self.left.p)
                sr, mr = kernel.blade_mul_mask(ar, br, self.right.p)
                c = ca * cb
                if sl * sr < 0:
                    c = -c
                key = (ml, mr)
                acc = out.get(key)
                if acc is None:
                    if c:
                        out[key] = c
                else:
                    acc = acc + c
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return TensorElement(self.left, self.right, out, self.field)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if not c:
            return TensorElement(self.left, self.right, {}, self.field)
        return TensorElement(self.left, self.right,
                             {k: c * v for k, v in self.terms.items()}, self.field)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.left, self.right, self.field,
                     frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for ml, mr in sorted(self.terms):
            c = self.terms[(ml, mr)]
            parts.append(f"({c})*{blade_name(ml)}(x){blade_name(mr)}")
        return " + ".join(parts)


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Product in the tensor-product algebra."""
    if not isinstance(x, TensorElement) or not isinstance(y, TensorElement):
        raise TypeError("tensor_mul expects two TensorElement values")
    return x * y
