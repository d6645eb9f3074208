"""Exception types shared across the package."""


class CliffkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSignatureError(CliffkError, ValueError):
    """A (p, q) signature with a part that is not an int (bool included) or
    is negative, or one outside a stated bound; a degree or count argument
    of that kind; a signature argument that is not a Signature; a scalar
    field that is not a ScalarField; or a theory that is not a KTheory."""


class InvalidBladeError(CliffkError, ValueError):
    """A blade bitmask that does not fit the ambient signature."""


class BoundExceededError(CliffkError, ValueError):
    """A construction would build more than MAX_CELLS entries."""


MAX_CELLS = 1 << 20  # the one size bound, in entries built


def check_size(what: str, cells: int, *parts) -> None:
    """Raise BoundExceededError, before allocating, past MAX_CELLS entries.

    The label is ``what.format(*parts)``, formatted only on refusal, so an
    admitted call pays nothing for it.
    """
    if cells > MAX_CELLS:
        raise BoundExceededError(
            f"{what.format(*parts)} would build more than {MAX_CELLS} entries")


class EmbeddingError(CliffkError, ValueError):
    """The claimed subalgebra signature does not embed in the ambient one."""


class InvalidGroupError(CliffkError, ValueError):
    """A group with a rank or cyclic order that is not an int (bool
    included), a negative rank, a cyclic order below 1, a broken invariant
    chain, or a malformed presentation."""


class IllDefinedHomError(CliffkError, ValueError):
    """A homomorphism whose source or target is not a group, or whose
    matrix has the wrong shape, an entry that is not an integer, or an
    entry that does not respect the source relations."""


class InvalidSequenceError(CliffkError, ValueError):
    """A sequence whose terms, maps, names and exactness positions do not
    fit together, a term that is neither a group nor an unknown group, a
    map that is neither a GroupHom nor an unknown map, an unknown group
    with no candidates or with a candidate that is not a group, an
    exactness check that lacks two concrete maps around an interior term,
    a negative solve bound, or a solve bound or ceiling that is not an int
    (bool included)."""


class SearchSpaceError(CliffkError, ValueError):
    """An enumeration whose total size exceeds the configured ceiling."""


class SequenceParseError(CliffkError, ValueError):
    """A syntax or consistency error in a sequence file.

    The offending 1-based line number is stored in ``line``.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
