"""The ground field of an algebra: the reals or the complex numbers.

Only the choice is recorded.  Nothing in the package computes with field
elements: classification reads tables, and representations hold integer
row indices and powers of i (cliffk.reps), so every result stays exact.
"""

from __future__ import annotations

import enum


class ScalarField(enum.Enum):
    """Ground field marker for algebras and representations."""

    REAL = "real"
    COMPLEX = "complex"
