"""Parsing and validation of recurrence coefficient vectors.

A recurrence is given as the comma-separated list of its coefficients
``c1,c2,...,cL`` (ASCII digits and commas; spaces tolerated).  Its depth, the
number of leading zeros, is the one PLRR/ZLRR switch: families of depth 0
behave like classical positional systems, and deep families (depth >= 1)
are the interesting case for uniqueness questions.  ``RecurrenceSpec`` is a
NamedTuple: it indexes, unpacks and equals a plain tuple of its fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    AllZeroError,
    DegenerateError,
    EmptyInputError,
    NonIntegerTokenError,
    TrailingZeroError,
)


class RecurrenceSpec(NamedTuple):
    """A validated coefficient vector with its derived structure.

    ``depth`` counts the leading zeros (0 for a PLRR, at least 1 for a
    ZLRR), ``order`` is the total number of coefficients.
    """

    coefficients: tuple[int, ...]
    depth: int
    order: int

    @property
    def text(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    @property
    def lead(self) -> int:
        """First nonzero coefficient (the one at index depth+1)."""
        return self.coefficients[self.depth]

    @property
    def is_lagonacci(self) -> bool:
        return self.coefficients == (0, 1, 1)

    @property
    def max_digit(self) -> int:
        """max(c, 1), the largest entry of any legal word: matched prefixes
        use c_i, a block position stays below its cap, and a bare summand
        uses 1."""
        return max(*self.coefficients, 1)


def parse_recurrence(text: str) -> RecurrenceSpec:
    """Parse and validate ``c1,c2,...,cL`` into a RecurrenceSpec.

    Raises EmptyInputError, NonIntegerTokenError, AllZeroError,
    TrailingZeroError or DegenerateError on invalid input.
    """
    if text is None or not text.strip():
        raise EmptyInputError("empty recurrence text")
    tokens = [t.strip() for t in text.split(",")]
    coeffs = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise NonIntegerTokenError(f"not a non-negative integer: {tok!r}")
        coeffs.append(int(tok))
    if all(c == 0 for c in coeffs):
        raise AllZeroError("all coefficients are zero")
    if coeffs[-1] == 0:
        raise TrailingZeroError("last coefficient must be positive")
    support = [i for i, c in enumerate(coeffs, 1) if c]
    if math.gcd(*support) > 1:
        raise DegenerateError(
            f"indices of nonzero coefficients {support} share a factor; "
            "the sequence would split into independent subsequences"
        )
    return RecurrenceSpec(tuple(coeffs), support[0] - 1, len(coeffs))


def construction_applies(spec: RecurrenceSpec) -> bool:
    """Whether the explicit two-decompositions construction has all its
    preconditions: deep family, lead > depth, next coefficient positive,
    last coefficient > 1."""
    c, s, L = spec.coefficients, spec.depth, spec.order
    # Depth-0 families have provably unique decompositions, so the deep-family
    # construction is never applied to them.
    return s >= 1 and c[s] > s and L >= s + 2 and c[s + 1] > 0 and c[L - 1] > 1
