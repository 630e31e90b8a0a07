"""The set iteration of the int bitmask tables, and the ``Fraction`` vector type.

:func:`bits` walks the set bits of a mask.  ``Vector`` is the type of the
``Fraction`` views of a root system (ambient coordinates, coweights) and of
the printed alcove points.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

Vector = Tuple[Fraction, ...]


def bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
