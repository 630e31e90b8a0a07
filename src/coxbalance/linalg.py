"""Small exact linear algebra over Fraction vectors and matrices.

The ``Fraction`` views of a root system (ambient coordinates, coweights)
need two dense operations: dot products and Gauss-Jordan inversion.  No
floating point.  This module also holds :func:`bits`, the set iteration of
the int bitmask tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]  # row-major


def bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def invert(m: Matrix) -> Matrix:
    """Invert a square matrix by Gauss-Jordan elimination, exactly."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [a * inv_p for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
