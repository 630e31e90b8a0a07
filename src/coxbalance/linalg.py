"""Small exact linear algebra over Fraction vectors and matrices.

Everything in this package works with tuples of Fractions; this module
collects the handful of dense operations (dot products, inversion)
needed by the root-system and reflection machinery.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]  # row-major


def vec(entries: Sequence) -> Vector:
    return tuple(Fraction(x) for x in entries)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def scale(c: Fraction, x: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in x)


def neg(x: Sequence[Fraction]) -> Vector:
    return tuple(-a for a in x)


def zero(n: int) -> Vector:
    return (Fraction(0),) * n


def is_zero(x: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in x)


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
