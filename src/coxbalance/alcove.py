"""Fundamental alcoves, order polytopes of convex sets, and the geometry bounds.

The fundamental alcove is the simplex cut from the dominant chamber by
<x, highest root> <= 1; its translates under the group tile the order
polytope of a convex set.  Everything here is exact: centroids and
half-spaces are rational, and the e-based lower bounds are certified by
comparing against partial sums of the exponential series (strict rational
lower bounds on e^x), so a confirmed inequality is rigorous.

The witnesses and the centroid are read from integer tables built once per
type.  The centroid o_0 of the fundamental alcove is (1/(r+1)) sum_i
omega_i^vee / m_i over the marks m_i of the highest root, so a root
beta = sum_i c_i alpha_i pairs with it as <o_0, beta> = (1/(r+1)) sum_i
c_i / m_i: an integer numerator over one common denominator.  The group acts
orthogonally, so a member w pairs its alcove centroid w^{-1} o_0 with root k
as <o_0, w beta_k>, which is that numerator at the signed root index
``w[k]`` of the member's action tuple; mean image heights read ``heights``
the same way.  The pairing of the order-polytope centroid with a root is
then a sum of integers over the members, and the centroid itself is
sum_i <o, alpha_i> omega_i^vee, since it lies in the span of the roots and
the coweights are the dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .convex import ConvexSet
from .linalg import Vector, add, dot, scale, zero
from .rootsys import RootSystem
from .weyl import WeylContext


@dataclass(frozen=True)
class AlcoveParams:
    """Per-type constants controlling the exponential balance bound.

    ``min_mark``/``max_mark`` are the smallest and largest coefficients of
    the highest root over the simple roots, ``height`` their sum, ``margin``
    the centroid pairing bound multiplier, and ``exponent`` = margin *
    max_mark the exponent in the 1/(2 e^exponent) lower bound.
    """

    family: str
    rank: int
    min_mark: int
    max_mark: int
    height: int
    margin: Fraction
    exponent: Fraction


def alcove_params(rs: RootSystem) -> AlcoveParams:
    marks = rs.coefficients[rs.highest_root_index]
    m0 = min(marks)
    m1 = max(marks)
    ht = sum(marks)
    margin = Fraction(rs.rank, m0) + Fraction(1, m1) - Fraction(ht, m0 * m1)
    return AlcoveParams(
        family=rs.family,
        rank=rs.rank,
        min_mark=m0,
        max_mark=m1,
        height=ht,
        margin=margin,
        exponent=margin * m1,
    )


@dataclass(frozen=True)
class AlcoveData:
    """Vertices and centroid of the fundamental alcove (plus short-root data)."""

    root_system: RootSystem
    vertices: Tuple[Vector, ...]  # origin plus coweight/mark vertices
    centroid: Vector
    short_vertices: Optional[Tuple[Vector, ...]]  # non-simply-laced only


def alcove_data(rs: RootSystem) -> AlcoveData:
    marks = rs.coefficients[rs.highest_root_index]
    verts = [zero(rs.ambient_dim)]
    for i in range(rs.rank):
        verts.append(scale(Fraction(1, marks[i]), rs.coweights[i]))
    centroid = zero(rs.ambient_dim)
    for v in verts:
        centroid = add(centroid, v)
    centroid = scale(Fraction(1, rs.rank + 1), centroid)

    short_verts = None
    if rs.highest_short_root_index is not None:
        eta = rs.positive_roots[rs.highest_short_root_index]
        short_verts = [zero(rs.ambient_dim)]
        for i in range(rs.rank):
            short_verts.append(
                scale(Fraction(1, 1) / dot(rs.coweights[i], eta), rs.coweights[i])
            )
        short_verts = tuple(short_verts)
    return AlcoveData(rs, tuple(verts), centroid, short_verts)


HalfSpace = Tuple[Vector, str, Fraction]  # (normal, "<=" or ">=", bound)


def order_polytope_halfspaces(c: ConvexSet) -> List[HalfSpace]:
    """Defining half-spaces of the union of member alcoves.

    <x, alpha> <= 0 for alpha in the lower set D, <x, beta> >= 0 for beta
    outside the upper set A, and the caps <x, w^{-1} xi> <= 1 over members.
    """
    ctx = c.ctx
    if not isinstance(ctx, WeylContext):
        raise TypeError("order polytopes need a finite Weyl context")
    rs = ctx.root_system
    hs: List[HalfSpace] = []
    for k in c.canonical_lower:
        hs.append((rs.positive_roots[k], "<=", Fraction(0)))
    for k in range(rs.num_positive_roots):
        if k not in c.upper:
            hs.append((rs.positive_roots[k], ">=", Fraction(0)))
    xi = rs.highest_root
    for m in c.members:
        hs.append((ctx.apply(ctx.invert(m), xi), "<=", Fraction(1)))
    return hs


def contains(halfspaces: Sequence[HalfSpace], point: Vector) -> bool:
    for normal, sense, bound in halfspaces:
        val = dot(normal, point)
        if sense == "<=" and val > bound:
            return False
        if sense == ">=" and val < bound:
            return False
    return True


def alcove_vertices_of(c: ConvexSet, member_index: int) -> List[Vector]:
    """Vertices of the alcove w^{-1} Q_id for the given member."""
    ctx = c.ctx
    data = alcove_data(ctx.root_system)
    winv = ctx.invert(c.members[member_index])
    return [ctx.apply(winv, v) for v in data.vertices]


@dataclass(frozen=True)
class _RootTables:
    """Integer tables of one type, indexed by a signed 1-based root index.

    Entry ``a`` of each list belongs to positive root ``a - 1`` and entry
    ``-a`` to its negative, which Python's negative indexing reads from the
    end of the list, so ``w[k]`` indexes the image of root k directly.
    ``pairing[a] / den`` is the pairing of the root with the centroid of the
    fundamental alcove, and ``height[a]`` its height.
    """

    pairing: Tuple[int, ...]
    den: int
    height: Tuple[int, ...]


def _signed(values: Sequence[int]) -> Tuple[int, ...]:
    return (0, *values, *(-v for v in reversed(values)))


# A root system is determined by its type, so the tables are built once per
# (family, rank) and shared by every RootSystem instance of that type.
_TABLES: Dict[Tuple[str, int], _RootTables] = {}


def _root_tables(rs: RootSystem) -> _RootTables:
    key = (rs.family, rs.rank)
    tables = _TABLES.get(key)
    if tables is None:
        marks = rs.coefficients[rs.highest_root_index]
        lcm_marks = lcm(*marks)
        weights = [lcm_marks // m for m in marks]
        pairing = [
            sum(c * w for c, w in zip(coeffs, weights))
            for coeffs in rs.coefficients
        ]
        tables = _TABLES[key] = _RootTables(
            pairing=_signed(pairing),
            den=(rs.rank + 1) * lcm_marks,
            height=_signed(rs.heights),
        )
    return tables


def _image_sum(table: Tuple[int, ...], c: ConvexSet, root_index: int) -> int:
    """Sum of the table entries at the images w(beta) over the members w."""
    return sum(table[m[root_index]] for m in c.members)


def centroid(c: ConvexSet) -> Vector:
    """Centroid of the order polytope: the average of the member alcove centroids.

    Built as sum_i <o, alpha_i> omega_i^vee from the integer pairing table.
    """
    ctx = c.ctx
    if not isinstance(ctx, WeylContext):
        raise TypeError("order polytopes need a finite Weyl context")
    rs = ctx.root_system
    tables = _root_tables(rs)
    den = len(c.members) * tables.den
    o = zero(rs.ambient_dim)
    for i, k in enumerate(rs.simple_indices):
        s = _image_sum(tables.pairing, c, k)
        if s:
            o = add(o, scale(Fraction(s, den), rs.coweights[i]))
    return o


# -- mean heights and witnesses ------------------------------------------------


def mean_height(c: ConvexSet, root_index: int) -> Fraction:
    """Average height of the images w(beta) over the members."""
    heights = _root_tables(c.ctx.root_system).height
    return Fraction(_image_sum(heights, c, root_index), len(c.members))


def small_mean_height_root(c: ConvexSet) -> Optional[int]:
    """First positive root whose mean image height is strictly below 1."""
    if len(c) < 2:
        raise ValueError("needs a non-singleton set")
    rs = c.ctx.root_system
    heights = _root_tables(rs).height
    n = len(c)
    for k in range(rs.num_positive_roots):
        if abs(_image_sum(heights, c, k)) < n:
            return k
    return None


def centroid_split_root(c: ConvexSet) -> Optional[int]:
    """A root splitting the set whose centroid pairing obeys the margin bound.

    Scans positive roots in (height, lex) order and returns the first k with
    0 < |C_k| < |C| and |<centroid, root_k>| <= margin / (rank + 1).  The
    pairing is S_k / (|C| den) for the integer sum S_k of the members' table
    entries, so the bound is tested as
    |S_k| (rank + 1) margin.den <= |C| den margin.num.
    """
    if len(c) < 2:
        raise ValueError("needs a non-singleton set")
    rs = c.ctx.root_system
    margin = alcove_params(rs).margin
    tables = _root_tables(rs)
    n = len(c)
    lhs = (rs.rank + 1) * margin.denominator
    rhs = n * tables.den * margin.numerator
    for k in range(rs.num_positive_roots):
        cnt = c.inversion_count(k)
        if 0 < cnt < n and abs(_image_sum(tables.pairing, c, k)) * lhs <= rhs:
            return k
    return None


# -- rigorous exponential bounds ----------------------------------------------


def exp_lower_bound(x: Fraction, terms: int = 80) -> Fraction:
    """A rational lower bound on e^x via a partial exponential series sum.

    For x > 0 every term is positive, so the partial sum is strictly below
    e^x; with 80 terms the gap is negligible for the exponents used here.
    """
    if x < 0:
        raise ValueError("needs x >= 0")
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        acc += term
        term = term * x / (k + 1)
    return acc


@lru_cache(maxsize=None)
def _half_inverse_exp_bound(x: Fraction) -> Fraction:
    """1 / (2 exp_lower_bound(x)), computed once per exponent."""
    return Fraction(1, 2) / exp_lower_bound(x)


def exponential_bound_threshold(rs: RootSystem) -> Fraction:
    """A strict rational upper bound on 1/(2 e^exponent) for the type."""
    return _half_inverse_exp_bound(alcove_params(rs).exponent)


def short_root_bound_threshold() -> Fraction:
    return _half_inverse_exp_bound(Fraction(1))


def check_short_root_bound(c: ConvexSet) -> bool:
    """Certify the improved type B bound balance >= 1/(2e)."""
    rs = c.ctx.root_system
    if rs.family != "B":
        raise ValueError("the short-root bound is asserted for type B only")
    if len(c) < 2:
        raise ValueError("needs a non-singleton set")
    return c.balance_value() >= short_root_bound_threshold()
