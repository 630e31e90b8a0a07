"""Fundamental alcoves, order polytopes of convex sets, and the geometry bounds.

The fundamental alcove is the simplex cut from the dominant chamber by
<x, highest root> <= 1; its translates under the group tile the order
polytope of a convex set.  Everything here is exact: centroids and
half-spaces are rational, and the e-based lower bounds are certified by
comparing against partial sums of the exponential series (strict rational
lower bounds on e^x), so a confirmed inequality is rigorous.

A point x in the span of the roots is computed in its coweight coordinates
y_i = <x, alpha_i>, so x = sum_i y_i omega_i^vee and a root beta = sum_i
c_i alpha_i pairs with it as sum_i c_i y_i; only a printed point is turned
into ambient coordinates, by :func:`ambient`.  A half-space is a pair
(a, b) meaning <x, beta_a> <= b for a signed 1-based root index a, with
beta_{-a} = -beta_a.  The group acts orthogonally, so <w^{-1} x, beta_k> =
<x, w beta_k>, the signed root at entry ``w[k]`` of w's action tuple.

The centroid o_0 of the fundamental alcove has y_i = 1/((r+1) m_i) over the
marks m_i of the highest root, so <o_0, beta> = (1/(r+1)) sum_i c_i / m_i
is an integer numerator over one common denominator, tabulated once per
type.  A member w pairs its alcove centroid w^{-1} o_0 with root k as that
numerator at ``w[k]``, and mean image heights read ``heights`` the same
way.  The pairings of the order-polytope centroid are then sums of integers
over the members, and its coordinates are its simple-root pairings.

A scan over every convex order ideal of a type (:func:`witnessed_ideals`)
reads no member.  ``convex.enumerate_convex_ideals`` gives each set as the
int bitset M of its rows in the scan's joined byte codes, and per root k the
bit planes of (entry - least entry) over the rows make a sum over the
members a plane sum, least * |M| + sum_b 2^b popcount(M & plane_{k,b}).
A plane is read off the codes as a column is, through a table that maps
each byte to that bit of its root's entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .convex import ConvexSet, balance_scorer, code_rows, enumerate_convex_ideals
from .linalg import Vector, bits
from .rootsys import RootSystem
from .weyl import WeylContext, code_entry


@dataclass(frozen=True)
class AlcoveParams:
    """Per-type constants controlling the exponential balance bound.

    ``min_mark``/``max_mark`` are the smallest and largest coefficients of
    the highest root over the simple roots, ``height`` their sum, ``margin``
    the centroid pairing bound multiplier, and ``exponent`` = margin *
    max_mark the exponent in the 1/(2 e^exponent) lower bound.
    """

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
        min_mark=m0,
        max_mark=m1,
        height=ht,
        margin=margin,
        exponent=margin * m1,
    )


def ambient(rs: RootSystem, y: Sequence) -> Vector:
    """The ambient vector sum_i y_i omega_i^vee with coweight coordinates y."""
    return tuple(sum(map(mul, y, column), Fraction(0)) for column in zip(*rs.coweights))


@dataclass(frozen=True)
class AlcoveData:
    """Vertices of the fundamental alcove (plus short-root data)."""

    vertices: Tuple[Vector, ...]  # origin plus coweight/mark vertices
    short_vertices: Optional[Tuple[Vector, ...]]  # non-simply-laced only


def _corners(rs: RootSystem, scales: Sequence[int]) -> Tuple[Vector, ...]:
    """The origin and each omega_i^vee / scales[i], in ambient coordinates."""
    origin = tuple(Fraction(0) for _ in rs.coweights[0])
    return (origin, *(tuple(x / s for x in row) for row, s in zip(rs.coweights, scales)))


def alcove_data(rs: RootSystem) -> AlcoveData:
    """The alcove points, in ambient coordinates; <omega_i^vee, eta> is eta_i."""
    short = rs.highest_short_root_index
    return AlcoveData(
        _corners(rs, rs.coefficients[rs.highest_root_index]),
        None if short is None else _corners(rs, rs.coefficients[short]),
    )


HalfSpace = Tuple[int, int]  # (a, b): <x, beta_a> <= b for a signed root index a


def order_polytope_halfspaces(c: ConvexSet) -> List[HalfSpace]:
    """Defining half-spaces of the union of member alcoves.

    <x, alpha> <= 0 for alpha in the lower set D, <x, -beta> <= 0 for beta
    outside the upper set A, and the caps <x, w^{-1} xi> <= 1 over members,
    where w^{-1} xi is the signed root at the highest root's entry of w^{-1}.
    """
    ctx = c.ctx
    if not isinstance(ctx, WeylContext):
        raise TypeError("order polytopes need a finite Weyl context")
    rs = ctx.root_system
    hs = [(k + 1, 0) for k in bits(c.lower)]
    hs += [(-k - 1, 0) for k in range(rs.num_positive_roots) if not c.upper >> k & 1]
    hs += [(ctx.invert(m)[rs.highest_root_index], 1) for m in c.members]
    return hs


def contains(rs: RootSystem, halfspaces: Sequence[HalfSpace], y: Sequence) -> bool:
    """Whether the point with coweight coordinates y lies in every half-space."""
    for a, b in halfspaces:
        value = sum(map(mul, rs.coefficients[abs(a) - 1], y))
        if (value if a > 0 else -value) > b:
            return False
    return True


def alcove_vertices_of(c: ConvexSet, member_index: int) -> List[Tuple[Fraction, ...]]:
    """Vertices of the alcove w^{-1} Q_id of a member, in coweight coordinates.

    Coordinate i of w^{-1} omega_j^vee / m_j is <omega_j^vee, w alpha_i> / m_j:
    coefficient j of the signed root at w's entry for alpha_i, over m_j.
    """
    rs = c.ctx.root_system
    w = c.members[member_index]
    rows = [
        (rs.coefficients[abs(w[k]) - 1], 1 if w[k] > 0 else -1) for k in rs.simple_indices
    ]
    marks = rs.coefficients[rs.highest_root_index]
    return [(Fraction(0),) * rs.rank] + [
        tuple(Fraction(sign * coeffs[j], m) for coeffs, sign in rows)
        for j, m in enumerate(marks)
    ]


@dataclass(frozen=True)
class _RootTables:
    """Integer tables of one type, indexed by a signed 1-based root index.

    Entry ``a`` of each list belongs to positive root ``a - 1`` and entry
    ``-a`` to its negative, which Python's negative indexing reads from the
    end of the list, so ``w[k]`` indexes the image of root k directly.
    ``pairing[a] / den`` is the pairing of the root with the centroid of the
    fundamental alcove, and ``height[a]`` its height.  ``margin`` is the
    type's ``alcove_params`` margin, for :func:`centroid_split_root`.
    """

    pairing: Tuple[int, ...]
    den: int
    height: Tuple[int, ...]
    margin: Fraction


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
            margin=alcove_params(rs).margin,
        )
    return tables


def _image_sum(table: Tuple[int, ...], c: ConvexSet, root_index: int) -> int:
    """Sum of the table entries at the images w(beta) over the members w."""
    return sum(table[m[root_index]] for m in c.members)


Planes = Tuple[int, List[int]]  # (low, planes) of one root; see _bit_planes


def _bit_planes(codes: bytes, n: int, table: Tuple[int, ...]) -> List[Planes]:
    """Per root k, (low, planes): low is the least entry ``table[w[k]]``
    over the rows w of the joined codes, N = ``n`` bytes each, and plane b
    the int bitset of the rows whose entry minus low has bit b set, so
    that a sum over the rows M is ``_plane_sum((low, planes), M)`` with no
    row read.  Plane b maps each byte c that occurs at k to that bit of
    ``table[code_entry(c)]`` minus low."""
    out = []
    for k in range(n):
        present = bytes(set(codes[k::n]))
        entries = [table[code_entry(c)] for c in present]
        low = min(entries)
        planes = []
        for b in range((max(entries) - low).bit_length()):
            digits = bytes.maketrans(present, bytes(48 + (e - low >> b & 1) for e in entries))
            planes.append(code_rows(codes, n, k, digits))
        out.append((low, planes))
    return out


def _plane_sum(root_planes: Planes, members: int) -> int:
    """low |M| + sum_b 2^b |M & plane_b|: the sum of the entries over the rows M."""
    low, planes = root_planes
    total = low * members.bit_count()
    for b, plane in enumerate(planes):
        total += (members & plane).bit_count() << b
    return total


def centroid(c: ConvexSet) -> Vector:
    """Centroid of the order polytope: the average of the member alcove centroids.

    Its coweight coordinates are its pairings with the simple roots, read
    from the integer pairing table.
    """
    ctx = c.ctx
    if not isinstance(ctx, WeylContext):
        raise TypeError("order polytopes need a finite Weyl context")
    rs = ctx.root_system
    tables = _root_tables(rs)
    den = len(c.members) * tables.den
    return ambient(
        rs, [Fraction(_image_sum(tables.pairing, c, k), den) for k in rs.simple_indices]
    )


# -- mean heights and witnesses ------------------------------------------------


def mean_height(c: ConvexSet, root_index: int) -> Fraction:
    """Average height of the images w(beta) over the members."""
    heights = _root_tables(c.ctx.root_system).height
    return Fraction(_image_sum(heights, c, root_index), len(c.members))


def _height_root(rs: RootSystem, n: int, height_sum: Callable[[int], int]) -> Optional[int]:
    """First root k, in index order, whose image heights over the n members
    sum to ``height_sum(k)`` with |height_sum(k)| < n."""
    return next((k for k in range(rs.num_positive_roots) if abs(height_sum(k)) < n), None)


def _split_root(rs: RootSystem, n: int, count: Callable[[int], int],
                pairing_sum: Callable[[int], int]) -> Optional[int]:
    """First root k, in index order, with 0 < count(k) < n inverting members
    and |pairing_sum(k)| (rank + 1) margin.den <= n den margin.num."""
    tables = _root_tables(rs)
    lhs = (rs.rank + 1) * tables.margin.denominator
    rhs = n * tables.den * tables.margin.numerator
    return next(
        (k for k in range(rs.num_positive_roots)
         if 0 < count(k) < n and abs(pairing_sum(k)) * lhs <= rhs),
        None,
    )


def small_mean_height_root(c: ConvexSet) -> Optional[int]:
    """First positive root whose mean image height is strictly below 1."""
    if len(c) < 2:
        raise ValueError("needs a non-singleton set")
    rs = c.ctx.root_system
    return _height_root(rs, len(c), partial(_image_sum, _root_tables(rs).height, c))


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
    return _split_root(rs, len(c), c.inversion_count,
                       partial(_image_sum, _root_tables(rs).pairing, c))


def plane_scorer(rs: RootSystem, codes: bytes, columns: Sequence[int]):
    """The scorer of ``convex.enumerate_convex_ideals``, with ``rs`` bound,
    that gives each set (balance, mean-height root, centroid-split root),
    the roots being those of :func:`small_mean_height_root` and
    :func:`centroid_split_root`.

    Each sum over the members M is a :func:`_plane_sum` over bit planes of
    the scan's codes, and |C_k| is |M & column_k|, so no member is read.
    """
    tables = _root_tables(rs)
    balance = balance_scorer(codes, columns)
    heights = _bit_planes(codes, len(columns), tables.height)
    pairings = _bit_planes(codes, len(columns), tables.pairing)

    def score(members: int, upper: int):
        n = members.bit_count()
        return (
            balance(members, upper),
            _height_root(rs, n, lambda k: _plane_sum(heights[k], members)),
            _split_root(rs, n, lambda k: (members & columns[k]).bit_count(),
                        lambda k: _plane_sum(pairings[k], members)),
        )

    return score


def witnessed_ideals(ctx: WeylContext) -> List[Tuple[Fraction, int, Optional[int], Optional[int]]]:
    """(balance, A, mean-height root, centroid-split root) for every convex
    order ideal W^A but {e} (A = 0), in scan order, from one scan."""
    scan = enumerate_convex_ideals(ctx, partial(plane_scorer, ctx.root_system))
    return [(b, upper, h, s) for upper, (b, h, s) in scan if upper]


# -- rigorous exponential bounds ----------------------------------------------


def exp_lower_bound(x: Fraction) -> Fraction:
    """A rational lower bound on e^x: the sum of the first 80 series terms.

    For x > 0 every term is positive, so the partial sum is strictly below
    e^x; with 80 terms the gap is negligible for the exponents used here.
    """
    if x < 0:
        raise ValueError("needs x >= 0")
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(80):
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


def check_short_root_bound(c: ConvexSet, balance: Fraction) -> bool:
    """Certify the improved type B bound balance >= 1/(2e), given the
    balance of ``c`` that the caller already holds."""
    rs = c.ctx.root_system
    if rs.family != "B":
        raise ValueError("the short-root bound is asserted for type B only")
    if len(c) < 2:
        raise ValueError("needs a non-singleton set")
    return balance >= short_root_bound_threshold()
