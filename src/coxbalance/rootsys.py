"""Crystallographic root systems with exact rational coordinates.

Builds the irreducible types A-G, exposes the root poset (ordering, heights,
Hasse covers), fundamental coweights, the simple-reflection graph on positive
roots, and order-ideal enumeration over the root poset.  A root-poset ideal
is a bitmask over the positive-root indices throughout; its walk is the
shared one of :func:`posets.walk_order_ideals`, along the index order, and
:func:`iter_ideal_masks` can hand it per-root weights whose sums carry
counters above the N mask bits (the exit scan of :mod:`semiorder`).  The
number of ideals comes from :func:`catalan_number` in closed form, never
from a walk.
Inner products are the ambient Euclidean dot product.

The simple roots are defined once, by twice their ambient coordinates (an
integer table in every supported type).  :func:`build_root_system` makes one
walk over the positive roots by height, as integer vectors in simple-root
coordinates.  Each (root, simple reflection) pair costs one pairing p = <c,
alpha_i^vee> with the integer Cartan matrix, and s_i(c) = c - p e_i.  A root
first met as s_i(c) takes its doubled ambient coordinates from c, and the
walk records each image, so the signed simple action is the walk's table
renumbered to the index order.  The root poset is stored as its covers:
gamma covers beta iff gamma - beta is a simple root.  Every stored field is
an integer table: ``coefficients`` (simple-root coordinates of each positive
root), the cover bitmasks ``_lower_covers``/``_upper_covers``, the signed
simple action ``_simple_action``, ``_doubled``, twice the ambient
coordinates of each positive root, and the Coxeter matrix ``coxeter``.

The ``Fraction`` views ``positive_roots`` (ambient coordinates) and
``coweights`` are computed from those tables on first access, the
coweights from the W-invariant form with no linear solve; ``linalg`` gives
only :func:`bits` and the ``Vector`` type.

A :class:`RootSystem` is also the group object of its Weyl group, with the
element primitives of ``coxgen.CoxSystem``, the group object of a diagram,
and the word routines of ``coxgen.GroupWords``, so every routine in
``convex``, ``coxgen`` and ``posets`` takes either one.  An element is its
signed action on the positive roots (see ``weyl``), a root key is a
positive-root index, and the primitives read the integer tables only.

Coordinate conventions for the classical families:

* A_r:  e_i - e_j in (r+1)-space, simple roots e_i - e_{i+1}
* B_r:  e_i +- e_j and e_i, simple roots e_i - e_{i+1} and e_r
* C_r:  e_i +- e_j and 2 e_i, simple roots e_i - e_{i+1} and 2 e_r
* D_r:  e_i +- e_j, simple roots e_i - e_{i+1} and e_{r-1} + e_r

Exceptional types use standard models: E8 as the integer/half-integer root
set in 8-space, E7 and E6 as root subsystems of E8, F4 in 4-space, G2 inside
the A2 ambient 3-space.  Simple roots of E6/E7/E8 are numbered so that
s_1 .. s_{r-1} form the long path and s_r hangs off s_3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .coxgen import GroupWords, root_display
from .linalg import Vector, bits
from .posets import walk_order_ideals

Family = str  # one of "A".."G"

# A Weyl group element: w[j] = +-(k+1) when w sends positive root j to +-root k.
Element = Tuple[int, ...]

# Most root-poset ideals one walk may visit: A13, B12, C12 and D12 have at most
# 2.71 * 10^6 (about 1 s each), E8 25080, and A20 about 2.4 * 10^10;
# :func:`catalan_number` gives the count before a walk.
ROOT_IDEAL_CAP = 2 ** 22

# Twice the ambient coordinates of the E8 simple roots: the path s1..s7,
# with s8 attached to s3 (branch node).
_E8_DOUBLED = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
    (2, 2, 0, 0, 0, 0, 0, 0),
)


def _doubled_simple_roots(family: Family, rank: int) -> List[Tuple[int, ...]]:
    """Twice the ambient coordinates of the simple roots, in diagram order.

    These are integers in every supported type (E8 and F4 have
    half-integer simple roots) and sort exactly like the coordinates.
    """
    if family in ("B", "C", "D"):
        # 2 (e_i - e_{i+1}) for i < r - 1, then the last simple root
        path = [tuple(2 * ((t == i) - (t == i + 1)) for t in range(rank))
                for i in range(rank - 1)]
        last = {"B": (2,), "C": (4,), "D": (2, 2)}[family]
        return path + [(0,) * (rank - len(last)) + last]
    if family == "A":
        return [tuple(2 * ((t == i) - (t == i + 1)) for t in range(rank + 1)) for i in range(rank)]
    if family == "E" and rank in (6, 7, 8):
        # E7: drop s7 of E8 and relabel the branch root as s7; E6 similarly.
        return list(_E8_DOUBLED[: rank - 1]) + [_E8_DOUBLED[7]]
    if family == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if family == "G":
        return [(2, -2, 0), (-4, 2, 2)]
    raise InvalidTypeError(family, rank)


class InvalidTypeError(ValueError):
    def __init__(self, family, rank):
        super().__init__(f"not a valid irreducible type: ({family!r}, {rank!r})")
        self.family = family
        self.rank = rank


# Largest rank of a type: A64 builds in 0.27 s, A128 in 3.75 s (2-vCPU Xeon).
TYPE_MAX_RANK = 64

_RANK_OK = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class RootSystem(GroupWords):
    """An irreducible crystallographic root system, and the group object of
    its Weyl group; root keys are positive-root indices.

    The positive roots are sorted by (height, coordinates) so every stream
    derived from them is deterministic.
    """

    def __init__(self, family: Family, rank: int, ambient_dim: int,
                 simple_indices: Tuple[int, ...], coefficients: Tuple[Tuple[int, ...], ...],
                 heights: Tuple[int, ...], highest_root_index: int,
                 highest_short_root_index: Optional[int],
                 _lower_covers: Tuple[int, ...] = (), _upper_covers: Tuple[int, ...] = (),
                 _simple_action: Tuple[Tuple[int, ...], ...] = (),
                 _doubled: Tuple[Tuple[int, ...], ...] = (),
                 coxeter: Tuple[Tuple[int, ...], ...] = ()):
        self.family = family
        self.rank = rank
        self.ambient_dim = ambient_dim
        self.simple_indices = simple_indices
        self.coefficients = coefficients  # simple-root coordinates per positive root
        self.heights = heights
        self.highest_root_index = highest_root_index
        self.highest_short_root_index = highest_short_root_index
        # bitmasks of the roots each root covers, and of those covering it
        self._lower_covers = _lower_covers
        self._upper_covers = _upper_covers
        self._simple_action = _simple_action
        # twice the ambient coordinates of each positive root
        self._doubled = _doubled
        # Coxeter matrix m_ij, 0-based
        self.coxeter = coxeter

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        """Ambient coordinates of the positive roots."""
        return tuple(tuple(Fraction(x, 2) for x in d) for d in self._doubled)

    @cached_property
    def coweights(self) -> Tuple[Vector, ...]:
        """The dual basis of the simple roots inside their span.

        S = sum over all roots beta of beta beta^T commutes with W, which
        acts irreducibly on the span of the roots, so S = kappa I there
        (Schur), and its trace gives kappa r = 2 sum_{beta > 0} |beta|^2.
        As <beta, omega_j^vee> is c_j(beta), the coefficient of alpha_j in
        beta, kappa omega_j^vee = S omega_j^vee = 2 sum_{beta > 0} c_j(beta)
        beta.  So omega_j^vee = (2 r / sum |d|^2) sum_{beta > 0} c_j(beta) d,
        with d = 2 beta the ``_doubled`` row: integer sums, no linear solve.
        """
        scale = Fraction(2 * self.rank, sum(sum(map(mul, d, d)) for d in self._doubled))
        columns = tuple(zip(*self._doubled))
        return tuple(
            tuple(scale * sum(map(mul, c, col)) for col in columns)
            for c in zip(*self.coefficients)
        )

    @property
    def num_positive_roots(self) -> int:
        return len(self.heights)

    def root_label(self) -> str:
        return f"{self.family}{self.rank}"

    # -- simple reflections ------------------------------------------------

    def coxeter_m(self, i: int, j: int) -> int:
        """Coxeter matrix entry m_ij for simple reflections (1-based)."""
        return self.coxeter[i - 1][j - 1]

    def simple_image(self, i: int, j: int) -> int:
        """Signed index of s_i applied to positive root j (1-based simple i).

        Returns k+1 if the image is positive root k, -(k+1) if it is the
        negative of positive root k.
        """
        return self._simple_action[i - 1][j]

    # -- the group object ------------------------------------------------------

    def identity(self) -> Element:
        return tuple(range(1, self.num_positive_roots + 1))

    def mul(self, u: Element, v: Element) -> Element:
        """Product u v, acting as u after v."""
        return tuple([u[a - 1] if a > 0 else -u[-a - 1] for a in v])

    def mul_simple_right(self, w: Element, i: int) -> Element:
        return self.mul(w, self._simple_action[i - 1])

    def mul_simple_left(self, w: Element, i: int) -> Element:
        return self.mul(self._simple_action[i - 1], w)

    def invert(self, w: Element) -> Element:
        out = [0] * len(w)
        for j, a in enumerate(w, start=1):
            out[abs(a) - 1] = j if a > 0 else -j
        return tuple(out)

    def inversion_mask(self, w: Element) -> int:
        """Bitmask of the positive roots that w sends negative."""
        return sum(1 << j for j, a in enumerate(w) if a < 0)

    def is_descent(self, v: Element, i: int) -> bool:
        """True iff v(alpha_i) is negative."""
        return v[self.simple_indices[i - 1]] < 0

    def simple_image_key(self, v: Element, i: int) -> Optional[int]:
        """Key of v(alpha_i) if that root is positive, else None."""
        a = v[self.simple_indices[i - 1]]
        return a - 1 if a > 0 else None

    def reduced_word(self, w: Element) -> Tuple[int, ...]:
        # ``weyl`` imports this module, so its traced ``reduced_word`` is imported here.
        from .weyl import reduced_word
        return reduced_word(self, w)

    def key_order(self, key: int) -> int:
        return key

    def key_display(self, key: int) -> str:
        return root_display(self.coefficients[key])


def build_root_system(family: Family, rank: int) -> RootSystem:
    """Construct the root system of the given irreducible type."""
    if (family not in _RANK_OK or isinstance(rank, bool) or not isinstance(rank, int)
            or not _RANK_OK[family](rank)):
        raise InvalidTypeError(family, rank)
    if rank > TYPE_MAX_RANK:
        raise ValueError(f"rank {rank} is above the largest supported rank, {TYPE_MAX_RANK}")
    doubled_simples = _doubled_simple_roots(family, rank)
    ambient = len(doubled_simples[0])
    gram = [[sum(map(mul, a, b)) for b in doubled_simples] for a in doubled_simples]
    # cartan[j][i] = <alpha_j, alpha_i^vee>, an integer in every supported type.
    cartan = [[2 * gram[j][i] // gram[i][i] for i in range(rank)] for j in range(rank)]
    coroot_cols = [tuple(row[i] for row in cartan) for i in range(rank)]

    # One walk by height; roots carry discovery ids, alpha_i being id i.  A
    # non-simple positive root pairs positively with some alpha_i^vee, so it
    # is raised from a lower root and is found before its height is walked.
    # With p = <c, alpha_i^vee>, s_i(c) = c - p e_i and d(s_i c) = d(c) -
    # p d(alpha_i) for the doubled ambient coordinates d.  images[k][i] is the
    # id of s_i(root k), or ~i = -i - 1 for s_i(alpha_i) = -alpha_i.  A root
    # is found by its code, which holds coefficient i (0 to 6) in byte i, so
    # adding alpha_i adds step[i] and s_i(c) has code code(c) - p step[i].
    step = [1 << 8 * i for i in range(rank)]
    coords = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    codes = list(step)
    doubled = list(doubled_simples)
    heights = [1] * rank
    images: List[Optional[Tuple[int, ...]]] = [None] * rank
    found = {x: k for k, x in enumerate(codes)}
    levels = {1: list(range(rank))}
    h = 1
    while h in levels:
        for k in levels[h]:
            c, code = coords[k], codes[k]
            row: List[int] = []
            for i, col in enumerate(coroot_cols):
                p = sum(map(mul, c, col))
                if p == 0:
                    row.append(k)
                    continue
                if k == i:
                    row.append(~k)
                    continue
                img = code - p * step[i]
                j = found.get(img)
                if j is None:  # raised to a root not found yet
                    j = found[img] = len(coords)
                    coords.append(c[:i] + (c[i] - p,) + c[i + 1:])
                    codes.append(img)
                    doubled.append(tuple(x - p * y for x, y in zip(doubled[k], doubled_simples[i])))
                    heights.append(h - p)
                    images.append(None)
                    levels.setdefault(h - p, []).append(j)
                row.append(j)
            images[k] = tuple(row)
        h += 1

    # Index order: by (height, doubled coordinates); pos maps ids to indices.
    n = len(coords)
    order = sorted(range(n), key=lambda k: (heights[k], doubled[k]))
    pos = [0] * n
    for t, k in enumerate(order):
        pos[k] = t
    coords = tuple(coords[k] for k in order)
    heights = tuple(heights[k] for k in order)
    doubled_roots = tuple(doubled[k] for k in order)
    simple_idx = tuple(pos[:rank])

    # gamma covers beta iff gamma - beta is a simple root.
    lower, upper = [0] * n, [0] * n
    for s in step:
        for code, k in found.items():
            j = found.get(code + s)
            if j is not None:
                lower[pos[j]] |= 1 << pos[k]
                upper[pos[k]] |= 1 << pos[j]

    highest = n - 1  # maximal height sorts last; uniqueness checked below
    if heights.count(heights[highest]) != 1:
        raise AssertionError("root poset maximum is not unique")

    # The highest short root is the last short root, alone at its height.
    norms = [sum(map(mul, d, d)) for d in doubled_roots]
    short_idx: Optional[int] = None
    if len(set(norms)) > 1:
        short = min(norms)
        shorts = [i for i in range(n) if norms[i] == short]
        short_idx = shorts[-1]
        if [heights[i] for i in shorts].count(heights[short_idx]) != 1:
            raise AssertionError("highest short root is not unique")

    # Simple-reflection action on positive roots, as signed 1-based indices:
    # the walk's images remapped to the index order.  signed[k] is the signed
    # index of id k and signed[~k] = -signed[k], for the only positive root
    # that s_i makes negative, alpha_i itself.
    signed = [t + 1 for t in pos]
    signed += [-t for t in reversed(signed)]
    action = tuple(
        tuple(map(signed.__getitem__, col)) for col in zip(*map(images.__getitem__, order))
    )

    return RootSystem(
        family=family,
        rank=rank,
        ambient_dim=ambient,
        simple_indices=simple_idx,
        coefficients=coords,
        heights=heights,
        highest_root_index=highest,
        highest_short_root_index=short_idx,
        _lower_covers=tuple(lower),
        _upper_covers=tuple(upper),
        _simple_action=action,
        _doubled=doubled_roots,
        # a_ij a_ji = 4 cos^2(pi / m_ij): 0, 1, 2 or 3 off the diagonal, 4 on it
        coxeter=tuple(tuple((2, 3, 4, 6, 1)[cartan[i][j] * cartan[j][i]] for j in range(rank))
                      for i in range(rank)),
    )


# -- root poset ------------------------------------------------------------


def hasse_edges(rs: RootSystem) -> List[Tuple[int, int]]:
    """Cover pairs (i, j) of the root poset, root_i covered by root_j."""
    return [(i, j) for i, u in enumerate(rs._upper_covers) for j in bits(u)]


def root_graph(rs: RootSystem) -> List[Tuple[int, int, int]]:
    """Edges (i, j, simple) with s_simple(root_i) = root_j, i < j.

    The label is the 1-based simple-reflection index.  In simply-laced types
    this edge set coincides with the Hasse diagram of the root poset.
    """
    edges = []
    for i in range(rs.num_positive_roots):
        for s in range(1, rs.rank + 1):
            img = rs.simple_image(s, i)
            if img > 0 and img - 1 > i:
                edges.append((i, img - 1, s))
    edges.sort()
    return edges


# -- order ideals of the root poset ------------------------------------------


def ideal_from_members(rs: RootSystem, members) -> int:
    """The bitmask of a root-poset ideal given by positive-root indices.

    Rejects a set that is not downward closed, naming a violating pair: the
    first member with a lower cover outside the set, and its last such cover.
    """
    mask = 0
    for i in members:
        mask |= 1 << i
    for i in bits(mask):
        missing = rs._lower_covers[i] & ~mask
        if missing:
            j = missing.bit_length() - 1
            raise ValueError(
                f"not an order ideal: contains root {i} "
                f"({root_display(rs.coefficients[i])}) but not {j} "
                f"({root_display(rs.coefficients[j])}) below it"
            )
    return mask


def iter_ideal_masks(rs: RootSystem, weight: Optional[Sequence[int]] = None) -> Iterator[int]:
    """Every order ideal of the root poset as a bitmask, each exactly once.

    The index order is a linear extension, and the walk of
    :func:`posets.walk_order_ideals` along it adds roots in increasing index
    order, so the stream is deterministic.  Intended for systems up to E8
    (25080 ideals); raises :class:`posets.IdealCapExceeded` when a further
    ideal follows the ``ROOT_IDEAL_CAP``-th one.  With ``weight``, one int
    per root with ``weight[j]`` equal to ``1 << j`` modulo 2^N, each ideal
    comes as the sum of its roots' weights instead, whose low N bits are
    its mask (see :func:`posets.walk_order_ideals`).
    """
    n = rs.num_positive_roots
    if weight is None:
        weight = [1 << j for j in range(n)]
    yield from walk_order_ideals(range(n), rs._lower_covers, rs._upper_covers, weight,
                                 ROOT_IDEAL_CAP)


def degrees(rs: RootSystem) -> List[int]:
    """The degrees d_i of the Weyl group, largest first: d_i - 1 >= k for as
    many i as there are positive roots of height k (Humphreys 3.20)."""
    per_height = [rs.heights.count(k) for k in range(1, rs.heights[-1] + 1)]
    return [1 + sum(1 for c in per_height if c >= j) for j in range(1, rs.rank + 1)]


def catalan_number(rs: RootSystem) -> int:
    """The number of root-poset order ideals, with no walk: the Catalan
    number prod (h + d_i) / d_i of the Weyl group (Cellini and Papi), h
    being the Coxeter number, the largest degree."""
    d = degrees(rs)
    return prod(d[0] + di for di in d) // prod(d)


# -- exports -----------------------------------------------------------------


def poset_dot(rs: RootSystem) -> str:
    """Graphviz DOT for the Hasse diagram of the root poset."""
    lines = ["digraph rootposet {", "  rankdir=BT;"]
    for i in range(rs.num_positive_roots):
        lines.append(f'  r{i} [label="{root_display(rs.coefficients[i])}"];')
    for i, j in hasse_edges(rs):
        lines.append(f"  r{i} -> r{j};")
    lines.append("}")
    return "\n".join(lines)


def root_graph_dot(rs: RootSystem) -> str:
    """Graphviz DOT for the simple-reflection graph with edge labels."""
    lines = ["graph rootgraph {"]
    for i in range(rs.num_positive_roots):
        lines.append(f'  r{i} [label="{root_display(rs.coefficients[i])}"];')
    for i, j, s in root_graph(rs):
        lines.append(f'  r{i} -- r{j} [label="a{s}"];')
    lines.append("}")
    return "\n".join(lines)


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def roots_json(rs: RootSystem) -> dict:
    """JSON payload of the positive roots as exact fraction pairs, as a dict."""
    return {
        "schema": 1,
        "family": rs.family,
        "rank": rs.rank,
        "ambient_dim": rs.ambient_dim,
        "positive_roots": [
            [fraction_json(c) for c in root] for root in rs.positive_roots
        ],
        "simple_indices": list(rs.simple_indices),
        "heights": list(rs.heights),
        "highest_root_index": rs.highest_root_index,
        "highest_short_root_index": rs.highest_short_root_index,
    }
