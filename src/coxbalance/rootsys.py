"""Crystallographic root systems with exact rational coordinates.

Builds the irreducible types A-G, exposes the root poset (ordering, heights,
Hasse covers), fundamental coweights, the simple-reflection graph on positive
roots, and order-ideal enumeration over the root poset.  All coordinates are
``Fraction``s; the bilinear form is the ambient Euclidean dot product.

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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .linalg import Vector, dot, invert, is_zero, neg, scale, sub, vec

Family = str  # one of "A".."G"

_HALF = Fraction(1, 2)


def _unit(n: int, i: int, c=1) -> Vector:
    v = [Fraction(0)] * n
    v[i] = Fraction(c)
    return tuple(v)


def _e8_simple_roots() -> List[Vector]:
    # Path s1..s7, with s8 attached to s3 (branch node).
    a1 = tuple(Fraction(c, 2) for c in (1, -1, -1, -1, -1, -1, -1, 1))
    chain = [
        tuple(Fraction(c) for c in row)
        for row in (
            (-1, 1, 0, 0, 0, 0, 0, 0),
            (0, -1, 1, 0, 0, 0, 0, 0),
            (0, 0, -1, 1, 0, 0, 0, 0),
            (0, 0, 0, -1, 1, 0, 0, 0),
            (0, 0, 0, 0, -1, 1, 0, 0),
            (0, 0, 0, 0, 0, -1, 1, 0),
        )
    ]
    branch = tuple(Fraction(c) for c in (1, 1, 0, 0, 0, 0, 0, 0))
    return [a1] + chain + [branch]


def simple_roots(family: Family, rank: int) -> List[Vector]:
    """Simple roots for the given irreducible type, in diagram order."""
    if family == "A":
        return [sub(_unit(rank + 1, i), _unit(rank + 1, i + 1)) for i in range(rank)]
    if family == "B":
        return [sub(_unit(rank, i), _unit(rank, i + 1)) for i in range(rank - 1)] + [
            _unit(rank, rank - 1)
        ]
    if family == "C":
        return [sub(_unit(rank, i), _unit(rank, i + 1)) for i in range(rank - 1)] + [
            _unit(rank, rank - 1, 2)
        ]
    if family == "D":
        last = tuple(
            Fraction(1 if i >= rank - 2 else 0) for i in range(rank)
        )  # e_{r-1} + e_r
        return [sub(_unit(rank, i), _unit(rank, i + 1)) for i in range(rank - 1)] + [
            last
        ]
    if family == "E":
        e8 = _e8_simple_roots()
        # E7: drop s7 of E8 and relabel the branch root as s7; E6 similarly.
        if rank == 8:
            return e8
        if rank == 7:
            return e8[0:6] + [e8[7]]
        if rank == 6:
            return e8[0:5] + [e8[7]]
    if family == "F":
        return [
            vec((0, 1, -1, 0)),
            vec((0, 0, 1, -1)),
            vec((0, 0, 0, 1)),
            (_HALF, -_HALF, -_HALF, -_HALF),
        ]
    if family == "G":
        return [vec((1, -1, 0)), vec((-2, 1, 1))]
    raise InvalidTypeError(family, rank)


class InvalidTypeError(ValueError):
    def __init__(self, family, rank):
        super().__init__(f"not a valid irreducible type: ({family!r}, {rank!r})")
        self.family = family
        self.rank = rank


_RANK_OK = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class RootSystem:
    """An irreducible crystallographic root system.

    ``positive_roots`` is sorted by (height, coordinates) so every stream
    derived from it is deterministic.  ``coweights`` are the dual basis of
    the simple roots inside their span.
    """

    family: Family
    rank: int
    ambient_dim: int
    positive_roots: Tuple[Vector, ...]
    simple_indices: Tuple[int, ...]
    coweights: Tuple[Vector, ...]
    coefficients: Tuple[Vector, ...]  # simple-root coordinates per positive root
    heights: Tuple[int, ...]
    highest_root_index: int
    highest_short_root_index: Optional[int]
    _index: Dict[Vector, int] = field(repr=False, hash=False, compare=False, default_factory=dict)
    _leq: Tuple[int, ...] = field(repr=False, hash=False, compare=False, default=())
    _down: Tuple[int, ...] = field(repr=False, hash=False, compare=False, default=())
    _simple_action: Tuple[Tuple[int, ...], ...] = field(
        repr=False, hash=False, compare=False, default=()
    )

    # -- basic accessors ---------------------------------------------------

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def simple_roots(self) -> Tuple[Vector, ...]:
        return tuple(self.positive_roots[i] for i in self.simple_indices)

    @property
    def highest_root(self) -> Vector:
        return self.positive_roots[self.highest_root_index]

    @property
    def highest_short_root(self) -> Optional[Vector]:
        if self.highest_short_root_index is None:
            return None
        return self.positive_roots[self.highest_short_root_index]

    def index_of(self, root: Vector) -> int:
        """Index of a positive root in the canonical ordering."""
        return self._index[root]

    def root_label(self) -> str:
        return f"{self.family}{self.rank}"

    # -- poset structure ---------------------------------------------------

    def leq_indices(self, i: int, j: int) -> bool:
        return bool((self._leq[i] >> j) & 1)

    def coxeter_m(self, i: int, j: int) -> int:
        """Coxeter matrix entry m_ij for simple reflections (1-based)."""
        if i == j:
            return 1
        a = self.positive_roots[self.simple_indices[i - 1]]
        b = self.positive_roots[self.simple_indices[j - 1]]
        n = 4 * dot(a, b) ** 2 / (dot(a, a) * dot(b, b))
        return {0: 2, 1: 3, 2: 4, 3: 6}[int(n)]

    def simple_image(self, i: int, j: int) -> int:
        """Signed index of s_i applied to positive root j (1-based simple i).

        Returns k+1 if the image is positive root k, -(k+1) if it is the
        negative of positive root k.
        """
        return self._simple_action[i - 1][j]


def reflect(rs_or_alpha, alpha_or_x, x: Optional[Vector] = None) -> Vector:
    """Reflect a vector across a root: x - (2<a,x>/<a,a>) a, exactly.

    Accepts either (rs, alpha, x) or just (alpha, x); the root system is
    irrelevant to the formula but kept for interface symmetry.
    """
    if x is None:
        alpha, point = rs_or_alpha, alpha_or_x
    else:
        alpha, point = alpha_or_x, x
    if is_zero(alpha):
        raise ValueError("cannot reflect across the zero vector")
    coef = 2 * dot(alpha, point) / dot(alpha, alpha)
    return sub(point, scale(coef, alpha))


def build_root_system(family: Family, rank: int) -> RootSystem:
    """Construct the root system of the given irreducible type."""
    if family not in _RANK_OK or not isinstance(rank, int) or not _RANK_OK[family](rank):
        raise InvalidTypeError(family, rank)
    simples = simple_roots(family, rank)
    ambient = len(simples[0])

    # Orbit of the simple roots under the simple reflections is all of Phi.
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for alpha in simples:
                gamma = reflect(alpha, beta)
                if gamma not in roots:
                    roots.add(gamma)
                    new.append(gamma)
        frontier = new

    # Dual basis of the simple roots within their span.
    gram = tuple(tuple(dot(a, b) for b in simples) for a in simples)
    ginv = invert(gram)
    coweights = tuple(
        tuple(
            sum((ginv[j][k] * simples[k][t] for k in range(rank)), Fraction(0))
            for t in range(ambient)
        )
        for j in range(rank)
    )

    def coeffs(beta: Vector) -> Vector:
        return tuple(dot(beta, w) for w in coweights)

    positives = []
    for beta in roots:
        c = coeffs(beta)
        if all(x >= 0 for x in c):
            positives.append((sum(c), beta, c))
    positives.sort(key=lambda t: (t[0], t[1]))
    pos_roots = tuple(p[1] for p in positives)
    pos_coeffs = tuple(p[2] for p in positives)
    heights = tuple(int(p[0]) for p in positives)
    index = {beta: i for i, beta in enumerate(pos_roots)}
    simple_idx = tuple(index[a] for a in simples)

    n = len(pos_roots)
    # leq[i] = bitmask of j with root_i <= root_j in the root poset.
    leq = []
    for i in range(n):
        mask = 0
        ci = pos_coeffs[i]
        for j in range(n):
            if all(a <= b for a, b in zip(ci, pos_coeffs[j])):
                mask |= 1 << j
        leq.append(mask)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if (leq[j] >> i) & 1:
                down[i] |= 1 << j

    highest = n - 1  # maximal height sorts last; uniqueness checked below
    if sum(1 for h in heights if h == heights[highest]) != 1:
        raise AssertionError("root poset maximum is not unique")

    norms = [dot(b, b) for b in pos_roots]
    short_idx: Optional[int] = None
    if len(set(norms)) > 1:
        min_norm = min(norms)
        shorts = [i for i in range(n) if norms[i] == min_norm]
        tops = [i for i in shorts if all(leq[j] >> i & 1 for j in shorts)]
        if len(tops) != 1:
            raise AssertionError("highest short root is not unique")
        short_idx = tops[0]

    # Simple-reflection action on positive roots, as signed 1-based indices.
    action = []
    for i in range(rank):
        row = []
        for j in range(n):
            img = reflect(simples[i], pos_roots[j])
            if img in index:
                row.append(index[img] + 1)
            else:
                row.append(-(index[neg(img)] + 1))
        action.append(tuple(row))

    return RootSystem(
        family=family,
        rank=rank,
        ambient_dim=ambient,
        positive_roots=pos_roots,
        simple_indices=simple_idx,
        coweights=coweights,
        coefficients=pos_coeffs,
        heights=heights,
        highest_root_index=highest,
        highest_short_root_index=short_idx,
        _index=index,
        _leq=tuple(leq),
        _down=tuple(down),
        _simple_action=tuple(action),
    )


# -- root poset ------------------------------------------------------------


def root_poset_leq(rs: RootSystem, beta1: Vector, beta2: Vector) -> bool:
    """True iff beta2 - beta1 is a nonnegative simple-root combination."""
    return rs.leq_indices(rs.index_of(beta1), rs.index_of(beta2))


def height(rs: RootSystem, beta: Vector) -> int:
    """Height of any root (negative for negative roots)."""
    if beta in rs._index:
        return rs.heights[rs.index_of(beta)]
    return -rs.heights[rs.index_of(neg(beta))]


def hasse_edges(rs: RootSystem) -> List[Tuple[int, int]]:
    """Cover pairs (i, j) of the root poset, root_i covered by root_j."""
    n = rs.num_positive_roots
    edges = []
    for i in range(n):
        up = rs._leq[i] & ~(1 << i)
        for j in range(n):
            if not (up >> j) & 1:
                continue
            # j covers i unless some k lies strictly between
            between = rs._leq[i] & ~(1 << i) & ~(1 << j)
            if not any(
                (between >> k) & 1 and rs.leq_indices(k, j) for k in range(n)
            ):
                edges.append((i, j))
    return edges


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


@dataclass(frozen=True)
class RootPosetIdeal:
    """A downward-closed set of positive roots, stored as an index set.

    Construct through :func:`ideal_from_members` to get closure validation;
    the internal enumerators build instances directly (their output is
    downward closed by construction).
    """

    root_system: RootSystem
    members: frozenset

    @property
    def mask(self) -> int:
        m = 0
        for i in self.members:
            m |= 1 << i
        return m


def ideal_from_members(rs: RootSystem, members) -> RootPosetIdeal:
    """Validated ideal constructor; rejects non-ideals naming a violating pair."""
    members = frozenset(members)
    mask = 0
    for i in members:
        mask |= 1 << i
    for i in members:
        missing = rs._down[i] & ~mask
        if missing:
            j = missing.bit_length() - 1
            raise ValueError(
                f"not an order ideal: contains root {i} "
                f"({_root_name(rs, i)}) but not {j} ({_root_name(rs, j)}) below it"
            )
    return RootPosetIdeal(rs, members)


def iter_ideal_masks(rs: RootSystem) -> Iterator[int]:
    """Every order ideal of the root poset as a bitmask, each exactly once.

    Ideals are produced by depth-first search adding elements in increasing
    index order (the index order is a linear extension), so the stream is
    deterministic.  Intended for systems up to E8 (25080 ideals).
    """
    n = rs.num_positive_roots
    cover_down = [0] * n
    for i, j in hasse_edges(rs):
        cover_down[j] |= 1 << i

    def walk(mask: int, start: int) -> Iterator[int]:
        yield mask
        for x in range(start, n):
            if not (mask >> x) & 1 and (cover_down[x] & mask) == cover_down[x]:
                yield from walk(mask | (1 << x), x + 1)

    yield from walk(0, 0)


def enumerate_root_ideals(rs: RootSystem) -> Iterator[RootPosetIdeal]:
    """Stream every order ideal of the root poset, deterministically."""
    n = rs.num_positive_roots
    for mask in iter_ideal_masks(rs):
        members = frozenset(i for i in range(n) if (mask >> i) & 1)
        yield RootPosetIdeal(rs, members)


def count_root_ideals(rs: RootSystem) -> int:
    return sum(1 for _ in iter_ideal_masks(rs))


# -- exports -----------------------------------------------------------------


def _root_name(rs: RootSystem, i: int) -> str:
    coeffs = rs.coefficients[i]
    parts = []
    for k, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        parts.append(f"a{k}" if c == 1 else f"{c}a{k}")
    return "+".join(parts) if parts else "0"


def poset_dot(rs: RootSystem) -> str:
    """Graphviz DOT for the Hasse diagram of the root poset."""
    lines = ["digraph rootposet {", "  rankdir=BT;"]
    for i in range(rs.num_positive_roots):
        lines.append(f'  r{i} [label="{_root_name(rs, i)}"];')
    for i, j in hasse_edges(rs):
        lines.append(f"  r{i} -> r{j};")
    lines.append("}")
    return "\n".join(lines)


def root_graph_dot(rs: RootSystem) -> str:
    """Graphviz DOT for the simple-reflection graph with edge labels."""
    lines = ["graph rootgraph {"]
    for i in range(rs.num_positive_roots):
        lines.append(f'  r{i} [label="{_root_name(rs, i)}"];')
    for i, j, s in root_graph(rs):
        lines.append(f'  r{i} -- r{j} [label="a{s}"];')
    lines.append("}")
    return "\n".join(lines)


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def roots_json(rs: RootSystem) -> str:
    """JSON dump of the positive roots as exact fraction pairs."""
    payload = {
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
    return json.dumps(payload, indent=2, sort_keys=True)
