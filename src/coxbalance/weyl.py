"""Finite Weyl group elements as exact signed actions on the positive roots.

An element is canonically stored as the tuple ``action`` where
``action[j] = +-(k+1)`` means the element sends positive root ``j`` to
``+-`` positive root ``k``.  Equality and hashing are therefore O(#roots)
and independent of any choice of word; reduced words are derived data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from .linalg import Vector, add, scale, zero
from .rootsys import RootSystem

DEFAULT_ELEMENT_CAP = 10**6


class EnumerationCapExceeded(ValueError):
    def __init__(self, cap: int):
        super().__init__(f"group enumeration exceeded the element cap of {cap}")
        self.cap = cap


@dataclass(frozen=True)
class WeylElement:
    root_system: RootSystem = field(compare=False)
    action: Tuple[int, ...]

    def __post_init__(self):
        if len(self.action) != self.root_system.num_positive_roots:
            raise ValueError("action length does not match the root count")

    @property
    def length(self) -> int:
        return sum(1 for a in self.action if a < 0)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def apply(self, x: Vector) -> Vector:
        """Image of an ambient vector lying in the span of the simple roots."""
        rs = self.root_system
        out = zero(rs.ambient_dim)
        coeffs = tuple(
            sum(rs.coweights[i][t] * x[t] for t in range(rs.ambient_dim))
            for i in range(rs.rank)
        )
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            img = self.action[rs.simple_indices[i]]
            root = rs.positive_roots[abs(img) - 1]
            out = add(out, scale(c if img > 0 else -c, root))
        return out


def _check_same(u: WeylElement, v: WeylElement) -> None:
    if u.root_system is not v.root_system and (
        u.root_system.family != v.root_system.family
        or u.root_system.rank != v.root_system.rank
    ):
        raise ValueError("elements belong to different root systems")


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, tuple(range(1, rs.num_positive_roots + 1)))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection s_i for a 1-based simple index."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, rs._simple_action[i - 1])


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Product u v, acting as u after v on the ambient space."""
    _check_same(u, v)
    ua = u.action
    out = []
    for a in v.action:
        b = ua[abs(a) - 1]
        out.append(b if a > 0 else -b)
    return WeylElement(u.root_system, tuple(out))


def inverse(u: WeylElement) -> WeylElement:
    out = [0] * len(u.action)
    for j, a in enumerate(u.action):
        out[abs(a) - 1] = (j + 1) if a > 0 else -(j + 1)
    return WeylElement(u.root_system, tuple(out))


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Compose simple reflections left to right: word [i1, .., ik] -> s_i1 ... s_ik."""
    w = identity(rs)
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
        w = _mul_simple_right(w, i)
    return w


def _mul_simple_right(w: WeylElement, i: int) -> WeylElement:
    """w s_i, computed without building the reflection element."""
    rs = w.root_system
    wa = w.action
    row = rs._simple_action[i - 1]
    return WeylElement(rs, tuple([wa[a - 1] if a > 0 else -wa[-a - 1] for a in row]))


def inversion_set(w: WeylElement) -> FrozenSet[int]:
    """Indices of positive roots sent negative by w."""
    return frozenset(j for j, a in enumerate(w.action) if a < 0)


def right_descents(w: WeylElement) -> FrozenSet[int]:
    rs = w.root_system
    return frozenset(
        i for i in range(1, rs.rank + 1) if w.action[rs.simple_indices[i - 1]] < 0
    )


def left_descents(w: WeylElement) -> FrozenSet[int]:
    return right_descents(inverse(w))


def reduced_word(w: WeylElement) -> Tuple[int, ...]:
    """Lexicographically smallest reduced word, by greedy left-descent stripping."""
    word: List[int] = []
    while True:
        ld = left_descents(w)
        if not ld:
            return tuple(word)
        i = min(ld)
        word.append(i)
        w = multiply(simple_reflection(w.root_system, i), w)


def weak_leq(u: WeylElement, w: WeylElement, side: str = "left") -> bool:
    """Weak order comparison by inversion-set containment."""
    _check_same(u, w)
    if side == "left":
        return inversion_set(u) <= inversion_set(w)
    if side == "right":
        return inversion_set(inverse(u)) <= inversion_set(inverse(w))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def all_elements(
    rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP
) -> Iterator[Tuple[WeylElement, Tuple[int, ...]]]:
    """Every group element with its shortlex-minimal reduced word.

    Elements stream in (length, word-lex) order, one length at a time.
    Raises :class:`EnumerationCapExceeded` once more than ``cap`` elements
    have been found, after the lengths below that element were yielded.

    Lexicographically least reduced words are closed under taking suffixes,
    and the least word of v != e starts with its least left descent i.  So
    the least words form a tree rooted at e: the parent of v is s_i v, and
    s_i u is a child of u iff no k < i is a left descent of s_i u and i is
    not one of u.  Every element is reached exactly once, so no set of seen
    elements is kept.  Walking the letters i in the outer loop and a level,
    already in shortlex order, in the inner loop yields the next level in
    shortlex order with no sort.

    Each level entry is (word, v, x) with x = v^-1; the left descents of v
    are the right descents of x, so the child test reads x alone: s_i v is
    a child iff x sends alpha_i and s_i alpha_k (k < i) to positive roots.
    x is stored with signed indexing, x[a] = x(beta_a) and x[-a] = -x[a]
    for a = 1..N (x[0] = 0), and likewise each simple reflection's row; then
    x s_i and s_i v are plain table look-ups with no sign tests.
    """
    rows = rs._simple_action
    simple = rs.simple_indices

    def signed(t: Tuple[int, ...]) -> Tuple[int, ...]:
        return (0,) + t + tuple([-a for a in reversed(t)])

    # 1-based indices of alpha_i and of s_i alpha_k for k < i, in signed x
    guards = [
        (simple[i] + 1,) + tuple([abs(rows[i][simple[k]]) for k in range(i)])
        for i in range(rs.rank)
    ]
    signed_rows = [signed(row) for row in rows]
    start = tuple(range(1, rs.num_positive_roots + 1))
    level = [((), start, signed(start))]
    count = 1
    while level:
        for word, v, _ in level:
            yield WeylElement(rs, v), word
        nxt = []
        for i, row in enumerate(signed_rows):
            left = row.__getitem__  # s_i v, mapping v's values
            right = itemgetter(*row)  # x s_i, permuting x's entries
            guard = guards[i]
            letter = (i + 1,)
            for word, v, x in level:
                for g in guard:
                    if x[g] < 0:
                        break
                else:
                    count += 1
                    if count > cap:
                        raise EnumerationCapExceeded(cap)
                    nxt.append((letter + word, tuple(map(left, v)), right(x)))
        level = nxt


def group_order(rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    return sum(1 for _ in all_elements(rs, cap))


def longest_element(rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP) -> WeylElement:
    """The unique element whose inversion set is all of the positive roots."""
    last = None
    for w, _ in all_elements(rs, cap):
        last = w
    assert last is not None
    return last


def one_line(w: WeylElement) -> Tuple[int, ...]:
    """One-line notation for a type A element, as a permutation of 1..n.

    w(e_1 - e_{j+1}) = e_{pi(1)} - e_{pi(j+1)} is read off the signed action:
    its doubled coordinates are 2 at position pi(1) and -2 at pi(j+1).
    """
    rs = w.root_system
    if rs.family != "A":
        raise ValueError("one-line notation is defined for type A only")
    n = rs.rank + 1
    perm = [0] * n
    for j in range(1, n):
        img = w.action[rs._doubled_index[(2,) + (0,) * (j - 1) + (-2,) + (0,) * (n - j - 1)]]
        d = [x if img > 0 else -x for x in rs._doubled[abs(img) - 1]]
        perm[0], perm[j] = d.index(2) + 1, d.index(-2) + 1
    return tuple(perm)
