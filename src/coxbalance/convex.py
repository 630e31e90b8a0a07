"""Convex subsets of Coxeter groups and their balance constants.

A convex set is stored canonically as the element list of
``{w : D subseteq T_R(w) subseteq A}`` together with the canonical pair
D = intersection and A = union of the member inversion sets.  Inversion sets
are kept as frozensets of "root keys": positive-root indices for finite Weyl
groups, exact root coordinate vectors for generic Coxeter systems.  The two
group backends are wrapped by :class:`WeylContext` and :class:`CoxContext`.

Single sets are built by a breadth-first search inside W^A.  The exhaustive
scan over the convex order ideals of a finite Weyl group needs no search: the
distinct ideals W^A are exactly the distinct unions of inversion sets, so
:func:`enumerate_convex_ideals` enumerates the group once and closes the
inversion bitmasks under union.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import coxgen, weyl
from .linalg import neg
from .rootsys import RootSystem

CONVEX_SCAN_MAX_ROOTS = 12


class EmptyConvexSetError(ValueError):
    pass


class WeylContext:
    """Finite Weyl group backend; root keys are positive-root indices."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.rank = rs.rank

    def identity(self):
        return weyl.identity(self.root_system)

    def mul_simple_right(self, w, i: int):
        return weyl._mul_simple_right(w, i)

    def mul_simple_left(self, w, i: int):
        return weyl.multiply(weyl.simple_reflection(self.root_system, i), w)

    def mul(self, u, v):
        return weyl.multiply(u, v)

    def element_key(self, w):
        return w.action

    def simple_key(self, i: int) -> int:
        return self.root_system.simple_indices[i - 1]

    def inversion_keys(self, w) -> FrozenSet[int]:
        return weyl.inversion_set(w)

    def invert(self, w):
        return weyl.inverse(w)

    def simple_image_key(self, v, i: int):
        """Key of v(alpha_i) if that root is positive, else None."""
        a = v.action[self.root_system.simple_indices[i - 1]]
        return a - 1 if a > 0 else None

    def reduced_word(self, w) -> Tuple[int, ...]:
        return weyl.reduced_word(w)

    def from_word(self, word: Sequence[int]):
        return weyl.from_word(self.root_system, word)

    def reflection_key_of_word(self, word: Sequence[int]) -> int:
        """Positive-root index of the reflection given by a word."""
        t = self.from_word(word)
        fixed = [j for j, a in enumerate(t.action) if a == -(j + 1)]
        if t.length == 0 or len(fixed) != 1 or weyl.multiply(t, t).length != 0:
            raise ValueError("word does not describe a reflection")
        return fixed[0]

    def key_display(self, key: int) -> str:
        coeffs = self.root_system.coefficients[key]
        parts = []
        for k, c in enumerate(coeffs, start=1):
            if c:
                parts.append(f"a{k}" if c == 1 else f"{c}a{k}")
        return "+".join(parts)

    def all_keys(self) -> List[int]:
        return list(range(self.root_system.num_positive_roots))


class CoxContext:
    """Generic Coxeter system backend; root keys are exact coordinate tuples."""

    def __init__(self, system: coxgen.CoxSystem):
        self.system = system
        self.rank = system.rank

    def identity(self):
        return self.system.identity_element()

    def mul_simple_right(self, w, i: int):
        return w.mul_simple(i)

    def mul_simple_left(self, w, i: int):
        return w.left_mul_simple(i)

    def mul(self, u, v):
        w = u
        for i in v.reduced_word():
            w = w.mul_simple(i)
        return w

    def element_key(self, w):
        return w.columns

    def simple_key(self, i: int):
        return self.system.simple_root(i)

    def inversion_keys(self, w) -> FrozenSet:
        return w.inversion_roots()

    def invert(self, w):
        return w.inverse()

    def simple_image_key(self, v, i: int):
        col = v.columns[i - 1]
        if all(c >= 0 for c in col):
            return col
        return None

    def reduced_word(self, w) -> Tuple[int, ...]:
        return w.reduced_word()

    def from_word(self, word: Sequence[int]):
        return self.system.element_from_word(word)

    def reflection_key_of_word(self, word: Sequence[int]):
        t = self.from_word(word)
        candidates = [v for v in t.inversion_roots() if t.apply(v) == neg(v)]
        if len(candidates) != 1:
            raise ValueError("word does not describe a reflection")
        return candidates[0]

    def key_display(self, key) -> str:
        parts = []
        for k, c in enumerate(key, start=1):
            if c:
                parts.append(f"a{k}" if c == 1 else f"{c}a{k}")
        return "+".join(parts)


@dataclass(frozen=True)
class ConvexSet:
    """A finite convex subset with its canonical inversion-constraint pair."""

    ctx: object = field(compare=False)
    members: Tuple = field(compare=False)
    words: Tuple[Tuple[int, ...], ...]
    inv_sets: Tuple[FrozenSet, ...] = field(compare=False)
    lower: FrozenSet = field(compare=False)  # D: intersection of inversions
    upper: FrozenSet = field(compare=False)  # A: union of inversions

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w) -> bool:
        key = self.ctx.element_key(w)
        return any(self.ctx.element_key(m) == key for m in self.members)

    @property
    def canonical_upper(self) -> Tuple:
        return tuple(sorted(self.upper))

    @property
    def canonical_lower(self) -> Tuple:
        return tuple(sorted(self.lower))

    # -- statistics --------------------------------------------------------

    def inversion_count(self, key) -> int:
        return sum(1 for s in self.inv_sets if key in s)

    def inversion_fraction(self, key=None, word: Optional[Sequence[int]] = None) -> Fraction:
        """Fraction of members having the reflection as a right inversion."""
        if word is not None:
            key = self.ctx.reflection_key_of_word(word)
        return Fraction(self.inversion_count(key), len(self.members))

    def balance(self) -> Tuple[Fraction, List]:
        """Balance constant with every maximising reflection key.

        Only reflections in A (and outside D) can realise the maximum; all
        others have constant inversion fraction 0 or 1 on the set.
        """
        best = Fraction(0)
        witnesses: List = []
        n = len(self.members)
        for key in sorted(self.upper - self.lower):
            c = self.inversion_count(key)
            score = min(Fraction(c, n), Fraction(n - c, n))
            if score > best:
                best, witnesses = score, [key]
            elif score == best and score > 0:
                witnesses.append(key)
        return best, witnesses

    def balance_value(self) -> Fraction:
        return self.balance()[0]

    # -- edges and export ----------------------------------------------------

    def cayley_edges(self) -> List[Tuple[int, int, int]]:
        """Left Cayley edges inside the set, as (member_idx, member_idx, simple)."""
        index = {self.ctx.element_key(m): k for k, m in enumerate(self.members)}
        edges = []
        for k, m in enumerate(self.members):
            for i in range(1, self.ctx.rank + 1):
                m2 = self.ctx.mul_simple_left(m, i)
                k2 = index.get(self.ctx.element_key(m2))
                if k2 is not None and k < k2:
                    edges.append((k, k2, i))
        return edges

    def to_json(self) -> str:
        b, wits = self.balance()
        payload = {
            "schema": 1,
            "size": len(self.members),
            "lower": [self.ctx.key_display(k) for k in self.canonical_lower],
            "upper": [self.ctx.key_display(k) for k in self.canonical_upper],
            "balance": {"num": b.numerator, "den": b.denominator},
            "witnesses": [self.ctx.key_display(k) for k in wits],
            "elements": [" ".join(map(str, w)) for w in self.words],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["digraph weakorder {", "  rankdir=BT;"]
        for k, word in enumerate(self.words):
            label = " ".join(f"s{i}" for i in word) if word else "id"
            lines.append(f'  w{k} [label="{label}"];')
        for a, b, i in self.cayley_edges():
            lo, hi = (a, b) if len(self.words[a]) < len(self.words[b]) else (b, a)
            lines.append(f'  w{lo} -> w{hi} [label="s{i}"];')
        lines.append("}")
        return "\n".join(lines)


def _bfs_within(ctx, allowed: FrozenSet,
                cap: int = weyl.DEFAULT_ELEMENT_CAP) -> List[Tuple[object, FrozenSet]]:
    """All w with T_R(w) inside ``allowed``, as (element, inversion keys).

    Works on the inverses: v = w^{-1} satisfies T_L(v) = T_R(w), and right
    multiplication grows T_L(v s_i) = T_L(v) + {v alpha_i} whenever
    v alpha_i is positive.  That keeps the search inside the left weak-order
    ideal W^A while only ever reading off images of simple roots.
    Terminates for any group since lengths are bounded by |allowed|; the
    cap keeps runaway searches (huge groups, huge A) explicit.
    """
    start = ctx.identity()
    seen = {ctx.element_key(start)}
    out = [(start, frozenset())]
    level = [(start, frozenset())]
    while level:
        nxt = []
        for v, inv in level:
            for i in range(1, ctx.rank + 1):
                key = ctx.simple_image_key(v, i)
                if key is None or key not in allowed:
                    continue
                v2 = ctx.mul_simple_right(v, i)
                ek = ctx.element_key(v2)
                if ek not in seen:
                    seen.add(ek)
                    if len(seen) > cap:
                        raise weyl.EnumerationCapExceeded(cap)
                    nxt.append((v2, inv | {key}))
        out.extend(nxt)
        level = nxt
    return [(ctx.invert(v), inv) for v, inv in out]


def _build(ctx, pairs) -> ConvexSet:
    """Assemble a canonical ConvexSet from (element, inversion keys) pairs."""
    if not pairs:
        raise EmptyConvexSetError("the requested convex set is empty")
    decorated = sorted(
        ((ctx.reduced_word(w), w, inv) for w, inv in pairs),
        key=lambda t: (len(t[0]), t[0]),
    )
    members = tuple(t[1] for t in decorated)
    words = tuple(t[0] for t in decorated)
    invs = tuple(t[2] for t in decorated)
    lower = frozenset.intersection(*invs)
    upper = frozenset.union(*invs)
    return ConvexSet(ctx, members, words, invs, lower, upper)


def ideal_from_upper(ctx, allowed: Iterable,
                     cap: int = weyl.DEFAULT_ELEMENT_CAP) -> ConvexSet:
    """The convex order ideal W^A: every element with inversions inside A."""
    return _build(ctx, _bfs_within(ctx, frozenset(allowed), cap))


def convex_set(ctx, lower: Iterable, upper: Iterable,
               cap: int = weyl.DEFAULT_ELEMENT_CAP) -> ConvexSet:
    """The set W_D^A; raises :class:`EmptyConvexSetError` when nothing matches."""
    lower = frozenset(lower)
    upper = frozenset(upper)
    if not lower <= upper:
        raise EmptyConvexSetError("lower constraint set is not inside the upper one")
    pairs = [p for p in _bfs_within(ctx, upper, cap) if lower <= p[1]]
    return _build(ctx, pairs)


def interval_left(ctx, w) -> ConvexSet:
    """The left weak-order interval [id, w]."""
    return ideal_from_upper(ctx, ctx.inversion_keys(w))


def convex_hull(ctx, elements: Sequence) -> ConvexSet:
    """Smallest convex set containing the given elements."""
    if not elements:
        raise EmptyConvexSetError("hull of an empty element list")
    invs = [ctx.inversion_keys(w) for w in elements]
    return convex_set(ctx, frozenset.intersection(*invs), frozenset.union(*invs))


def from_members(ctx, elements: Sequence) -> ConvexSet:
    """Wrap an explicit element list, verifying it is convex."""
    invs = [ctx.inversion_keys(w) for w in elements]
    hull = convex_set(ctx, frozenset.intersection(*invs), frozenset.union(*invs))
    if len(hull) != len(elements):
        raise ValueError("element list is not convex: its hull is strictly larger")
    return hull


def translate(c: ConvexSet, w) -> ConvexSet:
    """Right translate C w, recanonicalised."""
    ctx = c.ctx
    pairs = []
    for m in c.members:
        m2 = ctx.mul(m, w)
        pairs.append((m2, ctx.inversion_keys(m2)))
    return _build(ctx, pairs)


def enumerate_convex_ideals(ctx: WeylContext) -> Iterator[ConvexSet]:
    """All distinct convex order ideals W^A of a finite Weyl group.

    The union of the inversion sets over W^A is a set A' inside A with
    W^{A'} = W^A, so the distinct ideals are exactly the distinct unions of
    inversion sets.  One pass over the group collects every element with its
    shortlex word and its inversion set as a bitmask; closing {0} under OR
    with those masks gives every union A, and W^A is the elements whose mask
    lies inside A, already in canonical (length, word) order.  Sets stream
    ordered by (|A|, sorted A); requires at most ``CONVEX_SCAN_MAX_ROOTS``
    positive roots.
    """
    n = ctx.root_system.num_positive_roots
    if n > CONVEX_SCAN_MAX_ROOTS:
        raise ValueError(
            f"{n} positive roots exceed the scan bound of {CONVEX_SCAN_MAX_ROOTS}"
        )
    masks, elements = [], []
    for w, word in weyl.all_elements(ctx.root_system):
        inv = weyl.inversion_set(w)
        masks.append(sum(1 << j for j in inv))
        elements.append((w, word, inv))
    unions = {0}
    for m in masks:
        unions |= {u | m for u in unions}
    uppers = [tuple(j for j in range(n) if (a >> j) & 1) for a in unions]
    for upper in sorted(uppers, key=lambda k: (len(k), k)):
        outside = ~sum(1 << j for j in upper)
        members, words, invs = zip(
            *(e for m, e in zip(masks, elements) if not m & outside)
        )
        yield ConvexSet(ctx, members, words, invs,
                        frozenset.intersection(*invs), frozenset(upper))


def scored_ideals(ctx: WeylContext) -> List[Tuple[Fraction, ConvexSet]]:
    """Every non-singleton convex order ideal with its balance, in scan order."""
    return [(c.balance_value(), c) for c in enumerate_convex_ideals(ctx) if len(c) > 1]


def min_balance(ctx: WeylContext) -> Tuple[Fraction, List[ConvexSet]]:
    """Minimum balance over non-singleton convex order ideals, with argmins."""
    scored = scored_ideals(ctx)
    if not scored:
        raise ValueError("no non-singleton convex ideals exist")
    best = min(b for b, _ in scored)
    return best, [c for b, c in scored if b == best]
