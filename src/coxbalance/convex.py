"""Convex subsets of Coxeter groups and their balance constants.

A convex set is stored canonically as the element list of
``{w : D subseteq T_R(w) subseteq A}`` together with the canonical pair
D = intersection and A = union of the member inversion sets.  A set of
roots is an int bitmask of the root keys of a group object, a
``weyl.WeylContext`` (finite Weyl type) or ``coxgen.CoxSystem`` (diagram),
so D and A are the AND and OR of the members' masks; keys are listed in
``key_order``.  An element is a tuple that is its own key, so members are
hashed and compared directly.

Single sets, and every set of a diagram, come from :func:`pruned_walk`, a
walk of the shortlex tree pruned to W^A by its child test (``verify``
prunes it to the fully commutative elements).  Scans over many sets W^A of
one finite Weyl group join the byte codes of ``weyl.all_elements`` into
one ``bytes`` string, a row of N bytes per element in shortlex order, and
read it by columns with no element decoded: :func:`code_rows` gives the
int bitset of the rows whose byte k a table maps to ``"1"``, and column j,
the rows inverting root j, is that of the bytes of negative roots.  W^A =
{w : N(w) inside A}, so its rows are M(A), the AND of the complemented
columns of the roots outside A: :func:`ideal_rows` gives M(A) for each
requested A (the generalized semiorders of ``semiorder``).  In
:func:`enumerate_convex_ideals` the distinct convex order ideals are the
closed sets of the columns, and NextClosure lists each once with its M.
Each M is scored with no set built: the balance by popcounts of ANDs of
columns, and in ``alcove`` the geometry witnesses by plane sums, whose
sums over the members are popcounts of M against bit planes of the codes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from operator import and_, or_
from typing import Callable, Iterator, List, Sequence, Tuple

from . import coxgen, weyl
from .linalg import bits
from .weyl import WeylContext

CONVEX_SCAN_MAX_ROOTS = 12


class EmptyConvexSetError(ValueError):
    pass


def listed_keys(ctx, mask: int) -> Tuple[int, ...]:
    """The root keys of a mask in the group object's ``key_order``."""
    return tuple(sorted(bits(mask), key=ctx.key_order))


class ConvexSet:
    """A finite convex subset with its canonical inversion-constraint pair."""

    def __init__(self, ctx, members: Tuple, words: Tuple[Tuple[int, ...], ...],
                 masks: Tuple[int, ...], lower: int, upper: int):
        self.ctx = ctx
        self.members = members
        self.words = words
        self.masks = masks  # inversion set of each member
        self.lower = lower  # D: AND of the masks
        self.upper = upper  # A: OR of the masks

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w) -> bool:
        return w in self.members

    @property
    def canonical_upper(self) -> Tuple[int, ...]:
        return listed_keys(self.ctx, self.upper)

    @property
    def canonical_lower(self) -> Tuple[int, ...]:
        return listed_keys(self.ctx, self.lower)

    # -- statistics --------------------------------------------------------

    def inversion_count(self, key: int) -> int:
        bit = 1 << key
        return len([m for m in self.masks if m & bit])

    def inversion_fraction(self, key) -> Fraction:
        """Fraction of members having the reflection ``key`` as a right inversion."""
        return Fraction(self.inversion_count(key), len(self.members))

    def balance(self) -> Tuple[Fraction, List]:
        """Balance constant with every maximising reflection key, in listing order.

        Only reflections in A (and outside D) can realise the maximum; all
        others have constant inversion fraction 0 or 1 on the set.
        """
        best = 0
        witnesses: List = []
        n = len(self.members)
        for key in bits(self.upper & ~self.lower):
            c = self.inversion_count(key)
            score = min(c, n - c)
            if score > best:
                best, witnesses = score, [key]
            elif score == best and score > 0:
                witnesses.append(key)
        return Fraction(best, n), sorted(witnesses, key=self.ctx.key_order)

    def balance_value(self) -> Fraction:
        return self.balance()[0]

    # -- edges and export ----------------------------------------------------

    def cayley_edges(self) -> List[Tuple[int, int, int]]:
        """Left Cayley edges inside the set, as (member_idx, member_idx, simple)."""
        index = {m: k for k, m in enumerate(self.members)}
        edges = []
        for k, m in enumerate(self.members):
            for i in range(1, self.ctx.rank + 1):
                m2 = self.ctx.mul_simple_left(m, i)
                k2 = index.get(m2)
                if k2 is not None and k < k2:
                    edges.append((k, k2, i))
        return edges

    def to_json(self) -> dict:
        """The set's JSON payload, as a dict for ``json.dumps``."""
        b, wits = self.balance()
        return {
            "schema": 1,
            "size": len(self.members),
            "lower": [self.ctx.key_display(k) for k in self.canonical_lower],
            "upper": [self.ctx.key_display(k) for k in self.canonical_upper],
            "balance": {"num": b.numerator, "den": b.denominator},
            "witnesses": [self.ctx.key_display(k) for k in wits],
            "elements": [" ".join(map(str, w)) for w in self.words],
        }

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


def pruned_walk(ctx, keep) -> List[Tuple]:
    """(w, shortlex word, inversion mask) for each w of the shortlex tree
    that the child test ``keep`` leaves, in (length, word) order.

    An entry is (v, row) with v = w^-1, and T_L(v s_i) = T_L(v) + {v alpha_i}
    when v alpha_i > 0, so s_i w is longer; ``keep(key, word)`` then gets
    the key of v alpha_i and the word of s_i w, before the product, and
    s_i w is a tree child iff i is the least right descent of v s_i.  A
    child left out takes its subtree with it, so the kept set must hold
    the tree parents of its members, as W^A and the fully commutative
    elements do.  The cap is ``weyl.DEFAULT_ELEMENT_CAP`` members.
    """

    def extend(i, block):
        for v, (w, word, inv) in block:
            key = ctx.simple_image_key(v, i)
            if key is not None and keep(key, child := (i,) + word):
                v2 = ctx.mul_simple_right(v, i)
                if ctx.descent(v2) == i:
                    yield v2, (ctx.mul_simple_left(w, i), child, inv | 1 << key)

    e = ctx.identity()
    walk = coxgen.shortlex_levels(ctx.coxeter, (e, (e, (), 0)), extend, weyl.DEFAULT_ELEMENT_CAP)
    return [row for level in walk for block in level for _, row in block]


def _build(ctx, rows) -> ConvexSet:
    """The ConvexSet of (element, word, inversion mask) rows, in their order."""
    if not rows:
        raise EmptyConvexSetError("the requested convex set is empty")
    members, words, masks = zip(*rows)
    return ConvexSet(ctx, members, words, masks, reduce(and_, masks), reduce(or_, masks))


def ideal_from_upper(ctx, allowed: int) -> ConvexSet:
    """The convex order ideal W^A: every element with inversions inside the mask A."""
    return _build(ctx, pruned_walk(ctx, lambda key, word: allowed >> key & 1))


def convex_set(ctx, lower: int, upper: int) -> ConvexSet:
    """W_D^A for masks D and A; raises :class:`EmptyConvexSetError` if it is empty."""
    if lower & ~upper:
        raise EmptyConvexSetError("lower constraint set is not inside the upper one")
    rows = pruned_walk(ctx, lambda key, word: upper >> key & 1)
    return _build(ctx, [row for row in rows if row[2] & lower == lower])


def interval_left(ctx, w) -> ConvexSet:
    """The left weak-order interval [id, w]."""
    return ideal_from_upper(ctx, ctx.inversion_mask(w))


def convex_hull(ctx, elements: Sequence) -> ConvexSet:
    """Smallest convex set containing the given elements."""
    if not elements:
        raise EmptyConvexSetError("hull of an empty element list")
    masks = [ctx.inversion_mask(w) for w in elements]
    return convex_set(ctx, reduce(and_, masks), reduce(or_, masks))


def from_members(ctx, elements: Sequence) -> ConvexSet:
    """Wrap an explicit element list, verifying it is convex."""
    hull = convex_hull(ctx, elements)
    if len(hull) != len(set(elements)):
        raise ValueError("element list is not convex: its hull is strictly larger")
    return hull


# Per byte of a code, "1" iff it stands for a negative root: an inversion.
_INVERTED = bytes(49 if weyl.code_entry(c) < 0 else 48 for c in range(256))


def code_rows(codes: bytes, n: int, k: int, digits: bytes) -> int:
    """The int bitset of the rows of ``codes``, N = ``n`` bytes each, whose
    byte k the translation table ``digits`` maps to ``"1"``; it must map
    every other byte that occurs there to ``"0"``.  Row r is bit r, so the
    digits are read in reverse."""
    return int(codes[k::n].translate(digits)[::-1], 2)


def _scan_columns(ctx: WeylContext) -> Tuple[bytes, List[int]]:
    """The group's codes joined in shortlex order, and its root columns:
    column j is the int bitset of the rows whose inversion set holds root j."""
    n = ctx.root_system.num_positive_roots
    codes = b"".join(weyl.all_elements(ctx.root_system))
    return codes, [code_rows(codes, n, j, _INVERTED) for j in range(n)]


def ideal_rows(ctx: WeylContext, uppers: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The root columns of the scan's rows, and for each root bitmask A of
    ``uppers`` the int bitset M(A) of the rows of W^A = {w : N(w) inside
    A}: the AND of the complemented columns of the roots outside A."""
    codes, columns = _scan_columns(ctx)
    n = len(columns)
    every = (1 << len(codes) // n) - 1
    return columns, [reduce(and_, (~columns[j] for j in bits((1 << n) - 1 & ~upper)), every)
                     for upper in uppers]


def _popcount_balance(columns: Sequence[int], members: int, upper: int) -> Fraction:
    """Balance of the table rows ``members``, whose inversions lie inside
    ``upper``: root j is an inversion of ``(members & columns[j]).bit_count()``
    of them, and a root outside ``upper`` of none."""
    n = members.bit_count()
    best = 0
    for j in bits(upper):
        c = (members & columns[j]).bit_count()
        if c > best and n - c > best:
            best = min(c, n - c)
    return Fraction(best, n)


def balance_scorer(codes: bytes, columns: Sequence[int]) -> Callable[[int, int], Fraction]:
    """The scorer of :func:`enumerate_convex_ideals` that gives each set's
    balance; it reads the columns only."""
    return partial(_popcount_balance, columns)


def _closed_ideals(columns: Sequence[int], rows: int) -> Iterator[Tuple[int, int]]:
    """(A, M) for each distinct W^A of a scan of ``rows`` rows with these
    root columns, in NextClosure order; M is the int bitset of W^A's rows.

    For a set Y of roots, M(Y), the AND over Y of the complemented columns,
    is the rows that avoid Y, and c(Y) = {j : M(Y) & column j = 0} is a
    closure operator.  Y is closed iff A, the roots outside Y, is the union
    of the inversion sets of W^A = M(Y), so each distinct W^A is one closed
    Y.  NextClosure (Ganter, 1984) steps from a closed Y to the next in
    lectic order: c(Y below i, plus i) for the largest root i outside Y
    whose closure adds no root below i.  It keeps M of Y's roots below each
    k as ``prefix[k]``, so a candidate costs one AND and a test per root.
    """
    n = len(columns)
    roots = (1 << n) - 1
    prefix = [(1 << rows) - 1] * (n + 1)
    closed = 0  # c(0) is empty: the longest element inverts every root
    start = 0  # prefix[k] is stale for k > start
    while True:
        for k in range(start, n):
            m = prefix[k]
            prefix[k + 1] = m & ~columns[k] if closed >> k & 1 else m
        yield roots & ~closed, prefix[n]
        for i in reversed(range(n)):
            bit = 1 << i
            if closed & bit:
                closed ^= bit
                continue
            m = prefix[i] & ~columns[i]
            if all(m & columns[j] for j in bits(bit - 1 & ~closed)):
                closed |= bit | sum(1 << j for j in range(i + 1, n) if not m & columns[j])
                start = i
                break
        else:
            return


def enumerate_convex_ideals(ctx: WeylContext, scorer) -> Iterator[Tuple[int, object]]:
    """(A, score) for every distinct convex order ideal W^A of a finite
    Weyl group, A being the union of the members' inversion sets.

    One pass over the group gives its joined codes and an int bitset per
    root column, and the distinct W^A are the closed sets of the columns,
    which NextClosure lists once each (see :func:`_closed_ideals`).  A
    set's members are the bits M of one int, so its size and each root's
    inversion count are popcounts.  ``scorer(codes, columns)`` is called
    once, after the walk, and its result ``score(M, A)`` gives each set's
    score, with no set built (:func:`balance_scorer`, or the alcove
    witnesses on bit planes of the same codes).  Sets stream ordered by
    (|A|, sorted A); requires at most ``CONVEX_SCAN_MAX_ROOTS`` positive
    roots, checked before the walk.  In lectic order the earlier of two
    closed sets lacks the least root where they differ, so its A holds it:
    sets of one size already come by sorted A, and a stable sort by |A|
    gives the scan order.
    """
    n = ctx.root_system.num_positive_roots
    if n > CONVEX_SCAN_MAX_ROOTS:
        raise ValueError(
            f"{n} positive roots exceed the scan bound of {CONVEX_SCAN_MAX_ROOTS}"
        )
    codes, columns = _scan_columns(ctx)
    score = scorer(codes, columns)
    for upper, members in sorted(_closed_ideals(columns, len(codes) // n),
                                 key=lambda s: s[0].bit_count()):
        yield upper, score(members, upper)


def scored_ideals(ctx: WeylContext) -> List[Tuple[Fraction, int]]:
    """(balance, A) for every convex order ideal W^A but {e} (A = 0), in scan order."""
    return [(b, upper) for upper, b in enumerate_convex_ideals(ctx, balance_scorer) if upper]
