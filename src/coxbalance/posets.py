"""Finite posets with optional generator labels: heaps, order ideals, balance.

A poset on ids 0..n-1 keeps its order relation as one bitmask row per
element, bit j of row i set iff i <= j, as the root posets of
:mod:`rootsys` do.  :func:`walk_order_ideals` is the package's one
order-ideal walker: it runs along a given linear extension and serves both
these posets and the root posets (:func:`rootsys.iter_ideal_masks`).  It
yields each ideal as a sum of per-element weights, each equal to the
element's bit modulo 2^n, so the low n bits of a sum are the ideal's mask
and the high bits can carry counters (``semiorder.scan_exit_witnesses``);
unit weights give the bare masks.  Every walk stops at a cap: a poset's at
:data:`IDEAL_CAP`, read when the walk starts, with no per-call override.

The central statistics are the fraction of order ideals containing a given
element and the derived balance number, both exact rationals.  Heaps are
built from reduced words of a Coxeter system in one pass over the word
(:func:`heap_rows`), or from the heap of word[1:] by putting word[0] on top
(:func:`grow_heap_rows`), and carry the word positions 0..l-1 as element ids,
labelled by their generator indices; ``coxgen.is_fully_commutative`` reads
the rows with no poset built.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .linalg import bits

# Most order ideals one walk may visit.  The campaigns walk at most 96 (the
# claw(6, 32) poset of ``verify equality``) and the tests at most 2^16 (a
# 16-element antichain).  ``heap`` on a 40-letter antichain stops at this
# cap after 1.4 s (2-vCPU Intel Xeon, Python 3.11.7).
IDEAL_CAP = 2 ** 18


class IdealCapExceeded(ValueError):
    def __init__(self, cap: int):
        super().__init__(f"poset has more than {cap} order ideals, the enumeration cap")
        self.cap = cap


class PosetSizeError(ValueError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"poset has {n} elements, above the enumeration cap of {cap}")
        self.n = n
        self.cap = cap


class LabeledPoset:
    """Finite poset on ids 0..n-1 with an optional generator label per element.

    ``rows`` is the reflexive order relation, one bitmask per element: bit j
    of rows[i] is set iff i <= j.
    """

    def __init__(self, n: int, rows: Tuple[int, ...],
                 labels: Optional[Tuple[int, ...]] = None):
        self.n = n
        self.rows = rows
        self.labels = labels
        full = (1 << n) - 1
        if len(rows) != n or any(row & ~full for row in rows):
            raise ValueError("rows must be n bitmasks over the n elements")
        for i, row in enumerate(rows):
            if not (row >> i) & 1:
                raise ValueError("relation must be reflexive")
            for j in bits(row & ~(1 << i)):
                if (rows[j] >> i) & 1:
                    raise ValueError("relation must be antisymmetric")
                if rows[j] & ~row:
                    raise ValueError("relation must be transitive")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal n")

    def __eq__(self, other):
        return (isinstance(other, LabeledPoset)
                and (self.n, self.rows, self.labels) == (other.n, other.rows, other.labels))

    def __hash__(self):
        return hash((self.n, self.rows, self.labels))

    # -- structure ----------------------------------------------------------

    @cached_property
    def _cover_masks(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Lower and upper cover bitmasks of each element."""
        # j covers i iff j lies above i but above no element strictly above i.
        above = [row & ~(1 << i) for i, row in enumerate(self.rows)]
        upper = []
        for a in above:
            cover = a
            for k in bits(a):
                cover &= ~above[k]
            upper.append(cover)
        return _transpose(upper), tuple(upper)

    def covers(self) -> List[Tuple[int, int]]:
        """Pairs (i, j) with j covering i (transitive reduction)."""
        return [(i, j) for i, u in enumerate(self._cover_masks[1]) for j in bits(u)]

    def components(self) -> List[List[int]]:
        """Connected components of the comparability graph, sorted."""
        below = _transpose(self.rows)
        seen = 0
        comps = []
        for start in range(self.n):
            if (seen >> start) & 1:
                continue
            comp = 1 << start
            stack = [start]
            while stack:
                i = stack.pop()
                new = (self.rows[i] | below[i]) & ~comp
                comp |= new
                stack.extend(bits(new))
            seen |= comp
            comps.append(list(bits(comp)))
        return comps

    def restrict(self, ids: Sequence[int]) -> "LabeledPoset":
        ids = list(ids)
        rows = tuple(
            sum(1 << k for k, j in enumerate(ids) if (self.rows[i] >> j) & 1) for i in ids
        )
        labels = tuple(self.labels[i] for i in ids) if self.labels is not None else None
        return LabeledPoset(len(ids), rows, labels)

    # -- order ideals ---------------------------------------------------------

    def iter_ideal_masks(self) -> Iterator[int]:
        """Every order ideal as a bitmask over element ids, each exactly once.

        Walks along the linear extension that sorts the elements by the
        number of elements below them, then by id.  Raises
        :class:`IdealCapExceeded` when a further ideal follows the
        ``IDEAL_CAP``-th one.
        """
        lower, upper = self._cover_masks
        below = _transpose(self.rows)
        order = sorted(range(self.n), key=lambda i: (below[i].bit_count(), i))
        units = [1 << x for x in range(self.n)]
        return walk_order_ideals(order, lower, upper, units, IDEAL_CAP)

    def ideal_count(self) -> int:
        return sum(1 for _ in self.iter_ideal_masks())

    def _ideal_counts(self) -> Tuple[int, List[int]]:
        """The number of order ideals and, per element, the number holding it."""
        counts = [0] * self.n
        total = 0
        for mask in self.iter_ideal_masks():
            total += 1
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        return total, counts

    def ideal_statistics(self) -> Tuple[int, List[Fraction]]:
        """The number of order ideals and, for each element, the exact
        fraction of them that contain it, from one walk."""
        total, counts = self._ideal_counts()
        return total, [Fraction(c, total) for c in counts]

    def balance(self) -> Fraction:
        """max over elements of min(fraction, 1 - fraction); 0 for the empty poset."""
        total, counts = self._ideal_counts()
        return Fraction(max((min(c, total - c) for c in counts), default=0), total)


def _transpose(rows: Sequence[int]) -> Tuple[int, ...]:
    """The rows of the dual relation: bit i of out[j] is bit j of rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def walk_order_ideals(order: Sequence[int], lower: Sequence[int], upper: Sequence[int],
                      weight: Sequence[int], cap: int) -> Iterator[int]:
    """Every order ideal I of a finite poset, each exactly once, as the sum of
    ``weight[x]`` over the elements x of I.

    ``order`` is a linear extension, the element ids with each one after
    every element below it; ``lower[x]`` and ``upper[x]`` are the bitmasks
    of the lower and upper covers of element x.  Each ``weight[x]`` must
    equal ``1 << x`` modulo 2^n, for n elements, or ``ValueError`` is raised
    at the first ``next()``.  The low n bits of every sum are then the
    bitmask of I over the element ids, even for a negative sum, and the rest
    is the sum of the weights' high parts: unit weights ``1 << x`` give the
    bare masks.  Raises :class:`IdealCapExceeded` when a further ideal
    follows the ``cap``-th one.

    Depth first, each ideal extended only by elements after its last one in
    ``order``, on an explicit stack, so no recursion limit applies.  Each
    stack entry carries ``cand``, the positions in ``order`` of the elements
    addable to its ideal after the last one added.  A child adding the
    element at position p keeps the bits of ``cand`` above p and gains the
    upper covers of that element whose lower covers now all lie in the
    ideal; no other element changes status.  The child's sum is the
    parent's plus ``weight[x]``, whose low bits add x's bit to the mask,
    since x is not yet in it.
    """
    n = len(order)
    full = (1 << n) - 1
    if len(weight) != n or any(w & full != 1 << x for x, w in enumerate(weight)):
        raise ValueError(f"each weight[x] must equal 1 << x modulo 2^{n}")
    pos = [0] * n
    for p, x in enumerate(order):
        pos[x] = p
    # per position: the weight of its element, and the position bit and
    # lower covers of each of that element's upper covers
    step = [(weight[x], [(1 << pos[y], lower[y]) for y in bits(upper[x])]) for x in order]
    stack = [(0, sum(1 << p for p, x in enumerate(order) if not lower[x]))]
    # one pass per ideal, at most ``cap`` of them
    for _ in range(cap):
        if not stack:
            return
        total, cand = stack.pop()
        yield total
        later = 0
        # last position first, so that the children pop in increasing order
        while cand:
            p = cand.bit_length() - 1
            pbit = 1 << p
            cand ^= pbit
            xweight, grow = step[p]
            child = total + xweight
            new = later
            for ybit, ylower in grow:
                # ylower has bits below n only, so this reads the mask
                if ylower & child == ylower:
                    new |= ybit
            stack.append((child, new))
            later |= pbit
    if stack:
        raise IdealCapExceeded(cap)


def fraction_balance(fractions: Sequence[Fraction]) -> Fraction:
    """max over the fractions d of min(d, 1 - d); 0 for no fractions."""
    return max((min(d, 1 - d) for d in fractions), default=Fraction(0))


def poset_from_covers(n: int, covers: Sequence[Tuple[int, int]]) -> LabeledPoset:
    """Build a poset as the reflexive-transitive closure of pairs (i, j),
    each meaning i <= j.  The pairs need not be covers, nor have i < j."""
    rows = [1 << i for i in range(n)]
    for i, j in covers:
        rows[i] |= 1 << j
    # Warshall's closure, one bitmask row per element
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return LabeledPoset(n, tuple(rows))


# -- heaps --------------------------------------------------------------------


def heap_rows(sys, word: Sequence[int]) -> Tuple[int, ...]:
    """The order rows of the heap of a reduced word, as in :class:`LabeledPoset`:
    position j below position k iff j > k is forced; later letters sit lower.

    A word that is not reduced raises ``coxgen.NotReducedError``.  Equal
    letters form a chain, so the row of j is its own bit ORed with the rows
    of the last earlier position of each letter that equals word[j] or does
    not commute with it.
    """
    sys.check_reduced(word)
    rows: List[int] = []
    last: Dict[int, int] = {}  # letter -> its last position so far
    for j, a in enumerate(word):
        row = 1 << j
        for b, k in last.items():
            if sys.coxeter_m(a, b) != 2:
                row |= rows[k]
        rows.append(row)
        last[a] = j
    return tuple(rows)


def grow_heap_rows(sys, word: Sequence[int], below: Tuple[int, ...]) -> Tuple[int, ...]:
    """The heap rows of a reduced word from ``below``, the rows of word[1:].

    The new letter i = word[0] sits at the top, as position 0, and every
    other position moves down by one.  Position 0 lies above position q + 1
    iff some position at or above q in the heap of word[1:] holds i or a
    letter that does not commute with i: those positions are ``touch``.
    """
    m = sys.coxeter[word[0] - 1]
    touch = 0
    for q, a in enumerate(word[1:]):
        if m[a - 1] != 2:
            touch |= 1 << q
    return (1,) + tuple(r << 1 | (1 if r & touch else 0) for r in below)


def heap_from_word(sys, word: Sequence[int]) -> LabeledPoset:
    """Heap of a reduced word on the rows of :func:`heap_rows`, its element
    ids the 0-based word positions and the element at position p labelled
    word[p].  For fully commutative words it depends only on the element."""
    return LabeledPoset(len(word), heap_rows(sys, word), tuple(word))


def claw_chain(k: int, length: int) -> LabeledPoset:
    """k minimal elements all covered by the bottom of a chain of ``length`` elements.

    Ids 0..k-1 are the minimal elements, ids k..k+length-1 the chain bottom-up.
    The ideal count is 2**k + length.
    """
    if k < 1 or length < 1:
        raise ValueError("claw_chain requires k >= 1 and length >= 1")
    covers = [(i, k) for i in range(k)]
    covers += [(k + t, k + t + 1) for t in range(length - 1)]
    return poset_from_covers(k + length, covers)


def is_isomorphic(p1: LabeledPoset, p2: LabeledPoset) -> bool:
    """Isomorphism of the underlying posets, labels ignored, by invariant
    refinement plus backtracking (n <= 12)."""
    if p1.n != p2.n:
        return False
    if p1.n > 12:
        raise PosetSizeError(p1.n, 12)

    def profiles(p: LabeledPoset):
        below = _transpose(p.rows)
        lower, upper = p._cover_masks
        return [
            (below[x].bit_count(), p.rows[x].bit_count(), lower[x].bit_count(),
             upper[x].bit_count())
            for x in range(p.n)
        ]

    prof1 = profiles(p1)
    prof2 = profiles(p2)
    rows1, rows2 = p1.rows, p2.rows
    if sorted(prof1) != sorted(prof2):
        return False

    # depth first over the images of 0, 1, ..., on an explicit stack, so a
    # call leaves no reference cycle for the collector
    n = p1.n
    assign: List[int] = []  # assign[x] is the image of x
    y = 0  # the next candidate image of x = len(assign)
    while len(assign) < n:
        x = len(assign)
        while y < n and (y in assign or prof2[y] != prof1[x] or any(
                (rows1[x] >> x0) & 1 != (rows2[y] >> y0) & 1
                or (rows1[x0] >> x) & 1 != (rows2[y0] >> y) & 1
                for x0, y0 in enumerate(assign))):
            y += 1
        if y < n:
            assign.append(y)
            y = 0
        elif assign:
            y = assign.pop() + 1
        else:
            return False
    return True


# -- exports --------------------------------------------------------------------


def poset_dot(poset: LabeledPoset) -> str:
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(poset.n):
        if poset.labels is not None:
            lines.append(f'  p{i} [label="s{poset.labels[i]}"];')
        else:
            lines.append(f'  p{i} [label="{i}"];')
    for i, j in poset.covers():
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines)


def poset_json(poset: LabeledPoset) -> dict:
    """The poset's JSON payload, as a dict for ``json.dumps``."""
    return {
        "schema": 1,
        "n": poset.n,
        "covers": sorted(poset.covers()),
        "labels": list(poset.labels) if poset.labels is not None else None,
    }
