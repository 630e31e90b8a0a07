"""Finite posets with optional generator labels: heaps, order ideals, balance.

The central statistics are the fraction of order ideals containing a given
element and the derived balance number, both exact rationals.  Heaps are
built from reduced words of a Coxeter system and carry the word positions
1..l as element ids, labelled by their generator indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coxgen import NotReducedError

IDEAL_ELEMENT_CAP = 40


class PosetSizeError(ValueError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"poset has {n} elements, above the enumeration cap of {cap}")
        self.n = n
        self.cap = cap


@dataclass(frozen=True)
class LabeledPoset:
    """Finite poset on ids 0..n-1 with an optional generator label per element.

    ``leq`` is the full reflexive order relation as row tuples of booleans:
    leq[i][j] True iff i <= j.
    """

    n: int
    leq: Tuple[Tuple[bool, ...], ...]
    labels: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if len(self.leq) != self.n or any(len(r) != self.n for r in self.leq):
            raise ValueError("leq must be an n x n table")
        for i in range(self.n):
            if not self.leq[i][i]:
                raise ValueError("relation must be reflexive")
            for j in range(self.n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ValueError("relation must be antisymmetric")
                if self.leq[i][j]:
                    for k in range(self.n):
                        if self.leq[j][k] and not self.leq[i][k]:
                            raise ValueError("relation must be transitive")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")

    # -- structure ----------------------------------------------------------

    def covers(self) -> List[Tuple[int, int]]:
        """Pairs (i, j) with j covering i (transitive reduction)."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if i == j or not self.leq[i][j]:
                    continue
                if not any(
                    self.leq[i][k] and self.leq[k][j]
                    for k in range(self.n)
                    if k != i and k != j
                ):
                    out.append((i, j))
        return out

    def upper_covers(self, x: int) -> List[int]:
        return [j for i, j in self.covers() if i == x]

    def lower_covers(self, x: int) -> List[int]:
        return [i for i, j in self.covers() if j == x]

    def dual(self) -> "LabeledPoset":
        return LabeledPoset(
            self.n,
            tuple(tuple(self.leq[j][i] for j in range(self.n)) for i in range(self.n)),
            self.labels,
        )

    def components(self) -> List[List[int]]:
        """Connected components of the comparability graph, sorted."""
        seen = set()
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(self.n):
                    if j not in comp and (self.leq[i][j] or self.leq[j][i]):
                        comp.add(j)
                        stack.append(j)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    def restrict(self, ids: Sequence[int]) -> "LabeledPoset":
        ids = list(ids)
        sub = tuple(tuple(self.leq[i][j] for j in ids) for i in ids)
        labels = tuple(self.labels[i] for i in ids) if self.labels is not None else None
        return LabeledPoset(len(ids), sub, labels)

    # -- order ideals ---------------------------------------------------------

    def _linear_extension(self) -> List[int]:
        order = sorted(range(self.n), key=lambda i: (sum(self.leq[j][i] for j in range(self.n)), i))
        return order

    def iter_ideal_masks(self, cap: Optional[int] = IDEAL_ELEMENT_CAP) -> Iterator[int]:
        """Every order ideal as a bitmask over element ids, each exactly once."""
        if cap is not None and self.n > cap:
            raise PosetSizeError(self.n, cap)
        topo = self._linear_extension()
        cover_down = [0] * self.n
        for i, j in self.covers():
            cover_down[j] |= 1 << i

        def walk(mask: int, start: int) -> Iterator[int]:
            yield mask
            for p in range(start, self.n):
                x = topo[p]
                if not (mask >> x) & 1 and (cover_down[x] & mask) == cover_down[x]:
                    yield from walk(mask | (1 << x), p + 1)

        yield from walk(0, 0)

    def order_ideals(self, cap: Optional[int] = IDEAL_ELEMENT_CAP) -> Iterator[frozenset]:
        for mask in self.iter_ideal_masks(cap):
            yield frozenset(i for i in range(self.n) if (mask >> i) & 1)

    def ideal_count(self, cap: Optional[int] = IDEAL_ELEMENT_CAP) -> int:
        return sum(1 for _ in self.iter_ideal_masks(cap))

    def ideal_fractions(self) -> List[Fraction]:
        """For each element, the exact fraction of order ideals containing it."""
        counts = [0] * self.n
        total = 0
        for mask in self.iter_ideal_masks():
            total += 1
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        return [Fraction(c, total) for c in counts]

    def ideal_fraction(self, x: int) -> Fraction:
        return self.ideal_fractions()[x]

    def balance(self) -> Fraction:
        """max over elements of min(fraction, 1 - fraction); 0 for the empty poset."""
        if self.n == 0:
            return Fraction(0)
        return max(min(d, 1 - d) for d in self.ideal_fractions())

    def linear_extension_count(self) -> int:
        """Brute-force count of order-preserving bijections onto 1..n (n <= 8)."""
        if self.n > 8:
            raise PosetSizeError(self.n, 8)
        count = 0
        for perm in permutations(range(self.n)):
            # perm[k] = element placed at position k
            pos = [0] * self.n
            for k, x in enumerate(perm):
                pos[x] = k
            if all(
                pos[i] <= pos[j]
                for i in range(self.n)
                for j in range(self.n)
                if self.leq[i][j]
            ):
                count += 1
        return count


def poset_from_covers(n: int, covers: Sequence[Tuple[int, int]],
                      labels: Optional[Sequence[int]] = None) -> LabeledPoset:
    """Build a poset as the reflexive-transitive closure of cover pairs (i < j)."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in covers:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return LabeledPoset(
        n,
        tuple(tuple(row) for row in leq),
        tuple(labels) if labels is not None else None,
    )


# -- heaps --------------------------------------------------------------------


def heap_from_word(sys, word: Sequence[int]) -> LabeledPoset:
    """Heap of a reduced word: position j below position k iff j > k is forced.

    Element ids are 0-based word positions; later letters sit lower.  The
    element at position p carries label word[p].  For fully commutative
    words the result only depends on the element.
    """
    if sys.word_length(word) != len(word):
        raise NotReducedError(word)
    n = len(word)
    covers = []
    for j in range(n):
        for k in range(j):
            if sys.coxeter_m(word[j], word[k]) != 2:
                covers.append((j, k))  # position j (later) lies below position k
    return poset_from_covers(n, covers, labels=tuple(word))


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


def heap_inversion_map(sys, word: Sequence[int]) -> List[Tuple[object, int]]:
    """Pair each right inversion of a fully commutative element with its heap id.

    Returns [(root, position)] where ``root`` is the inversion root
    s_{i_l}...s_{i_{k+1}} alpha_{i_k} and ``position`` is the 0-based heap
    element it corresponds to.  Rejects non-fully-commutative words.
    """
    from .coxgen import inversion_roots_of_word, is_fully_commutative

    if not is_fully_commutative(sys, word):
        raise ValueError("element is not fully commutative")
    roots = inversion_roots_of_word(sys, word)
    return [(roots[k], k) for k in range(len(word))]


# -- checks -------------------------------------------------------------------


def heap_respects_diagram(poset: LabeledPoset, sys) -> bool:
    """Cover labels are adjacent in the diagram; equal-or-adjacent labels compare.

    The two defining compatibilities of heaps with their Coxeter diagram.
    """
    if poset.labels is None:
        raise ValueError("needs a labelled poset")
    for i, j in poset.covers():
        m = sys.coxeter_m(poset.labels[i], poset.labels[j])
        if m == 2 or m == 1:
            return False
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            m = sys.coxeter_m(poset.labels[i], poset.labels[j])
            if m != 2 and not (poset.leq[i][j] or poset.leq[j][i]):
                return False
    return True


def branching_balance_check(poset: LabeledPoset) -> bool:
    """Low-balance posets must branch at the frontier elements.

    If the balance is below 1/3, every maximal element among those with ideal
    fraction > 2/3 must have at least two upper covers, and dually.  Posets
    with balance >= 1/3 pass vacuously.
    """
    third = Fraction(1, 3)
    if poset.n == 0 or poset.balance() >= third:
        return True
    fr = poset.ideal_fractions()
    common = [x for x in range(poset.n) if fr[x] > 1 - third]
    uncommon = [x for x in range(poset.n) if fr[x] < third]
    for x in common:
        if any(y != x and poset.leq[x][y] for y in common):
            continue  # not maximal among common
        if len(poset.upper_covers(x)) < 2:
            return False
    for y in uncommon:
        if any(x != y and poset.leq[x][y] for x in uncommon):
            continue  # not minimal among uncommon
        if len(poset.lower_covers(y)) < 2:
            return False
    return True


def is_isomorphic(p1: LabeledPoset, p2: LabeledPoset, labeled: bool = False) -> bool:
    """Poset isomorphism by invariant refinement plus backtracking (n <= 12)."""
    if p1.n != p2.n:
        return False
    if p1.n > 12:
        raise PosetSizeError(p1.n, 12)

    def profile(p: LabeledPoset, x: int):
        down = sum(p.leq[y][x] for y in range(p.n))
        up = sum(p.leq[x][y] for y in range(p.n))
        lab = p.labels[x] if labeled and p.labels is not None else 0
        return (down, up, len(p.lower_covers(x)), len(p.upper_covers(x)), lab)

    prof1 = [profile(p1, x) for x in range(p1.n)]
    prof2 = [profile(p2, x) for x in range(p2.n)]
    if sorted(prof1) != sorted(prof2):
        return False

    assign: Dict[int, int] = {}
    used = set()

    def extend(x: int) -> bool:
        if x == p1.n:
            return True
        for y in range(p2.n):
            if y in used or prof2[y] != prof1[x]:
                continue
            ok = True
            for x0, y0 in assign.items():
                if p1.leq[x][x0] != p2.leq[y][y0] or p1.leq[x0][x] != p2.leq[y0][y]:
                    ok = False
                    break
            if ok:
                assign[x] = y
                used.add(y)
                if extend(x + 1):
                    return True
                del assign[x]
                used.remove(y)
        return False

    return extend(0)


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


def poset_json(poset: LabeledPoset) -> str:
    payload = {
        "schema": 1,
        "n": poset.n,
        "covers": sorted(poset.covers()),
        "labels": list(poset.labels) if poset.labels is not None else None,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def poset_from_json(text: str) -> LabeledPoset:
    data = json.loads(text)
    return poset_from_covers(data["n"], [tuple(c) for c in data["covers"]], data["labels"])
