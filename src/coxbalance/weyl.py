"""Finite Weyl groups acting on their positive roots by exact signed permutations.

An element is the tuple ``w`` with ``w[j] = +-(k+1)`` when it sends positive
root ``j`` to ``+-`` positive root ``k``.  The tuple is its own key: equality
and hashing are O(#roots) and independent of any choice of word, and reduced
words are derived data.  :class:`WeylContext`, the group object of one
type, computes its element primitives on these tuples with integer
arithmetic only and inherits its word routines from ``coxgen.GroupWords``;
a vector's image under w is read from the same tuple in ``alcove``.  A root
key is a positive-root index, and a set of roots, such as an inversion set,
is the int bitmask of its keys.
:func:`levels` walks the group one length at a time as bare byte codes,
after comparing its order, the product of the degrees (:func:`group_order`), with
the element cap; :func:`all_elements` decodes each code and derives its
word from its parent's.
"""

from __future__ import annotations

from math import prod
from struct import Struct
from typing import Iterator, List, Optional, Tuple

from .coxgen import EnumerationCapExceeded, GroupWords, root_display, shortlex_levels
from .rootsys import RootSystem, degrees

DEFAULT_ELEMENT_CAP = 10**6

Element = Tuple[int, ...]


class WeylContext(GroupWords):
    """The group object of a finite Weyl type; root keys are positive-root indices.

    Its element primitives match those of ``coxgen.CoxSystem``, the group
    object of a diagram, and both inherit the word routines of
    ``coxgen.GroupWords``, so every routine in ``convex``, ``coxgen`` and
    ``posets`` takes either one.  Every method works on the signed action
    tuples; the ``Fraction`` views of the root system are never read.
    """

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.rank = rs.rank
        self.coxeter = rs._coxeter

    def identity(self) -> Element:
        return tuple(range(1, self.root_system.num_positive_roots + 1))

    def mul(self, u: Element, v: Element) -> Element:
        """Product u v, acting as u after v."""
        return tuple([u[a - 1] if a > 0 else -u[-a - 1] for a in v])

    def mul_simple_right(self, w: Element, i: int) -> Element:
        return self.mul(w, self.root_system._simple_action[i - 1])

    def mul_simple_left(self, w: Element, i: int) -> Element:
        return self.mul(self.root_system._simple_action[i - 1], w)

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
        return v[self.root_system.simple_indices[i - 1]] < 0

    def simple_image_key(self, v: Element, i: int) -> Optional[int]:
        """Key of v(alpha_i) if that root is positive, else None."""
        a = v[self.root_system.simple_indices[i - 1]]
        return a - 1 if a > 0 else None

    def reduced_word(self, w: Element) -> Tuple[int, ...]:
        return reduced_word(self.root_system, w)

    def coxeter_m(self, i: int, j: int) -> int:
        return self.root_system.coxeter_m(i, j)

    def key_order(self, key: int) -> int:
        return key

    def key_display(self, key: int) -> str:
        return root_display(self.root_system.coefficients[key])


def reduced_word(rs: RootSystem, w: Element) -> Tuple[int, ...]:
    """Lexicographically least reduced word of w: the greedy word that
    ``coxgen.GroupWords.inverse_word`` builds from w^-1.
    ``WeylContext.reduced_word`` calls this function, so ``bench/spans.py``
    can trace it."""
    g = WeylContext(rs)
    return g.inverse_word(g.invert(w))


def group_order(rs: RootSystem) -> int:
    """|W| = d_1 ... d_r, the product of the degrees (Humphreys 3.9)."""
    return prod(degrees(rs))


# A signed root index a = +-1..+-N fits a byte as a % 256 while N <= 127,
# which holds up to E8 (N = 120); bytes 0 and 128 are never used.
MAX_BYTE_ROOTS = 127

# The code of -a is that of a under this table.
_NEGATE = bytes(-a % 256 for a in range(256))


def all_elements(rs: RootSystem) -> Iterator[Tuple[Element, Tuple[int, ...]]]:
    """Every group element with its shortlex-minimal reduced word.

    The codes of :func:`levels`, block by block, each decoded to its
    signed tuple.  A code c in block k has the tree parent s_(k+1) c,
    ``c.translate(table)`` with letter k+1's table and no delete string
    (s_i is an involution on codes), and its word is k+1 followed by the
    parent's word, read from the previous level's words.  Raises
    :class:`EnumerationCapExceeded` before any element when the group has
    more than ``DEFAULT_ELEMENT_CAP`` elements.
    """
    steps = _letter_steps(rs, DEFAULT_ELEMENT_CAP)
    tables = [table for table, _ in steps]
    decode = Struct(f"{rs.num_positive_roots}b").unpack
    words = {}
    for level in _walk(rs, steps, DEFAULT_ELEMENT_CAP):
        parents, words = words, {}
        for letter, (table, block) in enumerate(zip(tables, level), 1):
            first = (letter,)
            for c in block:
                word = words[c] = first + parents[c.translate(table)]
                yield decode(c), word
        for c in level[-1]:  # e, alone at length 0
            words[c] = ()
            yield decode(c), ()


def levels(rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP) -> Iterator[List[List[bytes]]]:
    """The group one length at a time: the levels of ``coxgen.shortlex_levels``.

    An entry is the element as ``bytes``, its entry a stored as a % 256;
    words are left to :func:`all_elements`.  At the first ``next()``,
    before any level, it raises :class:`EnumerationCapExceeded` when
    :func:`group_order` exceeds ``cap``, and ``ValueError`` for a type with
    more than ``MAX_BYTE_ROOTS`` positive roots, whose codes would not fit
    a byte; such a group has at least 9.8 * 10^11 elements.

    k is a left descent of u iff u^-1 alpha_k < 0, that is iff -alpha_k is
    an entry of u, and k is one of s_i u iff -s_i alpha_k is an entry of u.
    With letter i's table and delete string from :func:`_letter_steps`,
    ``u.translate(table, delete)`` is s_i u if s_i u is a child, and
    shorter than N if it is not: one C-level call per (letter, element)
    makes the child test and the product.
    """
    yield from _walk(rs, _letter_steps(rs, cap), cap)


def _walk(rs: RootSystem, steps: List[Tuple[bytes, bytes]],
          cap: int) -> Iterator[List[List[bytes]]]:
    """The levels of :func:`levels`, walked with the given letter steps."""
    n = rs.num_positive_roots

    def extend(i, block):
        table, delete = steps[i - 1]
        return [c for u in block if len(c := u.translate(table, delete)) == n]

    return shortlex_levels(rs._coxeter, bytes(range(1, n + 1)), extend, cap)


def _letter_steps(rs: RootSystem, cap: int) -> List[Tuple[bytes, bytes]]:
    """Per letter i, (table, delete): the 256-byte table that maps each code
    to that of its image under s_i, and the codes of -alpha_i and of
    -s_i alpha_k for k < i.  Raises the errors that :func:`levels` names."""
    if group_order(rs) > cap:
        raise EnumerationCapExceeded(cap)
    n = rs.num_positive_roots
    if n > MAX_BYTE_ROOTS:
        raise ValueError(
            f"the group walk encodes at most {MAX_BYTE_ROOTS} positive roots; "
            f"type {rs.root_label()} has {n}"
        )
    roots = bytes(range(1, n + 1))
    signed = roots + roots.translate(_NEGATE)
    simple = bytes(k + 1 for k in rs.simple_indices)
    steps = []
    for i, row in enumerate(rs._simple_action):
        images = bytes([b % 256 for b in row])
        table = bytes.maketrans(signed, images + images.translate(_NEGATE))
        delete = (simple[i:i + 1] + simple[:i].translate(table)).translate(_NEGATE)
        steps.append((table, delete))
    return steps
