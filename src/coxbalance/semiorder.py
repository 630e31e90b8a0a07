"""Generalized semiorders: convex ideals W^A for root-poset ideals A.

Includes the classical unit-interval embedding into type A, the inversion
fraction bound delta <= 1/2 with its pairing-injection mechanism, and the
exhaustive single-exit witness scan over root-poset ideals that underpins
the 1/3 bound for these sets (including the E8 scan, streamed).  The scan
has the ideal walk carry one exit counter per simple root above the mask
bits, so each ideal costs one add and one AND.

Every W^A of one type is the int bitset M(A) of its rows in one scan of
the group's byte codes (:func:`convex.ideal_rows`), scored by popcounts and
checked for the half bound by ANDs of the scan's root columns, with no
group product and no element decoded.
:func:`build` makes a single W^A, for the unit-interval semiorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import convex
from .convex import ConvexSet
from .linalg import bits
from .rootsys import RootSystem, build_root_system, ideal_from_members, iter_ideal_masks
from .weyl import Element, WeylContext


@dataclass(frozen=True)
class GeneralizedSemiorder:
    root_system: RootSystem
    mask: int  # the root-poset ideal A, as a bitmask over positive roots
    convex: ConvexSet

    @property
    def size(self) -> int:
        return len(self.convex)


def build(rs: RootSystem, members) -> GeneralizedSemiorder:
    """Construct W^A for a root-poset ideal given by positive-root indices."""
    mask = ideal_from_members(rs, members)
    c = convex.ideal_from_upper(WeylContext(rs), mask)
    return GeneralizedSemiorder(rs, mask, c)


def from_unit_interval(values: Sequence[Fraction]) -> GeneralizedSemiorder:
    """Type A semiorder from sorted unit-interval representation values.

    The allowed inversions are the pairs closer than 1:
    A = {e_i - e_j : values[j] - values[i] < 1}, which is automatically an
    order ideal of the type A root poset (verified here).
    """
    values = [Fraction(v) for v in values]
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("representation values must be sorted ascending")
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    rs = build_root_system("A", n - 1)
    members = []
    for idx, coeffs in enumerate(rs.coefficients):
        # e_i - e_j = alpha_i + ... + alpha_(j-1): ones on positions i..j-1
        i = coeffs.index(1)
        if values[i + sum(coeffs)] - values[i] < 1:
            members.append(idx)
    return build(rs, members)


def reflections(rs: RootSystem) -> Tuple[Element, ...]:
    """The reflection in each positive root, as a signed permutation of roots.

    Built in index order: alpha_i gives the simple action of s_i, and any
    other root k is s_i(j) for a lower root j, so s_k = s_i s_j s_i."""
    ctx = WeylContext(rs)
    out: List[Element] = []
    for k in range(rs.num_positive_roots):
        for s in rs._simple_action:
            if s[k] < 0:  # k is the simple root of s
                out.append(s)
                break
            if s[k] <= k:  # s lowers root k to root s[k] - 1
                out.append(ctx.mul(ctx.mul(s, out[s[k] - 1]), s))
                break
    return tuple(out)


def scored_semiorders(rs: RootSystem) -> Tuple[List[int], List[Tuple[int, int, Fraction]]]:
    """The root columns of the group scan, and (A, M(A), balance) for each
    nonempty root-poset ideal A, in walk order, from one group walk."""
    masks = [m for m in iter_ideal_masks(rs) if m]
    columns, rows = convex.ideal_rows(WeylContext(rs), masks)
    score = convex.balance_scorer(None, columns)
    return columns, [(mask, m, score(m, mask)) for mask, m in zip(masks, rows)]


def check_half_bound(columns: Sequence[int], refl: Sequence[Element], mask: int,
                     members: int) -> bool:
    """Every positive root has inversion fraction at most 1/2 on W^A, the
    rows ``members`` of the root set A = ``mask``, by the bound's mechanism:
    for alpha_k in A, w -> w s_k sends the members inverting alpha_k into
    W^A, one-to-one onto members that do not.  With a = refl[k][j], root j
    is an inversion of w s_k iff a > 0 and root a - 1 is one of w, or a < 0
    and root -a - 1 is not; so the members sent out of W^A by inverting a
    root j outside A are ``members & columns[k]`` in column a - 1, or outside
    column -a - 1.  ``refl`` is :func:`reflections`; no group product.
    """
    outside = list(bits((1 << len(columns)) - 1 & ~mask))
    for k in bits(mask):
        moved = members & columns[k]
        for a in (refl[k][j] for j in outside):
            if moved & (columns[a - 1] if a > 0 else ~columns[-a - 1]):
                return False
    return True


# -- single-exit witnesses over root-poset ideals -----------------------------


def _exit_weights(rs: RootSystem) -> Tuple[List[int], int]:
    """Per root, its weight for the exit scan's ideal walk, and the width w
    of one counter field.

    Simple root i (1-based) owns the w-bit field at bit N + (i - 1) w, above
    the N mask bits.  Let P_i be the roots that s_i raises and Q_i =
    s_i(P_i).  Only roots of P_i can leave an order ideal I: when s_i
    lowers or fixes a root j of I, s_i(j) <= j lies in I too.  And for j in
    P_i, s_i(j) > j in the root poset, so s_i(j) in I forces j in I.  Hence
    s_i moves exactly exits_i(I) = |I & P_i| - |I & Q_i| members out of I.
    Root j's weight is ``1 << j`` plus, in field i, +1 if j is in P_i, -1
    if j is in Q_i and -2 if j is alpha_i (the three are disjoint), so the
    sum over I holds exits_i(I) - 2 [alpha_i in I] in field i.  That lies in
    [-2, N - 1], inside the 2^(w - 1) > N + 2 that w = (N + 2).bit_length()
    + 1 leaves on either side of 0.
    """
    n = rs.num_positive_roots
    width = (n + 2).bit_length() + 1
    weight = [1 << j for j in range(n)]
    for i, simple in enumerate(rs.simple_indices, start=1):
        one = 1 << n + (i - 1) * width
        weight[simple] -= 2 * one
        for j in range(n):
            img = rs.simple_image(i, j) - 1
            if img > j:
                weight[j] += one
                weight[img] -= one
    return weight, width


def scan_exit_witnesses(rs: RootSystem) -> Tuple[int, List[int]]:
    """Check every nonempty root-poset ideal for a single-exit simple root:
    a simple root in the ideal that moves at most one member out of it.

    Returns (number of nonempty ideals scanned, masks of failing ideals).
    Streams the ideals, so even the 25080 ideals of E8 fit in memory.

    The walk yields each ideal I as its sum v of :func:`_exit_weights`.
    With ``tops`` = 2^(w - 1) in every field, field i of v + tops is
    exits_i(I) + 2 [alpha_i not in I] + 2^(w - 1) - 2, in [0, 2^w), so no
    field borrows from or carries into its neighbours, and its top bit is
    clear iff alpha_i lies in I and at most one member exits.  So I fails
    iff ``v + tops`` keeps every top bit, and its mask is v's low N bits.
    """
    weight, width = _exit_weights(rs)
    n = rs.num_positive_roots
    tops = sum(1 << n + i * width + width - 1 for i in range(rs.rank))
    low = (1 << n) - 1
    ideals = iter_ideal_masks(rs, weight)
    next(ideals)  # the empty ideal, which the walk yields first
    scanned = 0
    failures: List[int] = []
    for scanned, v in enumerate(ideals, start=1):
        if v + tops & tops == tops:
            failures.append(v & low)
    return scanned, failures


def min_semiorder_balance(rs: RootSystem) -> Fraction:
    """Minimum balance over all non-singleton generalized semiorders."""
    return min(b for _, m, b in scored_semiorders(rs)[1] if m.bit_count() > 1)
