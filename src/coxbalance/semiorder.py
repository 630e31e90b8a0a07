"""Generalized semiorders: convex ideals W^A for root-poset ideals A.

Includes the classical unit-interval embedding into type A, the inversion
fraction bound delta <= 1/2 with its pairing-injection mechanism, and the
exhaustive single-exit witness scan over root-poset ideals that underpins
the 1/3 bound for these sets (including the E8 scan, streamed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

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


def check_half_bound(gs: GeneralizedSemiorder, refl: Sequence[Element]) -> bool:
    """Every positive root has inversion fraction at most 1/2 on W^A.

    Also verifies the mechanism behind the bound: for alpha in A, right
    multiplication by s_alpha injects the members having alpha as an
    inversion into the set.  ``refl`` is :func:`reflections` of the root
    system.
    """
    c = gs.convex
    ctx = c.ctx
    # Roots outside the union of the members' inversions count 0.
    if any(2 * c.inversion_count(k) > len(c) for k in bits(c.upper)):
        return False
    members = set(c.members)
    for k in bits(gs.mask):
        for m, inv in zip(c.members, c.masks):
            if inv >> k & 1 and ctx.mul(m, refl[k]) not in members:
                return False
    return True


# -- single-exit witnesses over root-poset ideals -----------------------------


ExitTable = List[Tuple[int, int, int]]


def _exit_table(rs: RootSystem) -> ExitTable:
    """Per simple root i: its bit, the mask P_i of roots that s_i raises and
    the mask Q_i = s_i(P_i).

    Only roots of P_i can leave an order ideal I: when s_i lowers or fixes a
    root j of I, s_i(j) <= j lies in I too.  And for j in P_i, s_i(j) > j in
    the root poset, so s_i(j) in I forces j in I.  Hence s_i moves exactly
    |I & P_i| - |I & Q_i| members out of I.
    """
    table = []
    for i in range(1, rs.rank + 1):
        raised = image = 0
        for j in range(rs.num_positive_roots):
            img = rs.simple_image(i, j) - 1
            if img > j:
                raised |= 1 << j
                image |= 1 << img
        table.append((1 << rs.simple_indices[i - 1], raised, image))
    return table


def _first_single_exit(table: ExitTable, mask: int) -> Optional[int]:
    """For an ideal mask, the first simple root (1-based) in the ideal moving
    at most one member out of it, or None when there is none.

    A root leaves the ideal under s_i when s_i sends it to a positive root
    outside the ideal; the table counts those roots without listing them."""
    for i, (simple_bit, raised, image) in enumerate(table, start=1):
        if mask & simple_bit and (
            (mask & raised).bit_count() - (mask & image).bit_count() <= 1
        ):
            return i
    return None


def scan_exit_witnesses(rs: RootSystem) -> Tuple[int, List[int]]:
    """Check every nonempty root-poset ideal for a single-exit simple root.

    Returns (number of nonempty ideals scanned, masks of failing ideals).
    Streams the ideals, so even the 25080 ideals of E8 fit in memory.
    """
    table = _exit_table(rs)
    scanned = 0
    failures: List[int] = []
    for mask in iter_ideal_masks(rs):
        if mask == 0:
            continue
        scanned += 1
        if _first_single_exit(table, mask) is None:
            failures.append(mask)
    return scanned, failures


def semiorders(rs: RootSystem, masks: Sequence[int]) -> Iterator[GeneralizedSemiorder]:
    """W^A for each nonempty root-poset ideal mask, in order, from one pass
    over the group (see :func:`convex.ideals_from_uppers`)."""
    for mask, c in zip(masks, convex.ideals_from_uppers(WeylContext(rs), masks)):
        yield GeneralizedSemiorder(rs, mask, c)


def min_semiorder_balance(rs: RootSystem) -> Fraction:
    """Minimum balance over all non-singleton generalized semiorders."""
    masks = [m for m in iter_ideal_masks(rs) if m]
    balances = [gs.convex.balance_value() for gs in semiorders(rs, masks) if gs.size > 1]
    if not balances:
        raise ValueError("no non-singleton generalized semiorder exists")
    return min(balances)
