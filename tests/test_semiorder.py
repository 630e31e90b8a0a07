"""Generalized semiorders, the unit-interval embedding, and exit witnesses."""

import random
from fractions import Fraction

import pytest

from conftest import (
    exit_roots,
    half_bound_by_products,
    induced_semiorder_poset,
    linear_extension_count,
    mask_of,
    neg,
    reflect,
    reflection_word_element,
    simple_roots,
    single_exit_simple,
)
from coxbalance import convex, semiorder
from coxbalance.convex import ideal_from_upper
from coxbalance.linalg import bits
from coxbalance.rootsys import build_root_system, ideal_from_members, iter_ideal_masks
from coxbalance.semiorder import (
    build,
    check_half_bound,
    from_unit_interval,
    min_semiorder_balance,
    scan_exit_witnesses,
)
from coxbalance.verify import EXIT_SCAN_TYPES, SEMIORDER_TYPES
from coxbalance.weyl import WeylContext

THIRD = Fraction(1, 3)


def all_nonempty_ideals(rs):
    for mask in iter_ideal_masks(rs):
        if mask:
            yield [i for i in range(rs.num_positive_roots) if (mask >> i) & 1]


def test_build_examples():
    a2 = build_root_system("A", 2)
    empty = build(a2, [])
    assert empty.size == 1
    both = build(a2, [a2.simple_indices[0], a2.simple_indices[1]])
    assert both.size == 3
    assert both.convex.balance_value() == THIRD
    b2 = build_root_system("B", 2)
    whole = build(b2, range(b2.num_positive_roots))
    assert whole.size == 8
    assert whole.convex.balance_value() == Fraction(1, 2)


def test_build_rejects_non_ideals():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not an order ideal"):
        build(a2, [a2.highest_root_index])


def test_unit_interval_p3():
    gs = from_unit_interval([0, Fraction(1, 2), Fraction(7, 5)])
    assert gs.size == 3
    assert gs.convex.balance_value() == THIRD
    assert gs.mask.bit_count() == 2


def test_unit_interval_extremes():
    assert from_unit_interval([0, 2, 4]).size == 1  # total order
    assert from_unit_interval([0, 0, 0]).size == 6  # antichain -> all of S3
    with pytest.raises(ValueError, match="sorted"):
        from_unit_interval([1, 0])


def random_sorted_fractions(rng, n):
    vals = sorted(
        Fraction(rng.randint(0, 24), rng.randint(1, 8)) for _ in range(n)
    )
    return vals


def test_unit_interval_closure_and_extension_count():
    """The allowed-inversion set is an ideal, and |W^A| counts the linear
    extensions of the induced semiorder (random representations, n <= 7)."""
    rng = random.Random(42)
    for trial in range(120):
        n = 7 if trial % 15 == 0 else rng.randint(2, 6)
        vals = random_sorted_fractions(rng, n)
        gs = from_unit_interval(vals)  # ideal property checked inside build
        poset = induced_semiorder_poset(vals)
        assert gs.size == linear_extension_count(poset)


def test_unit_interval_closure_larger_sample():
    rng = random.Random(7)
    for _ in range(380):
        n = rng.randint(2, 7)
        vals = random_sorted_fractions(rng, n)
        rs = build_root_system("A", n - 1)
        members = []
        for idx, root in enumerate(rs.positive_roots):
            i = root.index(1)
            j = root.index(-1)
            if vals[j] - vals[i] < 1:
                members.append(idx)
        ideal_from_members(rs, members)  # raises when not downward closed


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_half_bound_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    refl = semiorder.reflections(rs)
    columns, scored = semiorder.scored_semiorders(rs)
    assert [mask for mask, _, _ in scored] == [mask_of(m) for m in all_nonempty_ideals(rs)]
    for mask, m, _ in scored:
        assert m.bit_count() == build(rs, bits(mask)).size
        assert check_half_bound(columns, refl, mask, m)


def test_half_bound_whole_group_hits_half():
    rs = build_root_system("A", 2)
    gs = build(rs, range(3))
    assert max(gs.convex.inversion_fraction(k) for k in range(3)) == Fraction(1, 2)
    _, columns, (m,) = convex.ideal_rows(WeylContext(rs), [gs.mask])
    assert m.bit_count() == gs.size == 6
    assert check_half_bound(columns, semiorder.reflections(rs), gs.mask, m)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("G", 2), ("B", 3), ("C", 3),
])
def test_half_bound_matches_product_oracle_on_every_subset(family, rank):
    """The column check gives the verdict of the product-and-membership
    oracle on W^A for every nonempty root set A, root-poset ideal or not;
    both verdicts occur."""
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    refl = semiorder.reflections(rs)
    masks = range(1, 1 << rs.num_positive_roots)
    _, columns, rows = convex.ideal_rows(ctx, masks)
    verdicts = []
    for mask, m in zip(masks, rows):
        c = ideal_from_upper(ctx, mask)
        assert m.bit_count() == len(c)
        verdict = check_half_bound(columns, refl, mask, m)
        assert verdict == half_bound_by_products(c, mask, refl), hex(mask)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_single_exit_simple_a2():
    rs = build_root_system("A", 2)
    ideal = ideal_from_members(rs, set(rs.simple_indices))
    found = single_exit_simple(rs, ideal)
    assert found is not None
    i, exits = found
    assert len(exits) <= 1
    with pytest.raises(ValueError):
        single_exit_simple(rs, ideal_from_members(rs, set()))


def test_exit_failure_report_structure():
    rs = build_root_system("B", 2)
    mask = ideal_from_members(rs, set(rs.simple_indices))
    # per simple root in the ideal, the (beta, s_i beta) pairs that leave it
    report = {
        i: [(j, rs.simple_image(i, j) - 1) for j in exit_roots(rs, mask, i)]
        for i in range(1, rs.rank + 1)
        if (mask >> rs.simple_indices[i - 1]) & 1
    }
    assert set(report) <= {1, 2}
    for i, pairs in report.items():
        for beta, image in pairs:
            assert (mask >> beta) & 1
            assert not (mask >> image) & 1


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
])
def test_exit_witness_everywhere(family, rank):
    rs = build_root_system(family, rank)
    scanned, failures = scan_exit_witnesses(rs)
    assert failures == []
    assert scanned >= 1


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 2, THIRD), ("B", 2, THIRD), ("A", 3, THIRD),
])
def test_min_semiorder_balance(family, rank, expected):
    assert min_semiorder_balance(build_root_system(family, rank)) == expected


def test_semiorder_balance_floor():
    """Every non-singleton generalized semiorder in the small types sits at
    or above 1/3."""
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        for members in all_nonempty_ideals(rs):
            gs = build(rs, members)
            if gs.size > 1:
                assert gs.convex.balance_value() >= THIRD


def fraction_reflection_action(rs, k):
    """Oracle: the signed permutation of s_beta by reflecting Fraction vectors."""
    index = {beta: i for i, beta in enumerate(rs.positive_roots)}
    out = []
    for beta in rs.positive_roots:
        img = reflect(rs.positive_roots[k], beta)
        out.append(index[img] + 1 if img in index else -(index[neg(img)] + 1))
    return tuple(out)


@pytest.mark.parametrize("family,rank", SEMIORDER_TYPES + (("E", 6),))
def test_reflection_element_matches_fraction_reflect(family, rank):
    rs = build_root_system(family, rank)
    refl = semiorder.reflections(rs)
    assert len(refl) == rs.num_positive_roots
    for k in range(rs.num_positive_roots):
        assert refl[k] == fraction_reflection_action(rs, k) == reflection_word_element(rs, k)


@pytest.mark.parametrize("family,rank", EXIT_SCAN_TYPES + (("E", 6), ("E", 7)))
def test_exit_table_agrees_with_exit_roots(family, rank):
    # every counter field of every ideal's weight sum, decoded, against the
    # per-root count exit_roots
    rs = build_root_system(family, rank)
    weight, width = semiorder._exit_weights(rs)
    n = rs.num_positive_roots
    half = 1 << width - 1
    tops = sum(half << n + i * width for i in range(rs.rank))
    masks = list(iter_ideal_masks(rs))
    sums = list(iter_ideal_masks(rs, weight))
    assert len(sums) == len(masks)
    for mask, v in zip(masks, sums):
        assert v & (1 << n) - 1 == mask
        for i, simple in enumerate(rs.simple_indices, start=1):
            decoded = (v + tops >> n + (i - 1) * width) % (1 << width) - half + 2
            outside = not mask >> simple & 1
            assert decoded == len(exit_roots(rs, mask, i)) + 2 * outside, (hex(mask), i)


@pytest.mark.parametrize("family,rank", EXIT_SCAN_TYPES + (("E", 6), ("E", 7)))
def test_scan_reports_failing_ideals_as_bare_masks(monkeypatch, family, rank):
    """The scan's failure branch, which no type reaches with the true
    weights.  With the counters dropped every nonempty ideal fails; with
    alpha_i's own -2 raised to -1, field i's top bit is clear iff alpha_i is
    in the ideal and moves no member out, so exactly the ideals without
    such a simple root fail (exit bound 0)."""
    rs = build_root_system(family, rank)
    scanned, failures = scan_exit_witnesses(rs)
    assert failures == []
    nonempty = [m for m in iter_ideal_masks(rs) if m]
    assert scanned == len(nonempty)
    weight, width = semiorder._exit_weights(rs)
    n = rs.num_positive_roots

    units = [1 << j for j in range(n)]
    monkeypatch.setattr(semiorder, "_exit_weights", lambda rs: (units, width))
    assert scan_exit_witnesses(rs) == (scanned, nonempty)

    bound0 = list(weight)
    for i, simple in enumerate(rs.simple_indices):
        bound0[simple] += 1 << n + i * width
    monkeypatch.setattr(semiorder, "_exit_weights", lambda rs: (bound0, width))
    expected = [
        m for m in nonempty
        if not any(m >> simple & 1 and not exit_roots(rs, m, i)
                   for i, simple in enumerate(rs.simple_indices, start=1))
    ]
    assert bool(expected) == (rank > 1)  # A1 alone has none failing at bound 0
    assert scan_exit_witnesses(rs) == (scanned, expected)


def fraction_single_exit(rs, mask):
    """Oracle for any mask: the first simple root in it whose Fraction
    reflection moves at most one member to a positive root outside."""
    index = {beta: i for i, beta in enumerate(rs.positive_roots)}
    for i, alpha in enumerate(simple_roots(rs.family, rs.rank), start=1):
        if not (mask >> index[alpha]) & 1:
            continue
        exits = []
        for j, beta in enumerate(rs.positive_roots):
            img = index.get(reflect(alpha, beta))
            if (mask >> j) & 1 and img is not None and not (mask >> img) & 1:
                exits.append(j)
        if len(exits) <= 1:
            return i, tuple(exits)
    return None


@pytest.mark.parametrize("family,rank,mask", [
    ("A", 3, 0x25), ("A", 3, 0x3e),
    ("B", 3, 0x135), ("B", 3, 0x12d),
    ("G", 2, 0x3a), ("G", 2, 0x23),
    ("D", 4, 0x78e), ("D", 4, 0x8af),
    ("E", 6, 0x8d6225675),
])
def test_single_exit_on_non_ideals(family, rank, mask):
    rs = build_root_system(family, rank)
    assert any(
        (mask >> i) & 1 and rs._lower_covers[i] & ~mask for i in range(rs.num_positive_roots)
    ), "mask should not be an order ideal"
    assert single_exit_simple(rs, mask) == fraction_single_exit(rs, mask)
