"""Convex sets: construction, balance, translation, hulls, scans."""

import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_convex_rows,
    convex_ideals,
    ideals_from_uppers,
    inversion_keys_of_word,
    keys_of,
    mask_of,
    root_keys,
    translate,
    union_closure_uppers,
)
from coxbalance import alcove, convex, coxgen, posets, semiorder, weyl
from coxbalance.convex import (
    EmptyConvexSetError,
    balance_scorer,
    convex_hull,
    convex_set,
    enumerate_convex_ideals,
    from_members,
    ideal_from_upper,
    ideal_rows,
    interval_left,
    listed_keys,
    scored_ideals,
)
from coxbalance.coxgen import INF, build_system, complete_graph_matrix, matrix_from_edges, path_matrix
from coxbalance.linalg import bits
from coxbalance.rootsys import build_root_system, iter_ideal_masks
from coxbalance.verify import SEMIORDER_TYPES, run_campaign
from coxbalance.weyl import WeylContext

THIRD = Fraction(1, 3)


def weyl_ctx(family, rank):
    return WeylContext(build_root_system(family, rank))


def all_roots(ctx):
    """The mask of every positive root."""
    return (1 << ctx.root_system.num_positive_roots) - 1


def brute_force_ideal(ctx, allowed):
    """Oracle: filter the whole group by inversion containment."""
    return {
        w for w, _ in weyl.all_elements(ctx.root_system)
        if keys_of(ctx.inversion_mask(w)) <= keys_of(allowed)
    }


def test_ideal_from_upper_examples():
    a2 = weyl_ctx("A", 2)
    assert len(ideal_from_upper(a2, 0)) == 1
    assert len(ideal_from_upper(a2, all_roots(a2))) == 6
    # A = {a1, a1+a2} gives the interval below s1 s2 read on the other side:
    # inversions of s2 s1 are a1 and a1+a2
    w = a2.from_word([2, 1])
    c = ideal_from_upper(a2, a2.inversion_mask(w))
    assert len(c) == 3
    assert c.words == ((), (1,), (2, 1))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_ideal_matches_brute_force_filter(family, rank):
    ctx = weyl_ctx(family, rank)
    n = ctx.root_system.num_positive_roots
    for mask in range(1 << n):
        c = ideal_from_upper(ctx, mask)
        assert set(c.members) == brute_force_ideal(ctx, mask)


def test_ideals_downward_closed_in_left_order():
    ctx = weyl_ctx("B", 2)
    els = [w for w, _ in weyl.all_elements(ctx.root_system)]
    n = ctx.root_system.num_positive_roots
    for mask in range(1 << n):
        c = ideal_from_upper(ctx, mask)
        members = set(c.members)
        for m in c.members:
            for u in els:
                if keys_of(ctx.inversion_mask(u)) <= keys_of(ctx.inversion_mask(m)):  # u <= m
                    assert u in members


def test_interval_left():
    a2 = weyl_ctx("A", 2)
    c = interval_left(a2, a2.from_word([1, 2]))
    assert len(c) == 3
    assert c.balance_value() == THIRD
    assert len(interval_left(a2, a2.identity())) == 1


def test_convex_set_with_lower_constraint():
    a2 = weyl_ctx("A", 2)
    a1_key = a2.root_system.simple_indices[0]
    c = convex_set(a2, 1 << a1_key, all_roots(a2))
    # brute force: elements of S3 with a1 as inversion
    expect = {
        w for w, _ in weyl.all_elements(a2.root_system)
        if a1_key in keys_of(a2.inversion_mask(w))
    }
    assert set(c.members) == expect
    assert len(c) == 3


def test_empty_convex_set_errors():
    a2 = weyl_ctx("A", 2)
    high = a2.root_system.highest_root_index
    with pytest.raises(EmptyConvexSetError):
        convex_set(a2, 1 << high, 1 << high)
    with pytest.raises(EmptyConvexSetError):
        convex_set(a2, 1 << 0, 0)
    with pytest.raises(EmptyConvexSetError):
        from_members(a2, [])


def test_canonicality():
    """Rebuilding each enumerated set from its own (D, A) reproduces it exactly."""
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        ctx = weyl_ctx(family, rank)
        for c in convex_ideals(ctx):
            again = convex_set(ctx, c.lower, c.upper)
            assert again.words == c.words


def test_hull_contains_inputs_and_is_minimal():
    a3 = weyl_ctx("A", 3)
    els = [a3.from_word([1, 2]), a3.from_word([2, 3, 2])]
    hull = convex_hull(a3, els)
    for w in els:
        assert w in hull
    # minimality: the hull is contained in every W_D^A containing the inputs
    lower = a3.inversion_mask(els[0]) & a3.inversion_mask(els[1])
    c2 = convex_set(a3, lower, all_roots(a3))
    assert set(hull.members) <= set(c2.members)


def test_hull_of_single_element():
    b2 = weyl_ctx("B", 2)
    w = b2.from_word([1, 2, 1])
    hull = convex_hull(b2, [w])
    assert len(hull) == 1
    assert hull.words == ((1, 2, 1),)


def test_from_members_validates_convexity():
    a2 = weyl_ctx("A", 2)
    good = from_members(a2, [a2.identity(), a2.from_word([1])])
    assert len(good) == 2
    with pytest.raises(ValueError, match="not convex"):
        from_members(a2, [a2.identity(), a2.from_word([1, 2])])


def test_from_members_ignores_repeated_elements():
    """A repeated element counts once: the set is convex iff its distinct
    elements are, in a Weyl group and in a diagram group alike."""
    a2 = weyl_ctx("A", 2)
    e, s1 = a2.identity(), a2.from_word([1])
    assert from_members(a2, [s1, s1]).words == ((1,),)
    assert from_members(a2, [e, s1, s1]).words == ((), (1,))
    with pytest.raises(ValueError, match="not convex"):
        from_members(a2, [e, e, a2.from_word([1, 2])])
    path = build_system(path_matrix(2, [INF]))
    assert len(from_members(path, [path.from_word([1, 2])] * 3)) == 1


def test_whole_group_balance_is_half():
    for family, rank in [("A", 2), ("B", 2)]:
        ctx = weyl_ctx(family, rank)
        c = ideal_from_upper(ctx, all_roots(ctx))
        b, wits = c.balance()
        assert b == Fraction(1, 2)
        assert wits  # every reflection pairs off


def test_fraction_constant_outside_bounds():
    a2 = weyl_ctx("A", 2)
    c = interval_left(a2, a2.from_word([1, 2]))
    outside = next(k for k in range(a2.root_system.num_positive_roots) if k not in keys_of(c.upper))
    assert c.inversion_fraction(outside) == 0
    w = a2.from_word([1, 2, 1])
    single = convex_hull(a2, [w])
    for k in keys_of(single.lower):
        assert single.inversion_fraction(k) == 1


def test_translate_identity_and_membership():
    a3 = weyl_ctx("A", 3)
    c = interval_left(a3, a3.from_word([1, 2]))
    assert translate(c, a3.identity()).words == c.words
    w = c.members[-1]
    moved = translate(c, a3.invert(w))
    assert a3.identity() in moved


def test_translation_invariance_of_balance():
    """200 random (C, w) pairs across A3 and B2 keep their balance."""
    random.seed(2024)
    for family, rank, pairs in [("A", 3, 120), ("B", 2, 80)]:
        ctx = weyl_ctx(family, rank)
        els = [w for w, _ in weyl.all_elements(ctx.root_system)]
        n = ctx.root_system.num_positive_roots
        for _ in range(pairs):
            mask = random.randrange(1, 1 << n)
            c = ideal_from_upper(ctx, mask)
            w = random.choice(els)
            assert translate(c, w).balance_value() == c.balance_value()


TRANSLATION_GROUPS = {
    "A3": weyl_ctx("A", 3),
    "B3": weyl_ctx("B", 3),
    "G2": weyl_ctx("G", 2),
    **{f"path-{a or 'inf'}-{b or 'inf'}": build_system(path_matrix(3, [a, b]))
       for a in (4, 6, INF) for b in (4, 6, INF)},
}


@settings(max_examples=120)
@given(name=st.sampled_from(sorted(TRANSLATION_GROUPS)), data=st.data())
def test_right_translates_of_random_intervals_keep_balance(name, data):
    """C = [id, w] for a random word of length <= 5, moved on the right by a
    random word of length <= 6 one simple reflection at a time: the translate
    is convex, with |C| members and the balance of C."""
    ctx = TRANSLATION_GROUPS[name]
    letters = st.integers(min_value=1, max_value=ctx.rank)
    c = interval_left(ctx, ctx.from_word(data.draw(st.lists(letters, max_size=5), label="word")))
    moved = c.members
    for i in data.draw(st.lists(letters, max_size=6), label="shift"):
        moved = [ctx.mul_simple_right(m, i) for m in moved]
    image = from_members(ctx, moved)
    assert len(image) == len(c)
    assert image.balance_value() == c.balance_value()


def test_product_balance_law():
    """On a reducible diagram the set splits and the balance is the larger
    factor balance (a reflection living in one factor keeps its fraction).
    The acceptance suite checks the same rule on the same samples and
    records that the quoted min rule is refuted."""
    random.seed(5)
    # A3 x A1 as a rank-4 diagram with generator 4 disconnected
    prod = build_system(matrix_from_edges(4, [(1, 2, 3), (2, 3, 3)]))
    f1 = build_system(path_matrix(3, [3, 3]))
    f2 = build_system(matrix_from_edges(1, []))
    # each system's keys, by root column
    prod_keys, f1_keys, f2_keys = root_keys(prod), root_keys(f1), root_keys(f2)
    roots = [coeffs + (0,) for coeffs in build_root_system("A", 3).coefficients]
    roots.append((0, 0, 0, 1))
    for _ in range(50):
        mask = random.randrange(1, 1 << len(roots))
        allowed = [r for k, r in enumerate(roots) if (mask >> k) & 1]
        c = ideal_from_upper(prod, mask_of(prod_keys[r] for r in allowed))
        a1 = mask_of(f1_keys[r[:3]] for r in allowed if r[3] == 0)
        a2 = mask_of(f2_keys[r[3:]] for r in allowed if r[3] != 0)
        b1 = ideal_from_upper(f1, a1).balance_value()
        b2 = ideal_from_upper(f2, a2).balance_value()
        assert len(c) == len(ideal_from_upper(f1, a1)) * len(ideal_from_upper(f2, a2))
        assert c.balance_value() == max(b1, b2)


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 1, Fraction(1, 2)), ("A", 2, THIRD), ("B", 2, THIRD),
    ("A", 3, THIRD), ("B", 3, THIRD), ("G", 2, THIRD),
])
def test_min_balance(family, rank, expected):
    scored = scored_ideals(weyl_ctx(family, rank))
    assert min(b for b, _ in scored) == expected


def test_min_balance_b3_includes_figure_interval():
    ctx = weyl_ctx("B", 3)
    w = ctx.from_word([3, 2, 3, 1])
    target = tuple(bits(ctx.inversion_mask(w)))
    scored = scored_ideals(ctx)
    best = min(b for b, _ in scored)
    assert any(b == best and listed_keys(ctx, upper) == target for b, upper in scored)


def test_scan_guard():
    ctx = weyl_ctx("A", 5)
    with pytest.raises(ValueError, match="12"):
        list(enumerate_convex_ideals(ctx, balance_scorer))


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 5)])
def test_scan_guard_comes_before_the_walk(family, rank, monkeypatch):
    """Both routes into the scan, the balance scan and the geometry
    witnesses, refuse a type past the 12-root bound before any group walk."""
    def refuse(rs):
        raise AssertionError("the group was walked")

    monkeypatch.setattr(convex.weyl, "all_elements", refuse)
    ctx = weyl_ctx(family, rank)
    assert ctx.root_system.num_positive_roots > convex.CONVEX_SCAN_MAX_ROOTS
    with pytest.raises(ValueError, match="exceed the scan bound"):
        list(enumerate_convex_ideals(ctx, balance_scorer))
    with pytest.raises(ValueError, match="exceed the scan bound"):
        alcove.witnessed_ideals(ctx)


SCAN_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
    ("C", 2), ("C", 3), ("G", 2), ("D", 4),
]


@pytest.mark.parametrize("family,rank", SCAN_TYPES)
def test_scan_matches_union_closure_oracle(family, rank):
    """On every type with at most 12 positive roots, the closed-set scan
    lists the unions of inversion sets in the oracle's order, and each
    popcount balance is the balance of the set built by its own walk."""
    ctx = weyl_ctx(family, rank)
    scanned = list(enumerate_convex_ideals(ctx, balance_scorer))
    assert [upper for upper, _ in scanned] == union_closure_uppers(ctx)
    for upper, b in scanned:
        assert b == ideal_from_upper(ctx, upper).balance_value(), upper


@pytest.mark.parametrize("family,rank,count", [("A", 5, 4824), ("B", 4, 3691), ("C", 4, 3691)])
def test_closed_sets_past_the_scan_bound(family, rank, count):
    """Past the 12-root bound the closed-set stream still lists each W^A
    once: A5 gives the number of naturally labelled posets on 6 points
    (OEIS A006455), and B4 and C4, with dual root systems, agree."""
    ctx = weyl_ctx(family, rank)
    table = convex._element_table(ctx)
    columns = convex._root_columns(table, ctx.root_system.num_positive_roots)
    uppers = [upper for upper, _ in convex._closed_ideals(columns, len(table))]
    assert len(uppers) == len(set(uppers)) == count


POPCOUNT_GROUPS = {"A3": weyl_ctx("A", 3), "B3": weyl_ctx("B", 3), "G2": weyl_ctx("G", 2)}


@given(name=st.sampled_from(sorted(POPCOUNT_GROUPS)), data=st.data())
def test_popcount_balance_matches_convex_set(name, data):
    """For any root mask A, a union of inversion sets or not, the popcount
    balance over the columns of W^A's rows is ``ConvexSet.balance``'s."""
    ctx = POPCOUNT_GROUPS[name]
    n = ctx.root_system.num_positive_roots
    upper = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="A")
    table = convex._element_table(ctx)
    columns = convex._root_columns(table, n)
    members = (1 << len(table)) - 1
    for j in range(n):
        if not upper >> j & 1:
            members &= ~columns[j]
    c = ideal_from_upper(ctx, upper)
    assert members.bit_count() == len(c)
    assert convex._popcount_balance(columns, members, upper) == c.balance_value()


def subset_scan_oracle(ctx):
    """Every W^A built by breadth-first search, one per subset of the positive
    roots, deduplicated by its union of inversions and sorted by (|A|, A)."""
    n = ctx.root_system.num_positive_roots
    seen = {}
    for mask in range(1 << n):
        c = ideal_from_upper(ctx, mask)
        seen.setdefault(c.canonical_upper, c)
    return [seen[k] for k in sorted(seen, key=lambda k: (len(k), k))]


def scan_view(sets):
    return [
        (c.canonical_upper, c.canonical_lower, c.words,
         c.members, c.masks)
        for c in sets
    ]


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 2), ("A", 2, 7), ("A", 3, 40),
    ("B", 2, 11), ("G", 2, 22), ("B", 3, 139),
])
def test_scan_matches_subset_oracle(family, rank, count):
    """The scan lists the same sets, with the same members and words, in the
    same order, as a BFS build for every subset of the positive roots."""
    ctx = weyl_ctx(family, rank)
    got = scan_view(convex_ideals(ctx))
    assert len(got) == count
    assert got == scan_view(subset_scan_oracle(ctx))


@pytest.mark.parametrize("family,rank", SEMIORDER_TYPES)
def test_ideals_from_uppers_matches_bfs(family, rank):
    """The one-pass table gives, for every root-poset ideal A, the same W^A
    (words, members, inversion sets, lower and upper sets) as a BFS build."""
    ctx = weyl_ctx(family, rank)
    masks = list(iter_ideal_masks(ctx.root_system))
    oracle = [ideal_from_upper(ctx, m) for m in masks]
    assert scan_view(ideals_from_uppers(ctx, masks)) == scan_view(oracle)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_ideals_from_uppers_on_every_subset(family, rank):
    """Also for a root set A that is no union of inversion sets, where the
    upper set of W^A is smaller than A."""
    ctx = weyl_ctx(family, rank)
    n = ctx.root_system.num_positive_roots
    masks = range(1 << n)
    oracle = [ideal_from_upper(ctx, m) for m in masks]
    assert scan_view(ideals_from_uppers(ctx, masks)) == scan_view(oracle)


@pytest.mark.parametrize("family,rank", [("D", 4), ("C", 3), ("G", 2)])
def test_min_semiorder_balance_matches_bfs(family, rank):
    rs = build_root_system(family, rank)
    built = [semiorder.build(rs, [j for j in range(rs.num_positive_roots) if (m >> j) & 1])
             for m in iter_ideal_masks(rs) if m]
    expected = min(gs.convex.balance_value() for gs in built if gs.size > 1)
    assert semiorder.min_semiorder_balance(rs) == expected


def test_scans_walk_the_group_once(monkeypatch):
    walks = []
    real = weyl.all_elements

    def counted(rs, *args):
        walks.append(rs.root_label())
        return real(rs, *args)

    monkeypatch.setattr(convex.weyl, "all_elements", counted)
    ctx = weyl_ctx("B", 3)
    assert len(list(enumerate_convex_ideals(ctx, balance_scorer))) == 139
    assert walks == ["B3"]
    masks = [m for m in iter_ideal_masks(ctx.root_system) if m]
    assert len(ideal_rows(ctx, masks)[2]) == len(masks)
    assert walks == ["B3", "B3"]


def test_campaign_scans_build_no_set_by_bfs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan built W^A by a single-set walk")

    monkeypatch.setattr(convex, "pruned_walk", refuse)
    for name in ("semiorder", "conjecture", "geometry"):
        for report in run_campaign(name):
            assert report.all_passed, report.campaign


def test_scan_count_a4():
    uppers = [c.canonical_upper for c in convex_ideals(weyl_ctx("A", 4))]
    assert len(uppers) == len(set(uppers)) == 357


def test_bfs_cap_guard(monkeypatch):
    ctx = weyl_ctx("A", 3)
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 10)
    with pytest.raises(weyl.EnumerationCapExceeded, match="10"):
        ideal_from_upper(ctx, all_roots(ctx))


def test_single_set_walk_tries_each_letter_on_its_blocks_only():
    """The walk of D5's whole W^A multiplies once per (letter, parent) pair
    that the first-letter blocks hand over and whose root is allowed."""
    ctx = weyl_ctx("D", 5)
    real = ctx.mul_simple_right
    calls = []

    def counted(v, i):
        calls.append(i)
        return real(v, i)

    ctx.mul_simple_right = counted
    assert len(ideal_from_upper(ctx, all_roots(ctx))) == 1920
    assert len(calls) == 2705


ORACLE_GROUPS = {
    "A3": weyl_ctx("A", 3),
    "B3": weyl_ctx("B", 3),
    "G2": weyl_ctx("G", 2),
    "D4": weyl_ctx("D", 4),
    "path-3-4": build_system(path_matrix(3, [3, 4])),
    "path-6-inf": build_system(path_matrix(3, [6, INF])),
    "path-inf-3-4": build_system(path_matrix(4, [INF, 3, 4])),
    "triangle": build_system(complete_graph_matrix(3)),
}


def set_view(c):
    """Members, words, inversion sets and bounds, each set of roots as the
    frozenset of its keys; the balance with its witnesses in order; and the
    inversion count of each key in A."""
    upper = keys_of(c.upper)
    return (c.members, c.words, tuple(map(keys_of, c.masks)), keys_of(c.lower), upper,
            c.balance(), {k: c.inversion_count(k) for k in upper})


def oracle_view(ctx, lower, upper, cap=weyl.DEFAULT_ELEMENT_CAP):
    """:func:`set_view` of W_D^A for the masks D and A, recomputed from the
    frozenset rows of the breadth-first oracle.  Witnesses are listed by
    root index for a Weyl type, and for a diagram by the column y(alpha_i)
    at which each member's word meets the root (``inversion_keys_of_word``'s
    walk), without ``key_order``."""
    members, words, invs = zip(*bfs_convex_rows(ctx, keys_of(lower), keys_of(upper), cap))
    union = frozenset.union(*invs)
    n = len(invs)
    counts = {k: sum(k in inv for inv in invs) for k in union}
    best = max((min(c, n - c) for c in counts.values()), default=0)
    column = {}
    if not isinstance(ctx, WeylContext):
        for word in words:
            y = ctx.identity()
            for i in reversed(word):
                column[ctx.simple_image_key(y, i)] = y[i - 1]
                y = ctx.mul_simple_right(y, i)
    witnesses = [k for k in sorted(union, key=lambda k: column.get(k, k))
                 if best and min(counts[k], n - counts[k]) == best]
    return (members, words, invs, frozenset.intersection(*invs), union,
            (Fraction(best, n), witnesses), counts)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_single_sets_match_bfs_oracle(name, monkeypatch):
    """Intervals, hulls and ideals W^A for A inside a union of inversion
    sets have the members, words, inversion sets, lower and upper sets of
    the breadth-first oracle, and its balance, witnesses and inversion
    counts; and both stop at the same cap."""
    ctx = ORACLE_GROUPS[name]
    rng = random.Random(name)
    for _ in range(25):
        els = [ctx.from_word([rng.randint(1, ctx.rank) for _ in range(rng.randint(0, 12))])
               for _ in range(rng.randint(1, 3))]
        invs = [keys_of(ctx.inversion_mask(w)) for w in els]
        lower, upper = mask_of(frozenset.intersection(*invs)), mask_of(frozenset.union(*invs))
        assert set_view(interval_left(ctx, els[0])) == oracle_view(ctx, 0, mask_of(invs[0]))
        assert set_view(convex_hull(ctx, els)) == oracle_view(ctx, lower, upper)
        allowed = mask_of(k for k in bits(upper) if rng.random() < 0.7)
        c = ideal_from_upper(ctx, allowed)
        assert set_view(c) == oracle_view(ctx, 0, allowed)
        with monkeypatch.context() as patch:
            patch.setattr(weyl, "DEFAULT_ELEMENT_CAP", len(c))
            assert set_view(ideal_from_upper(ctx, allowed)) == set_view(c)
            if len(c) > 1:
                patch.setattr(weyl, "DEFAULT_ELEMENT_CAP", len(c) - 1)
                with pytest.raises(weyl.EnumerationCapExceeded):
                    ideal_from_upper(ctx, allowed)
        if len(c) > 1:
            with pytest.raises(weyl.EnumerationCapExceeded):
                oracle_view(ctx, 0, allowed, cap=len(c) - 1)


HULL_GROUPS = {
    "A3": weyl_ctx("A", 3),
    "B3": weyl_ctx("B", 3),
    "path-4-inf": build_system(path_matrix(3, [4, INF])),
}


@given(
    key=st.sampled_from(sorted(HULL_GROUPS)),
    words=st.lists(st.lists(st.integers(min_value=1, max_value=3), max_size=8),
                   min_size=1, max_size=3),
)
def test_hull_of_hull_members_is_the_hull(key, words):
    ctx = HULL_GROUPS[key]
    hull = convex_hull(ctx, [ctx.from_word(w) for w in words])
    assert set_view(convex_hull(ctx, hull.members)) == set_view(hull)


@lru_cache(maxsize=None)
def rank3_diagram(labels):
    """The group object of the rank-3 diagram with labels m_12, m_13, m_23."""
    return build_system(matrix_from_edges(3, [(1, 2, labels[0]), (1, 3, labels[1]),
                                              (2, 3, labels[2])]))


@given(
    labels=st.tuples(*[st.sampled_from((2, 3, 4, 6, INF))] * 3),
    words=st.lists(st.lists(st.integers(min_value=1, max_value=3), max_size=8),
                   min_size=1, max_size=3),
)
def test_hulls_in_rank_3_diagrams_match_bfs_oracle(labels, words):
    """On every rank-3 diagram, the cyclic ones (no label 2) included, the
    hull of up to three words has the members, words, inversion sets,
    bounds, balance, witnesses and inversion counts of the breadth-first
    oracle."""
    ctx = rank3_diagram(labels)
    els = [ctx.from_word(w) for w in words]
    masks = [ctx.inversion_mask(w) for w in els]
    lower, upper = reduce(and_, masks), reduce(or_, masks)
    assert set_view(convex_hull(ctx, els)) == oracle_view(ctx, lower, upper)


def test_fc_interval_bound_in_acyclic_systems():
    """Intervals below fully commutative elements stay at or above 1/3."""
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        sys = ctx
        for w, word in weyl.all_elements(rs):
            if not word or not coxgen.is_fully_commutative(sys, list(word)):
                continue
            assert interval_left(ctx, w).balance_value() >= THIRD
    # bounded sample of the infinite-label path system
    ctx_inf = build_system(path_matrix(4, [INF, INF, INF]))
    random.seed(9)
    seen = set()
    for _ in range(40):
        word = []
        while len(word) < 5:
            i = random.randint(1, 4)
            if word and word[-1] == i:
                break
            word.append(i)
        w = ctx_inf.from_word(word)
        if w in seen or w == ctx_inf.identity():
            continue
        seen.add(w)
        assert interval_left(ctx_inf, w).balance_value() >= THIRD


def test_bridge_between_interval_and_heap():
    """Interval statistics equal heap statistics for fully commutative elements."""
    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        sys = ctx
        checked = 0
        for w, word in weyl.all_elements(rs):
            if not coxgen.is_fully_commutative(sys, list(word)):
                continue
            heap = posets.heap_from_word(sys, word)
            c = interval_left(ctx, w)
            assert c.balance_value() == heap.balance()
            fr = heap.ideal_fractions()
            for pos, k in enumerate(inversion_keys_of_word(sys, word)):
                assert c.inversion_fraction(k) == fr[pos]
            checked += 1
        assert checked > 10


def test_cayley_graph_connected():
    b2 = weyl_ctx("B", 2)
    for c in convex_ideals(b2):
        edges = c.cayley_edges()
        reach = {0}
        frontier = [0]
        adj = {}
        for a, b, _ in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, []):
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        assert reach == set(range(len(c)))


def test_ex63_hull_and_report():
    ctx = build_system(path_matrix(4, [INF, INF, INF]))
    u = ctx.from_word([2, 3, 2, 3])
    v = ctx.from_word([1, 4, 2, 3])
    hull = convex_hull(ctx, [ctx.identity(), u, v])
    assert len(hull) == 10
    assert hull.balance_value() == Fraction(3, 10)
    key = coxgen.reflection_key_of_word(ctx, [3, 2, 3])
    assert hull.inversion_fraction(key) == Fraction(7, 10)
    dot = hull.to_dot()
    assert dot.count("->") == len(hull.cayley_edges())
    import json

    payload = json.loads(json.dumps(hull.to_json()))
    assert payload["size"] == 10
    assert payload["balance"] == {"num": 3, "den": 10}
    # round trip: the emitted element words rebuild the same set
    rebuilt = from_members(
        ctx, [ctx.from_word([int(t) for t in w.split()]) for w in payload["elements"]]
    )
    assert rebuilt.words == hull.words
    assert rebuilt.balance_value() == hull.balance_value()


def test_type_a_scan_against_permutation_model():
    """Full independent oracle: convex ideals of A3 recomputed on one-line
    permutations with pair inversions, no root machinery involved."""
    from itertools import combinations, permutations

    rs = build_root_system("A", 3)
    ctx = WeylContext(rs)
    # pair (i, j), i < j, for each positive root e_i - e_j
    pair_of_root = {}
    for idx, root in enumerate(rs.positive_roots):
        i = root.index(1)
        j = root.index(-1)
        pair_of_root[idx] = (i + 1, j + 1)

    def perm_inversions(perm):
        return {
            (i, j)
            for i, j in combinations(range(1, 5), 2)
            if perm[i - 1] > perm[j - 1]
        }

    all_perms = list(permutations(range(1, 5)))
    for c in convex_ideals(ctx):
        allowed_pairs = {pair_of_root[k] for k in bits(c.upper)}
        members = [p for p in all_perms if perm_inversions(p) <= allowed_pairs]
        assert len(members) == len(c)
        if len(c) <= 1:
            continue
        best = Fraction(0)
        for pair in allowed_pairs:
            cnt = sum(1 for p in members if pair in perm_inversions(p))
            frac = Fraction(cnt, len(members))
            best = max(best, min(frac, 1 - frac))
        assert best == c.balance_value()


def test_kn_hull_sizes():
    for n in (3, 4, 5):
        ctx = build_system(complete_graph_matrix(n))
        gens = [ctx.from_word([i]) for i in range(1, n + 1)]
        hull = convex_hull(ctx, [ctx.identity()] + gens)
        assert len(hull) == n + 1
        assert hull.balance_value() == Fraction(1, n + 1)
