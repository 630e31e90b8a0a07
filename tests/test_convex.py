"""Convex sets: construction, balance, translation, hulls, scans."""

import random
from fractions import Fraction

import pytest

from coxbalance import coxgen, posets, weyl
from coxbalance.convex import (
    CoxContext,
    EmptyConvexSetError,
    WeylContext,
    convex_hull,
    convex_set,
    enumerate_convex_ideals,
    from_members,
    ideal_from_upper,
    interval_left,
    min_balance,
    translate,
)
from coxbalance.coxgen import INF, build_system, complete_graph_matrix, matrix_from_edges, path_matrix
from coxbalance.rootsys import build_root_system

THIRD = Fraction(1, 3)


def weyl_ctx(family, rank):
    return WeylContext(build_root_system(family, rank))


def brute_force_ideal(ctx, allowed):
    """Oracle: filter the whole group by inversion containment."""
    return {
        ctx.element_key(w)
        for w, _ in weyl.all_elements(ctx.root_system)
        if weyl.inversion_set(w) <= allowed
    }


def test_ideal_from_upper_examples():
    a2 = weyl_ctx("A", 2)
    assert len(ideal_from_upper(a2, frozenset())) == 1
    assert len(ideal_from_upper(a2, a2.all_keys())) == 6
    # A = {a1, a1+a2} gives the interval below s1 s2 read on the other side:
    # inversions of s2 s1 are a1 and a1+a2
    w = a2.from_word([2, 1])
    c = ideal_from_upper(a2, weyl.inversion_set(w))
    assert len(c) == 3
    assert c.words == ((), (1,), (2, 1))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_ideal_matches_brute_force_filter(family, rank):
    ctx = weyl_ctx(family, rank)
    n = ctx.root_system.num_positive_roots
    for mask in range(1 << n):
        allowed = frozenset(i for i in range(n) if (mask >> i) & 1)
        c = ideal_from_upper(ctx, allowed)
        assert {ctx.element_key(m) for m in c.members} == brute_force_ideal(ctx, allowed)


def test_ideals_downward_closed_in_left_order():
    ctx = weyl_ctx("B", 2)
    els = [w for w, _ in weyl.all_elements(ctx.root_system)]
    n = ctx.root_system.num_positive_roots
    for mask in range(1 << n):
        allowed = frozenset(i for i in range(n) if (mask >> i) & 1)
        c = ideal_from_upper(ctx, allowed)
        keys = {ctx.element_key(m) for m in c.members}
        for m in c.members:
            for u in els:
                if weyl.weak_leq(u, m, "left"):
                    assert ctx.element_key(u) in keys


def test_interval_left():
    a2 = weyl_ctx("A", 2)
    c = interval_left(a2, a2.from_word([1, 2]))
    assert len(c) == 3
    assert c.balance_value() == THIRD
    assert len(interval_left(a2, a2.identity())) == 1


def test_convex_set_with_lower_constraint():
    a2 = weyl_ctx("A", 2)
    a1_key = a2.simple_key(1)
    c = convex_set(a2, {a1_key}, frozenset(a2.all_keys()))
    # brute force: elements of S3 with a1 as inversion
    expect = {
        a2.element_key(w)
        for w, _ in weyl.all_elements(a2.root_system)
        if a1_key in weyl.inversion_set(w)
    }
    assert {a2.element_key(m) for m in c.members} == expect
    assert len(c) == 3


def test_empty_convex_set_errors():
    a2 = weyl_ctx("A", 2)
    high = a2.root_system.highest_root_index
    with pytest.raises(EmptyConvexSetError):
        convex_set(a2, {high}, {high})
    with pytest.raises(EmptyConvexSetError):
        convex_set(a2, {0}, frozenset())


def test_canonicality():
    """Rebuilding each enumerated set from its own (D, A) reproduces it exactly."""
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        ctx = weyl_ctx(family, rank)
        for c in enumerate_convex_ideals(ctx):
            again = convex_set(ctx, c.lower, c.upper)
            assert again.words == c.words


def test_hull_contains_inputs_and_is_minimal():
    a3 = weyl_ctx("A", 3)
    els = [a3.from_word([1, 2]), a3.from_word([2, 3, 2])]
    hull = convex_hull(a3, els)
    for w in els:
        assert w in hull
    # minimality: the hull is contained in every W_D^A containing the inputs
    invs = [weyl.inversion_set(w) for w in els]
    c2 = convex_set(a3, frozenset.intersection(*invs), frozenset(a3.all_keys()))
    assert {a3.element_key(m) for m in hull.members} <= {
        a3.element_key(m) for m in c2.members
    }


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


def test_whole_group_balance_is_half():
    for family, rank in [("A", 2), ("B", 2)]:
        ctx = weyl_ctx(family, rank)
        c = ideal_from_upper(ctx, ctx.all_keys())
        b, wits = c.balance()
        assert b == Fraction(1, 2)
        assert wits  # every reflection pairs off


def test_fraction_constant_outside_bounds():
    a2 = weyl_ctx("A", 2)
    c = interval_left(a2, a2.from_word([1, 2]))
    outside = next(k for k in a2.all_keys() if k not in c.upper)
    assert c.inversion_fraction(outside) == 0
    w = a2.from_word([1, 2, 1])
    single = convex_hull(a2, [w])
    for k in single.lower:
        assert single.inversion_fraction(k) == 1


def test_translate_identity_and_membership():
    a3 = weyl_ctx("A", 3)
    c = interval_left(a3, a3.from_word([1, 2]))
    assert translate(c, a3.identity()).words == c.words
    w = c.members[-1]
    moved = translate(c, weyl.inverse(w))
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
            allowed = frozenset(i for i in range(n) if (mask >> i) & 1)
            c = ideal_from_upper(ctx, allowed)
            w = random.choice(els)
            assert translate(c, w).balance_value() == c.balance_value()


def test_product_balance_law():
    """On a reducible diagram the set splits and the balance is the larger
    factor balance (a reflection living in one factor keeps its fraction).
    The acceptance suite checks the same rule on the same samples and
    records that the quoted min rule is refuted."""
    random.seed(5)
    # A3 x A1 as a rank-4 diagram with generator 4 disconnected
    prod = CoxContext(build_system(matrix_from_edges(4, [(1, 2, 3), (2, 3, 3)])))
    f1 = CoxContext(build_system(path_matrix(3, [3, 3])))
    f2 = CoxContext(build_system(matrix_from_edges(1, [])))
    roots = []
    a3_rs = build_root_system("A", 3)
    for coeffs in a3_rs.coefficients:
        roots.append(tuple(Fraction(c) for c in coeffs) + (Fraction(0),))
    roots.append((Fraction(0),) * 3 + (Fraction(1),))
    for _ in range(50):
        mask = random.randrange(1, 1 << len(roots))
        allowed = frozenset(r for k, r in enumerate(roots) if (mask >> k) & 1)
        c = ideal_from_upper(prod, allowed)
        a1 = frozenset(r[:3] for r in allowed if r[3] == 0)
        a2 = frozenset((r[3],) for r in allowed if r[3] != 0)
        b1 = ideal_from_upper(f1, a1).balance_value()
        b2 = ideal_from_upper(f2, a2).balance_value()
        assert len(c) == len(ideal_from_upper(f1, a1)) * len(ideal_from_upper(f2, a2))
        assert c.balance_value() == max(b1, b2)


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 1, Fraction(1, 2)), ("A", 2, THIRD), ("B", 2, THIRD),
    ("A", 3, THIRD), ("B", 3, THIRD), ("G", 2, THIRD),
])
def test_min_balance(family, rank, expected):
    ctx = weyl_ctx(family, rank)
    mb, argmin = min_balance(ctx)
    assert mb == expected
    assert argmin


def test_min_balance_b3_includes_figure_interval():
    ctx = weyl_ctx("B", 3)
    w = ctx.from_word([3, 2, 3, 1])
    target = tuple(sorted(weyl.inversion_set(w)))
    _, argmin = min_balance(ctx)
    assert any(c.canonical_upper == target for c in argmin)


def test_scan_guard():
    ctx = weyl_ctx("A", 5)
    with pytest.raises(ValueError, match="12"):
        list(enumerate_convex_ideals(ctx))


def subset_scan_oracle(ctx):
    """Every W^A built by breadth-first search, one per subset of the positive
    roots, deduplicated by its union of inversions and sorted by (|A|, A)."""
    n = ctx.root_system.num_positive_roots
    seen = {}
    for mask in range(1 << n):
        c = ideal_from_upper(ctx, {i for i in range(n) if (mask >> i) & 1})
        seen.setdefault(c.canonical_upper, c)
    return [seen[k] for k in sorted(seen, key=lambda k: (len(k), k))]


def scan_view(sets):
    return [
        (c.canonical_upper, c.canonical_lower, c.words,
         tuple(m.action for m in c.members), c.inv_sets)
        for c in sets
    ]


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 2), ("A", 2, 7), ("A", 3, 40),
    ("B", 2, 11), ("G", 2, 22), ("B", 3, 139),
])
def test_scan_matches_subset_oracle(family, rank, count):
    """The union scan yields the same sets, members and words, in the same
    order, as a BFS build for every subset of the positive roots."""
    ctx = weyl_ctx(family, rank)
    got = scan_view(enumerate_convex_ideals(ctx))
    assert len(got) == count
    assert got == scan_view(subset_scan_oracle(ctx))


def test_scan_count_a4():
    uppers = [c.canonical_upper for c in enumerate_convex_ideals(weyl_ctx("A", 4))]
    assert len(uppers) == len(set(uppers)) == 357


def test_bfs_cap_guard():
    ctx = weyl_ctx("A", 3)
    with pytest.raises(weyl.EnumerationCapExceeded, match="10"):
        ideal_from_upper(ctx, ctx.all_keys(), cap=10)


def test_fc_interval_bound_in_acyclic_systems():
    """Intervals below fully commutative elements stay at or above 1/3."""
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        sys = coxgen.WeylSystem(rs)
        for w, word in weyl.all_elements(rs):
            if not word or not coxgen.is_fully_commutative(sys, list(word)):
                continue
            assert interval_left(ctx, w).balance_value() >= THIRD
    # bounded sample of the infinite-label path system
    sys_inf = build_system(path_matrix(4, [INF, INF, INF]))
    ctx_inf = CoxContext(sys_inf)
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
        key = ctx_inf.element_key(w)
        if key in seen or w.length() == 0:
            continue
        seen.add(key)
        assert interval_left(ctx_inf, w).balance_value() >= THIRD


def test_bridge_between_interval_and_heap():
    """Interval statistics equal heap statistics for fully commutative elements."""
    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        sys = coxgen.WeylSystem(rs)
        checked = 0
        for w, word in weyl.all_elements(rs):
            if not coxgen.is_fully_commutative(sys, list(word)):
                continue
            heap = posets.heap_from_word(sys, word)
            c = interval_left(ctx, w)
            assert c.balance_value() == heap.balance()
            fr = heap.ideal_fractions()
            for root, pos in posets.heap_inversion_map(sys, word):
                k = rs.index_of(root)
                assert c.inversion_fraction(k) == fr[pos]
            checked += 1
        assert checked > 10


def test_cayley_graph_connected():
    b2 = weyl_ctx("B", 2)
    for c in enumerate_convex_ideals(b2):
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
    ctx = CoxContext(build_system(path_matrix(4, [INF, INF, INF])))
    u = ctx.from_word([2, 3, 2, 3])
    v = ctx.from_word([1, 4, 2, 3])
    hull = convex_hull(ctx, [ctx.identity(), u, v])
    assert len(hull) == 10
    assert hull.balance_value() == Fraction(3, 10)
    assert hull.inversion_fraction(word=[3, 2, 3]) == Fraction(7, 10)
    dot = hull.to_dot()
    assert dot.count("->") == len(hull.cayley_edges())
    import json

    payload = json.loads(hull.to_json())
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
    for c in enumerate_convex_ideals(ctx):
        allowed_pairs = {pair_of_root[k] for k in c.upper}
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
        ctx = CoxContext(build_system(complete_graph_matrix(n)))
        gens = [ctx.from_word([i]) for i in range(1, n + 1)]
        hull = convex_hull(ctx, [ctx.identity()] + gens)
        assert len(hull) == n + 1
        assert hull.balance_value() == Fraction(1, n + 1)
