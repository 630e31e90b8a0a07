"""Weyl group elements: group axioms, words, inversion sets, weak order."""

import random
from collections import Counter
from itertools import islice
from math import prod

import pytest

from conftest import apply, marks_group_order, one_line
from coxbalance import rootsys, weyl
from coxbalance.coxgen import INF, build_system, complete_graph_matrix, path_matrix, shortlex_levels
from coxbalance.linalg import bits
from coxbalance.rootsys import build_root_system
from coxbalance.weyl import (
    MAX_BYTE_ROOTS,
    EnumerationCapExceeded,
    WeylContext,
    all_elements,
    group_order,
    levels,
    reduced_word,
)


def length(w):
    return sum(1 for a in w if a < 0)


def closure_order(rs):
    """Oracle: close the simple reflections under pairwise multiplication."""
    ctx = WeylContext(rs)
    gens = [ctx.from_word([i]) for i in range(1, rs.rank + 1)]
    elements = {ctx.identity(), *gens}
    frontier = list(gens)
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                p = ctx.mul(w, g)
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return len(elements)


@pytest.mark.parametrize("family,rank,order", [
    ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
    ("D", 4, 192), ("G", 2, 12),
])
def test_group_orders_match_closure_oracle(family, rank, order):
    rs = build_root_system(family, rank)
    assert closure_order(rs) == order
    assert sum(1 for _ in all_elements(rs)) == order


def test_group_axioms_a2():
    ctx = WeylContext(build_root_system("A", 2))
    els = [w for w, _ in all_elements(ctx.root_system)]
    e = ctx.identity()
    for u in els:
        assert ctx.mul(e, u) == u
        assert ctx.mul(u, ctx.invert(u)) == e
        for v in els:
            assert ctx.mul(u, v) in els


def test_reflections_are_involutions():
    rs = build_root_system("B", 3)
    ctx = WeylContext(rs)
    for i in range(1, 4):
        s = ctx.from_word([i])
        assert ctx.invert(s) == s
        assert ctx.mul(s, s) == ctx.identity()
        assert ctx.inversion_mask(s) == 1 << rs.simple_indices[i - 1]


def test_braid_relation_and_words():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    assert ctx.from_word([1, 2, 1]) == ctx.from_word([2, 1, 2])
    assert reduced_word(rs, ctx.identity()) == ()
    with pytest.raises(ValueError):
        ctx.from_word([3])


@pytest.mark.parametrize("family,rank", [
    ("A", 4), ("B", 3), ("D", 4), ("F", 4), ("G", 2),
])
def test_reduced_word_round_trip(family, rank):
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    for w, word in all_elements(rs):
        rw = reduced_word(rs, w)
        assert rw == word  # both are the shortlex normal form
        assert len(rw) == length(w)
        assert ctx.from_word(rw) == w
        assert ctx.reduced_word(w) == rw


def test_longest_element_b3():
    rs = build_root_system("B", 3)
    *_, (w0, _) = all_elements(rs)
    assert length(w0) == rs.num_positive_roots == 9
    assert len(reduced_word(rs, w0)) == 9
    assert WeylContext(rs).inversion_mask(w0) == (1 << 9) - 1


def test_inversion_counts():
    ctx = WeylContext(build_root_system("A", 2))
    assert ctx.inversion_mask(ctx.identity()) == 0
    assert ctx.inversion_mask(ctx.from_word([1, 2])).bit_count() == 2


def test_length_changes_by_one():
    rs = build_root_system("B", 2)
    ctx = WeylContext(rs)
    for w, _ in all_elements(rs):
        for i in range(1, 3):
            assert abs(length(ctx.mul_simple_left(w, i)) - length(w)) == 1
            assert ctx.mul_simple_left(w, i) == ctx.mul(ctx.from_word([i]), w)


def test_inversion_set_recursion():
    """T_R(w s_i) equals the folded s_i image of T_R(w) symmetric-diff {alpha_i}."""
    rs = build_root_system("B", 3)
    ctx = WeylContext(rs)
    random.seed(3)
    els = [w for w, _ in all_elements(rs)]
    for w in random.sample(els, 20):
        for i in range(1, 4):
            ws = ctx.mul_simple_right(w, i)
            ai = rs.simple_indices[i - 1]
            folded = sum(
                1 << abs(rs.simple_image(i, k)) - 1
                for k in bits(ctx.inversion_mask(w) ^ 1 << ai)
            )
            assert ctx.inversion_mask(ws) == folded


def test_weak_order_properties():
    """Left weak order is inversion-set containment; right, that of inverses."""
    ctx = WeylContext(build_root_system("A", 2))
    els = [w for w, _ in all_elements(ctx.root_system)]

    def left_leq(u, v):
        return ctx.inversion_mask(u) & ~ctx.inversion_mask(v) == 0

    def right_leq(u, v):
        return left_leq(ctx.invert(u), ctx.invert(v))

    w0 = els[-1]
    e = ctx.identity()
    target = ctx.from_word([1, 2])
    assert sum(1 for u in els if left_leq(u, target)) == 3
    for u in els:
        assert left_leq(e, u)
        assert left_leq(u, u)
        assert left_leq(u, w0)
        assert right_leq(u, w0)
        for v in els:
            if left_leq(u, v) and left_leq(v, u):
                assert u == v


def test_descents():
    """i is a right descent of w iff w alpha_i < 0, a left one iff w^-1 alpha_i < 0."""
    ctx = WeylContext(build_root_system("A", 3))

    def descents(w):
        return {i for i in range(1, 4) if ctx.simple_image_key(w, i) is None}

    w = ctx.from_word([1, 2])
    assert descents(w) == {2}
    assert descents(ctx.invert(w)) == {1}
    assert descents(ctx.invert(ctx.identity())) == set()


def test_enumeration_is_shortlex_sorted():
    rs = build_root_system("B", 2)
    words = [word for _, word in all_elements(rs)]
    assert words == sorted(words, key=lambda w: (len(w), w))


def bfs_levels(rs):
    """Oracle: breadth-first search with a set of seen elements, one length
    at a time, each level as (element, word) pairs sorted by the word that
    first reached each element."""
    ctx = WeylContext(rs)
    start = ctx.identity()
    seen = {start}
    level = [((), start)]
    while level:
        yield [(w, word) for word, w in level]
        nxt = []
        for word, w in level:
            for i in range(1, rs.rank + 1):
                if ctx.simple_image_key(w, i) is None:  # a right descent
                    continue
                w2 = ctx.mul_simple_right(w, i)
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append((word + (i,), w2))
        nxt.sort(key=lambda t: t[0])
        level = nxt


def decode(code):
    """A level entry's element: the walk stores each signed root index a as a % 256."""
    return tuple(a - 256 if a > 127 else a for a in code)


def decoded_levels(rs):
    """``levels`` with each code decoded, one list of blocks per level."""
    for level in levels(rs, group_order(rs)):
        yield [[decode(code) for code in block] for block in level]


FULL_TYPES = [
    *(("A", r) for r in range(1, 7)),
    *(("B", r) for r in range(2, 6)),
    *(("C", r) for r in range(2, 6)),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]

# Types too large to walk in full, on both sides of the walk's byte-encoding
# bound MAX_BYTE_ROOTS = 127: E8 and A15 (120 roots) and B11 (121) have the
# largest indices that still fit, and the walk refuses A16 (136) and D12 (132).
NEAR_BYTE_BOUND = {("E", 8): 120, ("A", 15): 120, ("B", 11): 121}
PAST_BYTE_BOUND = {("A", 16): 136, ("D", 12): 132}


@pytest.mark.parametrize("family,rank", [*FULL_TYPES, *NEAR_BYTE_BOUND])
def test_enumeration_matches_bfs_oracle(family, rank, monkeypatch):
    """Every level on the full types; the first 6 levels near the byte bound.
    Level k of ``levels``, decoded, is the oracle's sphere of radius k in
    shortlex order, and its block j holds exactly the elements whose oracle
    word starts with j + 1 (e's block is the last).  ``all_elements`` gives
    the oracle's (element, word) pairs in the same order."""
    rs = build_root_system(family, rank)
    walk, oracle = decoded_levels(rs), bfs_levels(rs)
    near = (family, rank) in NEAR_BYTE_BOUND
    if near:
        assert rs.num_positive_roots == NEAR_BYTE_BOUND[family, rank] <= MAX_BYTE_ROOTS
        walk, oracle = islice(walk, 6), islice(oracle, 6)
    walked, expected = list(walk), list(oracle)
    assert len(walked) == len(expected)
    for blocks, sphere in zip(walked, expected):
        assert [w for block in blocks for w in block] == [w for w, _ in sphere]
        for j, block in enumerate(blocks):
            assert block == [w for w, word in sphere if (word[0] - 1 if word else rank) == j]
    flat = [entry for sphere in expected for entry in sphere]
    if near:
        monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", group_order(rs))
        assert list(islice(all_elements(rs), len(flat))) == flat
    else:
        assert list(all_elements(rs)) == flat


TREE_GROUPS = {
    **{f"{family}-{rank}": WeylContext(build_root_system(family, rank))
       for family, rank in [("A", 4), ("B", 4), ("D", 4), ("F", 4), ("G", 2)]},
    "path-6-inf": build_system(path_matrix(3, [6, INF])),
    "path-inf-3-4": build_system(path_matrix(4, [INF, 3, 4])),
    "triangle": build_system(complete_graph_matrix(3)),
}


def ball(g, radius):
    """Oracle: the length of each element of length at most ``radius``, by
    breadth-first search with a set of seen elements."""
    dist = {g.identity(): 0}
    frontier = [g.identity()]
    for ell in range(1, radius + 1):
        nxt = []
        for u in frontier:
            for i in range(1, g.rank + 1):
                v = g.mul_simple_left(u, i)
                if v not in dist:
                    dist[v] = ell
                    nxt.append(v)
        frontier = nxt
    return dist


@pytest.mark.parametrize("name", list(TREE_GROUPS))
def test_skipped_blocks_hold_no_tree_child(name):
    """``shortlex_levels`` with an ``extend`` that keeps every tree child,
    found by breadth-first lengths, on a Weyl group object in full and on
    a diagram's first 8 levels.  Level k is the sphere of radius k, each
    element once; block j < r holds the elements whose least left descent
    is j + 1, and block r holds e alone at length 0.  For every (letter i,
    block) pair the walk does not hand to ``extend``, each u in the block
    has s_i u shorter than u or a left descent k < i of s_i u, so the
    block holds no child of letter i."""
    g = TREE_GROUPS[name]
    r = g.rank
    depth = 30 if isinstance(g, WeylContext) else 8  # past the longest Weyl element
    dist = ball(g, depth + 1)

    def left_descents(u):
        return [k for k in range(1, r + 1) if dist[g.mul_simple_left(u, k)] < dist[u]]

    def is_child(i, u):
        v = g.mul_simple_left(u, i)
        return dist[v] > dist[u] and not any(k < i for k in left_descents(v))

    handed = set()

    def extend(i, block):
        handed.add((i, id(block)))
        return [g.mul_simple_left(u, i) for u in block if is_child(i, u)]

    walked = list(islice(shortlex_levels(g.coxeter, g.identity(), extend, 10**6), depth + 1))
    assert walked[0] == [[]] * r + [[g.identity()]]
    skips = 0
    for ell, level in enumerate(walked):
        members = [u for block in level for u in block]
        assert len(members) == len(set(members))
        assert set(members) == {u for u, d in dist.items() if d == ell}
        for j, block in enumerate(level[:r]):
            assert all(left_descents(u)[0] == j + 1 for u in block)
        if ell == depth:
            break  # the walk stopped before extending this level
        for j, block in enumerate(level):
            for i in range(1, r + 1):
                if block and (i, id(block)) not in handed:
                    skips += 1
                    assert not any(is_child(i, u) for u in block)
    assert skips > 0


def test_walk_tries_each_letter_on_its_blocks_only(monkeypatch):
    """On E6 the walk hands its translate step 95113 of the 6 * 51840
    (letter, element) pairs."""
    rs = build_root_system("E", 6)
    tries = []

    def counted(coxeter, root, extend, cap):
        def counting(i, block):
            tries.append(len(block))
            return extend(i, block)

        return shortlex_levels(coxeter, root, counting, cap)

    monkeypatch.setattr(weyl, "shortlex_levels", counted)
    order = sum(len(block) for level in levels(rs) for block in level)
    assert (sum(tries), order) == (95113, 51840)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_cap_is_checked_against_group_order_before_the_walk(family, rank, monkeypatch):
    rs = build_root_system(family, rank)
    order = group_order(rs)
    assert sum(len(block) for level in levels(rs, order) for block in level) == order
    for cap in (order - 1, 0):
        monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", cap)
        for walk in (levels(rs, cap), all_elements(rs)):
            with pytest.raises(EnumerationCapExceeded) as exc:
                next(walk)
            assert str(exc.value) == f"group enumeration exceeded the element cap of {cap}"


@pytest.mark.parametrize("family,rank", PAST_BYTE_BOUND)
def test_walk_refuses_types_past_the_byte_bound(family, rank):
    rs = build_root_system(family, rank)
    assert rs.num_positive_roots == PAST_BYTE_BOUND[family, rank] > MAX_BYTE_ROOTS
    with pytest.raises(EnumerationCapExceeded):
        next(levels(rs))
    with pytest.raises(ValueError, match=f"at most {MAX_BYTE_ROOTS} positive roots") as exc:
        next(levels(rs, group_order(rs)))
    assert not isinstance(exc.value, EnumerationCapExceeded)


@pytest.mark.parametrize("walk", [all_elements, levels])
def test_walk_builds_the_letter_steps_once(walk, monkeypatch):
    calls = []
    build = weyl._letter_steps

    def counted(rs, cap):
        calls.append(cap)
        return build(rs, cap)

    monkeypatch.setattr(weyl, "_letter_steps", counted)
    rs = build_root_system("B", 3)
    items = walk(rs)
    assert calls == []  # a generator: the steps and their errors wait for next()
    assert sum(1 for _ in items) == {all_elements: 48, levels: 10}[walk]
    assert calls == [weyl.DEFAULT_ELEMENT_CAP]


def test_enumeration_cap(monkeypatch):
    rs = build_root_system("A", 3)
    monkeypatch.setattr(weyl, "DEFAULT_ELEMENT_CAP", 5)
    with pytest.raises(EnumerationCapExceeded) as exc:
        list(all_elements(rs))
    assert "5" in str(exc.value)


def degrees(family, rank):
    """Degrees of the basic invariants (Humphreys, Reflection Groups and
    Coxeter Groups, section 3.7)."""
    if family == "A":
        return list(range(2, rank + 2))
    if family in "BC":
        return list(range(2, 2 * rank + 1, 2))
    if family == "D":
        return list(range(2, 2 * rank - 1, 2)) + [rank]
    return {
        ("E", 6): [2, 5, 6, 8, 9, 12],
        ("E", 7): [2, 6, 8, 10, 12, 14, 18],
        ("E", 8): [2, 8, 12, 14, 18, 20, 24, 30],
        ("F", 4): [2, 6, 8, 12],
        ("G", 2): [2, 6],
    }[family, rank]


def poincare_coefficients(degrees):
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1)), lowest first."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for k, c in enumerate(coeffs):
            for j in range(d):
                out[k + j] += c
        coeffs = out
    return coeffs


POINCARE_TYPES = [
    *(("A", r) for r in range(1, 6)),
    *(("B", r) for r in range(2, 6)),
    *(("C", r) for r in range(2, 6)),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6),
]


@pytest.mark.parametrize("family,rank", POINCARE_TYPES)
def test_length_counts_match_poincare_polynomial(family, rank):
    """The length distribution of ``all_elements`` is the Poincare polynomial
    of W, whose coefficients come from the degrees alone, not from any
    group element."""
    rs = build_root_system(family, rank)
    counts = Counter()
    for w, word in all_elements(rs):
        assert len(word) == length(w)
        counts[len(word)] += 1
    expected = poincare_coefficients(degrees(family, rank))
    assert [counts[k] for k in range(len(expected))] == expected
    assert sum(counts.values()) == sum(expected)


@pytest.mark.parametrize("family,rank", [*POINCARE_TYPES, ("E", 7)])
def test_level_sizes_match_poincare_polynomial(family, rank):
    """The level sizes that ``coxbalance group`` prints, with no code
    decoded, so E7's 2903040 elements (past ``DEFAULT_ELEMENT_CAP``) are
    walked too."""
    rs = build_root_system(family, rank)
    expected = poincare_coefficients(degrees(family, rank))
    sizes = [sum(map(len, level)) for level in levels(rs, group_order(rs))]
    assert sizes == expected
    assert group_order(rs) == sum(sizes)


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 20)),
    *((f, r) for f in "BC" for r in range(2, 16)),
    *(("D", r) for r in range(4, 16)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
])
def test_group_order_is_the_product_of_the_degrees(family, rank):
    """|W| = d_1 ... d_r (Humphreys, section 3.9), read from the type alone."""
    assert group_order(build_root_system(family, rank)) == prod(degrees(family, rank))


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 21)),
    *((f, r) for f in "BC" for r in range(2, 15)),
    *(("D", r) for r in range(4, 15)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
])
def test_group_order_matches_the_marks_formula(family, rank):
    """The degrees read off the root heights are the type's degrees, and
    their product is the |W| of the highest root's marks and the index of
    connection."""
    rs = build_root_system(family, rank)
    assert sorted(rootsys.degrees(rs)) == sorted(degrees(family, rank))
    assert group_order(rs) == marks_group_order(rs)


def test_one_line_notation():
    rs = build_root_system("A", 3)
    ctx = WeylContext(rs)
    assert one_line(rs, ctx.identity()) == (1, 2, 3, 4)
    assert one_line(rs, ctx.from_word([1])) == (2, 1, 3, 4)
    # composition convention: (s1 s2) e1 = s1(e1) = e2, (s1 s2) e3 = s1(e2) = e1
    w = ctx.from_word([1, 2])
    assert one_line(rs, w) == (2, 3, 1, 4)
    assert sorted(one_line(rs, w)) == [1, 2, 3, 4]
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError):
        one_line(b2, WeylContext(b2).identity())


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_one_line_matches_ambient_action(rank):
    """Oracle: w(e_1 - e_j) = e_{pi(1)} - e_{pi(j)} through ``apply``."""
    rs = build_root_system("A", rank)
    n = rank + 1
    for w, _ in all_elements(rs):
        perm = [0] * n
        for j in range(1, n):
            img = apply(rs, w, tuple((t == 0) - (t == j) for t in range(n)))
            perm[0], perm[j] = img.index(1) + 1, img.index(-1) + 1
        assert one_line(rs, w) == tuple(perm)
