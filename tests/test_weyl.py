"""Weyl group elements: group axioms, words, inversion sets, weak order."""

import random

import pytest

from coxbalance.rootsys import build_root_system
from coxbalance.weyl import (
    EnumerationCapExceeded,
    all_elements,
    from_word,
    group_order,
    identity,
    inverse,
    inversion_set,
    left_descents,
    longest_element,
    multiply,
    one_line,
    reduced_word,
    right_descents,
    simple_reflection,
    weak_leq,
)


def closure_order(rs):
    """Oracle: close the simple reflections under pairwise multiplication."""
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    elements = {identity(rs).action: identity(rs)}
    frontier = list(gens)
    for g in gens:
        elements.setdefault(g.action, g)
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                p = multiply(w, g)
                if p.action not in elements:
                    elements[p.action] = p
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
    assert group_order(rs) == order


def test_group_axioms_a2():
    rs = build_root_system("A", 2)
    els = [w for w, _ in all_elements(rs)]
    e = identity(rs)
    for u in els:
        assert multiply(e, u) == u
        assert multiply(u, inverse(u)) == e
        for v in els:
            assert multiply(u, v).action in {w.action for w in els}


def test_reflections_are_involutions():
    rs = build_root_system("B", 3)
    for i in range(1, 4):
        s = simple_reflection(rs, i)
        assert inverse(s) == s
        assert multiply(s, s) == identity(rs)
        assert inversion_set(s) == {rs.simple_indices[i - 1]}


def test_braid_relation_and_words():
    rs = build_root_system("A", 2)
    assert from_word(rs, [1, 2, 1]) == from_word(rs, [2, 1, 2])
    assert reduced_word(identity(rs)) == ()
    with pytest.raises(ValueError):
        from_word(rs, [3])


def test_reduced_word_round_trip():
    rs = build_root_system("B", 3)
    for w, word in all_elements(rs):
        rw = reduced_word(w)
        assert len(rw) == w.length
        assert from_word(rs, rw) == w
        assert rw == word  # both are the shortlex normal form


def test_longest_element_b3():
    rs = build_root_system("B", 3)
    w0 = longest_element(rs)
    assert w0.length == rs.num_positive_roots == 9
    assert len(reduced_word(w0)) == 9
    assert inversion_set(w0) == frozenset(range(9))


def test_inversion_counts():
    rs = build_root_system("A", 2)
    assert inversion_set(identity(rs)) == frozenset()
    assert len(inversion_set(from_word(rs, [1, 2]))) == 2


def test_length_changes_by_one():
    rs = build_root_system("B", 2)
    for w, _ in all_elements(rs):
        for i in range(1, 3):
            s = simple_reflection(rs, i)
            assert abs(multiply(s, w).length - w.length) == 1


def test_inversion_set_recursion():
    """T_R(w s_i) equals the folded s_i image of T_R(w) symmetric-diff {alpha_i}."""
    rs = build_root_system("B", 3)
    random.seed(3)
    els = [w for w, _ in all_elements(rs)]
    for w in random.sample(els, 20):
        for i in range(1, 4):
            ws = multiply(w, simple_reflection(rs, i))
            ai = rs.simple_indices[i - 1]
            folded = {
                abs(rs.simple_image(i, k)) - 1
                for k in inversion_set(w) ^ {ai}
            }
            assert inversion_set(ws) == folded


def test_weak_order_properties():
    rs = build_root_system("A", 2)
    els = [w for w, _ in all_elements(rs)]
    w0 = longest_element(rs)
    e = identity(rs)
    target = from_word(rs, [1, 2])
    assert sum(1 for u in els if weak_leq(u, target, "left")) == 3
    for u in els:
        assert weak_leq(e, u, "left")
        assert weak_leq(u, u, "left")
        assert weak_leq(u, w0, "left")
        assert weak_leq(u, w0, "right")
        for v in els:
            if weak_leq(u, v, "left") and weak_leq(v, u, "left"):
                assert u == v
    with pytest.raises(ValueError):
        weak_leq(e, e, "sideways")


def test_descents():
    rs = build_root_system("A", 3)
    w = from_word(rs, [1, 2])
    assert right_descents(w) == {2}
    assert left_descents(w) == {1}
    assert left_descents(identity(rs)) == frozenset()


def test_mismatched_systems_rejected():
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError):
        multiply(identity(a2), identity(b2))


def test_enumeration_is_shortlex_sorted():
    rs = build_root_system("B", 2)
    words = [word for _, word in all_elements(rs)]
    assert words == sorted(words, key=lambda w: (len(w), w))


def bfs_elements(rs, cap):
    """Oracle: breadth-first search with a set of seen elements.

    Each level is sorted by the word that first reached each element.
    Returns the yielded (action, word) pairs and the cap error message, if any.
    """
    start = identity(rs)
    seen = {start.action}
    level = [((), start)]
    out = []
    count = 1
    while level:
        out.extend((w.action, word) for word, w in level)
        nxt = []
        for word, w in level:
            for i in range(1, rs.rank + 1):
                if i in right_descents(w):
                    continue
                w2 = multiply(w, simple_reflection(rs, i))
                if w2.action not in seen:
                    seen.add(w2.action)
                    count += 1
                    if count > cap:
                        return out, str(EnumerationCapExceeded(cap))
                    nxt.append((word + (i,), w2))
        nxt.sort(key=lambda t: t[0])
        level = nxt
    return out, None


def capped_elements(rs, cap):
    out = []
    try:
        for w, word in all_elements(rs, cap):
            out.append((w.action, word))
    except EnumerationCapExceeded as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize("family,rank", [
    *(("A", r) for r in range(1, 7)),
    *(("B", r) for r in range(2, 6)),
    *(("C", r) for r in range(2, 6)),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
])
def test_enumeration_matches_bfs_oracle(family, rank):
    rs = build_root_system(family, rank)
    full = bfs_elements(rs, 10**6)
    assert capped_elements(rs, 10**6) == full
    n = len(full[0])
    for cap in (1, 2, 5, n // 3, n - 1, n):
        assert capped_elements(rs, cap) == bfs_elements(rs, cap), cap


def test_enumeration_cap():
    rs = build_root_system("A", 3)
    with pytest.raises(EnumerationCapExceeded) as exc:
        list(all_elements(rs, cap=5))
    assert "5" in str(exc.value)


def test_one_line_notation():
    rs = build_root_system("A", 3)
    assert one_line(identity(rs)) == (1, 2, 3, 4)
    s1 = from_word(rs, [1])
    assert one_line(s1) == (2, 1, 3, 4)
    # composition convention: (s1 s2) e1 = s1(e1) = e2, (s1 s2) e3 = s1(e2) = e1
    w = from_word(rs, [1, 2])
    assert one_line(w) == (2, 3, 1, 4)
    assert sorted(one_line(w)) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        one_line(identity(build_root_system("B", 2)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_one_line_matches_ambient_action(rank):
    """Oracle: w(e_1 - e_j) = e_{pi(1)} - e_{pi(j)} through ``apply``."""
    rs = build_root_system("A", rank)
    n = rank + 1
    for w, _ in all_elements(rs):
        perm = [0] * n
        for j in range(1, n):
            img = w.apply(tuple((t == 0) - (t == j) for t in range(n)))
            perm[0], perm[j] = img.index(1) + 1, img.index(-1) + 1
        assert one_line(w) == tuple(perm)
