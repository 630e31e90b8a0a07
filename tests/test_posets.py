"""Posets, heaps, ideal statistics, and the heap-side checks."""

import gc
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    commutation_class,
    dual,
    heap_respects_diagram,
    inversion_keys_of_word,
    labelled_relation,
    word_length,
)
from coxbalance import posets, verify
from coxbalance.coxgen import (
    INF,
    NotReducedError,
    build_system,
    cycle_matrix,
    is_fully_commutative,
    matrix_from_edges,
    path_matrix,
)
from coxbalance.posets import (
    IdealCapExceeded,
    LabeledPoset,
    claw_chain,
    fraction_balance,
    heap_from_word,
    is_isomorphic,
    poset_dot,
    poset_from_covers,
    poset_json,
    walk_order_ideals,
)
from coxbalance.linalg import bits
from coxbalance.rootsys import build_root_system
from coxbalance import convex

THIRD = Fraction(1, 3)


def brute_force_ideals(poset):
    """Oracle: filter all subsets for downward closure."""
    out = []
    for mask in range(1 << poset.n):
        ok = True
        for i in range(poset.n):
            if (mask >> i) & 1:
                for j in range(poset.n):
                    if (poset.rows[j] >> i) & 1 and not (mask >> j) & 1:
                        ok = False
        if ok:
            out.append(mask)
    return out


def test_poset_validation():
    with pytest.raises(ValueError, match="rows must be n bitmasks"):
        LabeledPoset(2, (0b01,))
    with pytest.raises(ValueError, match="rows must be n bitmasks"):
        LabeledPoset(2, (0b101, 0b10))
    with pytest.raises(ValueError, match="relation must be antisymmetric"):
        LabeledPoset(2, (0b11, 0b11))
    with pytest.raises(ValueError, match="relation must be reflexive"):
        LabeledPoset(2, (0b00, 0b10))
    # 0 <= 1 <= 2 without 0 <= 2
    with pytest.raises(ValueError, match="relation must be transitive"):
        LabeledPoset(3, (0b011, 0b110, 0b100))
    chain = poset_from_covers(3, [(0, 1), (1, 2)])
    assert chain.covers() == [(0, 1), (1, 2)]
    assert chain.rows == (0b111, 0b110, 0b100)


def test_closure_of_pairs_in_any_orientation():
    # heap_from_word passes (later, earlier) positions; the closure must not
    # assume i < j.  Oracle: repeated boolean composition until stable.
    pairs = [(4, 2), (2, 0), (3, 1), (1, 0), (5, 3), (4, 3)]
    n = 6
    leq = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in range(n)):
                    leq[i][j] = changed = True
    p = poset_from_covers(n, pairs)
    assert p.rows == tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
    assert p.covers() == sorted(pairs)


def test_small_ideal_counts():
    antichain = poset_from_covers(2, [])
    assert antichain.ideal_count() == 4
    chain = poset_from_covers(2, [(0, 1)])
    assert chain.ideal_count() == 3
    assert chain.ideal_statistics()[1] == [Fraction(2, 3), Fraction(1, 3)]


@pytest.mark.parametrize("covers,n", [
    ([], 4),
    ([(0, 1), (1, 2)], 3),
    ([(0, 2), (1, 2), (2, 3)], 4),
    ([(0, 1), (0, 2), (3, 2)], 4),
])
def test_ideal_enumeration_against_brute_force(covers, n):
    poset = poset_from_covers(n, covers)
    assert sorted(poset.iter_ideal_masks()) == brute_force_ideals(poset)


def test_ideal_cap(monkeypatch):
    """The cap counts the ideals walked, not the elements, and is read when
    the walk starts."""
    big = poset_from_covers(41, [])
    small = poset_from_covers(12, [])
    with monkeypatch.context() as patch:
        patch.setattr(posets, "IDEAL_CAP", 1000)
        with pytest.raises(IdealCapExceeded, match="more than 1000 order ideals"):
            big.ideal_count()
        patch.setattr(posets, "IDEAL_CAP", 2 ** 12 - 1)
        with pytest.raises(IdealCapExceeded):
            small.ideal_count()
        patch.setattr(posets, "IDEAL_CAP", 2 ** 12)
        assert small.ideal_count() == 2 ** 12
    assert small.ideal_count() == 2 ** 12
    chain = poset_from_covers(50, [(i, i + 1) for i in range(49)])
    assert chain.ideal_count() == 51


def positional_ideal_masks(poset):
    """Oracle: the earlier positional walker.  It extends each ideal by every
    later position of the linear extension (number of elements below, then
    id) whose element has all its lower covers in the ideal."""
    n = poset.n
    below = [sum((poset.rows[j] >> i) & 1 for j in range(n)) for i in range(n)]
    topo = sorted(range(n), key=lambda i: (below[i], i))
    cover_down = [0] * n
    for i, j in brute_force_covers(poset):
        cover_down[j] |= 1 << i
    out = []
    stack = [(0, 0)]
    while stack:
        mask, start = stack.pop()
        out.append(mask)
        for p in range(n - 1, start - 1, -1):
            x = topo[p]
            if not (mask >> x) & 1 and (cover_down[x] & mask) == cover_down[x]:
                stack.append((mask | (1 << x), p + 1))
    return out


def test_ideal_walk_keeps_the_positional_order():
    """The addable-set walk yields the masks of the positional walker, in
    its order, on posets whose linear extension is not the id order."""
    cases = [claw_chain(12, 40), poset_from_covers(16, []), dual(claw_chain(3, 4)),
             *verify._reference_heaps().values()]
    for poset in cases:
        assert list(poset.iter_ideal_masks()) == positional_ideal_masks(poset)


@st.composite
def random_posets(draw):
    """Up to 9 elements, closed from random pairs i < j and then relabelled
    by a random permutation, so the ids need not be a linear extension."""
    n = draw(st.integers(min_value=0, max_value=9))
    if n == 0:
        return poset_from_covers(0, [])
    perm = draw(st.permutations(range(n)))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=14))
    return poset_from_covers(n, [(perm[i], perm[j]) for i, j in pairs if i < j])


@given(random_posets())
def test_ideal_walk_yields_each_ideal_once(poset):
    walked = list(poset.iter_ideal_masks())
    assert len(set(walked)) == len(walked)
    assert sorted(walked) == brute_force_ideals(poset)
    count = poset.ideal_count()
    assert count == len(walked)
    # a function-scoped fixture would not be reset between the examples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posets, "IDEAL_CAP", count - 1)
        with pytest.raises(IdealCapExceeded):
            poset.ideal_count()


@given(random_posets(), st.data())
def test_ideal_walk_yields_weight_sums(poset, data):
    """With weights 1 << x plus random high parts, negative ones included,
    the walk yields the sum of the weights over each ideal, in the order in
    which the unit-weight walk yields the ideals."""
    n = poset.n
    lower, upper = poset._cover_masks
    below = [sum(row >> x & 1 for row in poset.rows) for x in range(n)]
    order = sorted(range(n), key=lambda x: (below[x], x))
    highs = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    weight = [(1 << x) + (data.draw(highs) << n) for x in range(n)]
    masks = list(walk_order_ideals(order, lower, upper, [1 << x for x in range(n)], 2 ** n))
    assert sorted(masks) == brute_force_ideals(poset)
    sums = list(walk_order_ideals(order, lower, upper, weight, 2 ** n))
    assert sums == [sum(weight[x] for x in bits(mask)) for mask in masks]


def test_ideal_walk_rejects_weights_with_wrong_low_bits():
    chain = poset_from_covers(3, [(0, 1), (1, 2)])
    lower, upper = chain._cover_masks
    good = [1 << x for x in range(3)]
    assert list(walk_order_ideals([0, 1, 2], lower, upper, good, 8)) == [0, 1, 3, 7]
    for weight in ([1, 2, 5], [1, 2, 4 - 1], [0, 2, 4], [1, 2 + 4, 4], [1, 2], [1, 2, 4, 8]):
        with pytest.raises(ValueError, match="must equal 1 << x modulo 2"):
            next(walk_order_ideals([0, 1, 2], lower, upper, weight, 8))
    negative = [1 - 8, 2 - 16, 4 - 24]
    assert list(walk_order_ideals([0, 1, 2], lower, upper, negative, 8)) == [0, -7, -21, -41]


def test_heap_a2():
    sys = build_root_system("A", 2)
    heap = heap_from_word(sys, [1, 2])
    # the later letter s2 sits at the bottom, s1 on top
    assert heap.covers() == [(1, 0)]
    assert heap.labels == (1, 2)
    assert heap.balance() == THIRD


def test_heap_b3_shape():
    sys = build_root_system("B", 3)
    heap = heap_from_word(sys, [3, 2, 3, 1])
    # s1 and the lower s3 sit below s2, which sits below the upper s3
    assert sorted(heap.covers()) == [(1, 0), (2, 1), (3, 1)]
    assert heap.labels == (3, 2, 3, 1)
    assert is_isomorphic(heap, claw_chain(2, 2))


def test_heap_affine_four_cycle():
    sys = build_system(cycle_matrix(4))
    heap = heap_from_word(sys, [2, 4, 1, 3])
    assert heap.ideal_count() == 7
    assert heap.balance() == Fraction(2, 7)
    # complete bipartite: both of s1, s3 below both of s2, s4
    assert sorted(heap.covers()) == [(2, 0), (2, 1), (3, 0), (3, 1)]


def all_pairs_heap(sys, word):
    """Oracle: relate every pair of positions whose letters do not commute."""
    covers = [
        (j, k) for j in range(len(word)) for k in range(j)
        if sys.coxeter_m(word[j], word[k]) != 2
    ]
    return LabeledPoset(len(word), poset_from_covers(len(word), covers).rows, tuple(word))


def random_reduced_word(sys, rank, length, rng):
    """Append random letters that raise the length, up to ``length`` tries."""
    word = []
    for _ in range(length):
        letter = rng.randint(1, rank)
        if word_length(sys, word + [letter]) == len(word) + 1:
            word.append(letter)
    return word


HEAP_GROUPS = {
    **{f"{f}{r}": (build_root_system(f, r), r)
       for f, r in [("A", 4), ("B", 3), ("D", 4), ("G", 2), ("F", 4)]},
    "path-4-6": (build_system(path_matrix(3, [4, 6])), 3),
    "path-inf-3-4": (build_system(path_matrix(4, [INF, 3, 4])), 4),
    "cycle-4": (build_system(cycle_matrix(4)), 4),
}


@pytest.mark.parametrize("name", list(HEAP_GROUPS))
def test_heap_matches_all_pairs_rule(name):
    sys, rank = HEAP_GROUPS[name]
    rng = random.Random(name)
    for _ in range(20):
        word = random_reduced_word(sys, rank, 24, rng)
        assert heap_from_word(sys, word).rows == all_pairs_heap(sys, word).rows, word


def test_heap_rejects_non_reduced():
    sys = build_root_system("A", 2)
    with pytest.raises(NotReducedError):
        heap_from_word(sys, [1, 1])


def test_heap_invariant_under_commutation_class():
    b3 = build_root_system("B", 3)
    base = labelled_relation(heap_from_word(b3, [3, 2, 3, 1]))
    for word in commutation_class(b3, [3, 2, 3, 1]):
        assert labelled_relation(heap_from_word(b3, list(word))) == base


def test_claw_chain_counts(monkeypatch):
    for k in range(1, 9):
        for length in (1, 2, 5, 64):
            poset = claw_chain(k, length)
            monkeypatch.setattr(posets, "IDEAL_CAP", 2 ** k + length)
            assert poset.ideal_count() == 2 ** k + length
    assert claw_chain(1, 1).covers() == [(0, 1)]
    with pytest.raises(ValueError):
        claw_chain(0, 1)


def test_claw_chain_balance_family():
    for k in range(1, 7):
        assert claw_chain(k, 2 ** (k - 1)).balance() == THIRD


def test_balance_counts_equal_the_fraction_balance():
    """``balance`` compares ideal counts; it equals the balance of the
    fractions of ``ideal_statistics`` on 300 seeded random posets of up to
    11 elements and on the claw-chain family."""
    rng = random.Random(38)
    cases = [claw_chain(k, 2 ** (k - 1)) for k in range(1, 8)]
    for _ in range(300):
        n = rng.randint(0, 11)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        cases.append(poset_from_covers(n, pairs))
    for poset in cases:
        assert poset.balance() == fraction_balance(poset.ideal_statistics()[1])


def test_dual_and_fraction_complement():
    poset = claw_chain(2, 2)
    flipped = dual(poset)
    fr = poset.ideal_statistics()[1]
    fr_dual = flipped.ideal_statistics()[1]
    for x in range(poset.n):
        assert fr[x] + fr_dual[x] == 1
    assert poset.balance() == flipped.balance()


def test_components_and_restrict():
    poset = poset_from_covers(5, [(0, 1), (2, 3)])
    comps = poset.components()
    assert comps == [[0, 1], [2, 3], [4]]
    sub = poset.restrict(comps[0])
    assert sub.n == 2 and sub.covers() == [(0, 1)]


def test_isomorphism():
    assert is_isomorphic(claw_chain(2, 2), claw_chain(2, 2))
    assert not is_isomorphic(claw_chain(2, 2), poset_from_covers(4, [(0, 1), (1, 2), (2, 3)]))
    # a claw and its dual are not isomorphic
    assert not is_isomorphic(claw_chain(2, 2), dual(claw_chain(2, 2)))
    # isomorphism ignores labels; the labelled relation tells them apart
    p1 = LabeledPoset(2, poset_from_covers(2, [(0, 1)]).rows, (1, 2))
    p2 = LabeledPoset(2, poset_from_covers(2, [(0, 1)]).rows, (2, 1))
    assert is_isomorphic(p1, p2)
    assert labelled_relation(p1) != labelled_relation(p2)


def brute_force_isomorphic(p1, p2):
    """Oracle: some bijection carries the order of p1 onto that of p2."""
    return p1.n == p2.n and any(
        all((p1.rows[x] >> y & 1) == (p2.rows[f[x]] >> f[y] & 1)
            for x in range(p1.n) for y in range(p1.n))
        for f in permutations(range(p1.n)))


@given(random_posets(), random_posets(), st.randoms(use_true_random=False))
def test_isomorphism_matches_brute_force(p1, p2, rng):
    """On pairs of random posets of up to 7 elements, and on each poset
    against a random relabelling of itself."""
    if p1.n <= 7:
        perm = list(range(p1.n))
        rng.shuffle(perm)
        moved = poset_from_covers(p1.n, [(perm[i], perm[j]) for i, j in p1.covers()])
        assert is_isomorphic(p1, moved)
        if p2.n == p1.n:
            assert is_isomorphic(p1, p2) == brute_force_isomorphic(p1, p2)


def test_isomorphism_leaves_no_cyclic_garbage():
    """A call frees everything it made by reference counting."""
    gc.collect()
    gc.disable()
    try:
        assert is_isomorphic(claw_chain(2, 2), claw_chain(2, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_figure_heaps_match_claw():
    d4 = build_root_system("D", 4)
    heap = heap_from_word(d4, [4, 2, 3, 1])
    assert is_isomorphic(heap, claw_chain(2, 2))
    assert heap.balance() == THIRD


def test_heap_respects_diagram_everywhere():
    cases = [
        (build_root_system("A", 3), [1, 2, 3]),
        (build_root_system("B", 3), [3, 2, 3, 1]),
        (build_root_system("D", 4), [4, 2, 3, 1]),
        (build_system(cycle_matrix(4)), [2, 4, 1, 3]),
        (build_system(path_matrix(4, [INF, INF, INF])), [2, 3, 2, 3]),
    ]
    for sys, word in cases:
        assert heap_respects_diagram(heap_from_word(sys, word), sys)
    # a poset violating the adjacency property fails
    bad = LabeledPoset(2, poset_from_covers(2, [(0, 1)]).rows, (1, 3))
    a3 = build_root_system("A", 3)
    assert not heap_respects_diagram(bad, a3)


def test_heap_inversion_map_bijection():
    """On an FC word, the k-th inversion key of the word belongs to heap
    position k, and this pairing sends intervals to order ideals."""
    rs = build_root_system("D", 4)
    ctx = rs
    word = (4, 2, 3, 1)
    assert is_fully_commutative(ctx, word)
    heap = heap_from_word(ctx, word)
    w = ctx.from_word(word)
    c = convex.interval_left(ctx, w)
    root_to_pos = {key: k for k, key in enumerate(inversion_keys_of_word(ctx, word))}
    assert len(root_to_pos) == 4
    assert set(root_to_pos) == set(bits(ctx.inversion_mask(w)))
    for inv in c.masks:
        ideal = {root_to_pos[k] for k in bits(inv)}
        for x in ideal:  # downward closed in the heap
            for y in range(heap.n):
                if (heap.rows[y] >> x) & 1:
                    assert y in ideal
    assert not is_fully_commutative(ctx, (2, 4, 2))  # a braid: the pairing needs FC


@settings(max_examples=60)
@given(labels=st.tuples(*[st.sampled_from((2, 4, 6, INF))] * 3),
       letters=st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=12))
def test_heap_ideal_fractions_equal_interval_inversion_fractions(labels, letters):
    """On a fully commutative word of a rank-3 diagram with labels 4, 6 and
    inf, the fraction of heap ideals that hold position k equals the
    fraction of [e, w] that has the word's k-th inversion."""
    m12, m13, m23 = labels
    sys = build_system(matrix_from_edges(3, [(1, 2, m12), (1, 3, m13), (2, 3, m23)]))
    word = []
    for i in letters:  # keep each letter that leaves the word reduced and FC
        if (word_length(sys, word + [i]) == len(word) + 1
                and is_fully_commutative(sys, word + [i])):
            word.append(i)
    interval = convex.interval_left(sys, sys.from_word(word))
    fractions = [interval.inversion_fraction(k) for k in inversion_keys_of_word(sys, word)]
    assert fractions == heap_from_word(sys, word).ideal_statistics()[1]


def test_heap_inversion_map_identity_empty():
    sys = build_root_system("A", 2)
    assert inversion_keys_of_word(sys, ()) == []
    assert heap_from_word(sys, ()).n == 0


def test_json_round_trip():
    """The covers and labels that ``poset_json`` writes rebuild the poset."""
    labelled = LabeledPoset(3, poset_from_covers(3, [(0, 2)]).rows, (1, 3, 2))
    for poset in (claw_chain(2, 2), labelled):
        data = json.loads(json.dumps(poset_json(poset)))
        rows = poset_from_covers(data["n"], [tuple(c) for c in data["covers"]]).rows
        labels = None if data["labels"] is None else tuple(data["labels"])
        again = LabeledPoset(data["n"], rows, labels)
        assert again == poset
    assert "digraph" in poset_dot(claw_chain(2, 2))


def brute_force_covers(poset):
    """Oracle: i < j with no k strictly between, by the O(n^3) definition."""
    n = poset.n
    return [
        (i, j) for i in range(n) for j in range(n)
        if i != j and (poset.rows[i] >> j) & 1
        and not any(k not in (i, j) and (poset.rows[i] >> k) & 1 and (poset.rows[k] >> j) & 1
                    for k in range(n))
    ]


def test_covers_match_definition():
    b3 = build_root_system("B", 3)
    posets_ = [claw_chain(3, 4), heap_from_word(b3, [3, 2, 3, 1, 2, 3]),
               poset_from_covers(6, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5)])]
    for p in posets_:
        expected = brute_force_covers(p)
        assert p.covers() == expected
        p.covers().clear()  # a caller's copy; the cached reduction is untouched
        assert p.covers() == expected
        assert p == LabeledPoset(p.n, p.rows, p.labels)
