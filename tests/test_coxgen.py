"""Generic Coxeter systems, word combinatorics, full commutativity."""

import json
import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    braid_free_class,
    commutation_class,
    elements,
    fc_by_all_windows,
    heap_rows_by_pairs,
    inversion_keys_of_word,
    mask_of,
    one_line,
    reduced_words,
    word_length,
)
import coxbalance
from coxbalance import convex, coxgen, weyl
from coxbalance.coxgen import (
    DIAGRAM_MAX_RANK,
    INF,
    CoxeterMatrix,
    CoxSystem,
    GroupWords,
    NotReducedError,
    build_system,
    complete_graph_matrix,
    cycle_matrix,
    is_acyclic,
    is_fully_commutative,
    is_irreducible,
    matrix_from_edges,
    matrix_from_json,
    path_matrix,
    reflection_key_of_word,
)
from coxbalance.linalg import bits
from coxbalance.posets import LabeledPoset, grow_heap_rows, heap_from_word, heap_rows
from coxbalance.rootsys import RootSystem, build_root_system


def avoids_321(perm):
    """Brute-force pattern oracle."""
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if perm[i] > perm[j] > perm[k]:
                    return False
    return True


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((1, 5), (5, 1)))  # label 5 needs irrational roots
    for label in (4, 6):
        assert CoxeterMatrix(2, ((1, label), (label, 1))).m(1, 2) == label
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((1, 3), (2, 1)))  # asymmetric
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((2, 3), (3, 1)))  # bad diagonal
    m = matrix_from_edges(3, [(1, 2, 3), (2, 3, INF)])
    assert m.m(1, 2) == 3 and m.m(2, 3) is INF and m.m(1, 3) == 2


def test_label_five_error_names_supported_labels():
    with pytest.raises(ValueError, match="labels must be 2, 3, 4, 6 or inf"):
        matrix_from_edges(2, [(1, 2, 5)])
    assert matrix_from_edges(2, [(1, 2, 4)]).m(1, 2) == 4


def test_diagram_json_round_trip():
    text = json.dumps({
        "rank": 4,
        "edges": [
            {"i": 1, "j": 2, "m": "inf"},
            {"i": 2, "j": 3, "m": "inf"},
            {"i": 3, "j": 4, "m": "inf"},
        ],
    })
    m = matrix_from_json(text)
    assert m.m(1, 2) is INF and m.m(1, 3) == 2
    with pytest.raises(ValueError):
        matrix_from_json(json.dumps({"rank": 2, "edges": [{"i": 1, "j": 2, "m": 2.5}]}))


def test_diagram_rank_bound():
    assert matrix_from_json(json.dumps({"rank": DIAGRAM_MAX_RANK})).rank == DIAGRAM_MAX_RANK
    with pytest.raises(ValueError, match='"rank" must be between 1 and'):
        matrix_from_json(json.dumps({"rank": DIAGRAM_MAX_RANK + 1}))


def test_acyclicity():
    assert not is_acyclic(complete_graph_matrix(4))
    assert not is_acyclic(cycle_matrix(4))
    assert is_acyclic(path_matrix(4, [INF, INF, INF]))
    assert is_acyclic(path_matrix(3, [3, 3]))
    assert is_irreducible(complete_graph_matrix(4))
    assert not is_irreducible(matrix_from_edges(3, [(1, 2, 3)]))


def test_affine_four_cycle_element():
    sys = build_system(cycle_matrix(4))
    assert word_length(sys, [2, 4, 1, 3]) == 4
    assert len(commutation_class(sys, [2, 4, 1, 3])) == 4
    assert is_fully_commutative(sys, [2, 4, 1, 3])


def test_identity_and_inversions():
    sys = build_system(path_matrix(3, [3, 3]))
    e = sys.identity()
    assert sys.reduced_word(e) == ()
    assert sys.inversion_mask(e) == 0
    w = sys.from_word([1, 2])
    mask = sys.inversion_mask(w)
    assert mask.bit_count() == 2
    assert sorted(inversion_keys_of_word(sys, [1, 2])) == list(bits(mask))
    listed = sorted(bits(mask), key=sys.key_order)
    assert [sys.key_display(k) for k in listed] == ["a2", "a1+a2"]


def test_braid_relation_in_triangle_group():
    sys = build_system(complete_graph_matrix(3))
    assert sys.from_word([1, 2, 1]) == sys.from_word([2, 1, 2])


def test_descents_match_definition():
    sys = build_system(path_matrix(3, [3, 3]))
    w = sys.from_word([1, 2])

    def right_descents(v):  # s_i is a right descent iff v(alpha_i) < 0
        return {i for i in (1, 2, 3) if sys.simple_image_key(v, i) is None}

    assert right_descents(w) == {2}
    assert right_descents(sys.invert(w)) == {1}  # the left descents of w
    assert sys.reduced_word(w) == (1, 2)


def test_descent_gives_no_key():
    """The least right descent reads signs only, so it gives no column a key."""
    sys = build_system(path_matrix(4, [INF, INF, INF]))
    elements = [sys.from_word(word)
                for word in ([], [2, 3, 2, 3], [1, 4, 2, 3], [3, 2, 1, 4, 3, 2], [4, 3, 2, 1])]
    sys.inversion_mask(elements[1])
    before = len(sys._columns)
    assert [sys.descent(x) for x in elements] == [0, 3, 3, 2, 1]
    assert len(sys._columns) == before
    assert [next((i for i in range(1, 5) if sys.simple_image_key(x, i) is None), 0)
            for x in elements] == [0, 3, 3, 2, 1]


# The element primitives that coxgen's module docstring lists.
PRIMITIVES = ("rank", "identity", "mul_simple_right", "mul_simple_left", "is_descent",
              "simple_image_key", "invert", "inversion_mask", "coxeter_m", "coxeter",
              "key_order", "key_display")


def test_both_group_objects_provide_the_protocol():
    """The group objects are ``RootSystem`` and ``CoxSystem``: each has every
    element primitive and every word routine of ``GroupWords`` that the
    ``coxgen`` docstring lists, A2 and its diagram agree on them, and the
    package exports no other group object."""
    routines = [name for name in vars(GroupWords) if not name.startswith("_")]
    assert routines == ["from_word", "check_reduced", "descent", "inverse_word",
                        "reduced_word"]
    for name in PRIMITIVES + tuple(routines):
        assert f"``{name}" in coxgen.__doc__, name
    groups = (build_root_system("A", 2), build_system(path_matrix(2, [3])))
    assert (type(groups[0]), type(groups[1])) == (RootSystem, CoxSystem)
    for g in groups:
        assert isinstance(g, GroupWords)
        for name in PRIMITIVES + tuple(routines):
            assert hasattr(g, name), (type(g).__name__, name)
        assert g.rank == 2
        assert g.coxeter == ((1, 3), (3, 1))
        assert g.coxeter_m(1, 2) == 3
        w = g.from_word((2, 1, 2))
        assert g.reduced_word(w) == (1, 2, 1)
        assert g.inverse_word(w) == (1, 2, 1)
        assert g.inversion_mask(w).bit_count() == 3
        assert g.mul_simple_left(g.mul_simple_right(g.identity(), 1), 2) == g.from_word((2, 1))
        assert g.invert(g.from_word((1, 2))) == g.from_word((2, 1))
        assert [g.is_descent(w, i) for i in (1, 2)] == [True, True]
        assert g.descent(g.from_word((1, 2))) == 2
        assert g.simple_image_key(w, 1) is None
        keys = convex.listed_keys(g, g.inversion_mask(w))
        assert sorted(map(g.key_display, keys)) == ["a1", "a1+a2", "a2"]
    assert not hasattr(coxbalance, "WeylContext") and not hasattr(weyl, "WeylContext")
    assert "WeylContext" not in coxbalance.__all__


def test_lengths_agree_with_weyl_module():
    """Integer root columns match the root-action lengths and least reduced
    words on A3, B3 and G2, and both backends refuse the same words."""
    random.seed(11)
    for family, rank, labels in (("A", 3, [3, 3]), ("B", 3, [3, 4]), ("G", 2, [6])):
        generic = build_system(path_matrix(rank, labels))
        weyl_group = build_root_system(family, rank)
        for _ in range(150):
            word = [random.randint(1, rank) for _ in range(random.randint(0, 6))]
            assert word_length(generic, word) == word_length(weyl_group, word)
            assert (generic.reduced_word(generic.from_word(word))
                    == weyl_group.reduced_word(weyl_group.from_word(word)))
    for g in (build_system(path_matrix(2, [3])), build_root_system("A", 2)):
        g.check_reduced([1, 2, 1])
        for word in ([1, 1], [1, 2, 1, 2]):
            with pytest.raises(NotReducedError):
                g.check_reduced(word)


SHORT_WORD_DIAGRAMS = [
    *(matrix_from_edges(3, [(1, 2, a), (1, 3, b), (2, 3, c)])
      for a, b, c in combinations_with_replacement((3, 4, 6, INF), 3)),
    path_matrix(3, [3, 3]),
    path_matrix(3, [3, 4]),
    path_matrix(2, [6]),
]


def test_descent_routes_match_the_oracles():
    """Over every word of length <= 6 on A3, B3, G2 (as diagrams and as Weyl
    types) and the rank-3 diagrams with labels in {3, 4, 6, inf},
    ``check_reduced`` raises exactly when the oracle length differs from the
    letter count, and a letter out of range wins over a non-reduced prefix.
    Over every word of length <= 5 on the diagrams, ``inversion_mask`` on a
    fresh system gives the keys that ``inversion_keys_of_word`` gives on
    another, and the same columns in the same order."""
    groups = [build_system(m) for m in SHORT_WORD_DIAGRAMS] + [
        build_root_system(f, r) for f, r in (("A", 3), ("B", 3), ("G", 2))]
    refused = 0
    for g in groups:
        r = g.rank
        for n in range(7):
            for word in product(range(1, r + 1), repeat=n):
                if word_length(g, word) == n:
                    g.check_reduced(word)
                else:
                    with pytest.raises(NotReducedError) as info:
                        g.check_reduced(word)
                    assert str(info.value) == f"word {list(word)} is not reduced"
                    refused += 1
                for letter, bad in ((r + 1, word + (r + 1,)), (0, (0,) + word)):
                    with pytest.raises(ValueError) as info:
                        g.check_reduced(bad)
                    assert type(info.value) is ValueError
                    assert str(info.value) == f"simple index {letter} out of range 1..{r}"
    assert refused > 0
    for m in SHORT_WORD_DIAGRAMS:
        for n in range(6):
            for word in product(range(1, m.rank + 1), repeat=n):
                fresh, oracle = build_system(m), build_system(m)
                w = fresh.from_word(word)
                keys = inversion_keys_of_word(oracle, oracle.inverse_word(w)[::-1])
                assert fresh.inversion_mask(w) == mask_of(keys)
                assert fresh._columns == oracle._columns


def test_form_entries_exact():
    """Integer Cartan entries (a_ij, a_ji) for labels 2, 3, 4, 6 and inf."""
    sys = build_system(path_matrix(3, [3, INF]))
    assert sys.cartan == ((2, -1, 0), (-1, 2, -2), (0, -2, 2))
    sys = build_system(path_matrix(3, [4, 6]))
    assert sys.cartan == ((2, -1, 0), (-2, 2, -1), (0, -3, 2))


def test_commutation_classes():
    a2 = build_system(path_matrix(2, [3]))
    assert commutation_class(a2, [1, 2]) == [(1, 2)]
    a3 = build_system(path_matrix(3, [3, 3]))
    assert commutation_class(a3, [1, 3]) == [(1, 3), (3, 1)]
    with pytest.raises(NotReducedError):
        commutation_class(a2, [1, 1])
    with pytest.raises(NotReducedError):
        is_fully_commutative(a2, [1, 1])


def test_commutation_class_closure_involutive():
    sys = build_system(cycle_matrix(4))
    cls = commutation_class(sys, [2, 4, 1, 3])
    for word in cls:
        assert commutation_class(sys, list(word)) == cls


def test_fc_basics():
    a2 = build_system(path_matrix(2, [3]))
    assert is_fully_commutative(a2, [1, 2])
    assert not is_fully_commutative(a2, [1, 2, 1])


@pytest.mark.parametrize("rank", [2, 3])
def test_fc_agrees_with_321_avoidance(rank):
    """Full commutativity equals 321-avoidance across the whole group."""
    rs = build_root_system("A", rank)
    sys = rs
    for w, word in elements(rs):
        assert is_fully_commutative(sys, list(word)) == avoids_321(one_line(rs, w))


def test_fc_in_weyl_b3():
    b3 = build_root_system("B", 3)
    assert is_fully_commutative(b3, [3, 2, 3, 1])
    assert not is_fully_commutative(b3, [3, 2, 3, 2])


def test_infinite_label_group_everything_fc():
    sys = build_system(path_matrix(4, [INF, INF, INF]))
    for word in ([2, 3, 2, 3], [1, 4, 2, 3], [3, 2, 3, 2, 3]):
        assert is_fully_commutative(sys, word)


def check_fc_against_class_oracle():
    """Stembridge's heap test against a braid scan over the commutation
    class, on every reduced word of up to 5 letters of each of the 125
    rank-3 diagrams with labels 2, 3, 4, 6 and inf."""
    checked = 0
    for m12, m13, m23 in product((2, 3, 4, 6, INF), repeat=3):
        sys = build_system(matrix_from_edges(3, [(1, 2, m12), (1, 3, m13), (2, 3, m23)]))
        for word in reduced_words(sys, 5):
            assert is_fully_commutative(sys, word) == braid_free_class(sys, word), (
                m12, m13, m23, word)
            checked += 1
    assert checked == 9056


def test_fc_heap_test_matches_class_oracle():
    check_fc_against_class_oracle()


def test_fc_test_builds_no_poset(monkeypatch):
    """The FC test reads the heap rows alone: with every ``LabeledPoset``
    construction refused, it still agrees with the class oracle and still
    rejects a word that is not reduced."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("the FC test built a poset")

    monkeypatch.setattr(LabeledPoset, "__init__", refuse)
    check_fc_against_class_oracle()
    a2 = build_system(path_matrix(2, [3]))
    with pytest.raises(NotReducedError):
        is_fully_commutative(a2, [1, 1])


def test_fc_test_on_rows_tests_the_top_letter_only():
    """With ``rows`` the empty word is fully commutative, and only braids
    through position 0 count: 3 1 2 1 of A3 holds the braid 1 2 1 below its
    top, so it reads True with its rows and False without them."""
    a3 = build_root_system("A", 3)
    assert is_fully_commutative(a3, (), ())
    word = (3, 1, 2, 1)
    assert is_fully_commutative(a3, word, heap_rows(a3, word))
    assert not is_fully_commutative(a3, word)
    assert not is_fully_commutative(a3, word[1:], heap_rows(a3, word[1:]))


def check_fc_routes(sys, words):
    """On reduced words, each after its suffix word[1:]: the rows of
    ``heap_rows`` and those grown from the suffix's rows equal the closure
    of the noncommuting pairs, and the FC test on the whole word, and on a
    child's rows where the suffix is fully commutative, equals the test over
    every window.  Returns the words found fully commutative."""
    rows, fc = {(): ()}, {(): True}
    for word in words:
        rows[word] = heap_rows(sys, word)
        assert rows[word] == heap_rows_by_pairs(sys, word), word
        if word:
            assert grow_heap_rows(sys, word, rows[word[1:]]) == rows[word], word
        fc[word] = fc_by_all_windows(sys, word)
        assert is_fully_commutative(sys, word) == fc[word], word
        if word and fc[word[1:]]:
            assert is_fully_commutative(sys, word, rows[word]) == fc[word], word
    return [word for word in words if fc[word]]


def test_fc_routes_match_the_oracles_on_rank3_diagrams():
    """Every reduced word of up to 6 letters of the 64 rank-3 diagrams with
    labels 3, 4, 6 and inf."""
    checked = fully_commutative = 0
    for m12, m13, m23 in product((3, 4, 6, INF), repeat=3):
        sys = build_system(matrix_from_edges(3, [(1, 2, m12), (1, 3, m13), (2, 3, m23)]))
        words = reduced_words(sys, 6)
        fully_commutative += len(check_fc_routes(sys, words))
        checked += len(words)
    assert (checked, fully_commutative) == (10600, 8032)


@pytest.mark.parametrize("family,rank,count", [("B", 4, 83), ("D", 5, 167), ("F", 4, 106)])
def test_fc_routes_match_the_oracles_on_weyl_groups(family, rank, count):
    """The shortlex word of every element of B4, D5 and F4, the fully
    commutative ones among them (Stembridge's counts) included."""
    rs = build_root_system(family, rank)
    words = [word for _, word in elements(rs)]
    assert len(check_fc_routes(rs, words)) == count


# -- the Cartan backend against the Weyl backend --------------------------------

CROSS_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def both_groups(family, rank):
    """The Weyl group of a type, and its diagram with the same numbering."""
    rs = build_root_system(family, rank)
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    diagram = matrix_from_edges(
        rank, [(i, j, rs.coxeter_m(i, j)) for i, j in pairs if rs.coxeter_m(i, j) != 2]
    )
    return rs, build_system(diagram)


BACKENDS = {key: both_groups(*key) for key in CROSS_TYPES}


def signature(c):
    """Size, balance and sorted inversion fractions: free of root keys."""
    return len(c), c.balance_value(), sorted(c.inversion_fraction(k) for k in bits(c.upper))


def reflection_or_none(g, word):
    try:
        return reflection_key_of_word(g, word)
    except ValueError:
        return None


@settings(max_examples=100)
@given(key=st.sampled_from(CROSS_TYPES), data=st.data())
def test_cartan_backend_matches_weyl_backend(key, data):
    letters = st.lists(st.integers(min_value=1, max_value=key[1]), max_size=12)
    w, w1, w2 = data.draw(letters), data.draw(letters), data.draw(letters)
    i = data.draw(st.integers(min_value=1, max_value=key[1]))
    reflection = w1 + [i] + w1[::-1]
    intervals, hulls = [], []
    for g in BACKENDS[key]:
        intervals.append(convex.interval_left(g, g.from_word(w)))
        hulls.append(convex.convex_hull(g, [g.identity(), g.from_word(w1), g.from_word(w2)]))
        assert reflection_or_none(g, reflection) is not None
    assert signature(intervals[0]) == signature(intervals[1])
    assert signature(hulls[0]) == signature(hulls[1])
    assert (hulls[0].inversion_fraction(reflection_key_of_word(hulls[0].ctx, reflection))
            == hulls[1].inversion_fraction(reflection_key_of_word(hulls[1].ctx, reflection)))
    weyl_group, diagram = BACKENDS[key]
    assert (reflection_or_none(weyl_group, w) is None) == (reflection_or_none(diagram, w) is None)


@pytest.mark.parametrize("key", [("B", 3), ("G", 2)], ids=["B3", "G2"])
def test_fc_and_heap_balance_agree_across_backends(key):
    weyl_group, diagram = BACKENDS[key]
    checked = 0
    for _, word in elements(weyl_group):
        fc = is_fully_commutative(weyl_group, word)
        assert fc == is_fully_commutative(diagram, word)
        if fc and word:
            b = heap_from_word(weyl_group, word).balance()
            assert heap_from_word(diagram, word).balance() == b
            assert convex.interval_left(diagram, diagram.from_word(word)).balance_value() == b
            checked += 1
    assert checked > 5


@pytest.mark.parametrize("key", [("B", 3), ("G", 2)], ids=["B3", "G2"])
def test_reflection_key_is_the_negated_root(key):
    """In a Weyl group, the key of a reflection t is the one root t negates."""
    weyl_group, _ = BACKENDS[key]
    reflections = 0
    for t, word in elements(weyl_group):
        negated = [j for j, a in enumerate(t) if a == -(j + 1)]
        if word and len(negated) == 1 and weyl_group.mul(t, t) == weyl_group.identity():
            assert reflection_key_of_word(weyl_group, word) == negated[0]
            reflections += 1
        else:
            with pytest.raises(ValueError, match="does not describe a reflection"):
                reflection_key_of_word(weyl_group, word)
    assert reflections == weyl_group.num_positive_roots
