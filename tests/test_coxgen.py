"""Generic Coxeter systems, word combinatorics, full commutativity."""

import json
import random

import pytest

from coxbalance.coxgen import (
    DIAGRAM_MAX_RANK,
    INF,
    CoxeterMatrix,
    NotReducedError,
    WeylSystem,
    build_system,
    commutation_class,
    complete_graph_matrix,
    cycle_matrix,
    elem_from_word,
    inversion_roots_of_word,
    is_acyclic,
    is_fully_commutative,
    is_irreducible,
    matrix_from_edges,
    matrix_from_json,
    path_matrix,
)
from coxbalance.rootsys import build_root_system
from coxbalance.weyl import all_elements, one_line


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
        CoxeterMatrix(2, ((1, 4), (4, 1)))  # label 4 routes to the weyl module
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((1, 3), (2, 1)))  # asymmetric
    with pytest.raises(ValueError):
        CoxeterMatrix(2, ((2, 3), (3, 1)))  # bad diagonal
    m = matrix_from_edges(3, [(1, 2, 3), (2, 3, INF)])
    assert m.m(1, 2) == 3 and m.m(2, 3) is INF and m.m(1, 3) == 2


def test_label_four_error_mentions_weyl():
    with pytest.raises(ValueError, match="weyl"):
        matrix_from_edges(2, [(1, 2, 4)])


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
    w = elem_from_word(sys, [2, 4, 1, 3])
    assert w.length() == 4
    assert len(commutation_class(sys, [2, 4, 1, 3])) == 4
    assert is_fully_commutative(sys, [2, 4, 1, 3])


def test_identity_and_inversions():
    sys = build_system(path_matrix(3, [3, 3]))
    e = sys.identity_element()
    assert e.length() == 0
    assert e.inversion_roots() == frozenset()
    w = elem_from_word(sys, [1, 2])
    roots = w.inversion_roots()
    assert len(roots) == 2
    assert len(inversion_roots_of_word(sys, [1, 2])) == 2


def test_braid_relation_in_triangle_group():
    sys = build_system(complete_graph_matrix(3))
    assert elem_from_word(sys, [1, 2, 1]) == elem_from_word(sys, [2, 1, 2])


def test_descents_match_definition():
    sys = build_system(path_matrix(3, [3, 3]))
    w = elem_from_word(sys, [1, 2])
    assert w.right_descents() == {2}
    assert w.left_descents() == {1}
    assert w.reduced_word() == (1, 2)


def test_lengths_agree_with_weyl_module():
    """Geometric representation matches the root-action lengths on {2,3} types."""
    rs = build_root_system("A", 3)
    generic = build_system(path_matrix(3, [3, 3]))
    adapter = WeylSystem(rs)
    random.seed(11)
    for _ in range(150):
        word = [random.randint(1, 3) for _ in range(random.randint(0, 6))]
        assert generic.word_length(word) == adapter.word_length(word)


def test_form_entries_exact():
    sys = build_system(path_matrix(3, [3, INF]))
    from fractions import Fraction
    values = {sys.form[i][j] for i in range(3) for j in range(3)}
    assert values == {Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(-1)}


def test_commutation_classes():
    a2 = build_system(path_matrix(2, [3]))
    assert commutation_class(a2, [1, 2]) == [(1, 2)]
    a3 = build_system(path_matrix(3, [3, 3]))
    assert commutation_class(a3, [1, 3]) == [(1, 3), (3, 1)]
    with pytest.raises(NotReducedError):
        commutation_class(a2, [1, 1])


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
    sys = WeylSystem(rs)
    for w, word in all_elements(rs):
        assert is_fully_commutative(sys, list(word)) == avoids_321(one_line(w))


def test_fc_in_weyl_b3():
    b3 = WeylSystem(build_root_system("B", 3))
    assert is_fully_commutative(b3, [3, 2, 3, 1])
    assert not is_fully_commutative(b3, [3, 2, 3, 2])


def test_infinite_label_group_everything_fc():
    sys = build_system(path_matrix(4, [INF, INF, INF]))
    for word in ([2, 3, 2, 3], [1, 4, 2, 3], [3, 2, 3, 2, 3]):
        assert is_fully_commutative(sys, word)
