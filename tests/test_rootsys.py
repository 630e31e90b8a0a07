"""Root system construction, root poset, reflection graph, ideal streams."""

import dataclasses
import json
from fractions import Fraction
from math import comb

import pytest

from conftest import count_root_ideals, dot, invert, neg, reflect, simple_roots, vec
from coxbalance import rootsys
from coxbalance.posets import IdealCapExceeded
from coxbalance.rootsys import (
    ROOT_IDEAL_CAP,
    InvalidTypeError,
    build_root_system,
    catalan_number,
    hasse_edges,
    ideal_from_members,
    iter_ideal_masks,
    poset_dot,
    root_graph,
    root_graph_dot,
    roots_json,
)


def leq(rs, i, j):
    """Root-poset order, coordinatewise on simple-root coefficients: beta_i <= beta_j."""
    return all(a <= b for a, b in zip(rs.coefficients[i], rs.coefficients[j]))


def covers_from_order(coeffs):
    """Lower and upper cover bitmasks of the coordinatewise order on the
    coefficient vectors: j covers i iff i <= j and j is one higher."""
    n = len(coeffs)
    upper = tuple(
        sum(1 << j for j in range(n) if sum(coeffs[j]) == sum(coeffs[i]) + 1
            and all(a <= b for a, b in zip(coeffs[i], coeffs[j])))
        for i in range(n)
    )
    lower = tuple(sum(1 << j for j in range(n) if upper[j] >> i & 1) for i in range(n))
    return lower, upper


def brute_force_ideal_count(rs):
    """Independent oracle: filter every subset of the positive roots."""
    n = rs.num_positive_roots
    count = 0
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            for j in range(n):
                if leq(rs, j, i) and not (mask >> j) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def fraction_route_fields(family, rank):
    """Independent oracle: every ``RootSystem`` field by Fraction arithmetic.

    Phi is the orbit of the simple roots under ``reflect``, the coweights
    come from the inverse Gram matrix of the simple roots (a linear solve,
    where ``src/`` sums over the roots), coefficients are read off the
    coweights, and the simple action reflects Fraction vectors.
    The stored fields come in declaration order, followed by the ``VIEWS``.
    """
    simples = simple_roots(family, rank)
    ambient = len(simples[0])
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for alpha in simples:
                gamma = reflect(alpha, beta)
                if gamma not in roots:
                    roots.add(gamma)
                    new.append(gamma)
        frontier = new
    ginv = invert(tuple(tuple(dot(a, b) for b in simples) for a in simples))
    coweights = tuple(
        tuple(
            sum((ginv[j][k] * simples[k][t] for k in range(rank)), Fraction(0))
            for t in range(ambient)
        )
        for j in range(rank)
    )
    positives = []
    for beta in roots:
        c = tuple(dot(beta, w) for w in coweights)
        if all(x >= 0 for x in c):
            positives.append((sum(c), beta, c))
    positives.sort(key=lambda t: (t[0], t[1]))
    pos_roots = tuple(p[1] for p in positives)
    coeffs = tuple(p[2] for p in positives)
    index = {beta: i for i, beta in enumerate(pos_roots)}
    n = len(pos_roots)
    leq = tuple(
        sum(1 << j for j in range(n) if all(a <= b for a, b in zip(coeffs[i], coeffs[j])))
        for i in range(n)
    )
    lower, upper = covers_from_order(coeffs)
    norms = [dot(b, b) for b in pos_roots]
    short_idx = None
    if len(set(norms)) > 1:
        shorts = [i for i in range(n) if norms[i] == min(norms)]
        (short_idx,) = [i for i in shorts if all(leq[j] >> i & 1 for j in shorts)]
    action = tuple(
        tuple(
            index[img] + 1 if img in index else -(index[neg(img)] + 1)
            for img in (reflect(alpha, beta) for beta in pos_roots)
        )
        for alpha in simples
    )
    doubled = tuple(tuple(int(2 * x) for x in beta) for beta in pos_roots)
    # m_ij from 4 cos^2(pi / m_ij) = 4 <a, b>^2 / (<a, a> <b, b>)
    coxeter = tuple(
        tuple(
            1 if a == b
            else {0: 2, 1: 3, 2: 4, 3: 6}[4 * dot(a, b) ** 2 / (dot(a, a) * dot(b, b))]
            for b in simples
        )
        for a in simples
    )
    return {
        "family": family,
        "rank": rank,
        "ambient_dim": ambient,
        "simple_indices": tuple(index[a] for a in simples),
        "coefficients": coeffs,
        "heights": tuple(int(p[0]) for p in positives),
        "highest_root_index": n - 1,
        "highest_short_root_index": short_idx,
        "_lower_covers": lower,
        "_upper_covers": upper,
        "_simple_action": action,
        "_doubled": doubled,
        "_coxeter": coxeter,
        "positive_roots": pos_roots,
        "coweights": coweights,
    }


VIEWS = ("positive_roots", "coweights")


ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_build_matches_fraction_route(family, rank):
    rs = build_root_system(family, rank)
    expected = fraction_route_fields(family, rank)
    stored = [name for name in expected if name not in VIEWS]
    assert [f.name for f in dataclasses.fields(rs)] == stored
    for name, value in expected.items():
        assert getattr(rs, name) == value, name
    for name in VIEWS:
        assert all(type(x) is Fraction for row in getattr(rs, name) for x in row), name
    assert all(type(x) is int for row in rs.coefficients for x in row)


@pytest.mark.parametrize("family,rank", [(f, r) for f in "ABCD" for r in range(9, 13)])
def test_integer_tables_past_rank_eight(family, rank):
    """Integer checks of the poset covers and the simple action where the
    Fraction oracle would be slow: the covers are those of the coordinatewise
    order, and s_i is an involutive signed permutation of the positive roots
    that negates alpha_i alone and moves only the i-th coefficient."""
    rs = build_root_system(family, rank)
    coeffs = rs.coefficients
    n = len(coeffs)
    assert (rs._lower_covers, rs._upper_covers) == covers_from_order(coeffs)
    for i, row in enumerate(rs._simple_action):
        assert sorted(abs(x) for x in row) == list(range(1, n + 1))
        assert [j for j, x in enumerate(row) if x < 0] == [rs.simple_indices[i]]
        for j, x in enumerate(row):
            if x > 0:
                assert row[x - 1] == j + 1
                img = list(coeffs[x - 1])
                img[i] = coeffs[j][i]
                assert tuple(img) == coeffs[j]
    assert all(a <= b for a, b in zip(rs.heights, rs.heights[1:]))
    assert rs.heights == tuple(map(sum, coeffs))


CLASSICAL_COUNTS = [
    ("A", 1, 1), ("A", 2, 3), ("A", 4, 10), ("A", 8, 36),
    ("B", 2, 4), ("B", 5, 25), ("B", 8, 64),
    ("C", 2, 4), ("C", 5, 25), ("C", 8, 64),
    ("D", 4, 12), ("D", 6, 30), ("D", 8, 56),
]

EXCEPTIONAL_COUNTS = [("E", 6, 36), ("E", 7, 63), ("E", 8, 120), ("F", 4, 24), ("G", 2, 6)]


@pytest.mark.parametrize("family,rank,expected", CLASSICAL_COUNTS + EXCEPTIONAL_COUNTS)
def test_positive_root_counts(family, rank, expected):
    rs = build_root_system(family, rank)
    assert rs.num_positive_roots == expected


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("H", 3),
                                         ("A", True), ("A", False), ("B", True)])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(InvalidTypeError) as exc:
        build_root_system(family, rank)
    assert str(rank) in str(exc.value)


def test_a2_explicit_coordinates():
    rs = build_root_system("A", 2)
    assert set(rs.positive_roots) == {
        vec((1, -1, 0)), vec((0, 1, -1)), vec((1, 0, -1))
    }


def test_b3_highest_short_root_is_e1():
    rs = build_root_system("B", 3)
    assert rs.positive_roots[rs.highest_short_root_index] == vec((1, 0, 0))
    assert rs.coefficients[rs.highest_short_root_index] == (1, 1, 1)


@pytest.mark.parametrize(
    "family,rank", ALL_TYPES + [("A", 12), ("B", 10), ("C", 11), ("D", 12), ("A", 16)]
)
def test_coweights_dual_to_simples(family, rank):
    rs = build_root_system(family, rank)
    simples = simple_roots(family, rank)
    for i in range(rank):
        for j in range(rank):
            expected = Fraction(1 if i == j else 0)
            assert dot(simples[i], rs.coweights[j]) == expected


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4), ("D", 4)])
def test_reflection_closure_and_invariance(family, rank):
    rs = build_root_system(family, rank)
    full = set(rs.positive_roots) | {neg(r) for r in rs.positive_roots}
    for alpha in rs.positive_roots:
        for beta in full:
            img = reflect(alpha, beta)
            assert img in full
        # form invariance on a root sample
        x, y = rs.positive_roots[0], rs.positive_roots[-1]
        assert dot(reflect(alpha, x), reflect(alpha, y)) == dot(x, y)


def test_reflect_basics():
    a1, a2 = simple_roots("A", 2)
    assert reflect(a1, a1) == neg(a1)
    assert reflect(a1, a2) == vec((1, 0, -1))  # a1 + a2
    e3 = vec((0, 0, 1))  # a short root of B3
    x = vec((2, -5, 0))  # orthogonal to e3
    assert reflect(e3, x) == x


def test_root_poset_and_heights():
    a2 = build_root_system("A", 2)
    alpha1, alpha2 = a2.simple_indices
    high = a2.highest_root_index
    assert a2.positive_roots[high] == vec((1, 0, -1))
    # beta1 <= beta2 iff beta2 - beta1 is a nonnegative simple-root combination
    assert leq(a2, alpha2, high)
    assert not leq(a2, high, alpha1)
    b3 = build_root_system("B", 3)
    assert b3.heights[b3.positive_roots.index(vec((1, 1, 0)))] == 5
    # heights are kept for the positive roots only
    assert neg(vec((1, 1, 0))) not in b3.positive_roots
    for rs in (a2, b3):
        for s in rs.simple_indices:
            assert rs.heights[s] == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)])
def test_hasse_covers_raise_height_by_one(family, rank):
    rs = build_root_system(family, rank)
    for i, j in hasse_edges(rs):
        assert rs.heights[j] - rs.heights[i] == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_root_graph_equals_hasse_in_simply_laced(family, rank):
    rs = build_root_system(family, rank)
    graph = {(i, j) for i, j, _ in root_graph(rs)}
    assert graph == set(hasse_edges(rs))


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("F", 4)])
def test_root_graph_height_steps(family, rank):
    """Label-4 diagrams step by 1 or 2 in the reflection graph."""
    rs = build_root_system(family, rank)
    diffs = {rs.heights[j] - rs.heights[i] for i, j, _ in root_graph(rs)}
    assert diffs <= {1, 2}
    assert 2 in diffs


def test_g2_root_graph_height_steps():
    # the label-6 diagram jumps by 3: s_1 sends a2 to 3a1+a2
    rs = build_root_system("G", 2)
    diffs = {rs.heights[j] - rs.heights[i] for i, j, _ in root_graph(rs)}
    assert diffs == {1, 3}


def test_b3_root_graph_has_short_root_jump():
    rs = build_root_system("B", 3)
    jumps = [
        (i, j, s)
        for i, j, s in root_graph(rs)
        if rs.heights[j] - rs.heights[i] == 2
    ]
    assert jumps
    # each jump is a reflection in the short simple root e3
    short_simple = rs.simple_indices.index(rs.positive_roots.index(vec((0, 0, 1)))) + 1
    assert all(s == short_simple for _, _, s in jumps)


def test_g2_edge_labels_are_simple():
    rs = build_root_system("G", 2)
    for _, _, s in root_graph(rs):
        assert s in (1, 2)


def test_a2_ideals_exactly():
    rs = build_root_system("A", 2)
    ideals = list(iter_ideal_masks(rs))
    assert len(ideals) == 5
    assert 0 in ideals
    assert 0b111 in ideals


def test_a1_has_two_ideals():
    assert count_root_ideals(build_root_system("A", 1)) == 2


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_ideal_count_against_brute_force(family, rank):
    rs = build_root_system(family, rank)
    assert count_root_ideals(rs) == brute_force_ideal_count(rs)


def cubic_hasse_edges(rs):
    """Oracle: j covers i iff i < j with no k strictly between, O(N^3)."""
    n = rs.num_positive_roots
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and leq(rs, i, j) and not any(
                k not in (i, j) and leq(rs, i, k) and leq(rs, k, j)
                for k in range(n)
            ):
                edges.append((i, j))
    return edges


def recursive_ideal_masks(rs):
    """Oracle: depth-first search by recursion, each node trying every
    later index whose lower covers all lie in the mask."""
    n = rs.num_positive_roots
    cover_down = [0] * n
    for i, j in cubic_hasse_edges(rs):
        cover_down[j] |= 1 << i

    def walk(mask, start):
        yield mask
        for x in range(start, n):
            if not (mask >> x) & 1 and (cover_down[x] & mask) == cover_down[x]:
                yield from walk(mask | (1 << x), x + 1)

    return list(walk(0, 0))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_hasse_edges_match_cubic_definition(family, rank):
    # B, C, F4 and G2 have s_i beta = beta + 2 alpha_i (or + 3 alpha_i), which
    # is no cover; the definition does not use the reflections at all.
    rs = build_root_system(family, rank)
    assert hasse_edges(rs) == cubic_hasse_edges(rs)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_ideal_walk_matches_recursive_oracle(family, rank):
    rs = build_root_system(family, rank)
    assert list(iter_ideal_masks(rs)) == recursive_ideal_masks(rs)


def degrees(family, rank):
    """Degrees of the basic invariants of the Weyl group."""
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


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_ideal_counts_are_catalan(family, rank):
    # Cellini-Papi: the root-poset ideals number prod (h + d_i) / d_i,
    # h the Coxeter number (the largest degree).  ``catalan_number`` reads
    # the degrees off the root heights instead of this table.
    ds = degrees(family, rank)
    h = max(ds)
    catalan = Fraction(1)
    for d in ds:
        catalan *= Fraction(h + d, d)
    rs = build_root_system(family, rank)
    assert 2 * rs.num_positive_roots == rank * h
    assert count_root_ideals(rs) == catalan
    assert catalan_number(rs) == catalan
    if (family, rank) == ("E", 8):
        assert catalan == 25080


def test_ideal_walk_stops_at_the_cap(monkeypatch):
    """The walk yields ``ROOT_IDEAL_CAP`` ideals and refuses a further one.
    The cap admits A13 (Catalan(14) ideals) and B12 and C12 (binom(24, 12)),
    but not A14 or B13."""
    assert comb(28, 14) // 15 <= ROOT_IDEAL_CAP < comb(30, 15) // 16
    assert comb(24, 12) <= ROOT_IDEAL_CAP < comb(26, 13)
    rs = build_root_system("A", 3)
    monkeypatch.setattr(rootsys, "ROOT_IDEAL_CAP", 14)
    assert count_root_ideals(rs) == 14
    monkeypatch.setattr(rootsys, "ROOT_IDEAL_CAP", 13)
    with pytest.raises(IdealCapExceeded):
        count_root_ideals(rs)


def test_ideal_stream_unique_and_closed():
    rs = build_root_system("B", 3)
    seen = set()
    for mask in iter_ideal_masks(rs):
        assert mask not in seen
        seen.add(mask)
        for i in range(rs.num_positive_roots):
            if (mask >> i) & 1:
                assert all(mask >> j & 1 for j in range(rs.num_positive_roots) if leq(rs, j, i))


def test_ideal_validation_names_violating_pair():
    rs = build_root_system("A", 2)
    high = rs.highest_root_index
    with pytest.raises(ValueError, match="not an order ideal"):
        ideal_from_members(rs, {high})
    ok = ideal_from_members(rs, set(range(3)))
    assert ok == 0b111


def test_exports_parse():
    rs = build_root_system("B", 2)
    data = json.loads(json.dumps(roots_json(rs)))
    assert data["schema"] == 1
    assert len(data["positive_roots"]) == 4
    first = data["positive_roots"][0][0]
    assert set(first) == {"num", "den"}
    assert "digraph" in poset_dot(rs)
    assert "--" in root_graph_dot(rs)


@pytest.mark.parametrize("family,rank,entries", [
    ("A", 3, {(1, 2): 3, (1, 3): 2, (2, 3): 3}),
    ("B", 3, {(1, 2): 3, (2, 3): 4, (1, 3): 2}),
    ("D", 4, {(1, 2): 3, (2, 3): 3, (2, 4): 3, (1, 3): 2, (3, 4): 2}),
    ("F", 4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}),
    ("G", 2, {(1, 2): 6}),
])
def test_coxeter_m_entries(family, rank, entries):
    rs = build_root_system(family, rank)
    for (i, j), m in entries.items():
        assert rs.coxeter_m(i, j) == rs.coxeter_m(j, i) == m
    assert all(rs.coxeter_m(i, i) == 1 for i in range(1, rank + 1))
