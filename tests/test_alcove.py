"""Alcove geometry: parameter table, half-spaces, centroids, witnesses, bounds."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    add,
    apply,
    convex_ideals,
    dot,
    element_table,
    ideals_from_uppers,
    image_rows,
    neg,
    scale,
    table_bit_planes,
    table_columns,
    zero,
)
from coxbalance import convex
from coxbalance.alcove import (
    _bit_planes,
    _image_sum,
    _plane_sum,
    _root_tables,
    alcove_data,
    alcove_params,
    alcove_vertices_of,
    ambient,
    centroid,
    centroid_split_root,
    check_short_root_bound,
    contains,
    exp_lower_bound,
    exponential_bound_threshold,
    mean_height,
    order_polytope_halfspaces,
    plane_scorer,
    small_mean_height_root,
    witnessed_ideals,
)
from coxbalance.convex import ideal_from_upper, interval_left
from coxbalance.rootsys import build_root_system
from coxbalance.verify import CONJECTURE_TYPES
from coxbalance.weyl import WeylContext

TABLE_ROWS = {
    ("A", 1): (1, 1, 1, Fraction(1), Fraction(1)),
    ("A", 4): (1, 1, 4, Fraction(1), Fraction(1)),
    ("B", 2): (1, 2, 3, Fraction(1), Fraction(2)),
    ("B", 6): (1, 2, 11, Fraction(1), Fraction(2)),
    ("C", 5): (1, 2, 9, Fraction(1), Fraction(2)),
    ("D", 4): (1, 2, 5, Fraction(2), Fraction(4)),
    ("D", 7): (1, 2, 11, Fraction(2), Fraction(4)),
    ("E", 6): (1, 3, 11, Fraction(8, 3), Fraction(8)),
    ("E", 7): (1, 4, 17, Fraction(3), Fraction(12)),
    ("E", 8): (2, 6, 29, Fraction(7, 4), Fraction(21, 2)),
    ("F", 4): (2, 4, 11, Fraction(7, 8), Fraction(7, 2)),
    ("G", 2): (2, 3, 5, Fraction(1, 2), Fraction(3, 2)),
}


@pytest.mark.parametrize("key", sorted(TABLE_ROWS))
def test_alcove_params(key):
    family, rank = key
    rs = build_root_system(family, rank)
    p = alcove_params(rs)
    assert (p.min_mark, p.max_mark, p.height, p.margin, p.exponent) == TABLE_ROWS[key]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("F", 4), ("G", 2), ("E", 6)])
def test_mark_sum_is_height(family, rank):
    rs = build_root_system(family, rank)
    marks = rs.coefficients[rs.highest_root_index]
    assert sum(marks) == alcove_params(rs).height


def fraction_vertices(rs):
    """The origin and omega_i^vee / m_i, in ambient ``Fraction`` coordinates."""
    marks = rs.coefficients[rs.highest_root_index]
    return [zero(rs.ambient_dim)] + [
        scale(Fraction(1, m), w) for m, w in zip(marks, rs.coweights)
    ]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4)])
def test_alcove_vertices(family, rank):
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    data = alcove_data(rs)
    corners = fraction_vertices(rs)
    assert data.vertices == tuple(corners)
    identity_alcove = interval_left(ctx, ctx.identity())
    assert centroid(identity_alcove) == scale(Fraction(1, rs.rank + 1), reduce(add, corners))
    xi = rs.positive_roots[rs.highest_root_index]
    for v in data.vertices[1:]:
        assert dot(v, xi) == 1
        for beta in rs.positive_roots:
            assert dot(v, beta) >= 0
    if data.short_vertices is not None:
        eta = rs.positive_roots[rs.highest_short_root_index]
        assert data.short_vertices[1:] == tuple(scale(1 / dot(w, eta), w) for w in rs.coweights)
        for v in data.short_vertices[1:]:
            assert dot(v, eta) == 1


def test_type_b_short_vertices_are_coweights():
    rs = build_root_system("B", 3)
    data = alcove_data(rs)
    assert data.short_vertices[1:] == rs.coweights
    eta = rs.positive_roots[rs.highest_short_root_index]
    for w in rs.coweights:
        assert dot(w, eta) == 1


def test_halfspaces_identity_alcove():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    single = interval_left(ctx, ctx.identity())
    hs = order_polytope_halfspaces(single)
    assert hs == [(-1, 0), (-2, 0), (-3, 0), (3, 1)]
    verts = alcove_vertices_of(single, 0)
    for v in verts:
        assert contains(rs, hs, v)
    # a point beyond the highest-root cap is rejected
    outside = tuple(2 * t for t in verts[1])
    assert not contains(rs, hs, outside)


def test_halfspaces_interval_alcove_vertices():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    c = interval_left(ctx, ctx.from_word([1, 2]))
    hs = order_polytope_halfspaces(c)
    count = 0
    for m in range(len(c)):
        for v in alcove_vertices_of(c, m):
            assert contains(rs, hs, v)
            count += 1
    assert count == 9


@pytest.mark.parametrize("family,rank", list(CONJECTURE_TYPES) + [("D", 4)])
def test_halfspaces_exclude_neighbour_alcoves(family, rank):
    """Member alcove centroids satisfy the half-spaces; just outside, one fails.

    The alcove centroid of v has coweight coordinates <o_0, v alpha_i>, read
    as integer numerators from the pairing table, so the bounds are scaled
    by the table's denominator.
    """
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    tables = _root_tables(rs)

    def centroid_of(v):
        return [tables.pairing[v[k]] for k in rs.simple_indices]

    for c in convex_ideals(ctx):
        hs = [(a, b * tables.den) for a, b in order_polytope_halfspaces(c)]
        inside = set(c.members)
        for m in c.members:
            assert contains(rs, hs, centroid_of(m))
            for i in range(1, rs.rank + 1):
                nb = ctx.mul_simple_left(m, i)
                if nb not in inside:
                    assert not contains(rs, hs, centroid_of(nb))


def fraction_halfspaces(c):
    """The half-spaces by the ``Fraction`` route, as (normal, bound) pairs.

    <x, beta> >= 0 is written <x, -beta> <= 0, and each cap normal is
    w^{-1} xi through the oracle action.
    """
    rs = c.ctx.root_system
    roots = rs.positive_roots
    hs = [(roots[k], 0) for k in c.canonical_lower]
    hs += [(neg(roots[k]), 0) for k in range(rs.num_positive_roots) if k not in c.canonical_upper]
    xi = roots[rs.highest_root_index]
    hs += [(apply(rs, c.ctx.invert(m), xi), 1) for m in c.members]
    return hs


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_halfspaces_and_vertices_match_fraction_oracle(family, rank):
    """Signed-index half-spaces and coweight-coordinate vertices against the
    ``Fraction`` route, on every convex ideal: the same half-spaces in the
    same order, and the same member alcove vertices."""
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    roots = rs.positive_roots
    corners = fraction_vertices(rs)
    for c in convex_ideals(ctx):
        got = [
            (roots[a - 1] if a > 0 else neg(roots[-a - 1]), b)
            for a, b in order_polytope_halfspaces(c)
        ]
        assert got == fraction_halfspaces(c), c.canonical_upper
        for i, m in enumerate(c.members):
            verts = [ambient(rs, v) for v in alcove_vertices_of(c, i)]
            assert verts == [apply(rs, ctx.invert(m), v) for v in corners]


def test_centroid_of_identity_alcove():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    single = interval_left(ctx, ctx.identity())
    marks = rs.coefficients[rs.highest_root_index]
    expected = zero(rs.ambient_dim)
    for i in range(rs.rank):
        expected = add(expected, scale(Fraction(1, 1) / marks[i], rs.coweights[i]))
    expected = scale(Fraction(1, rs.rank + 1), expected)
    assert centroid(single) == expected


def test_centroid_of_whole_group_vanishes():
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        whole = ideal_from_upper(ctx, (1 << rs.num_positive_roots) - 1)
        assert centroid(whole) == zero(rs.ambient_dim)


def test_centroid_matches_vertex_average_oracle():
    """Average of per-alcove vertex centroids equals the closed formula."""
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    c = interval_left(ctx, ctx.from_word([1]))
    total = zero(rs.ambient_dim)
    for m in range(len(c)):
        verts = [ambient(rs, v) for v in alcove_vertices_of(c, m)]
        simplex = zero(rs.ambient_dim)
        for v in verts:
            simplex = add(simplex, v)
        total = add(total, scale(Fraction(1, len(verts)), simplex))
    oracle = scale(Fraction(1, len(c)), total)
    assert centroid(c) == oracle


def test_mean_height_whole_group_vanishes():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    whole = ideal_from_upper(ctx, (1 << rs.num_positive_roots) - 1)
    for k in range(rs.num_positive_roots):
        assert mean_height(whole, k) == 0


def test_mean_height_bounded_by_type_height():
    rs = build_root_system("B", 2)
    ctx = WeylContext(rs)
    top = alcove_params(rs).height
    for c in convex_ideals(ctx):
        for k in range(rs.num_positive_roots):
            assert abs(mean_height(c, k)) <= top


def test_mean_height_additive_on_roots():
    rs = build_root_system("B", 3)
    ctx = WeylContext(rs)
    c = interval_left(ctx, ctx.from_word([3, 2, 3, 1]))
    roots = rs.positive_roots
    for i, beta in enumerate(roots):
        for j, gamma in enumerate(roots):
            total = add(beta, gamma)
            if total in roots:
                k = roots.index(total)
                assert mean_height(c, k) == mean_height(c, i) + mean_height(c, j)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_witnesses_on_all_ideals(family, rank):
    rs = build_root_system(family, rank)
    ctx = WeylContext(rs)
    for c in convex_ideals(ctx):
        if len(c) <= 1:
            continue
        k = small_mean_height_root(c)
        assert k is not None
        assert abs(mean_height(c, k)) < 1
        j = centroid_split_root(c)
        assert j is not None
        cnt = c.inversion_count(j)
        assert 0 < cnt < len(c)
        limit = alcove_params(rs).margin / (rs.rank + 1)
        assert abs(dot(centroid(c), rs.positive_roots[j])) <= limit


class FractionOracle:
    """The witnesses and the centroid by the Fraction route.

    Each member w contributes its alcove centroid w^{-1} o_0 and the image
    w^{-1} rho^vee of the sum of the coweights (heights are pairings with
    rho^vee), both through the oracle ``apply``; pairings are ``dot``s.
    """

    def __init__(self, rs):
        self.rs = rs
        self.ctx = WeylContext(rs)
        self.o0 = scale(Fraction(1, rs.rank + 1), reduce(add, fraction_vertices(rs)))
        self.rho = zero(rs.ambient_dim)
        for w in rs.coweights:
            self.rho = add(self.rho, w)
        self.images = {}
        self.limit = alcove_params(rs).margin / (rs.rank + 1)

    def _image(self, m):
        if m not in self.images:
            inv = self.ctx.invert(m)
            self.images[m] = (apply(self.rs, inv, self.o0), apply(self.rs, inv, self.rho))
        return self.images[m]

    def _average(self, c, which):
        total = zero(self.rs.ambient_dim)
        for m in c.members:
            total = add(total, self._image(m)[which])
        return scale(Fraction(1, len(c)), total)

    def centroid(self, c):
        return self._average(c, 0)

    def split_root(self, c):
        o = self.centroid(c)
        n = len(c)
        for k, beta in enumerate(self.rs.positive_roots):
            if 0 < c.inversion_count(k) < n and abs(dot(o, beta)) <= self.limit:
                return k
        return None

    def mean_heights(self, c):
        rho = self._average(c, 1)
        return [dot(rho, beta) for beta in self.rs.positive_roots]

    def height_root(self, c):
        return next((k for k, h in enumerate(self.mean_heights(c)) if abs(h) < 1), None)


@pytest.mark.parametrize("family,rank", list(CONJECTURE_TYPES) + [("D", 4)])
def test_witnesses_and_centroid_match_fraction_oracle(family, rank):
    """The integer tables give the oracle's first witness and its centroid."""
    rs = build_root_system(family, rank)
    oracle = FractionOracle(rs)
    sets = [c for c in convex_ideals(WeylContext(rs)) if len(c) > 1]
    for c in sets:
        upper = c.canonical_upper
        assert centroid(c) == oracle.centroid(c), upper
        assert centroid_split_root(c) == oracle.split_root(c), upper
        assert small_mean_height_root(c) == oracle.height_root(c), upper
        heights = [mean_height(c, k) for k in range(rs.num_positive_roots)]
        assert heights == oracle.mean_heights(c), upper
    assert len(sets) == {
        "A1": 1, "A2": 6, "A3": 39, "B2": 10, "B3": 138, "G2": 21, "A4": 356, "D4": 884,
    }[rs.root_label()]


def plane_group(family, rank):
    """The group object, the decoded table of its scan and the scan's codes."""
    ctx = WeylContext(build_root_system(family, rank))
    codes, _ = convex._scan_columns(ctx)
    return ctx, element_table(ctx), codes


PLANE_GROUPS = {f"{f}{r}": plane_group(f, r) for f, r in [("A", 3), ("B", 3), ("G", 2)]}


@given(name=st.sampled_from(sorted(PLANE_GROUPS)), data=st.data())
def test_plane_sums_match_image_sums(name, data):
    """For any set M of rows, convex or not, the bit-plane sum over the
    codes of the height and of the pairing table at each root is
    ``_image_sum`` over the members, the decoded table's rows M."""
    ctx, table, codes = PLANE_GROUPS[name]
    n = ctx.root_system.num_positive_roots
    members = data.draw(st.integers(min_value=1, max_value=(1 << len(table)) - 1), label="M")
    c = convex._build(ctx, [row for r, row in enumerate(table) if members >> r & 1])
    tables = _root_tables(ctx.root_system)
    for entries in (tables.height, tables.pairing):
        planes = _bit_planes(codes, n, entries)
        assert [_plane_sum(root_planes, members) for root_planes in planes] == [
            _image_sum(entries, c, k) for k in range(n)
        ]


# Every type with |W| <= 5040, the largest being A6.
SMALL_GROUPS = [
    *(("A", r) for r in range(1, 7)),
    *((f, r) for f in "BC" for r in range(2, 6)),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("family,rank", SMALL_GROUPS)
def test_code_columns_and_planes_match_the_decoded_table(family, rank):
    """The root columns and both plane sets read off the joined codes equal
    those built row by row from the decoded table, in the same row order."""
    ctx = WeylContext(build_root_system(family, rank))
    n = ctx.root_system.num_positive_roots
    codes, columns = convex._scan_columns(ctx)
    table = element_table(ctx)
    assert len(codes) == n * len(table)
    assert columns == table_columns(table, n)
    images = image_rows(table, n)
    tables = _root_tables(ctx.root_system)
    for entries in (tables.height, tables.pairing):
        assert _bit_planes(codes, n, entries) == table_bit_planes(entries, images)


def plane_witnesses(ctx):
    """``witnessed_ideals`` from the scan's private parts, in NextClosure
    order, so that it also runs past the scan bound."""
    codes, columns = convex._scan_columns(ctx)
    score = plane_scorer(ctx.root_system, codes, columns)
    return [(*score(members, upper), upper)
            for upper, members in convex._closed_ideals(columns, len(codes) // len(columns))
            if upper]


def check_plane_witnesses(family, rank):
    """Set by set, the plane scorer gives the balance and both witnesses
    of the ``ConvexSet`` routes; returns the number of sets.  F4's 54305
    sets take about 8 s, so the suite leaves them to a direct call."""
    ctx = WeylContext(build_root_system(family, rank))
    scored = plane_witnesses(ctx)
    sets = ideals_from_uppers(ctx, [upper for *_, upper in scored])
    for (b, height, split, upper), c in zip(scored, sets):
        assert c.upper == upper
        assert (b, height, split) == (
            c.balance_value(), small_mean_height_root(c), centroid_split_root(c)
        ), upper
    if ctx.root_system.num_positive_roots <= convex.CONVEX_SCAN_MAX_ROOTS:
        in_scan_order = sorted(scored, key=lambda s: s[3].bit_count())
        assert witnessed_ideals(ctx) == [(b, upper, h, s) for b, h, s, upper in in_scan_order]
    return len(scored)


@pytest.mark.parametrize("family,rank", list(CONJECTURE_TYPES) + [
    ("C", 3), ("D", 4), ("B", 4), ("C", 4),
])
def test_plane_witnesses_match_convex_set_routes(family, rank):
    assert check_plane_witnesses(family, rank) == {
        "A1": 1, "A2": 6, "A3": 39, "B2": 10, "B3": 138, "G2": 21, "A4": 356,
        "C3": 138, "D4": 884, "B4": 3690, "C4": 3690,
    }[f"{family}{rank}"]


PROPERTY_ORACLES = {
    key: FractionOracle(build_root_system(*key)) for key in [("A", 3), ("B", 3)]
}


@given(
    key=st.sampled_from(sorted(PROPERTY_ORACLES)),
    word=st.lists(st.integers(min_value=1, max_value=3), max_size=12),
)
def test_interval_centroid_matches_fraction_oracle(key, word):
    oracle = PROPERTY_ORACLES[key]
    ctx = WeylContext(oracle.rs)
    c = interval_left(ctx, ctx.from_word(word))
    assert centroid(c) == oracle.centroid(c)


def test_witnesses_need_non_singleton():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    single = interval_left(ctx, ctx.identity())
    with pytest.raises(ValueError):
        small_mean_height_root(single)
    with pytest.raises(ValueError):
        centroid_split_root(single)


def test_whole_group_split_root_at_zero():
    rs = build_root_system("A", 2)
    ctx = WeylContext(rs)
    whole = ideal_from_upper(ctx, (1 << rs.num_positive_roots) - 1)
    k = centroid_split_root(whole)
    assert dot(centroid(whole), rs.positive_roots[k]) == 0


def test_exp_lower_bound_is_strict_lower_bound():
    import math

    def partial_sum(x, terms):
        return sum(Fraction(x ** k, math.factorial(k)) for k in range(terms))

    for x in (Fraction(1), Fraction(2), Fraction(21, 2), Fraction(7, 2)):
        lo = exp_lower_bound(x)
        # the 80-term sum; shorter sums stay strictly below it
        assert lo == partial_sum(x, 80)
        assert partial_sum(x, 10) < partial_sum(x, 40) < lo
        assert abs(float(lo) - math.exp(float(x))) <= 1e-9 * math.exp(float(x))
    # e itself: the 80-term sum beats the classical 2.7182818284 lower bound
    assert exp_lower_bound(Fraction(1)) > Fraction(27182818284, 10**10)
    with pytest.raises(ValueError):
        exp_lower_bound(Fraction(-1))


def test_exponential_bounds_hold_on_scans():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        ctx = WeylContext(rs)
        threshold = exponential_bound_threshold(rs)
        for c in convex_ideals(ctx):
            if len(c) <= 1:
                continue
            assert c.balance_value() >= threshold


def test_short_root_bound_type_b_only():
    b2 = WeylContext(build_root_system("B", 2))
    for c in convex_ideals(b2):
        if len(c) > 1:
            assert check_short_root_bound(c, c.balance_value())
    a2 = WeylContext(build_root_system("A", 2))
    whole = ideal_from_upper(a2, (1 << a2.root_system.num_positive_roots) - 1)
    with pytest.raises(ValueError, match="type B"):
        check_short_root_bound(whole, whole.balance_value())
