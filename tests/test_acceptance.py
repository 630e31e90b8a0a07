"""Acceptance suite: one test per top-level criterion, exact tolerances.

Each test prints a single pass/fail line (run pytest with -s or read the
captured output) and asserts exact rational equalities, never floating
comparisons.  The only inequalities against irrational constants go through
strict rational bounds (partial exponential sums).

Note on criterion 10's product rule: for convex sets of a reducible group
the balance constant obeys b(C1 x C2) = max(b1, b2), which follows from the
definition b(C) = max_t min(delta_C(t), 1 - delta_C(t)).  The product check
below verifies that rule and records that the quoted rule
b(C1 x C2) = min(b1, b2) is refuted, by random samples and by an explicit
witness.
"""

import random
import time
from fractions import Fraction

from conftest import (
    commutation_class,
    convex_ideals,
    elements,
    inversion_keys_of_word,
    labelled_relation,
    mask_of,
    one_line,
    root_keys,
    translate,
)
from coxbalance import alcove, convex, coxgen, posets, semiorder
from coxbalance.coxgen import INF, build_system, complete_graph_matrix, cycle_matrix, matrix_from_edges, path_matrix
from coxbalance.rootsys import build_root_system, iter_ideal_masks

THIRD = Fraction(1, 3)


def report(number, label, elapsed, passed=True):
    flag = "PASS" if passed else "FAIL"
    print(f"criterion {number:>2} [{flag}] {label} ({elapsed:.2f}s)")


# -- criterion 1: root data ----------------------------------------------------


def test_c01_root_counts():
    t0 = time.perf_counter()
    expected = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}
    for r in range(1, 9):
        expected[("A", r)] = r * (r + 1) // 2
    for r in range(2, 9):
        expected[("B", r)] = r * r
        expected[("C", r)] = r * r
    for r in range(4, 9):
        expected[("D", r)] = r * (r - 1)
    worst = 0.0
    for (family, rank), count in sorted(expected.items()):
        t1 = time.perf_counter()
        rs = build_root_system(family, rank)
        assert rs.num_positive_roots == count, (family, rank)
        worst = max(worst, time.perf_counter() - t1)
    assert worst < 1.0, f"slowest root system took {worst:.2f}s"
    report(1, f"root counts for {len(expected)} types, slowest {worst:.2f}s",
           time.perf_counter() - t0)


# -- criterion 2: the parameter table -------------------------------------------

TABLE = {
    ("A", "any"): (1, 1, None, Fraction(1), Fraction(1)),
    ("B", "any"): (1, 2, None, Fraction(1), Fraction(2)),
    ("C", "any"): (1, 2, None, Fraction(1), Fraction(2)),
    ("D", "any"): (1, 2, None, Fraction(2), Fraction(4)),
    ("E", 6): (1, 3, 11, Fraction(8, 3), Fraction(8)),
    ("E", 7): (1, 4, 17, Fraction(3), Fraction(12)),
    ("E", 8): (2, 6, 29, Fraction(7, 4), Fraction(21, 2)),
    ("F", 4): (2, 4, 11, Fraction(7, 8), Fraction(7, 2)),
    # the published G2 row prints 5/2 in the product column, inconsistent
    # with its own m = 1/2 and m1 = 3 entries; the defined product is 3/2
    ("G", 2): (2, 3, 5, Fraction(1, 2), Fraction(3, 2)),
}

HEIGHT_FORMULA = {"A": lambda r: r, "B": lambda r: 2 * r - 1,
                  "C": lambda r: 2 * r - 1, "D": lambda r: 2 * r - 3}


def test_c02_parameter_table():
    t0 = time.perf_counter()
    rows = 0
    for family in "ABCD":
        ranks = {"A": (1, 4, 8), "B": (2, 5, 8), "C": (2, 5, 8), "D": (4, 6, 8)}[family]
        m0, m1, _, margin, exponent = TABLE[(family, "any")]
        for rank in ranks:
            p = alcove.alcove_params(build_root_system(family, rank))
            assert (p.min_mark, p.max_mark, p.height, p.margin, p.exponent) == (
                m0, m1, HEIGHT_FORMULA[family](rank), margin, exponent
            )
        rows += 1
    for (family, rank), row in TABLE.items():
        if rank == "any":
            continue
        p = alcove.alcove_params(build_root_system(family, rank))
        assert (p.min_mark, p.max_mark, p.height, p.margin, p.exponent) == row
        rows += 1
    assert rows == 9
    report(2, "parameter table matches on all 9 rows", time.perf_counter() - t0)


# -- criterion 3: the E8 scan ----------------------------------------------------


def test_c03_e8_ideals_and_witnesses():
    t0 = time.perf_counter()
    rs = build_root_system("E", 8)
    scanned, failures = semiorder.scan_exit_witnesses(rs)
    elapsed = time.perf_counter() - t0
    assert scanned + 1 == 25080  # the scan skips the empty ideal
    assert failures == []
    assert elapsed < 300.0
    report(3, f"25080 E8 ideals, single-exit witness everywhere", elapsed)


# -- criterion 4: exit witnesses across the small types ---------------------------

EXIT_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2),
)


def test_c04_exit_witnesses_exhaustive():
    t0 = time.perf_counter()
    total = 0
    for family, rank in EXIT_TYPES:
        rs = build_root_system(family, rank)
        scanned, failures = semiorder.scan_exit_witnesses(rs)
        assert failures == [], (family, rank, failures)
        total += scanned
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"single-exit witness on {total} ideals over {len(EXIT_TYPES)} types",
           elapsed)


# -- criterion 5: equality cases ---------------------------------------------------


def test_c05_equality_cases(monkeypatch):
    t0 = time.perf_counter()
    cases = [
        ("A", 2, (1, 2), True),
        ("B", 3, (3, 2, 3, 1), True),
        ("D", 4, (4, 2, 3, 1), True),
        ("E", 6, (6, 3, 2, 4, 1, 3, 5), False),
    ]
    for family, rank, word, group_route in cases:
        rs = build_root_system(family, rank)
        sys = rs
        heap = posets.heap_from_word(sys, word)
        assert heap.balance() == THIRD, (family, rank)
        if group_route:
            ctx = rs
            c = convex.interval_left(ctx, ctx.from_word(word))
            assert c.balance_value() == THIRD, (family, rank)
    for k in range(1, 7):
        claw = posets.claw_chain(k, 2 ** (k - 1))
        # a cap of exactly the claw's ideal count bounds both walks
        monkeypatch.setattr(posets, "IDEAL_CAP", 2 ** k + 2 ** (k - 1))
        assert claw.balance() == THIRD
        assert claw.ideal_count() == 2 ** k + 2 ** (k - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "four equality intervals and the claw family all at 1/3", elapsed)


# -- criterion 6: counterexamples ---------------------------------------------------


def test_c06_counterexamples():
    t0 = time.perf_counter()
    for n in range(3, 7):
        ctx = build_system(complete_graph_matrix(n))
        hull = convex.convex_hull(
            ctx, [ctx.identity()] + [ctx.from_word([i]) for i in range(1, n + 1)]
        )
        assert len(hull) == n + 1
        assert hull.balance_value() == Fraction(1, n + 1)
    cyc = build_system(cycle_matrix(4))
    c = convex.interval_left(cyc, cyc.from_word([2, 4, 1, 3]))
    assert len(c) == 7
    assert c.balance_value() == Fraction(2, 7)
    path = build_system(path_matrix(4, [INF, INF, INF]))
    hull = convex.convex_hull(path, [
        path.identity(), path.from_word([2, 3, 2, 3]), path.from_word([1, 4, 2, 3])
    ])
    assert len(hull) == 10
    key = coxgen.reflection_key_of_word(path, [3, 2, 3])
    assert hull.inversion_fraction(key) == Fraction(7, 10)
    assert hull.balance_value() == Fraction(3, 10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, "all three counterexample families reproduce exactly", elapsed)


# -- criterion 7: conjecture scans ---------------------------------------------------

SCAN_TYPES = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2), ("A", 4))


def test_c07_conjecture_scans():
    t0 = time.perf_counter()
    sets = 0
    for family, rank in SCAN_TYPES:
        ctx = build_root_system(family, rank)
        best = None
        for c in convex_ideals(ctx):
            if len(c) <= 1:
                continue
            sets += 1
            b = c.balance_value()
            assert b >= THIRD, (family, rank, c.canonical_upper)
            best = b if best is None else min(best, b)
        assert best == THIRD, (family, rank)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, f"minimum balance 1/3 attained, no violations over {sets} sets",
           elapsed)


# -- criterion 8: semiorder bounds ----------------------------------------------------

SMALL_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
    ("C", 2), ("C", 3), ("D", 4), ("G", 2),
)


def test_c08_semiorder_bounds():
    t0 = time.perf_counter()
    checked = 0
    for family, rank in SMALL_TYPES:
        rs = build_root_system(family, rank)
        assert rs.num_positive_roots <= 12
        refl = semiorder.reflections(rs)
        columns, scored = semiorder.scored_semiorders(rs)
        assert [mask for mask, _, _ in scored] == [m for m in iter_ideal_masks(rs) if m]
        for mask, m, b in scored:
            members = [i for i in range(rs.num_positive_roots) if (mask >> i) & 1]
            gs = semiorder.build(rs, members)
            assert (m.bit_count(), b) == (gs.size, gs.convex.balance_value()), (family, rank, mask)
            assert semiorder.check_half_bound(columns, refl, mask, m), (family, rank, mask)
            if gs.size > 1:
                assert gs.convex.balance_value() >= THIRD, (family, rank, mask)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, f"half bound and 1/3 floor on {checked} generalized semiorders",
           elapsed)


# -- criterion 9: geometry bounds -------------------------------------------------------


def test_c09_geometry_bounds():
    t0 = time.perf_counter()
    sets = 0
    for family, rank in SCAN_TYPES:
        rs = build_root_system(family, rank)
        ctx = rs
        threshold = alcove.exponential_bound_threshold(rs)
        for c in convex_ideals(ctx):
            if len(c) <= 1:
                continue
            sets += 1
            k = alcove.small_mean_height_root(c)
            assert k is not None and abs(alcove.mean_height(c, k)) < 1
            assert alcove.centroid_split_root(c) is not None
            assert c.balance_value() >= threshold
            if family == "B":
                assert alcove.check_short_root_bound(c, c.balance_value())
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"height/centroid witnesses and exponential bounds on {sets} sets",
           elapsed)


# -- criterion 10: property suites --------------------------------------------------------


def test_c10_bridge_equality():
    t0 = time.perf_counter()
    checked = 0
    for family, rank in (("A", 3), ("B", 3), ("D", 4)):
        rs = build_root_system(family, rank)
        ctx = rs
        sys = ctx
        for w, word in elements(rs):
            if not coxgen.is_fully_commutative(sys, list(word)):
                continue
            heap = posets.heap_from_word(sys, word)
            c = convex.interval_left(ctx, w)
            assert c.balance_value() == heap.balance()
            fractions = heap.ideal_statistics()[1]
            for pos, key in enumerate(inversion_keys_of_word(sys, word)):
                assert c.inversion_fraction(key) == fractions[pos]
            checked += 1
    elapsed = time.perf_counter() - t0
    report(10, f"interval/heap statistics agree on {checked} fc elements", elapsed)


def test_c10_fc_versus_321():
    t0 = time.perf_counter()
    for rank in (3, 4):
        rs = build_root_system("A", rank)
        sys = rs
        for w, word in elements(rs):
            perm = one_line(rs, w)
            has_321 = any(
                perm[i] > perm[j] > perm[k]
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
                for k in range(j + 1, len(perm))
            )
            assert coxgen.is_fully_commutative(sys, list(word)) == (not has_321)
    elapsed = time.perf_counter() - t0
    report(10, "full commutativity equals 321-avoidance on S4 and S5", elapsed)


def test_c10_translation_invariance():
    t0 = time.perf_counter()
    random.seed(20240817)
    pairs = 0
    for family, rank, count in (("A", 3, 120), ("B", 2, 80)):
        ctx = build_root_system(family, rank)
        els = [w for w, _ in elements(ctx)]
        n = ctx.num_positive_roots
        for _ in range(count):
            mask = random.randrange(1, 1 << n)
            c = convex.ideal_from_upper(ctx, mask)
            w = random.choice(els)
            assert translate(c, w).balance_value() == c.balance_value()
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs == 200
    report(10, "balance invariant under 200 random translations", elapsed)


def test_c10_product_decomposition_min_rule():
    """Product rule b(C1 x C2) = max(b1, b2); the quoted min rule is refuted.

    Every reflection of A3 x A1 lies in one factor and keeps its inversion
    fraction in the product, so the product's maximum over reflections is
    the larger factor maximum.  On 50 random convex order ideals the test
    checks |C| = |C1|*|C2| and b(C) = max(b1, b2), and that some sample has
    b(C) != min(b1, b2).  The witness A = {alpha_4} refutes the min rule by
    hand: C = {e, s4} has b = 1/2, while C1 = {e} has b1 = 0 and
    C2 = {e, s} in A1 has b2 = 1/2, so min(b1, b2) = 0.
    """
    t0 = time.perf_counter()
    random.seed(5)
    prod = build_system(matrix_from_edges(4, [(1, 2, 3), (2, 3, 3)]))
    f1 = build_system(path_matrix(3, [3, 3]))
    f2 = build_system(matrix_from_edges(1, []))
    roots = [coeffs + (0,) for coeffs in build_root_system("A", 3).coefficients]
    alpha4 = (0, 0, 0, 1)
    roots.append(alpha4)
    # each system's keys, by root column
    prod_keys, f1_keys, f2_keys = root_keys(prod), root_keys(f1), root_keys(f2)

    def split(allowed):
        c = convex.ideal_from_upper(prod, mask_of(prod_keys[r] for r in allowed))
        c1 = convex.ideal_from_upper(f1, mask_of(f1_keys[r[:3]] for r in allowed if r[3] == 0))
        c2 = convex.ideal_from_upper(f2, mask_of(f2_keys[r[3:]] for r in allowed if r[3] != 0))
        return c, c1, c2

    def describe(allowed, c, c1, c2):
        coeffs = sorted(allowed)
        return (f"A={coeffs}: |C|={len(c)}, |C1|={len(c1)}, |C2|={len(c2)}, "
                f"b={c.balance_value()}, b1={c1.balance_value()}, b2={c2.balance_value()}")

    bad = []
    min_refuted = 0
    for _ in range(50):
        mask = random.randrange(1, 1 << len(roots))
        allowed = frozenset(r for k, r in enumerate(roots) if (mask >> k) & 1)
        c, c1, c2 = split(allowed)
        b, b1, b2 = c.balance_value(), c1.balance_value(), c2.balance_value()
        if len(c) != len(c1) * len(c2) or b != max(b1, b2):
            bad.append(describe(allowed, c, c1, c2))
        if b != min(b1, b2):
            min_refuted += 1

    only_alpha4 = frozenset([alpha4])
    c, c1, c2 = split(only_alpha4)
    witness = (len(c), len(c1), len(c2), c.balance_value(), c1.balance_value(), c2.balance_value())
    witness_ok = witness == (2, 1, 2, Fraction(1, 2), Fraction(0), Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    report(10, f"product rule b = max(b1, b2) and |C| = |C1||C2| on 50 samples; "
               f"quoted min rule refuted on {min_refuted}/50 and by A = {{alpha_4}}",
           elapsed, passed=not bad and min_refuted > 0 and witness_ok)
    assert not bad, f"{len(bad)} of 50 sampled products break the max rule; first: {bad[0]}"
    assert min_refuted > 0, "no sampled product separates b = min(b1, b2) from b = max(b1, b2)"
    assert witness_ok, f"witness A = {{alpha_4}}: {describe(only_alpha4, c, c1, c2)}"


def test_c10_heap_invariance_over_commutation_classes():
    t0 = time.perf_counter()
    cases = [
        (build_root_system("B", 3), (3, 2, 3, 1)),
        (build_root_system("D", 4), (4, 2, 3, 1)),
        (build_root_system("A", 4), (1, 2, 3, 4)),
        (build_root_system("E", 6), (6, 3, 2, 4, 1, 3, 5)),
        (build_system(cycle_matrix(4)), (2, 4, 1, 3)),
    ]
    words = 0
    for sys, word in cases:
        base = labelled_relation(posets.heap_from_word(sys, word))
        for other in commutation_class(sys, word):
            assert labelled_relation(posets.heap_from_word(sys, other)) == base
            words += 1
    elapsed = time.perf_counter() - t0
    report(10, f"heaps constant across {words} commutation-class words", elapsed)
