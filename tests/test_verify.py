"""Verification campaign plumbing: reports, determinism, campaign outcomes."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import convex_ideals, elements
from coxbalance import alcove, convex, coxgen, posets, verify, weyl
from coxbalance.cli import main
from coxbalance.coxgen import is_fully_commutative
from coxbalance.rootsys import RootSystem, build_root_system
from coxbalance.verify import (
    CONJECTURE_TYPES,
    SEMIORDER_TYPES,
    VerificationReport,
    _reference_heaps,
    classify_fc_equality,
    run_campaign,
    verify_conjecture,
    verify_counterexamples,
    verify_equality_cases,
    verify_exit_witnesses,
    verify_params_table,
    fmt,
)


def test_report_json_shape():
    rep = VerificationReport("demo")
    rep.check("first", 1, 1)
    rep.check("second", 2, 3)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["schema"] == 1
    assert data["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert data["records"][0]["instance"] == "first"
    assert not rep.all_passed
    assert "FAIL" in rep.table()


def test_reports_byte_identical():
    a = json.dumps(verify_params_table().to_json())
    b = json.dumps(verify_params_table().to_json())
    assert a == b
    c = json.dumps(verify_counterexamples().to_json())
    d = json.dumps(verify_counterexamples().to_json())
    assert c == d


def test_duration_not_serialized():
    rep = verify_params_table()
    assert rep.duration > 0
    assert "duration" not in json.dumps(rep.to_json())


def test_params_table_campaign():
    rep = verify_params_table()
    assert rep.all_passed
    assert rep.total >= 21


def test_conjecture_campaign_small():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rep = verify_conjecture(build_root_system(family, rank))
        assert rep.all_passed, rep.table()


def test_equality_campaign():
    rep = verify_equality_cases()
    assert rep.all_passed, rep.table()


def test_counterexamples_campaign():
    rep = verify_counterexamples()
    assert rep.all_passed, rep.table()


def test_exit_witness_campaign():
    rep = verify_exit_witnesses()
    assert rep.all_passed, rep.table()


def test_classify_campaign_a3():
    rep = classify_fc_equality(build_root_system("A", 3), _reference_heaps())
    assert rep.all_passed
    # in A3 every equality heap is a single 2-chain component, so nothing
    # lands outside the reference list
    outside = [r for r in rep.records if "outside" in r.instance]
    assert outside and outside[0].value == "0"


def test_classify_campaign_reports_dual_claws():
    """Inverse elements carry the dual heaps, which match no figure shape.

    These are reported as findings (still passing records).
    """
    rep = classify_fc_equality(build_root_system("B", 3), _reference_heaps())
    assert rep.all_passed
    outside = [r for r in rep.records if "outside" in r.instance]
    assert outside and int(outside[0].value) >= 1


def test_classify_builds_the_reference_heaps_once(monkeypatch):
    calls = []

    def counted():
        calls.append(1)
        return _reference_heaps()

    monkeypatch.setattr(verify, "_reference_heaps", counted)
    assert all(rep.all_passed for rep in run_campaign("classify"))
    assert len(calls) == 1


def test_geometry_walks_each_group_once_and_builds_no_set(monkeypatch):
    walks, uppers = [], []
    real_walk = weyl.all_elements

    def walk(rs):
        walks.append(rs.root_label())
        return real_walk(rs)

    def refuse(*args):
        raise AssertionError("geometry built a ConvexSet")

    monkeypatch.setattr(weyl, "all_elements", walk)
    monkeypatch.setattr(convex, "ideal_rows", lambda *args: uppers.append(args))
    monkeypatch.setattr(convex, "_build", refuse)
    (report,) = run_campaign("geometry")
    assert report.all_passed
    assert walks == [f"{family}{rank}" for family, rank in CONJECTURE_TYPES]
    assert uppers == []


@pytest.mark.parametrize("name", ["conjecture", "geometry", "semiorder"])
def test_scan_campaigns_decode_no_element(name, monkeypatch):
    """The three campaigns on the scan read its columns and planes off the
    walk's byte codes: no element's inversion set is computed."""
    def refuse(self, w):
        raise AssertionError(f"{name} decoded an element")

    monkeypatch.setattr(RootSystem, "inversion_mask", refuse)
    assert all(report.all_passed for report in run_campaign(name))


def test_semiorder_walks_each_group_once_and_builds_no_set(monkeypatch):
    """One group walk per type serves the half bound and the minimum
    balance; a second walk (say, through ``min_semiorder_balance``) or a
    ``ConvexSet`` would show here."""
    walks = []
    real_walk = weyl.all_elements

    def walk(rs):
        walks.append(rs.root_label())
        return real_walk(rs)

    def refuse(*args):
        raise AssertionError("semiorder built a ConvexSet")

    monkeypatch.setattr(weyl, "all_elements", walk)
    monkeypatch.setattr(convex, "_build", refuse)
    (report,) = run_campaign("semiorder")
    assert report.all_passed
    assert walks == [f"{family}{rank}" for family, rank in SEMIORDER_TYPES]


def test_geometry_failure_branch_lists_every_set(monkeypatch):
    """With thresholds that no balance reaches, every non-singleton set fails
    the bound records, and their reproducers list each set's A in scan
    order, as the ``ConvexSet`` of each set would print it."""
    monkeypatch.setattr(alcove, "exponential_bound_threshold", lambda rs: Fraction(1))
    monkeypatch.setattr(alcove, "short_root_bound_threshold", lambda: Fraction(1))
    (report,) = run_campaign("geometry")
    records = {r.instance: r for r in report.records}
    for family, rank, names in [
        ("A", 3, ["balance above 1/(2 e^exponent)"]),
        ("B", 3, ["balance above 1/(2 e^exponent)", "balance above 1/(2e)"]),
    ]:
        sets = [c for c in convex_ideals(build_root_system(family, rank))
                if len(c) > 1]
        expected = fmt(["A=" + ",".join(map(str, c.canonical_upper)) for c in sets])
        for name in names:
            record = records[f"{family}{rank} {name}"]
            assert not record.passed
            assert record.value == str(len(sets))
            assert record.reproducer == expected
    failed = [r.instance for r in report.records if not r.passed]
    assert len(failed) == len(CONJECTURE_TYPES) + 2  # B2 and B3 also fail 1/(2e)
    assert all(" balance above 1/(2" in name for name in failed)


def test_unknown_campaign():
    with pytest.raises(ValueError, match="unknown campaign"):
        run_campaign("nope")


EXPECTED_DIR = Path(__file__).resolve().parent.parent / "bench" / "expected"


@pytest.mark.parametrize(
    "argv",
    [["table1"], ["semiorder"], ["exits", "--e8"], ["geometry"], ["conjecture"],
     ["classify"], ["equality"], ["counterexamples"]],
    ids=["table1", "semiorder", "exits-e8", "geometry", "conjecture",
         "classify", "equality", "counterexamples"],
)
def test_campaign_output_matches_expected_bytes(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    expected = (EXPECTED_DIR / f"{argv[0]}.json").read_bytes()
    assert out.read_bytes() == expected


def test_campaigns_read_no_fraction_views(monkeypatch, capsys):
    """Every campaign and the E6 group run on the integer tables alone."""
    def unused(rs):
        raise AssertionError("Fraction view read")

    monkeypatch.setattr(RootSystem, "positive_roots", property(unused))
    monkeypatch.setattr(RootSystem, "coweights", property(unused))
    for rep in run_campaign("all", include_big=True):
        assert rep.all_passed, rep.table()
    assert main(["group", "--type", "E", "--rank", "6"]) == 0
    expected = (EXPECTED_DIR / "group-E6.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
])
def test_fc_walk_matches_the_filtered_group(family, rank):
    """The walk pruned to fully commutative elements gives what filtering
    the whole group gives, in the same order."""
    rs = build_root_system(family, rank)
    ctx = rs
    expected = [(w, word) for w, word in elements(rs) if is_fully_commutative(ctx, word)]
    walked = verify.fully_commutative_elements(rs)
    assert [(w, word) for w, word, _ in walked] == expected
    assert all(heap == posets.heap_from_word(ctx, word) for _, word, heap in walked)


def test_classify_builds_each_tested_word_heap_once(monkeypatch):
    """``verify classify`` runs the whole-word ``heap_rows`` only for the
    three reference heaps, and grows the rows of each word that the FC walk
    tests once, from the rows it kept for the word's parent; the classifier
    reuses the rows of the walk's test."""
    tested, built, grown = [], [], []
    kept = {(): ()}  # the grown rows, by word
    fc_test, rows_of, grow = coxgen.is_fully_commutative, posets.heap_rows, posets.grow_heap_rows

    def counted_test(sys, word, rows=None):
        tested.append(tuple(word))
        return fc_test(sys, word, rows)

    def counted_rows(sys, word):
        built.append(tuple(word))
        return rows_of(sys, word)

    def counted_grow(sys, word, below):
        assert below is kept[word[1:]], word
        grown.append(word)
        kept[word] = grow(sys, word, below)
        return kept[word]

    monkeypatch.setattr(coxgen, "is_fully_commutative", counted_test)
    monkeypatch.setattr(coxgen, "heap_rows", counted_rows)
    monkeypatch.setattr(posets, "heap_rows", counted_rows)
    monkeypatch.setattr(posets, "grow_heap_rows", counted_grow)
    assert all(report.all_passed for report in verify.run_campaign("classify"))
    assert len(tested) > 0
    assert built == [(1, 2), (4, 2, 3, 1), (6, 3, 2, 4, 1, 3, 5)]
    assert grown == tested


def test_fc_walk_child_test_equals_the_whole_word_test(monkeypatch):
    """For every child that the E6 FC walk tests, the test on the rows the
    walk hands over gives the answer of the test on the whole word."""
    fc_test = coxgen.is_fully_commutative
    answers = []

    def both(sys, word, rows=None):
        answers.append((fc_test(sys, word, rows), fc_test(sys, word)))
        return answers[-1][0]

    monkeypatch.setattr(coxgen, "is_fully_commutative", both)
    assert len(verify.fully_commutative_elements(build_root_system("E", 6))) == 662
    assert all(fast == whole for fast, whole in answers)
    assert {fast for fast, _ in answers} == {True, False}


@pytest.mark.parametrize("family,rank,count", [
    ("A", 5, 132), ("A", 7, 1430), ("E", 6, 662), ("E", 7, 2670), ("E", 8, 10846),
])
def test_fc_counts(family, rank, count):
    """Catalan numbers in type A and Stembridge's counts for E6, E7 and E8
    (J. Algebraic Combin. 7, 1998)."""
    assert len(verify.fully_commutative_elements(build_root_system(family, rank))) == count
