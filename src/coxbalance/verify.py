"""Verification campaigns tying the modules together.

Each campaign produces a :class:`VerificationReport` whose records compare
exact computed values against exact expected values (or inequalities whose
thresholds are exact rationals).  Reports serialize to byte-stable JSON:
record order is fixed and the wall-clock duration is kept out of the JSON
body.  A failing theorem-level record carries a reproducer payload.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import alcove, convex, coxgen, posets, semiorder
# ``iter_ideal_masks`` stays bound here for ``bench/spans.py``, which wraps each binding.
from .rootsys import RootSystem, build_root_system, iter_ideal_masks
from .weyl import WeylContext

THIRD = Fraction(1, 3)


def fmt(value) -> str:
    """Deterministic plain-text rendering of exact values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    return str(value)


class Record:
    def __init__(self, instance: str, value: str, expected: str, passed: bool,
                 reproducer: Optional[str] = None):
        self.instance = instance
        self.value = value
        self.expected = expected
        self.passed = passed
        self.reproducer = reproducer


class VerificationReport:
    def __init__(self, campaign: str):
        self.campaign = campaign
        self.records: List[Record] = []
        self.duration = 0.0

    def check(self, instance: str, value, expected, passed: Optional[bool] = None,
              reproducer=None) -> bool:
        if passed is None:
            passed = value == expected
        self.records.append(
            Record(instance, fmt(value), fmt(expected), bool(passed),
                   None if reproducer is None else fmt(reproducer))
        )
        return bool(passed)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def to_json(self) -> dict:
        """The report's JSON payload, as a dict for ``json.dumps``."""
        return {
            "schema": 1,
            "campaign": self.campaign,
            "records": [
                {
                    "instance": r.instance,
                    "value": r.value,
                    "expected": r.expected,
                    "pass": r.passed,
                    **({"reproducer": r.reproducer} if r.reproducer else {}),
                }
                for r in self.records
            ],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.total - self.passed,
            },
        }

    def table(self) -> str:
        lines = [f"campaign: {self.campaign}"]
        for r in self.records:
            mark = "ok " if r.passed else "FAIL"
            lines.append(f"  [{mark}] {r.instance}: {r.value} (expected {r.expected})")
            if r.reproducer and not r.passed:
                lines.append(f"         reproducer: {r.reproducer}")
        lines.append(
            f"  {self.passed}/{self.total} passed in {self.duration:.2f}s"
        )
        return "\n".join(lines)


def _timed(campaign: str, body: Callable[[VerificationReport], None]) -> VerificationReport:
    report = VerificationReport(campaign)
    t0 = time.perf_counter()
    body(report)
    report.duration = time.perf_counter() - t0
    return report


# -- campaign: per-type parameter table ---------------------------------------

PARAM_ROWS: Dict[str, Tuple[int, ...]] = {
    # family -> ranks spot-checked for the rank-parametric rows
    "A": (1, 2, 3, 5, 8),
    "B": (2, 3, 5, 8),
    "C": (2, 3, 5, 8),
    "D": (4, 5, 8),
}


def _expected_params(family: str, rank: int):
    if family == "A":
        return (1, 1, rank, Fraction(1), Fraction(1))
    if family in ("B", "C"):
        return (1, 2, 2 * rank - 1, Fraction(1), Fraction(2))
    if family == "D":
        return (1, 2, 2 * rank - 3, Fraction(2), Fraction(4))
    fixed = {
        ("E", 6): (1, 3, 11, Fraction(8, 3), Fraction(8)),
        ("E", 7): (1, 4, 17, Fraction(3), Fraction(12)),
        ("E", 8): (2, 6, 29, Fraction(7, 4), Fraction(21, 2)),
        ("F", 4): (2, 4, 11, Fraction(7, 8), Fraction(7, 2)),
        # The published table lists 5/2 in the last column for G2, which
        # contradicts its own m = 1/2 and m1 = 3 entries; the defining
        # product m * m1 = 3/2 is used here.
        ("G", 2): (2, 3, 5, Fraction(1, 2), Fraction(3, 2)),
    }
    return fixed[(family, rank)]


def verify_params_table() -> VerificationReport:
    def body(report: VerificationReport):
        rows = [(family, rank) for family, ranks in PARAM_ROWS.items() for rank in ranks]
        rows += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        for family, rank in rows:
            p = alcove.alcove_params(build_root_system(family, rank))
            got = (p.min_mark, p.max_mark, p.height, p.margin, p.exponent)
            report.check(f"{family}{rank}", got, _expected_params(family, rank))

    return _timed("table1", body)


# -- campaign: minimum balance over convex ideals ------------------------------

CONJECTURE_TYPES: Tuple[Tuple[str, int], ...] = (
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2), ("A", 4),
)


def verify_conjecture(rs: RootSystem) -> VerificationReport:
    def body(report: VerificationReport):
        ctx = WeylContext(rs)
        scored = convex.scored_ideals(ctx)
        best = min(b for b, _ in scored)
        violations = [upper for b, upper in scored if b < THIRD]
        label = rs.root_label()
        if rs.family == "A" and rs.rank == 1:
            report.check(f"{label} min balance", best, Fraction(1, 2))
        else:
            report.check(f"{label} min balance", best, THIRD)
        report.check(
            f"{label} violations below 1/3",
            len(violations),
            0,
            reproducer=[
                "A=" + ",".join(map(str, convex.listed_keys(ctx, upper)))
                for upper in violations
            ] or None,
        )
        report.check(
            f"{label} equality witnesses", any(b == best for b, _ in scored), True
        )

    return _timed(f"conjecture {rs.root_label()}", body)


# -- campaign: the four equality intervals and the claw-chain family ----------

EQUALITY_CASES: Tuple[Tuple[str, int, Tuple[int, ...], bool], ...] = (
    # (family, rank, word, group route feasible)
    ("A", 2, (1, 2), True),
    ("D", 4, (4, 2, 3, 1), True),
    ("B", 3, (3, 2, 3, 1), True),
    ("E", 6, (6, 3, 2, 4, 1, 3, 5), False),
)


def verify_equality_cases() -> VerificationReport:
    def body(report: VerificationReport):
        for family, rank, word, group_route in EQUALITY_CASES:
            rs = build_root_system(family, rank)
            ctx = WeylContext(rs)
            label = f"{family}{rank} w={''.join(map(str, word))}"
            heap = posets.heap_from_word(ctx, word)
            report.check(f"{label} heap balance", heap.balance(), THIRD)
            if group_route:
                c = convex.interval_left(ctx, ctx.from_word(word))
                report.check(f"{label} interval balance", c.balance_value(), THIRD)
        for k in range(1, 7):
            length = 2 ** (k - 1)
            claw = posets.claw_chain(k, length)
            report.check(f"claw({k},{length}) ideal count", claw.ideal_count(), 2 ** k + length)
            report.check(f"claw({k},{length}) balance", claw.balance(), THIRD)

    return _timed("equality", body)


# -- campaign: the three counterexamples ---------------------------------------


def verify_counterexamples() -> VerificationReport:
    def body(report: VerificationReport):
        for n in range(3, 7):
            ctx = coxgen.build_system(coxgen.complete_graph_matrix(n))
            gens = [ctx.from_word([i]) for i in range(1, n + 1)]
            hull = convex.convex_hull(ctx, [ctx.identity()] + gens)
            report.check(f"complete-graph n={n} hull size", len(hull), n + 1)
            report.check(
                f"complete-graph n={n} balance",
                hull.balance_value(),
                Fraction(1, n + 1),
            )
        cyc = coxgen.build_system(coxgen.cycle_matrix(4))
        w = cyc.from_word([2, 4, 1, 3])
        c = convex.interval_left(cyc, w)
        report.check("4-cycle interval size", len(c), 7)
        report.check("4-cycle interval balance", c.balance_value(), Fraction(2, 7))
        heap = posets.heap_from_word(cyc, [2, 4, 1, 3])
        report.check("4-cycle heap balance", heap.balance(), Fraction(2, 7))

        path = coxgen.build_system(coxgen.path_matrix(4, [coxgen.INF] * 3))
        u = path.from_word([2, 3, 2, 3])
        v = path.from_word([1, 4, 2, 3])
        hull = convex.convex_hull(path, [path.identity(), u, v])
        report.check("infinite-path hull size", len(hull), 10)
        report.check("infinite-path balance", hull.balance_value(), Fraction(3, 10))
        report.check(
            "infinite-path frac(s3s2s3)",
            hull.inversion_fraction(coxgen.reflection_key_of_word(path, [3, 2, 3])),
            Fraction(7, 10),
        )
        for word in ([3, 2, 3, 2, 3], [3, 4, 3], [3, 2, 1, 2, 3]):
            report.check(
                f"infinite-path frac({''.join(map(str, word))})",
                hull.inversion_fraction(coxgen.reflection_key_of_word(path, word)),
                Fraction(3, 10),
            )

    return _timed("counterexamples", body)


# -- campaign: classify fully commutative equality heaps -----------------------


def _reference_heaps():
    a2 = WeylContext(build_root_system("A", 2))
    d4 = WeylContext(build_root_system("D", 4))
    e6 = WeylContext(build_root_system("E", 6))
    return {
        "chain2": posets.heap_from_word(a2, (1, 2)),
        "claw22": posets.heap_from_word(d4, (4, 2, 3, 1)),
        "branch7": posets.heap_from_word(e6, (6, 3, 2, 4, 1, 3, 5)),
    }


def fully_commutative_elements(rs: RootSystem):
    """(element, shortlex word, heap) for every fully commutative element,
    in shortlex order: the shortlex tree pruned by the FC test, whose heap
    rows the heaps reuse.  A child's rows grow from its kept parent's, and
    the walk's children are reduced, as ``is_fully_commutative`` asks."""
    sys = WeylContext(rs)
    rows = {(): ()}

    def keep(key, word):
        rows[word] = posets.grow_heap_rows(sys, word, rows[word[1:]])
        return coxgen.is_fully_commutative(sys, word, rows[word])

    walk = convex.pruned_walk(sys, keep)
    return [(w, word, posets.LabeledPoset(len(word), rows[word], word)) for w, word, _ in walk]


def classify_fc_equality(rs: RootSystem, refs: dict) -> VerificationReport:
    """Find every fully commutative element whose heap balance equals 1/3 and
    match the heap components against the :func:`_reference_heaps` ``refs``."""

    def body(report: VerificationReport):
        unmatched = []
        hits = 0
        for w, word, heap in fully_commutative_elements(rs):
            if not word:
                continue
            if heap.balance() != THIRD:
                continue
            hits += 1
            for comp in heap.components():
                sub = heap.restrict(comp)
                if not any(posets.is_isomorphic(sub, ref) for ref in refs.values()):
                    unmatched.append((word, tuple(comp)))
        label = rs.root_label()
        report.check(f"{label} equality intervals found", hits > 0, True)
        # An unmatched component would answer the open classification
        # question in the negative: report it, but do not fail the campaign.
        report.check(
            f"{label} components outside the reference list",
            len(unmatched),
            len(unmatched),
            passed=True,
            reproducer=[f"w={w} comp={c}" for w, c in unmatched] or None,
        )

    return _timed(f"classify {rs.root_label()}", body)


# -- campaign: single-exit witnesses (root-poset ideals) -----------------------

EXIT_SCAN_TYPES: Tuple[Tuple[str, int], ...] = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("F", 4), ("G", 2),
)

EXIT_SCAN_BIG: Tuple[Tuple[str, int], ...] = (("E", 6), ("E", 7), ("E", 8))


def verify_exit_witnesses(include_big: bool = False) -> VerificationReport:
    def body(report: VerificationReport):
        types = EXIT_SCAN_TYPES + (EXIT_SCAN_BIG if include_big else ())
        for family, rank in types:
            rs = build_root_system(family, rank)
            scanned, failures = semiorder.scan_exit_witnesses(rs)
            report.check(
                f"{family}{rank} ideals without a single-exit simple root "
                f"(of {scanned})",
                len(failures),
                0,
                reproducer=[f"mask={m:#x}" for m in failures] or None,
            )
            if (family, rank) == ("E", 8):
                report.check("E8 ideal count", scanned + 1, 25080)

    return _timed("exits", body)


# -- campaign: semiorder bounds -------------------------------------------------

SEMIORDER_TYPES: Tuple[Tuple[str, int], ...] = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 4), ("G", 2),
)


def verify_semiorder_bounds() -> VerificationReport:
    def body(report: VerificationReport):
        for family, rank in SEMIORDER_TYPES:
            rs = build_root_system(family, rank)
            columns, scored = semiorder.scored_semiorders(rs)
            refl = semiorder.reflections(rs)
            bad = [a for a, m, _ in scored if not semiorder.check_half_bound(columns, refl, a, m)]
            min_b = min(b for _, m, b in scored if m.bit_count() > 1)
            label = rs.root_label()
            report.check(
                f"{label} inversion fractions at most 1/2",
                not bad,
                True,
                reproducer=[f"mask={m:#x}" for m in bad] or None,
            )
            report.check(
                f"{label} min non-singleton balance at least 1/3",
                min_b >= THIRD,
                True,
                reproducer=fmt(min_b),
            )

    return _timed("semiorder", body)


# -- campaign: geometry bounds ---------------------------------------------------


def verify_geometry() -> VerificationReport:
    def body(report: VerificationReport):
        for family, rank in CONJECTURE_TYPES:
            rs = build_root_system(family, rank)
            threshold = alcove.exponential_bound_threshold(rs)
            ctx = WeylContext(rs)
            scored = alcove.witnessed_ideals(ctx)
            no_height = [upper for _, upper, h, _ in scored if h is None]
            no_split = [upper for _, upper, _, s in scored if s is None]
            below = [upper for b, upper, _, _ in scored if b < threshold]
            if rs.family == "B":
                short = alcove.short_root_bound_threshold()
                below_short = [upper for b, upper, _, _ in scored if b < short]
            label = rs.root_label()

            def repro(uppers):
                return [
                    "A=" + ",".join(map(str, convex.listed_keys(ctx, upper)))
                    for upper in uppers
                ] or None

            report.check(
                f"{label} mean-height witness on {len(scored)} sets",
                len(no_height), 0, reproducer=repro(no_height),
            )
            report.check(
                f"{label} centroid-split witness",
                len(no_split), 0, reproducer=repro(no_split),
            )
            report.check(
                f"{label} balance above 1/(2 e^exponent)",
                len(below), 0, reproducer=repro(below),
            )
            if rs.family == "B":
                report.check(
                    f"{label} balance above 1/(2e)",
                    len(below_short), 0, reproducer=repro(below_short),
                )
            if rs.family == "G":
                report.check(
                    f"{label} balance at least 1/3",
                    all(b >= THIRD for b, _, _, _ in scored), True,
                )

    return _timed("geometry", body)


# -- driver ----------------------------------------------------------------------

CLASSIFY_TYPES: Tuple[Tuple[str, int], ...] = (
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4),
)


def _classify() -> List[VerificationReport]:
    refs = _reference_heaps()
    return [classify_fc_equality(build_root_system(f, r), refs) for f, r in CLASSIFY_TYPES]


# Each campaign's runner, called with include_big, in the order ``all`` runs them.
CAMPAIGNS: Dict[str, Callable[[bool], List[VerificationReport]]] = {
    "table1": lambda big: [verify_params_table()],
    "conjecture": lambda big: [
        verify_conjecture(build_root_system(f, r)) for f, r in CONJECTURE_TYPES
    ],
    "equality": lambda big: [verify_equality_cases()],
    "counterexamples": lambda big: [verify_counterexamples()],
    "classify": lambda big: _classify(),
    "exits": lambda big: [verify_exit_witnesses(include_big=big)],
    "semiorder": lambda big: [verify_semiorder_bounds()],
    "geometry": lambda big: [verify_geometry()],
}

CAMPAIGN_NAMES = (*CAMPAIGNS, "all")


def run_campaign(name: str, include_big: bool = False) -> List[VerificationReport]:
    if name == "all":
        return [rep for run in CAMPAIGNS.values() for rep in run(include_big)]
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}")
    return CAMPAIGNS[name](include_big)
