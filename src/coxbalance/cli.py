"""Command-line interface: construction, computation, export, verification.

Human-readable tables go to standard output; machine JSON goes to --out.
Rationals are always serialized as {"num": ..., "den": ...} objects, never
as decimals.  Words are space-separated 1-based simple indices.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import alcove, convex, coxgen, posets, semiorder, verify, weyl
from .convex import CoxContext, WeylContext
from .rootsys import (
    RootSystem,
    build_root_system,
    count_root_ideals,
    fraction_json,
    poset_dot,
    root_graph_dot,
    roots_json,
)


def _frac(x: Fraction) -> dict:
    return fraction_json(x)


def _parse_word(text: str) -> List[int]:
    return [int(t) for t in text.split()] if text.strip() else []


def _write_out(args, payload: dict) -> None:
    if getattr(args, "out", None):
        payload = {"schema": 1, **payload}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _root_system(args) -> RootSystem:
    if not args.type or args.rank is None:
        raise SystemExit("--type and --rank are required for this command")
    return build_root_system(args.type, args.rank)


def _context(args):
    """Either a Weyl context from --type/--rank or a generic one from --diagram."""
    if args.diagram:
        with open(args.diagram) as fh:
            matrix = coxgen.matrix_from_json(fh.read())
        return CoxContext(coxgen.build_system(matrix))
    return WeylContext(_root_system(args))


def cmd_roots(args) -> int:
    rs = _root_system(args)
    if args.format == "dot":
        text = root_graph_dot(rs) if args.graph else poset_dot(rs)
        print(text)
    elif args.format == "json":
        print(roots_json(rs))
    else:
        print(f"type {rs.root_label()}: {rs.num_positive_roots} positive roots, "
              f"ambient dimension {rs.ambient_dim}")
        for i, root in enumerate(rs.positive_roots):
            mark = []
            if i in rs.simple_indices:
                mark.append(f"simple {rs.simple_indices.index(i) + 1}")
            if i == rs.highest_root_index:
                mark.append("highest")
            if i == rs.highest_short_root_index:
                mark.append("highest short")
            coords = " ".join(str(c) for c in root)
            note = f"  ({', '.join(mark)})" if mark else ""
            print(f"  [{i:3d}] ht {rs.heights[i]:2d}  {coords}{note}")
    _write_out(args, {"roots": json.loads(roots_json(rs))})
    return 0


def cmd_group(args) -> int:
    rs = _root_system(args)
    cap = weyl.DEFAULT_ELEMENT_CAP if args.cap is None else args.cap
    lengths = {}
    count = 0
    for w, word in weyl.all_elements(rs, cap):
        lengths[len(word)] = lengths.get(len(word), 0) + 1
        count += 1
    print(f"group of type {rs.root_label()}: {count} elements")
    for ln in sorted(lengths):
        print(f"  length {ln:2d}: {lengths[ln]}")
    _write_out(args, {
        "type": rs.root_label(),
        "order": count,
        "length_distribution": {str(k): v for k, v in sorted(lengths.items())},
    })
    return 0


def _build_set(args, ctx):
    given = [s for s in (args.interval, args.hull, args.set, args.ideal_roots) if s]
    if len(given) != 1:
        raise SystemExit("give exactly one of --interval, --hull, --set, --ideal-roots")
    if args.interval is not None:
        return convex.interval_left(ctx, ctx.from_word(_parse_word(args.interval)))
    if args.hull is not None:
        words = [_parse_word(part) for part in args.hull.split(";")]
        return convex.convex_hull(ctx, [ctx.from_word(w) for w in words])
    if args.set is not None:
        words = [_parse_word(part) for part in args.set.split(";")]
        return convex.from_members(ctx, [ctx.from_word(w) for w in words])
    if not isinstance(ctx, WeylContext):
        raise SystemExit("--ideal-roots needs a Weyl type, not a diagram")
    keys = [int(t) for t in args.ideal_roots.replace(",", " ").split()]
    n = ctx.root_system.num_positive_roots
    for k in keys:
        if not 0 <= k < n:
            raise ValueError(f"root index {k} out of range 0..{n - 1}")
    return convex.ideal_from_upper(ctx, keys)


def cmd_balance(args) -> int:
    ctx = _context(args)
    c = _build_set(args, ctx)
    b, wits = c.balance()
    print(f"|C| = {len(c)}")
    print(f"b(C) = {b}")
    for k in wits:
        print(f"  witness reflection: {ctx.key_display(k)} "
              f"(fraction {c.inversion_fraction(k)})")
    if args.format == "dot":
        print(c.to_dot())
    _write_out(args, json.loads(c.to_json()))
    return 0


def cmd_heap(args) -> int:
    if args.diagram:
        with open(args.diagram) as fh:
            sys_ = coxgen.build_system(coxgen.matrix_from_json(fh.read()))
    else:
        sys_ = coxgen.WeylSystem(_root_system(args))
    word = _parse_word(args.word)
    heap = posets.heap_from_word(sys_, word)
    fracs = heap.ideal_fractions()
    print(f"heap of word {word}: {heap.n} elements, "
          f"{heap.ideal_count()} order ideals, balance {heap.balance()}")
    for x in range(heap.n):
        print(f"  position {x + 1} (s{heap.labels[x]}): ideal fraction {fracs[x]}")
    if args.format == "dot":
        print(posets.poset_dot(heap))
    _write_out(args, {
        "word": word,
        "ideal_count": heap.ideal_count(),
        "balance": _frac(heap.balance()),
        "fractions": [_frac(f) for f in fracs],
        "poset": json.loads(posets.poset_json(heap)),
    })
    return 0


def cmd_semiorder(args) -> int:
    rs = _root_system(args)
    payload = {"type": rs.root_label()}
    if args.count_ideals:
        big = rs.num_positive_roots > 24
        if big and not args.e8:
            raise SystemExit(
                f"{rs.root_label()} has {rs.num_positive_roots} positive roots; "
                "pass --e8 to run the large scan"
            )
        n = count_root_ideals(rs)
        print(f"{rs.root_label()}: {n} root-poset order ideals")
        payload["ideal_count"] = n
        _write_out(args, payload)
        return 0
    if args.unit_interval:
        values = [Fraction(t) for t in args.unit_interval.split()]
        gs = semiorder.from_unit_interval(values)
        b = gs.convex.balance_value()
        print(f"unit-interval semiorder on {len(values)} points: "
              f"|W^A| = {gs.size}, balance {b}")
        payload.update({
            "size": gs.size,
            "balance": _frac(b),
            "ideal": sorted(gs.ideal.members),
        })
        _write_out(args, payload)
        return 0
    big = rs.num_positive_roots > 24
    if big and not args.e8:
        raise SystemExit(
            f"{rs.root_label()} has {rs.num_positive_roots} positive roots; "
            "pass --e8 to run the large scan"
        )
    scanned, failures = semiorder.scan_exit_witnesses(rs)
    ok = not failures
    line = {"type": rs.root_label(), "ideals_scanned": scanned, "lemma46_ok": ok}
    if rs.num_positive_roots <= 12:
        mb = semiorder.min_semiorder_balance(rs)
        line["min_balance"] = _frac(mb)
        print(f"{rs.root_label()}: {scanned} nonempty ideals, "
              f"single-exit witness everywhere: {ok}, min balance {mb}")
    else:
        print(f"{rs.root_label()}: {scanned} nonempty ideals, "
              f"single-exit witness everywhere: {ok}")
    _write_out(args, line)
    return 0 if ok else 1


def cmd_alcove(args) -> int:
    rs = _root_system(args)
    p = alcove.alcove_params(rs)
    data = alcove.alcove_data(rs)
    print(f"type {rs.root_label()}: min_mark {p.min_mark}, max_mark {p.max_mark}, "
          f"height {p.height}, margin {p.margin}, exponent {p.exponent}")
    payload = {
        "type": rs.root_label(),
        "min_mark": p.min_mark,
        "max_mark": p.max_mark,
        "height": p.height,
        "margin": _frac(p.margin),
        "exponent": _frac(p.exponent),
    }
    if args.interval is not None:
        ctx = WeylContext(rs)
        c = convex.interval_left(ctx, ctx.from_word(_parse_word(args.interval)))
        o = alcove.centroid(c)
        non_singleton = len(c) > 1
        h_root = alcove.small_mean_height_root(c) if non_singleton else None
        s_root = alcove.centroid_split_root(c) if non_singleton else None
        bound_ok = alcove.check_exponential_bound(c) if non_singleton else None
        short_ok = (
            alcove.check_short_root_bound(c)
            if non_singleton and rs.family == "B"
            else None
        )
        b = c.balance_value()
        print(f"|C| = {len(c)}, balance = {b}, "
              f"centroid = ({', '.join(map(str, o))})")
        if h_root is not None:
            print(f"mean-height witness root index: {h_root} "
                  f"(h = {alcove.mean_height(c, h_root)})")
        if s_root is not None:
            print(f"centroid-split witness root index: {s_root}")
        if bound_ok is not None:
            print(f"balance above 1/(2 e^exponent): {bound_ok}")
        if short_ok is not None:
            print(f"balance above 1/(2e): {short_ok}")
        payload.update({
            "set_size": len(c),
            "balance": _frac(b),
            "centroid": [_frac(x) for x in o],
            "mean_height_witness": h_root,
            "centroid_split_witness": s_root,
            "exp_bound_ok": bound_ok,
            "short_root_bound_ok": short_ok,
        })
    else:
        print("alcove vertices:")
        for v in data.vertices:
            print(f"  ({', '.join(map(str, v))})")
        if data.short_vertices is not None:
            print("short-root alcove vertices:")
            for v in data.short_vertices:
                print(f"  ({', '.join(map(str, v))})")
        payload["vertices"] = [[_frac(x) for x in v] for v in data.vertices]
        if data.short_vertices is not None:
            payload["short_vertices"] = [
                [_frac(x) for x in v] for v in data.short_vertices
            ]
    _write_out(args, payload)
    return 0


def cmd_verify(args) -> int:
    # Open --out first: an unwritable path fails before the campaign runs.
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        try:
            reports = verify.run_campaign(args.campaign, include_big=args.e8)
        except ValueError as exc:
            raise SystemExit(str(exc))
        all_ok = True
        for rep in reports:
            print(rep.table())
            all_ok = all_ok and rep.all_passed
        if fh:
            bundle = {
                "schema": 1,
                "campaigns": [json.loads(rep.to_json()) for rep in reports],
            }
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxbalance",
        description="Exact computations with convex sets in Coxeter groups: "
                    "root systems, heaps, balance constants, and verification "
                    "campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p, diagram=False):
        p.add_argument("--type", choices=list("ABCDEFG"), help="family letter")
        p.add_argument("--rank", type=int, help="rank of the type")
        if diagram:
            p.add_argument("--diagram", help="JSON diagram file "
                           '({"rank": r, "edges": [{"i","j","m"}]}, m >= 3 or "inf")')
        p.add_argument("--format", choices=["table", "json", "dot"],
                       default="table")
        p.add_argument("--out", help="write machine-readable JSON here")

    p = sub.add_parser("roots", help="dump a root system and its root poset")
    add_type_args(p)
    p.add_argument("--graph", action="store_true",
                   help="with --format dot, emit the labelled reflection graph")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("group", help="enumerate the Weyl group")
    add_type_args(p)
    p.add_argument("--cap", type=int, help="element cap (default 10^6)")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("balance", help="inversion fractions and balance of a convex set")
    add_type_args(p, diagram=True)
    p.add_argument("--interval", help='weak-order interval below a word, e.g. "1 2"')
    p.add_argument("--hull", help='convex hull of words separated by ";" '
                   "(empty segment = identity)")
    p.add_argument("--set", help='explicit element list of words separated by ";"')
    p.add_argument("--ideal-roots", help="comma-separated positive-root indices for W^A")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("heap", help="heap of a reduced word with ideal statistics")
    add_type_args(p, diagram=True)
    p.add_argument("--word", required=True, help='reduced word, e.g. "3 2 3 1"')
    p.set_defaults(func=cmd_heap)

    p = sub.add_parser("semiorder", help="generalized semiorder scans")
    add_type_args(p)
    p.add_argument("--count-ideals", action="store_true",
                   help="count root-poset order ideals only")
    p.add_argument("--unit-interval",
                   help='space-separated sorted rationals, e.g. "0 1/2 7/5"')
    p.add_argument("--e8", action="store_true",
                   help="allow scans over large exceptional types")
    p.set_defaults(func=cmd_semiorder)

    p = sub.add_parser("alcove", help="alcove parameters, centroids, witnesses")
    add_type_args(p)
    p.add_argument("--interval", help="analyze the interval below this word")
    p.set_defaults(func=cmd_alcove)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("campaign", choices=list(verify.CAMPAIGN_NAMES))
    p.add_argument("--e8", action="store_true",
                   help="include the E6/E7/E8 ideal scans")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
