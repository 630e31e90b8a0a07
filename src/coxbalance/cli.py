"""Command-line interface: construction, computation, export, verification.

Human-readable tables go to standard output; machine JSON goes to --out.
Rationals are always serialized as {"num": ..., "den": ...} objects, never
as decimals.  Words are space-separated 1-based simple indices.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import alcove, convex, coxgen, posets, rootsys, semiorder, verify, weyl
from .linalg import bits
from .rootsys import (
    RootSystem,
    build_root_system,
    fraction_json,
    poset_dot,
    root_graph_dot,
    roots_json,
)
from .weyl import WeylContext

# An ASCII decimal integer; int() alone also reads "1_0" as 10 and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str, rule: str) -> int:
    """An ASCII decimal integer token; ``rule`` opens the error message."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"{rule}, not {token!r}")
    return int(token)


def _parse_ints(text: str, what: str) -> List[int]:
    """Whitespace-separated decimal integers."""
    return [_decimal(token, f"{what} must be decimal integers") for token in text.split()]


def _int_option(args, name: str) -> Optional[int]:
    """The value of ``--name`` as a decimal integer, or None if it was not given."""
    text = getattr(args, name)
    return None if text is None else _decimal(text, f"--{name} must be a decimal integer")


def _parse_word(text: str) -> List[int]:
    return _parse_ints(text, "word letters")


@contextlib.contextmanager
def _out_file(path: str):
    """--out as a file beside ``path``, moved over it once the command returns.

    Opened before the command runs, so a missing directory or a directory
    ``path`` fails before any work; a command that raises leaves ``path``
    as it was and no file behind.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "w")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with out:
            yield out
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _write_out(out, payload: dict) -> None:
    """Write ``payload`` as the --out JSON to ``out``, the file of :func:`_out_file`."""
    if out:
        out.write(json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True) + "\n")


def _root_system(args) -> RootSystem:
    if not args.type or args.rank is None:
        raise ValueError("--type and --rank are required for this command")
    return build_root_system(args.type, _int_option(args, "rank"))


def _group(args):
    """The Weyl group of --type/--rank, or the Coxeter system of --diagram."""
    if args.diagram:
        if args.type or args.rank is not None:
            raise ValueError("give either --diagram or --type/--rank, not both")
        with open(args.diagram) as fh:
            return coxgen.build_system(coxgen.matrix_from_json(fh.read()))
    return WeylContext(_root_system(args))


def cmd_roots(args, out) -> int:
    rs = _root_system(args)
    if args.graph and args.format != "dot":
        raise ValueError("--graph needs --format dot")
    if args.format == "dot":
        text = root_graph_dot(rs) if args.graph else poset_dot(rs)
        print(text)
    elif args.format == "json":
        print(json.dumps(roots_json(rs), indent=2, sort_keys=True))
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
    _write_out(out, {"roots": roots_json(rs)})
    return 0


def cmd_group(args, out) -> int:
    rs = _root_system(args)
    cap = _int_option(args, "cap")
    if cap is None:
        cap = weyl.DEFAULT_ELEMENT_CAP
    elif cap < 0:
        raise ValueError(f"--cap must be a nonnegative element count, not {cap}")
    count = weyl.group_order(rs)
    if count > cap:
        raise coxgen.EnumerationCapExceeded(cap)
    sizes = weyl.length_distribution(rs)
    print(f"group of type {rs.root_label()}: {count} elements")
    for ln, size in enumerate(sizes):
        print(f"  length {ln:2d}: {size}")
    _write_out(out, {
        "type": rs.root_label(),
        "order": count,
        "length_distribution": {str(k): v for k, v in enumerate(sizes)},
    })
    return 0


def _build_set(args, ctx):
    given = [s for s in (args.interval, args.hull, args.set, args.ideal_roots) if s is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --interval, --hull, --set, --ideal-roots")
    if args.interval is not None:
        return convex.interval_left(ctx, ctx.from_word(_parse_word(args.interval)))
    if args.hull is not None:
        words = [_parse_word(part) for part in args.hull.split(";")]
        return convex.convex_hull(ctx, [ctx.from_word(w) for w in words])
    if args.set is not None:
        words = [_parse_word(part) for part in args.set.split(";")]
        return convex.from_members(ctx, [ctx.from_word(w) for w in words])
    if not isinstance(ctx, WeylContext):
        raise ValueError("--ideal-roots needs a Weyl type, not a diagram")
    n = ctx.root_system.num_positive_roots
    mask = 0
    for k in _parse_ints(args.ideal_roots.replace(",", " "), "root indices"):
        if not 0 <= k < n:
            raise ValueError(f"root index {k} out of range 0..{n - 1}")
        mask |= 1 << k
    return convex.ideal_from_upper(ctx, mask)


def cmd_balance(args, out) -> int:
    ctx = _group(args)
    c = _build_set(args, ctx)
    b, wits = c.balance()
    print(f"|C| = {len(c)}")
    print(f"b(C) = {b}")
    for k in wits:
        print(f"  witness reflection: {ctx.key_display(k)} "
              f"(fraction {c.inversion_fraction(k)})")
    if args.format == "dot":
        print(c.to_dot())
    _write_out(out, c.to_json())
    return 0


def cmd_heap(args, out) -> int:
    word = _parse_word(args.word)
    heap = posets.heap_from_word(_group(args), word)
    count, fracs = heap.ideal_statistics()
    balance = posets.fraction_balance(fracs)
    print(f"heap of word {word}: {heap.n} elements, "
          f"{count} order ideals, balance {balance}")
    for x in range(heap.n):
        print(f"  position {x + 1} (s{heap.labels[x]}): ideal fraction {fracs[x]}")
    if args.format == "dot":
        print(posets.poset_dot(heap))
    _write_out(out, {
        "word": word,
        "ideal_count": count,
        "balance": fraction_json(balance),
        "fractions": [fraction_json(f) for f in fracs],
        "poset": posets.poset_json(heap),
    })
    return 0


def _parse_fraction(text: str) -> Fraction:
    """An ASCII rational as ``Fraction`` reads it, without its "_" separators."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"unit-interval values must be ASCII rationals, not {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def cmd_semiorder(args, out) -> int:
    if args.unit_interval:
        if args.count_ideals or args.e8:
            raise ValueError("--unit-interval takes neither --count-ideals nor --e8")
        values = [_parse_fraction(t) for t in args.unit_interval.split()]
        gs = semiorder.from_unit_interval(values)
        label = gs.root_system.root_label()
        rank = gs.root_system.rank
        if args.type not in (None, "A") or _int_option(args, "rank") not in (None, rank):
            raise ValueError(f"{len(values)} unit-interval values give type {label}; "
                             f"give --type A --rank {rank} or neither")
        b = gs.convex.balance_value()
        print(f"unit-interval semiorder on {len(values)} points: "
              f"|W^A| = {gs.size}, balance {b}")
        _write_out(out, {
            "type": label,
            "size": gs.size,
            "balance": fraction_json(b),
            "ideal": list(bits(gs.mask)),
        })
        return 0
    rs = _root_system(args)
    if rs.num_positive_roots > 24 and not args.e8:
        raise ValueError(
            f"{rs.root_label()} has {rs.num_positive_roots} positive roots; "
            "pass --e8 to run the large scan"
        )
    n = rootsys.catalan_number(rs)
    if n > rootsys.ROOT_IDEAL_CAP:
        raise posets.IdealCapExceeded(rootsys.ROOT_IDEAL_CAP)
    if args.count_ideals:
        print(f"{rs.root_label()}: {n} root-poset order ideals")
        _write_out(out, {"type": rs.root_label(), "ideal_count": n})
        return 0
    scanned, failures = semiorder.scan_exit_witnesses(rs)
    ok = not failures
    line = {"type": rs.root_label(), "ideals_scanned": scanned, "lemma46_ok": ok}
    text = f"{rs.root_label()}: {scanned} nonempty ideals, single-exit witness everywhere: {ok}"
    if rs.num_positive_roots <= 12:
        mb = semiorder.min_semiorder_balance(rs)
        line["min_balance"] = fraction_json(mb)
        text += f", min balance {mb}"
    print(text)
    _write_out(out, line)
    return 0 if ok else 1


def cmd_alcove(args, out) -> int:
    rs = _root_system(args)
    if args.interval is not None:
        ctx = WeylContext(rs)
        c = convex.interval_left(ctx, ctx.from_word(_parse_word(args.interval)))
    p = alcove.alcove_params(rs)
    print(f"type {rs.root_label()}: min_mark {p.min_mark}, max_mark {p.max_mark}, "
          f"height {p.height}, margin {p.margin}, exponent {p.exponent}")
    payload = {
        "type": rs.root_label(),
        "min_mark": p.min_mark,
        "max_mark": p.max_mark,
        "height": p.height,
        "margin": fraction_json(p.margin),
        "exponent": fraction_json(p.exponent),
    }
    if args.interval is not None:
        o = alcove.centroid(c)
        b = c.balance_value()
        non_singleton = len(c) > 1
        h_root = alcove.small_mean_height_root(c) if non_singleton else None
        s_root = alcove.centroid_split_root(c) if non_singleton else None
        bound_ok = (
            b >= alcove.exponential_bound_threshold(rs) if non_singleton else None
        )
        short_ok = (
            alcove.check_short_root_bound(c, b)
            if non_singleton and rs.family == "B"
            else None
        )
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
            "balance": fraction_json(b),
            "centroid": [fraction_json(x) for x in o],
            "mean_height_witness": h_root,
            "centroid_split_witness": s_root,
            "exp_bound_ok": bound_ok,
            "short_root_bound_ok": short_ok,
        })
    else:
        data = alcove.alcove_data(rs)
        print("alcove vertices:")
        for v in data.vertices:
            print(f"  ({', '.join(map(str, v))})")
        if data.short_vertices is not None:
            print("short-root alcove vertices:")
            for v in data.short_vertices:
                print(f"  ({', '.join(map(str, v))})")
        payload["vertices"] = [[fraction_json(x) for x in v] for v in data.vertices]
        if data.short_vertices is not None:
            payload["short_vertices"] = [
                [fraction_json(x) for x in v] for v in data.short_vertices
            ]
    _write_out(out, payload)
    return 0


def cmd_verify(args, out) -> int:
    reports = verify.run_campaign(args.campaign, include_big=args.e8)
    all_ok = True
    for rep in reports:
        print(rep.table())
        all_ok = all_ok and rep.all_passed
    _write_out(out, {"campaigns": [rep.to_json() for rep in reports]})
    return 0 if all_ok else 1


def _type_args(p, diagram=False, formats=()):
    p.add_argument("--type", choices=list("ABCDEFG"), help="family letter")
    p.add_argument("--rank", help="rank of the type")
    if diagram:
        p.add_argument("--diagram", help="JSON diagram file "
                       '({"rank": r, "edges": [{"i","j","m"}]}, m = 3, 4, 6 or "inf")')
    if formats:
        p.add_argument("--format", choices=["table", *formats], default="table")
    p.add_argument("--out", help="write machine-readable JSON here")


def _roots_args(p):
    _type_args(p, formats=("json", "dot"))
    p.add_argument("--graph", action="store_true",
                   help="with --format dot, emit the labelled reflection graph")


def _group_args(p):
    _type_args(p)
    p.add_argument("--cap", help="element cap (default 10^6)")


def _balance_args(p):
    _type_args(p, diagram=True, formats=("dot",))
    p.add_argument("--interval", help='weak-order interval below a word, e.g. "1 2"')
    p.add_argument("--hull", help='convex hull of words separated by ";" '
                   "(empty segment = identity)")
    p.add_argument("--set", help='explicit element list of words separated by ";"')
    p.add_argument("--ideal-roots", help="comma-separated positive-root indices for W^A")


def _heap_args(p):
    _type_args(p, diagram=True, formats=("dot",))
    p.add_argument("--word", required=True, help='reduced word, e.g. "3 2 3 1"')


def _semiorder_args(p):
    _type_args(p)
    p.add_argument("--count-ideals", action="store_true",
                   help="count root-poset order ideals only")
    p.add_argument("--unit-interval",
                   help='space-separated sorted rationals, e.g. "0 1/2 7/5"')
    p.add_argument("--e8", action="store_true",
                   help="allow scans over large exceptional types")


def _alcove_args(p):
    _type_args(p)
    p.add_argument("--interval", help="analyze the interval below this word")


def _verify_args(p):
    p.add_argument("campaign", choices=list(verify.CAMPAIGN_NAMES))
    p.add_argument("--e8", action="store_true",
                   help="include the E6/E7/E8 ideal scans")
    p.add_argument("--out", help="write the JSON report here")


# name -> (help, command, function adding the subcommand's arguments), in usage order
COMMANDS = {
    "roots": ("dump a root system and its root poset", cmd_roots, _roots_args),
    "group": ("count the Weyl group by length", cmd_group, _group_args),
    "balance": ("inversion fractions and balance of a convex set", cmd_balance, _balance_args),
    "heap": ("heap of a reduced word with ideal statistics", cmd_heap, _heap_args),
    "semiorder": ("generalized semiorder scans", cmd_semiorder, _semiorder_args),
    "alcove": ("alcove parameters, centroids, witnesses", cmd_alcove, _alcove_args),
    "verify": ("run a verification campaign", cmd_verify, _verify_args),
}


def make_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone under the same usage line."""
    parser = argparse.ArgumentParser(
        prog="coxbalance",
        description="Exact computations with convex sets in Coxeter groups: "
                    "root systems, heaps, balance constants, and verification "
                    "campaigns.",
    )
    # argparse's own metavar keeps the full parser's errors naming the argument "command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        text, _, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        with _out_file(args.out) if args.out else contextlib.nullcontext() as out:
            return COMMANDS[args.command][1](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
