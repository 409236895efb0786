"""Command-line front end.

Exit codes: 0 = success (and, for verdict commands, everything proven came
back determined); 2 = a proven-shape verdict failed or a lemma check found
a counterexample; 1 = operational error (bad flags, malformed input,
disconnected graph where connectivity is required).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import drs, lemmas
from .enumeration import CONNECTED_CLASS_COUNTS, ENUMERATION_GUARD, connected_graphs
from .graphs import complete_bipartite, parse_graph6, to_graph6
from .reduction import (
    network_to_text,
    parallel_reduce,
    parse_network,
    series_reduce,
)
from .resistance import (
    format_rational,
    resistance,
    resistance_spectrum,
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # verdict violations, so route usage errors through the normal
    # operational-error path instead
    def error(self, message):
        raise CliError(message)


def _decimal_str(q: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags that this subcommand reads."""
    flags = {
        "--cache-dir": dict(default=os.environ.get("RESIST_CACHE_DIR"),
                            help="cache directory (default: $RESIST_CACHE_DIR)"),
        "--threads": dict(type=int, default=1, help="worker count (>= 1)"),
        "--output": dict(choices=("json", "tsv", "human"), default="human"),
        "--decimal": dict(action="store_true",
                          help="also print 12-digit decimal approximations (marked '~')"),
    }
    for name in names:
        p.add_argument(name, **flags[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resspec",
                     description="exact resistance spectra of small graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resistance", help="effective resistance between two vertices")
    p.add_argument("graph6", nargs="?", help="graph6 string (default: read stdin, one per line)")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    _add_common(p, "--output", "--decimal")

    p = sub.add_parser("spectrum", help="resistance spectrum of a graph")
    p.add_argument("graph6", nargs="?", help="graph6 string (default: read stdin, one per line)")
    _add_common(p, "--output", "--decimal")

    p = sub.add_parser("verify-drs", help="is the graph determined by its spectrum?")
    p.add_argument("--kmn", nargs=2, type=int, metavar=("M", "N"),
                   help="target complete bipartite graph K_{M,N}")
    p.add_argument("--graph", help="target graph6 string")
    p.add_argument("--all", action="store_true",
                   help="sweep every K_{m,n} with m+n <= --max-n")
    p.add_argument("--max-n", type=int, default=9, help="largest order to allow (default 9)")
    _add_common(p, "--cache-dir", "--threads", "--output")

    p = sub.add_parser("enumerate", help="connected graphs up to isomorphism, as graph6 lines")
    p.add_argument("n", type=int)
    p.add_argument("--allow-ten", action="store_true", help="permit n=10")
    _add_common(p, "--cache-dir", "--threads")

    p = sub.add_parser("collisions", help="non-isomorphic pairs sharing a spectrum")
    p.add_argument("n", type=int)
    p.add_argument("--allow-ten", action="store_true", help="permit n=10")
    _add_common(p, "--cache-dir", "--threads", "--output")

    p = sub.add_parser("check-lemmas", help="run the full lemma suite exhaustively")
    p.add_argument("--max-n", type=int, default=6, help="largest order to sweep (default 6)")
    p.add_argument("--output", choices=("json", "human"), default="human")
    _add_common(p, "--threads")

    p = sub.add_parser("reduce", help="apply series/parallel steps to a network file")
    p.add_argument("network_file")
    p.add_argument("steps", nargs="*",
                   help="steps like series:V or parallel:U,V, applied left to right")

    return parser


def _input_graphs(arg: str | None):
    if arg is not None:
        yield arg
        return
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield line


def _cmd_resistance(args) -> int:
    for g6 in _input_graphs(args.graph6):
        g = parse_graph6(g6)
        r = resistance(g, args.u, args.v)
        text = format_rational(r)
        if args.output == "json":
            doc = {"graph6": g6, "u": args.u, "v": args.v, "resistance": text}
            if args.decimal:
                doc["approx"] = _decimal_str(r)
            print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        elif args.output == "tsv":
            print(f"{g6}\t{args.u}\t{args.v}\t{text}")
        else:
            print(f"{text} ~ {_decimal_str(r)}" if args.decimal else text)
    return 0


def _cmd_spectrum(args) -> int:
    batch = args.graph6 is None
    for g6 in _input_graphs(args.graph6):
        spectrum = resistance_spectrum(parse_graph6(g6))
        if args.output == "json":
            doc = {"graph6": g6, "spectrum": json.loads(spectrum.to_json())}
            if args.decimal:
                doc["approx"] = [
                    [_decimal_str(v), m] for v, m in spectrum.entries
                ]
            print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        elif args.output == "tsv":
            for v, m in spectrum.entries:
                row = [g6, format_rational(v), str(m)]
                if args.decimal:
                    row.append(_decimal_str(v))
                print("\t".join(row))
        else:
            prefix = f"{g6}\t" if batch else ""
            suffix = ""
            if args.decimal:
                approx = ",".join(f"~{_decimal_str(v)}x{m}" for v, m in spectrum.entries)
                suffix = f"  ({approx})"
            print(f"{prefix}{spectrum.to_json()}{suffix}")
    return 0


def _print_verdict(verdict: drs.DrsVerdict, output: str) -> None:
    if output == "tsv":
        print("\t".join([
            verdict.target_graph6,
            str(verdict.order),
            verdict.theorem_tag,
            "determined" if verdict.determined else "NOT-determined",
            ",".join(verdict.impostors),
        ]))
    elif output == "human":
        state = "determined by its resistance spectrum" if verdict.determined else (
            f"NOT determined; impostors: {', '.join(verdict.impostors)}"
        )
        print(f"{verdict.target_graph6} (order {verdict.order}, {verdict.theorem_tag}): {state}")
    else:
        print(verdict.to_json())


def _cmd_verify_drs(args) -> int:
    if sum(bool(x) for x in (args.kmn, args.graph, args.all)) > 1:
        raise CliError("choose one of --kmn, --graph, --all")
    if args.max_n not in CONNECTED_CLASS_COUNTS:
        raise CliError(f"--max-n must be in 1..{max(CONNECTED_CLASS_COUNTS)}, got {args.max_n}")
    if args.all:
        targets = drs.theorem_targets(args.max_n)
    elif args.kmn:
        m, n = args.kmn
        if m + n > args.max_n:  # before K_{m,n} is built, however large
            raise CliError(f"K_{{{m},{n}}} has {m + n} vertices; --max-n is {args.max_n}")
        targets = [complete_bipartite(m, n)]
    else:
        targets = [parse_graph6(g6) for g6 in _input_graphs(args.graph)]
        for g in targets:
            if g.order > args.max_n:
                raise CliError(f"graph has {g.order} vertices; --max-n is {args.max_n}")
    verdicts = drs.verify_targets(targets, cache_dir=args.cache_dir, threads=args.threads)
    for verdict in verdicts:
        _print_verdict(verdict, args.output)
    violation = any(
        v.theorem_tag in drs.PROVEN_TAGS and not v.determined for v in verdicts
    )
    return 2 if violation else 0


def _refuse_ten_unless_allowed(args) -> None:
    # n=10 costs about 25 minutes and, projected, about 1 GB; enumerate and
    # collisions opt in with --allow-ten, verify-drs with --max-n 10
    if args.n == ENUMERATION_GUARD + 1 and not args.allow_ten:
        raise CliError(f"n={args.n} needs --allow-ten (expect minutes to hours)")


def _cmd_enumerate(args) -> int:
    _refuse_ten_unless_allowed(args)
    for g in connected_graphs(args.n, cache_dir=args.cache_dir, threads=args.threads):
        print(to_graph6(g))
    return 0


def _cmd_collisions(args) -> int:
    _refuse_ten_unless_allowed(args)
    report = drs.find_collisions(args.n, cache_dir=args.cache_dir, threads=args.threads)
    if args.output == "tsv":
        for a, b, spec in report.pairs:
            print(f"{a}\t{b}\t{spec}")
    elif args.output == "human":
        if not report.pairs:
            print(f"order {report.order}: no resistance-cospectral pairs")
        for a, b, spec in report.pairs:
            print(f"order {report.order}: {a} and {b} share spectrum {spec}")
    else:
        print(report.to_json())
    return 0


def _cmd_check_lemmas(args) -> int:
    if not 1 <= args.max_n <= ENUMERATION_GUARD:  # before any level is built
        raise CliError(f"--max-n must be in 1..{ENUMERATION_GUARD}, got {args.max_n}")
    summary = lemmas.run_all_checks(args.max_n, threads=args.threads)
    if args.output == "human":
        print(
            f"{summary['failures_total']} failures across "
            f"{summary['graphs_checked']} connected graphs (n <= {summary['max_order']})"
        )
        for witness in summary["failures"]:
            print(f"  counterexample: {json.dumps(witness, sort_keys=True)}")
    else:
        print(lemmas.summary_to_json(summary))
    return 2 if summary["failures_total"] else 0


def _cmd_reduce(args) -> int:
    with open(args.network_file, encoding="ascii") as fh:
        net = parse_network(fh.read())
    for step in args.steps:
        op, _, rest = step.partition(":")
        try:
            if op == "series":
                net = series_reduce(net, int(rest))
            elif op == "parallel":
                u, v = rest.split(",")
                net = parallel_reduce(net, int(u), int(v))
            else:
                raise CliError(f"unknown step {step!r} (use series:V or parallel:U,V)")
        except ValueError as exc:
            raise CliError(f"step {step!r}: {exc}") from None
    sys.stdout.write(network_to_text(net))
    return 0


_DISPATCH = {
    "resistance": _cmd_resistance,
    "spectrum": _cmd_spectrum,
    "verify-drs": _cmd_verify_drs,
    "enumerate": _cmd_enumerate,
    "collisions": _cmd_collisions,
    "check-lemmas": _cmd_check_lemmas,
    "reduce": _cmd_reduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise CliError("--threads must be >= 1")
        return _DISPATCH[args.command](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
