"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
parse error, 3 resource cap exceeded.  Output is deterministic; the
timestamp on check-all reports can be suppressed with --no-timestamp.
check-all runs a fixed suite, and --nball, its one input, sets the radii
of its n-ball sweeps.  ball streams its words, and with --cap exits 3,
before it prints one, when the ball has more than cap words.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import growth, presentations, reports, wreath
from .cosets import (
    DEFAULT_COSET_CAP,
    abelian_invariants,
    close_normally,
    quotient_group,
    reidemeister_schreier,
    todd_coxeter,
)
from .cubic import lambda_length, radius_index
from .errors import CapExceeded, GrigError, check_int
from .words import format_word, iter_ball_free, min_conjugate, parse_word
from .wreath import certify_torsion, order, split, verify_nball_proposition

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=False))
    else:
        rows = obj if isinstance(obj, list) else [obj]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _flatten(v) for k, v in row.items()})


def _flatten(v):
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    return v


def _float_enclosure(lo, hi) -> tuple[float, float]:
    """The largest float <= lo and the least float >= hi, for rationals lo
    and hi; a float and a Fraction compare exactly."""
    f, g = float(lo), float(hi)
    f = math.nextafter(f, -math.inf) if f > lo else f
    return f, math.nextafter(g, math.inf) if g < hi else g


# -- subcommand handlers ----------------------------------------------------


def cmd_reduce(args) -> int:
    w = parse_word(args.word)
    print(format_word(w))
    if args.min_conjugate:
        print(format_word(min_conjugate(w)))
    return EXIT_OK


def cmd_order(args) -> int:
    print(order(parse_word(args.word)))
    return EXIT_OK


def cmd_split(args) -> int:
    w0, w1 = split(parse_word(args.word))
    print(format_word(w0), format_word(w1))
    return EXIT_OK


def cmd_certify(args) -> int:
    w = parse_word(args.word)
    level = args.level if args.level is not None else radius_index(max(len(w), 2))
    result = certify_torsion(w, level)
    if isinstance(result, wreath.CertificateFailure):
        print(json.dumps({"failed": True, **result.to_dict()}, indent=2))
        return EXIT_CHECK_FAILED
    print(result.to_json(indent=2))
    return EXIT_OK


def cmd_verify_nball(args) -> int:
    rep = verify_nball_proposition(args.n)
    _emit(rep.to_dict(), args.format)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def cmd_ball(args) -> int:
    if args.cap is not None:
        check_int(args.cap, "cap", 1)
        # for b = cap.bit_length(), the 2b-ball has over 3^b > cap words
        if growth.ball_free_product(min(args.n, 2 * args.cap.bit_length())) > args.cap:
            raise CapExceeded(f"free ball cap {args.cap} exceeded at radius {args.n}", partial=args.cap)
    for w in iter_ball_free(args.n):
        if args.lengths:
            print(format_word(w), str(lambda_length(w)))
        else:
            print(format_word(w))
    return EXIT_OK


def cmd_growth(args) -> int:
    if args.group == "free":
        if args.budget is not None:
            print("error: --budget applies only to --group grig", file=sys.stderr)
            return EXIT_USAGE
        table = growth.growth_table_free(args.maxn)
    else:
        table = growth.ball_grigorchuk(args.maxn, budget=args.budget)
    rows = []
    for r in table.rows:
        lo, hi = _float_enclosure(*r.entropy_enclosure)
        rows.append(dict(radius=r.radius, ball=r.ball, sphere=r.sphere, entropy_lo=lo, entropy_hi=hi))
    _emit(rows, args.format)
    return EXIT_OK if table.complete else EXIT_CAP


def cmd_relators(args) -> int:
    u = presentations.relator_u(args.level)
    v = presentations.relator_v(args.level)
    for name, w in (("u", u), ("v", v)):
        counts = {ch: w.count(ch) for ch in "abcd"}
        print(f"{name}_{args.level}: {w} (length {len(w)}, {counts})")
    return EXIT_OK


def cmd_present(args) -> int:
    if args.gamma0_coxeter:
        p = presentations.gamma0_coxeter_presentation()
    else:
        p = presentations.gamma_presentation(args.level)
    sys.stdout.write(p.to_text())
    return EXIT_OK


def _load_presentation(args) -> tuple[presentations.Presentation, list[str]]:
    """The presentation that --pres, --gamma0 or --level names, with the
    words of --close killed, and those words."""
    if args.gamma0:
        p = presentations.gamma0_coxeter_presentation()
    elif args.pres is not None:
        with open(args.pres) as fh:
            p = presentations.Presentation.from_text(fh.read())
    else:
        p = presentations.gamma_presentation(args.level)
    close = [w for w in (args.close or "").split(",") if w]
    return close_normally(p, close), close


def cmd_coset(args) -> int:
    p, close = _load_presentation(args)
    sub = [w for w in (args.subgroup or "").split(",") if w]
    if args.xi:
        sub += presentations.xi_generators()
    if args.cap >= 1 and not close and not sub and args.pres is None:
        # every built-in presentation maps onto the infinite group Gamma (a
        # cap below 1 is left to todd_coxeter, which reports it first)
        print("error: the built-in presentations define infinite groups, so the "
              "trivial subgroup has infinite index; give --close, --subgroup or --xi",
              file=sys.stderr)
        return EXIT_USAGE
    table = todd_coxeter(p, sub, cap=args.cap)
    out = {"index": table.index, "status": table.status}
    if args.emit_quotient and table.status == "complete" and not sub:
        G = quotient_group(table)
        out["quotient_order"] = G.order
        out["generator_cycles"] = [
            [list(c) for c in cyc] for cyc in G.generator_cycles()
        ]
    print(json.dumps(out, indent=2))
    if args.emit_subgroup_pres:
        if table.status != "complete":
            return EXIT_CAP
        sub_p = reidemeister_schreier(p, table)
        sys.stdout.write(sub_p.to_text())
    return EXIT_OK if table.status == "complete" else EXIT_CAP


def cmd_abelianize(args) -> int:
    p, _close = _load_presentation(args)
    inv = abelian_invariants(p)
    print(json.dumps({
        "invariants": str(inv),
        "divisors": list(inv.divisors),
        "free_rank": inv.free_rank,
    }, indent=2))
    return EXIT_OK


def _nball_radii(text: str) -> tuple[int, ...]:
    """The radii of --nball, checked before any check runs, each kept once
    in the order given; 0 skips."""
    radii = []
    for item in filter(None, text.split(",")):
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"--nball radii must be integers, not {item.strip()!r}") from None
        if n == 0:
            continue
        if n < 2:
            raise ValueError(f"--nball radii must be >= 2 (or 0 to skip), not {n}")
        radii.append(n)
    return tuple(dict.fromkeys(radii))


def cmd_check_all(args) -> int:
    radii = reports.NBALL_RADII if args.nball is None else _nball_radii(args.nball)
    rs = reports.check_all(radii)
    checks = [r.to_dict() for r in rs]
    if args.no_timestamp:
        # timing is suppressed along with the timestamp so that identical
        # inputs give byte-identical output
        for c in checks:
            del c["wall_time"]
    payload = {"checks": checks, "status": reports.worst_status(rs)}
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _emit(payload if args.format == "json" else payload["checks"], args.format)
    return EXIT_OK if payload["status"] == "pass" else EXIT_CHECK_FAILED


# -- parser -----------------------------------------------------------------


def _add_format(p, default="json"):
    p.add_argument("--format", choices=("json", "csv"), default=default)


def _add_pres_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pres", help="presentation file (gens:/rel: lines)")
    source.add_argument("--gamma0", action="store_true",
                        help="built-in 3-generator level-0 presentation")
    source.add_argument("--level", type=int, help="built-in level-n presentation")
    p.add_argument("--close", help="comma-separated words to kill normally")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grig",
        description="Exact computations in the first Grigorchuk group.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduced normal form of a word")
    p.add_argument("word")
    p.add_argument("--min-conjugate", action="store_true",
                   help="also print the weight-minimal conjugate")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("order", help="order of the element in the limit group")
    p.add_argument("word")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("split", help="subtree components of a parity-0 word")
    p.add_argument("word")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("certify", help="torsion certificate as JSON")
    p.add_argument("word")
    p.add_argument("--level", type=int, help="approximant level (default i(max(|w|,2)))")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-nball", help="certify every word of length <= n")
    p.add_argument("n", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_verify_nball)

    p = sub.add_parser("ball", help="list the free-product n-ball")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--lengths", action="store_true", help="append weighted lengths")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("growth", help="ball/sphere/entropy table")
    p.add_argument("--group", choices=("grig", "free"), default="grig")
    p.add_argument("--maxn", type=int, default=8)
    p.add_argument("--budget", type=int, default=None, help="element budget for BFS")
    _add_format(p, default="csv")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("relators", help="truncation relators u_n, v_n")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_relators)

    p = sub.add_parser("present", help="emit a presentation file")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--gamma0-coxeter", action="store_true",
                   help="3-generator form of the level-0 group")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("coset", help="Todd-Coxeter coset enumeration")
    _add_pres_source(p)
    p.add_argument("--subgroup", help="comma-separated subgroup generator words")
    p.add_argument("--xi", action="store_true", help="use the parity-kernel generators")
    p.add_argument("--cap", type=int, default=DEFAULT_COSET_CAP)
    p.add_argument("--emit-quotient", action="store_true")
    p.add_argument("--emit-subgroup-pres", action="store_true")
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("abelianize", help="abelian invariants of a presentation")
    _add_pres_source(p)
    p.set_defaults(func=cmd_abelianize)

    p = sub.add_parser("check-all", help="run the full verification suite")
    p.add_argument("--nball", help="comma-separated radii; 0 skips the sweep")
    p.add_argument("--no-timestamp", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_check_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc} (partial: {exc.partial})", file=sys.stderr)
        return EXIT_CAP
    except (GrigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
