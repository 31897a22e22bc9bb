"""Command-line interface.

Commands: gen, verify, operators, eval, table.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 mathematical-domain error
(coupling pole or spectral degeneracy).
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from .scalars import KappaPole, KappaZeroDivision, SpectralDegeneracy
from .symfun import ZPolynomial
from . import gegenbauer as gg
from . import integrals as ig
from . import serialize as ser
from . import verify as vf

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(ValueError):
    pass


def _particles(rank: int) -> int:
    """The particle number N = rank + 1; a usage error that names the rank
    when it is below 1."""
    if rank < 1:
        raise UsageError(f"rank {rank} is below 1 (N = rank + 1 needs at least 2 particles)")
    return rank + 1


def _parse_weight(text: str, rank: int):
    try:
        w = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}")
    if len(w) != rank:
        raise UsageError(f"weight {text!r} has {len(w)} entries, expected {rank}")
    if any(e < 0 for e in w):
        raise UsageError(f"weight {text!r} is not dominant")
    return w


def _parse_kappa(text: str):
    if text == "sym":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse coupling {text!r} (want sym or p/q)")


def _parse_point(text: str, rank: int):
    try:
        pt = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse point {text!r}")
    if len(pt) != rank:
        raise UsageError(f"point {text!r} has {len(pt)} entries, expected {rank}")
    return pt


def _emit_poly(p: ZPolynomial, weight, fmt: str) -> str:
    if fmt == "json":
        return ser.canonical_json(ser.zpoly_to_obj(p, weight)).rstrip("\n")
    if fmt == "latex":
        return ser.zpoly_latex(p)
    return ser.zpoly_text(p)


def _cached(cache_dir, rank: int, weight):
    """The cached polynomial for the weight, or None; an entry that cannot
    be used is reported on stderr and ignored."""
    if not cache_dir:
        return None
    cached, reason = ser.cache_read(cache_dir, rank, weight)
    if cached is None and reason != "miss":
        print(f"warning: cache entry for {weight} ignored ({reason})",
              file=sys.stderr)
    return cached


def cmd_gen(args) -> int:
    N = _particles(args.rank)
    weight = _parse_weight(args.weight, args.rank)
    kappa0 = _parse_kappa(args.kappa)
    if args.method == "recurrence":
        ig.covered(gg.RECURRENCE_ROWS, N, "recurrence method")
    cache_dir = ser.resolve_cache_dir(args.cache)
    t0 = time.perf_counter()
    poly = _cached(cache_dir, args.rank, weight) if kappa0 is None else None
    source = "generated" if poly is None else "cache hit"
    if poly is None:
        if args.method == "recurrence":
            poly = gg.gen_recurrence(weight, N)
            if kappa0 is not None:
                poly = poly.substitute_kappa(kappa0)
        else:
            poly = gg.gen_eigen(weight, N, kappa=kappa0)
        if cache_dir and kappa0 is None:
            ser.cache_write(cache_dir, weight, poly)
    if args.verbose:
        print(f"{source} in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    print(_emit_poly(poly, weight, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = vf.run_suite(args.suite, rank=args.rank,
                           max_degree=args.max_degree,
                           max_components=args.max_components)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps([r.to_obj() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.to_text(verbose=args.verbose))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_operators(args) -> int:
    N = args.rank + 1
    try:
        op = ig.transcribed_operator(N, args.order)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(ser.operator_text(op, latex=(args.format == "latex")))
    return EXIT_OK


def cmd_eval(args) -> int:
    N = _particles(args.rank)
    weight = _parse_weight(args.weight, args.rank)
    kappa0 = _parse_kappa(args.kappa)
    if kappa0 is None:
        raise UsageError("eval needs a numeric coupling (--kappa p/q)")
    point = _parse_point(args.point, args.rank)
    poly = _cached(ser.resolve_cache_dir(args.cache), args.rank, weight)
    if poly is None:
        poly = gg.gen_eigen(weight, N)
    value = poly.eval(point, kappa0)
    print(value)
    return EXIT_OK


def _table_rows(args):
    N = _particles(args.rank)
    weight = _parse_weight(args.weight, args.rank) if args.weight else (0,) * args.rank
    kappa0 = _parse_kappa(args.kappa)

    def show(v):
        if kappa0 is not None:
            return str(Fraction(v(kappa0)))
        return ser.kr_str(v) if ser._leading_sign(v) > 0 else "-" + ser.kr_str(-v)

    rows = []
    if args.kind == "recurrence":
        rules = ig.covered(gg.RECURRENCE_ROWS, N, "recurrence table")
        terms = [term for row in rules.values()
                 for _, term in row(*weight)]
        for kind, idx in sorted(terms, key=lambda term: term[0]):
            label = f"{kind}({','.join(map(str, idx))})"
            if not any(label == k for k, _ in rows):
                rows.append((label, show(gg.recurrence_coefficient(kind, idx))))
    elif args.kind == "sigma":
        for s in gg.tabulated_shifts(N):
            rows.append((f"sigma[{','.join(map(str, s))}] at {weight}",
                         show(gg.sigma_closed_form(weight, s, N))))
    elif args.kind == "lvector":
        lv = gg.l_vector(weight, N)
        for j in range(1, N + 1):
            rows.append((f"l[{j}] at {weight}", show(lv.component(j))))
    else:
        raise UsageError(f"unknown table kind {args.kind!r}")
    return rows


def cmd_table(args) -> int:
    rows = _table_rows(args)
    if args.format == "json":
        print(json.dumps({k: v for k, v in rows}, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            print(f"{k.ljust(width)}  {v}")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="gegenlab",
        description="Exact polynomial eigenfunctions, commuting integrals and "
                    "ladder operators of the trigonometric quantum many-body "
                    "system on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a polynomial")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weight", required=True, help="comma-separated, e.g. 1,0,1")
    p.add_argument("--method", choices=("eigen", "recurrence"), default="eigen")
    p.add_argument("--kappa", default="sym", help="sym or a rational p/q")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument("--cache", default=None, help="cache directory")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=vf.SUITES, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-components", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("operators", help="print a closed-form z-space operator")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("text", "latex"), default="text")
    p.set_defaults(fn=cmd_operators)

    p = sub.add_parser("eval", help="evaluate a polynomial exactly")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--kappa", required=True, help="rational p/q")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.add_argument("--cache", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("table", help="print closed-form coefficient tables")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kind", choices=("recurrence", "sigma", "lvector"),
                   required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--kappa", default="sym")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_table)

    return parser


def _join_negative_values(argv) -> list[str]:
    """Attach a negative --kappa/--point value to its option, as in
    '--kappa=-1/2'; argparse would take a separate '-1/2' for an option."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] in ("--kappa", "--point") and re.match(r"-[0-9]", out[i + 1]):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KappaPole, SpectralDegeneracy, KappaZeroDivision) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
