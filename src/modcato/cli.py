"""Batch command-line surface.

Every run is fully determined by its flags; the cache can only speed
things up, never change bytes on stdout.  Exit codes: 0 success, 1 a
verification reported a failing identity, 2 usage or input errors, 3 an
internal exactness assertion fired.

Weights are comma-separated fundamental coordinates (``--lambda 1,0``);
weight sets are semicolon-separated (``--set "0,0;1,-1"``).  For rank-1
systems a comma-separated list like ``--set 0,2`` is also accepted as a
set of singletons.  Values starting with a dash need the ``--flag=value``
form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__, cache
from .category_o import (
    decomposition_numbers,
    projective_verma_mult,
    q_module_mult,
    simple_character,
    steinberg_check,
    steinberg_digits,
)
from .charring import TruncationBox, verma_character, weyl_character
from .errors import ExactnessError, ModcatoError
from .periodicity import ShiftContext, verify_periodicity, verify_updown
from .reporting import Report
from .rootdata import RootSystem, Weight, build_root_system
from .topology import LocallyClosedSet, OpenSet, is_locally_closed, min_l


def parse_weight(rs: RootSystem, text: str) -> Weight:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ModcatoError(f"cannot parse weight {text!r}: {exc}") from None
    if len(coords) != rs.rank:
        raise ModcatoError(
            f"weight {text!r} has {len(coords)} coordinates; {rs.cartan_type} needs {rs.rank}"
        )
    return rs.weight(*coords)


def parse_weight_set(rs: RootSystem, text: str) -> list[Weight]:
    chunks = [c for c in text.split(";") if c.strip()]
    weights: list[Weight] = []
    for chunk in chunks:
        parts = chunk.split(",")
        if rs.rank == 1 and len(parts) > 1:
            weights.extend(parse_weight(rs, p) for p in parts)
        else:
            weights.append(parse_weight(rs, chunk))
    if not weights:
        raise ModcatoError("empty weight set")
    return weights


def _format_table(rows: list[list], headers: list[str]) -> str:
    cells = [headers] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def _emit(args, text_payload: str, json_payload) -> None:
    if args.format == "json":
        print(json.dumps(json_payload, sort_keys=True))
    else:
        print(text_payload)


def _character_output(args, chi, meta: dict) -> None:
    entries = chi.serialize()
    rows = [[_coords_str_from(coords), c] for coords, c in entries]
    payload = dict(meta)
    payload["entries"] = entries
    _emit(args, _format_table(rows, ["weight", "coeff"]), payload)


def _coords_str_from(coords: list[int]) -> str:
    return ",".join(str(c) for c in coords)


def _report_output(args, report: Report) -> int:
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.passed else 1


# -- subcommand handlers ------------------------------------------------------

def cmd_char(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    if args.which == "weyl":
        chi = weyl_character(lam)
        _character_output(args, chi, {"kind": "weyl", "system": rs.cartan_type,
                                      "lambda": list(lam.coords)})
        return 0
    box = TruncationBox.make(lam, args.depth)
    if args.which == "verma":
        chi = verma_character(lam, box)
        meta = {"kind": "verma", "system": rs.cartan_type,
                "lambda": list(lam.coords), "depth": args.depth}
    else:
        chi = simple_character(lam, args.p, box)
        meta = {"kind": "simple", "system": rs.cartan_type, "p": args.p,
                "lambda": list(lam.coords), "depth": args.depth}
    _character_output(args, chi, meta)
    return 0


def cmd_decomp(args) -> int:
    rs = build_root_system(args.type)
    mu = parse_weight(rs, args.mu)
    row = decomposition_numbers(mu, args.p, args.depth)
    triples = sorted(
        [list(mu.coords), list(lam.coords), v] for lam, v in row.items()
    )
    rows = [[_coords_str_from(t[0]), _coords_str_from(t[1]), t[2]] for t in triples]
    _emit(
        args,
        _format_table(rows, ["mu", "lambda", "mult"]),
        {"kind": "decomposition_row", "system": rs.cartan_type, "p": args.p,
         "mu": list(mu.coords), "depth": args.depth, "entries": triples},
    )
    return 0


def _flag_output(args, flag, meta: dict) -> None:
    entries = flag.serialize()
    rows = [[_coords_str_from(coords), m] for coords, m in entries]
    payload = dict(meta)
    payload["entries"] = entries
    _emit(args, _format_table(rows, ["weight", "mult"]), payload)


def cmd_qmult(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    J = OpenSet.down_closure(parse_weight_set(rs, args.ceiling))
    flag = q_module_mult(lam, J)
    _flag_output(args, flag, {"kind": "q_module_mult", "system": rs.cartan_type,
                              "lambda": list(lam.coords),
                              "ceiling": [list(c.coords) for c in J.ceiling]})
    return 0


def cmd_projmult(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    J = OpenSet.down_closure(parse_weight_set(rs, args.ceiling))
    flag = projective_verma_mult(lam, J, args.p)
    _flag_output(args, flag, {"kind": "projective_verma_mult",
                              "system": rs.cartan_type, "p": args.p,
                              "lambda": list(lam.coords),
                              "ceiling": [list(c.coords) for c in J.ceiling]})
    return 0


def cmd_steinberg(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    box = TruncationBox.make(lam, args.depth)
    ok, diff = steinberg_check(lam, args.p, box)
    difference = diff.serialize()
    digits = [list(d.coords) for d in steinberg_digits(lam, args.p)]
    text = [f"digits: {'; '.join(_coords_str_from(d) for d in digits)}"]
    text.append(f"factorization check: {'pass' if ok else 'FAIL'}")
    if not ok:
        text.append("difference (ch L - product) on the box:")
        for coords, c in difference:
            text.append(f"  {_coords_str_from(coords)}  {c}")
    _emit(args, "\n".join(text),
          {"kind": "steinberg", "system": rs.cartan_type, "p": args.p,
           "lambda": list(lam.coords), "depth": args.depth, "passed": ok,
           "digits": digits, "difference": difference})
    return 0 if ok else 1


def cmd_topology(args) -> int:
    rs = build_root_system(args.type)
    weights = parse_weight_set(rs, args.set)
    if args.which == "check":
        ok = is_locally_closed(weights)
        _emit(args, f"locally closed: {'true' if ok else 'false'}",
              {"kind": "locally_closed_check", "system": rs.cartan_type,
               "set": sorted([list(w.coords) for w in weights]), "passed": ok})
        return 0 if ok else 1
    K = LocallyClosedSet.make(weights)
    l = min_l(K, args.p)
    _emit(args, f"l = {l}",
          {"kind": "min_l", "system": rs.cartan_type, "p": args.p,
           "set": sorted([list(w.coords) for w in weights]), "l": l})
    return 0


def cmd_periodicity(args) -> int:
    rs = build_root_system(args.type)
    K = LocallyClosedSet.make(parse_weight_set(rs, args.set))
    gamma = parse_weight(rs, args.gamma)
    ctx = ShiftContext.build(K, gamma, args.p, args.l)
    if args.which == "updown":
        report = verify_updown(ctx)
    else:
        report = verify_periodicity(ctx, depth=args.depth)
    return _report_output(args, report)


# -- parser ----------------------------------------------------------------

def _add_common(sub, *, p=False, lam=False, depth=None, ceiling=False,
                weight_set=False, gamma=False, level=False):
    sub.add_argument("--type", required=True, choices=["A1", "A2", "B2"],
                     help="root-system type")
    if p:
        sub.add_argument("--p", required=True, type=int, help="prime characteristic")
    if lam:
        sub.add_argument("--lambda", dest="lam", required=True,
                         help="weight, comma-separated fundamental coordinates")
    if depth is not None:
        sub.add_argument("--depth", type=int, required=depth == "required",
                         default=None if depth == "required" else depth,
                         help="truncation depth below the top weight")
    if ceiling:
        sub.add_argument("--ceiling", required=True,
                         help="ceiling weights of the open set, ';'-separated")
    if weight_set:
        sub.add_argument("--set", required=True, help="weight set, ';'-separated")
    if gamma:
        sub.add_argument("--gamma", required=True, help="dominant shift weight")
    if level:
        sub.add_argument("--l", type=int, required=True, help="Frobenius twist exponent")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--cache-dir", default=None,
                     help="persistent cache directory (or MODCATO_CACHE)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it reads no environment."""
    parser = argparse.ArgumentParser(
        prog="modcato",
        description="Exact character and multiplicity calculus for the "
                    "modular category O at small rank.",
    )
    parser.add_argument("--version", action="version", version=f"modcato {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    char = subs.add_parser("char", help="formal characters")
    char_sub = char.add_subparsers(dest="which", required=True)
    for which in ("verma", "simple", "weyl"):
        s = char_sub.add_parser(which)
        _add_common(s, p=which == "simple", lam=True,
                    depth="required" if which != "weyl" else None)
        s.set_defaults(handler=cmd_char)

    decomp = subs.add_parser("decomp", help="decomposition-number row")
    _add_common(decomp, p=True, depth="required")
    decomp.add_argument("--mu", required=True, help="highest weight of the Verma")
    decomp.set_defaults(handler=cmd_decomp)

    qmult = subs.add_parser("qmult", help="Verma multiplicities of the big projective")
    _add_common(qmult, lam=True, ceiling=True)
    qmult.set_defaults(handler=cmd_qmult)

    projmult = subs.add_parser("projmult", help="Verma multiplicities of the projective cover")
    _add_common(projmult, p=True, lam=True, ceiling=True)
    projmult.set_defaults(handler=cmd_projmult)

    steinberg = subs.add_parser("steinberg", help="base-p tensor factorization check")
    _add_common(steinberg, p=True, lam=True, depth="required")
    steinberg.set_defaults(handler=cmd_steinberg)

    topo = subs.add_parser("topology", help="locally closed sets")
    topo_sub = topo.add_subparsers(dest="which", required=True)
    check = topo_sub.add_parser("check")
    _add_common(check, weight_set=True)
    check.set_defaults(handler=cmd_topology)
    minl = topo_sub.add_parser("minl")
    _add_common(minl, p=True, weight_set=True)
    minl.set_defaults(handler=cmd_topology)

    peri = subs.add_parser("periodicity", help="shift-functor verification")
    peri_sub = peri.add_subparsers(dest="which", required=True)
    updown = peri_sub.add_parser("updown")
    _add_common(updown, p=True, weight_set=True, gamma=True, level=True)
    updown.set_defaults(handler=cmd_periodicity)
    full = peri_sub.add_parser("full")
    _add_common(full, p=True, weight_set=True, gamma=True, level=True, depth=None)
    full.add_argument("--depth", type=int, default=None,
                      help="extra region depth for the tables")
    full.set_defaults(handler=cmd_periodicity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is not None:
        cache.configure(args.cache_dir)
    try:
        return args.handler(args)
    except ExactnessError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ModcatoError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
