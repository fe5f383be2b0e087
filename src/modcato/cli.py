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

A plain argv (the command, then each of its flags at most once, as
``--flag=value`` or ``--flag value``, every value valid) is read from the
leaf table below.  Any other argv goes to argparse, imported only then: it
parses ``--dep 4``, a repeated flag or ``--depth -3`` and prints help,
usage and errors as it always has.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from types import SimpleNamespace

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


def _entries_output(args, values, meta: dict, column: str = "coeff") -> None:
    """Print a character or a Verma flag: one row per weight and value."""
    entries = values.serialize()
    rows = [[_coords_str_from(coords), c] for coords, c in entries]
    _emit(args, _format_table(rows, ["weight", column]), {**meta, "entries": entries})


def _coords_str_from(coords: list[int]) -> str:
    return ",".join(str(c) for c in coords)


# -- subcommand handlers ------------------------------------------------------

def cmd_char(args) -> int:
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    if args.which == "weyl":
        chi = weyl_character(lam)
        _entries_output(args, chi, {"kind": "weyl", "system": rs.cartan_type,
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
    _entries_output(args, chi, meta)
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


def cmd_mult(args) -> int:
    """``qmult`` (the big projective) and ``projmult`` (the projective cover)."""
    rs = build_root_system(args.type)
    lam = parse_weight(rs, args.lam)
    J = OpenSet.down_closure(parse_weight_set(rs, args.ceiling))
    meta = {"system": rs.cartan_type, "lambda": list(lam.coords),
            "ceiling": [list(c.coords) for c in J.ceiling]}
    if args.command == "qmult":
        flag = q_module_mult(lam, J)
        meta["kind"] = "q_module_mult"
    else:
        flag = projective_verma_mult(lam, J, args.p)
        meta.update(kind="projective_verma_mult", p=args.p)
    _entries_output(args, flag, meta, "mult")
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
        if args.depth is not None and args.depth < 0:
            raise ModcatoError(f"depth={args.depth} must be nonnegative")
        report = verify_periodicity(ctx)
    _emit(args, report.format_text(), report.to_dict())
    return 0 if report.passed else 1


# -- parser ----------------------------------------------------------------

# Every option of a leaf, by the name the leaf table below gives it.
_OPTIONS = {
    "type": ("--type", dict(required=True, choices=["A1", "A2", "B2"], help="root-system type")),
    "p": ("--p", dict(required=True, type=int, help="prime characteristic")),
    "lambda": ("--lambda", dict(dest="lam", required=True,
                                help="weight, comma-separated fundamental coordinates")),
    "depth": ("--depth", dict(type=int, required=True,
                              help="truncation depth below the top weight")),
    "ceiling": ("--ceiling", dict(required=True,
                                  help="ceiling weights of the open set, ';'-separated")),
    "set": ("--set", dict(required=True, help="weight set, ';'-separated")),
    "gamma": ("--gamma", dict(required=True, help="dominant shift weight")),
    "l": ("--l", dict(type=int, required=True, help="Frobenius twist exponent")),
    "format": ("--format", dict(choices=["text", "json"], default="text")),
    "cache-dir": ("--cache-dir", dict(help="persistent cache directory (or MODCATO_CACHE)")),
    "mu": ("--mu", dict(required=True, help="highest weight of the Verma")),
    "old-depth": ("--depth", dict(type=int, help="accepted for old scripts; the tables peel "
                                                 "inside K and do not depend on it")),
}

# The help line of each command, in the order the top-level help lists them.
_COMMANDS = {
    "char": "formal characters",
    "decomp": "decomposition-number row",
    "qmult": "Verma multiplicities of the big projective",
    "projmult": "Verma multiplicities of the projective cover",
    "steinberg": "base-p tensor factorization check",
    "topology": "locally closed sets",
    "periodicity": "shift-functor verification",
}

# Each leaf of the command tree: its handler and its options, in help order.
_LEAVES = {
    ("char", "verma"): (cmd_char, "type lambda depth format cache-dir"),
    ("char", "simple"): (cmd_char, "type p lambda depth format cache-dir"),
    ("char", "weyl"): (cmd_char, "type lambda format cache-dir"),
    ("decomp",): (cmd_decomp, "type p depth format cache-dir mu"),
    ("qmult",): (cmd_mult, "type lambda ceiling format cache-dir"),
    ("projmult",): (cmd_mult, "type p lambda ceiling format cache-dir"),
    ("steinberg",): (cmd_steinberg, "type p lambda depth format cache-dir"),
    ("topology", "check"): (cmd_topology, "type set format cache-dir"),
    ("topology", "minl"): (cmd_topology, "type p set format cache-dir"),
    ("periodicity", "updown"): (cmd_periodicity, "type p set gamma l format cache-dir"),
    ("periodicity", "full"): (cmd_periodicity, "type p set gamma l format cache-dir old-depth"),
}


def _parse_plain(argv):
    """The namespace argparse returns for ``argv``, if it has the plain shape:
    a separate value must not start with a dash, every required flag must be
    given and every ``int`` and ``choices`` check pass.  Else None."""
    path = tuple(argv[:1]) if tuple(argv[:1]) in _LEAVES else tuple(argv[:2])
    if path not in _LEAVES:
        return None
    flags = dict(_OPTIONS[name] for name in _LEAVES[path][1].split())
    given, tokens = {}, iter(argv[len(path):])
    for token in tokens:
        flag, eq, value = token.partition("=")
        value = value if eq else next(tokens, "-")
        if flag not in flags or flag in given or (not eq and value.startswith("-")):
            return None
        given[flag] = value
    args = dict(zip(("command", "which"), path), handler=_LEAVES[path][0])
    for flag, options in flags.items():
        if flag not in given and options.get("required"):
            return None
        value = given.get(flag, options.get("default"))
        try:  # argparse converts a given value and a string default
            value = options.get("type", str)(value) if isinstance(value, str) else value
        except ValueError:
            return None
        if value not in options.get("choices", [value]):
            return None
        args[options.get("dest", flag[2:].replace("-", "_"))] = value
    return SimpleNamespace(**args)


@lru_cache(maxsize=None)
def build_parser():
    """The whole command tree, built once per process; it reads no
    environment.  Only an argv that ``_parse_plain`` declines needs it, so
    ``argparse`` (with ``gettext`` and ``locale``) is imported only here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="modcato",
        description="Exact character and multiplicity calculus for the "
                    "modular category O at small rank.",
    )
    parser.add_argument("--version", action="version", version=f"modcato {__version__}")
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (handler, names) in _LEAVES.items():
        if path[:-1] not in subs:
            group = subs[()].add_parser(path[0], help=_COMMANDS[path[0]])
            subs[path[:-1]] = group.add_subparsers(dest="which", required=True)
        # Only a top-level leaf has a help line; even help=None would list a
        # second-level leaf in its group's help.
        extra = {"help": _COMMANDS[path[0]]} if len(path) == 1 else {}
        leaf = subs[path[:-1]].add_parser(path[-1], **extra)
        leaf.set_defaults(handler=handler)
        for name in names.split():
            flag, options = _OPTIONS[name]
            leaf.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    # The store is this command's alone: --cache-dir, else the process default.
    cache.configure(args.cache_dir if args.cache_dir is not None
                    else os.environ.get("MODCATO_CACHE") or None)
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
