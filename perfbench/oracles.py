"""Independent checks of CLI output.  Nothing here imports modcato.

Root data come from the standard tables, partition counts from a truncated
generating-function product, Weyl characters from Kostant's multiplicity
formula over those counts, and Weyl dimensions from the product formula.
Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

# cartan[i][j] = <alpha_j, alpha_i^vee>; B2 has alpha_1 long.
CARTAN = {"A1": ((2,),), "A2": ((2, -1), (-1, 2)), "B2": ((2, -1), (-2, 2))}
HALF_NORM = {"A1": (1,), "A2": (1, 1), "B2": (2, 1)}
POSITIVE_ROOTS = {
    "A1": ((1,),),
    "A2": ((0, 1), (1, 0), (1, 1)),
    "B2": ((0, 1), (1, 0), (1, 1), (1, 2)),
}


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def root_coords(typ, w):
    """Simple-root coordinates of a weight, or None off the root lattice."""
    c = CARTAN[typ]
    if len(c) == 1:
        return (w[0] // 2,) if w[0] % 2 == 0 else None
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    x = c[1][1] * w[0] - c[0][1] * w[1]
    y = -c[1][0] * w[0] + c[0][0] * w[1]
    if x % det or y % det:
        return None
    return (x // det, y // det)


def below(typ, mu, lam):
    """mu <= lam in the dominance order; returns lam - mu in root coords or None."""
    rv = root_coords(typ, _sub(lam, mu))
    if rv is None or min(rv) < 0:
        return None
    return rv


@lru_cache(maxsize=None)
def partition_table(typ, max_height):
    """Kostant partition counts of all nonnegative root vectors up to a height."""
    rank = len(CARTAN[typ])
    series = {(0,) * rank: 1}
    for root in POSITIVE_ROOTS[typ]:
        out = {}
        for vec, c in series.items():
            k = 0
            while True:
                v = tuple(a + k * r for a, r in zip(vec, root))
                if sum(v) > max_height:
                    break
                out[v] = out.get(v, 0) + c
                k += 1
        series = out
    return series


def partitions(typ, rv):
    if rv is None or min(rv) < 0:
        return 0
    return partition_table(typ, max(48, 8 * ((sum(rv) + 7) // 8))).get(rv, 0)


@lru_cache(maxsize=None)
def weyl_group(typ):
    """All Weyl group elements as (matrix on fundamental coords, sign)."""
    c = CARTAN[typ]
    n = len(c)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        # s_i(w) = w - w_i * alpha_i, and alpha_i has fundamental coords column i.
        gens.append(tuple(tuple(int(r == k) - (c[r][i] if k == i else 0)
                                for k in range(n)) for r in range(n)))
    seen = {ident: 1}
    todo = [ident]
    while todo:
        m = todo.pop()
        for g in gens:
            prod = tuple(tuple(sum(g[r][k] * m[k][s] for k in range(n)) for s in range(n))
                         for r in range(n))
            if prod not in seen:
                seen[prod] = -seen[m]
                todo.append(prod)
    return tuple(seen.items())


def act(m, w):
    return tuple(sum(m[r][k] * w[k] for k in range(len(w))) for r in range(len(m)))


def weyl_dimension(typ, lam):
    """Product formula: prod over positive beta of (lam+rho, beta)/(rho, beta)."""
    d = HALF_NORM[typ]
    out = Fraction(1)
    for beta in POSITIVE_ROOTS[typ]:
        num = sum(b * di * (li + 1) for b, di, li in zip(beta, d, lam))
        den = sum(b * di for b, di in zip(beta, d))
        out *= Fraction(num, den)
    assert out.denominator == 1
    return int(out)


def weyl_multiplicity(typ, lam, mu):
    """Kostant's formula: sum over w of sign(w) P(w(lam+rho) - (mu+rho))."""
    rho = (1,) * len(lam)
    top = _add(lam, rho)
    total = 0
    for m, sign in weyl_group(typ):
        total += sign * partitions(typ, below(typ, _add(mu, rho), act(m, top)))
    return total


# -- output parsing -------------------------------------------------------------

def parse_table(text, ncols):
    """Rows of a text table printed by the CLI (header and rule skipped)."""
    lines = text.strip("\n").split("\n")
    if len(lines) < 2 or not set(lines[1].replace(" ", "")) <= {"-"}:
        raise ValueError("missing table header")
    rows = []
    for line in lines[2:]:
        cells = line.split()
        if len(cells) != ncols:
            raise ValueError(f"bad table row {line!r}")
        rows.append([tuple(int(x) for x in cell.split(",")) for cell in cells[:-1]]
                    + [int(cells[-1])])
    return rows


def parse_char(text):
    out = {}
    for w, c in parse_table(text, 2):
        if w in out:
            raise ValueError(f"weight {w} printed twice")
        out[w] = c
    return out


# -- checks ----------------------------------------------------------------------

def _in_box(typ, w, top, depth):
    rv = below(typ, w, top)
    return rv is not None and sum(rv) <= depth


def _w_invariance(typ, chi, top, depth):
    for w, c in chi.items():
        for m, _ in weyl_group(typ):
            image = act(m, w)
            if (depth is None or _in_box(typ, image, top, depth)) and chi.get(image, 0) != c:
                return f"multiplicity at {w} is {c} but {chi.get(image, 0)} at its image {image}"
    return None


def check_weyl(out, info):
    typ, lam = info["type"], tuple(info["lambda"])
    chi = parse_char(out)
    if chi.get(lam) != 1:
        return f"highest weight {lam} has coefficient {chi.get(lam)}"
    if min(chi.values()) <= 0:
        return "nonpositive multiplicity"
    dim = weyl_dimension(typ, lam)
    if sum(chi.values()) != dim:
        return f"dimension {sum(chi.values())} != Weyl product formula {dim}"
    return _w_invariance(typ, chi, lam, None)


def check_steinberg(out, info):
    typ, lam, p = info["type"], tuple(info["lambda"]), info["p"]
    chi = parse_char(out)
    npos = len(POSITIVE_ROOTS[typ])
    if sum(chi.values()) != p ** npos:
        return f"Steinberg dimension {sum(chi.values())} != p^{npos}"
    if sum(chi.values()) != weyl_dimension(typ, lam):
        return "dimension differs from the Weyl module's"
    bad = _w_invariance(typ, chi, lam, None)
    if bad:
        return bad
    for w, c in chi.items():
        if c != weyl_multiplicity(typ, lam, w):
            return f"multiplicity at {w} differs from the Weyl character"
    return None


def check_simple(out, info):
    """Truncated simple character: L(lam) is a quotient of the Weyl module and
    W-invariant wherever both weights of a pair lie in the box."""
    typ, lam, depth = info["type"], tuple(info["lambda"]), info["depth"]
    chi = parse_char(out)
    if chi.get(lam) != 1:
        return f"highest weight {lam} has coefficient {chi.get(lam)}"
    for w, c in chi.items():
        if not _in_box(typ, w, lam, depth):
            return f"weight {w} lies outside the box"
        if not 0 < c <= weyl_multiplicity(typ, lam, w):
            return f"multiplicity {c} at {w} exceeds the Weyl module's"
    return _w_invariance(typ, chi, lam, depth)


def check_verma(out, info):
    typ, lam, depth = info["type"], tuple(info["lambda"]), info["depth"]
    chi = parse_char(out)
    for w, c in chi.items():
        rv = below(typ, w, lam)
        if rv is None or sum(rv) > depth or c != partitions(typ, rv):
            return f"entry {c} at {w} is not a partition count"
    expected = sum(1 for rv in partition_table(typ, depth) if sum(rv) <= depth)
    if len(chi) != expected:
        return f"{len(chi)} weights printed, box holds {expected}"
    return None


def _up_set(typ, lam, ceiling):
    found = set()
    c = CARTAN[typ]
    for top in ceiling:
        gap = below(typ, lam, top)
        if gap is None:
            continue
        for a in range(gap[0] + 1):
            for b in range(gap[1] + 1):
                found.add(_add(lam, (c[0][0] * a + c[0][1] * b, c[1][0] * a + c[1][1] * b)))
    return found


def check_qmult(out, info):
    typ, lam = info["type"], tuple(info["lambda"])
    flag = parse_char(out)
    ups = _up_set(typ, lam, [tuple(c) for c in info["ceiling"]])
    if set(flag) != ups:
        return "printed weights differ from the up-set"
    for mu, m in flag.items():
        if m != partitions(typ, below(typ, lam, mu)):
            return f"entry {m} at {mu} is not a partition count"
    return None


def check_projmult(out, info):
    typ, lam = info["type"], tuple(info["lambda"])
    flag = parse_char(out)
    ups = _up_set(typ, lam, [tuple(c) for c in info["ceiling"]])
    if flag.get(lam) != 1:
        return f"[Delta(lam):L(lam)] is {flag.get(lam)}"
    for mu, m in flag.items():
        if mu not in ups or m <= 0:
            return f"entry {m} at {mu} is outside the up-set or not positive"
    return None


def _row_ok(typ, triples, depth=None):
    """Decomposition entries (mu, lam, v): nonnegative and unitriangular."""
    diag = set()
    for mu, lam, v in triples:
        rv = below(typ, lam, mu)
        if v < 0 or rv is None or (depth is not None and sum(rv) > depth):
            return f"entry [{mu}:{lam}] = {v} is negative or not below mu"
        if mu == lam:
            if v != 1:
                return f"diagonal entry at {mu} is {v}"
            diag.add(mu)
    if diag != {mu for mu, _, _ in triples}:
        return "a row misses its diagonal entry"
    return None


def check_decomp(out, info):
    rows = parse_table(out, 3)
    mu = tuple(info["mu"])
    if any(r[0] != mu for r in rows):
        return "row holds entries of another mu"
    return _row_ok(info["type"], [tuple(r) for r in rows], info["depth"])


def _triples(entries):
    return {(tuple(m), tuple(l), v) for m, l, v in entries}


def check_periodicity_full(out, info):
    rep = json.loads(out)
    typ, gamma = info["type"], tuple(info["gamma"])
    K = {tuple(k) for k in info["K"]}
    table = _triples(rep["payload"]["table"])
    shifted = _triples(rep["payload"]["shifted_table"])
    moved = {(_add(m, gamma), _add(l, gamma), v) for m, l, v in table}
    if moved != shifted:
        return "shifted table is not the table translated by gamma"
    if {m for m, _, _ in table} != K:
        return "table rows differ from K"
    return _row_ok(typ, table)


def check_periodicity_updown(out, info):
    rep = json.loads(out)
    gamma = tuple(info["gamma"])
    expected = {}
    for k in info["K"]:
        k = tuple(k)
        up = _add(k, gamma)
        expected[f"up shift of Delta({k})"] = [[list(up), 1]]
        expected[f"down shift of Delta({up})"] = [[list(k), 1]]
    got = {c["identity"]: c["left"] for c in rep["checks"]}
    if got != expected:
        return "shift results are not single translated Vermas"
    return None


CHECKS = {
    "weyl": check_weyl,
    "steinberg": check_steinberg,
    "simple": check_simple,
    "verma": check_verma,
    "qmult": check_qmult,
    "projmult": check_projmult,
    "decomp": check_decomp,
    "periodicity_full": check_periodicity_full,
    "periodicity_updown": check_periodicity_updown,
}


def check(command, out):
    """Oracle verdict for one command's stdout: None, or the reason it is wrong."""
    try:
        return CHECKS[command.check](out, command.info)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
