"""Character-level category O data.

Simple characters from contravariant-form ranks, decomposition numbers by
triangular peeling, Verma-flag vectors under tensor and truncation
functors, projective multiplicities through reciprocity, and the base-p
tensor factorization check for finite-dimensional simples.

Simple characters use Steinberg's tensor product theorem: if every coordinate
of lambda0 lies in [0, p), then L(lambda0 + p*lambda1) = L(lambda0) (x)
L(lambda1)^[1] (Steinberg, Nagoya Math. J. 22 (1963), and Jantzen, *Representations
of Algebraic Groups*, II.3.17, for dominant weights; Haboush, LNM 795 (1980), for
any weight over the hyperalgebra).  So only restricted weights are ranked,
and only on the dominant weights of their Weyl modules (Humphreys,
*Introduction to Lie Algebras and Representation Theory*, §21.3; Jantzen,
*RAG*, II.2 and II.5): a restricted L(lam) is finite-dimensional, so its
weight multiplicities are W-invariant (Jantzen, *RAG*, II.1.19; Humphreys,
§21.2), and every other weight space of the module copies its dominant
conjugate.  Every table is asked for by height, all nu of height at most
h, and holds only nonzero dimensions: a product step convolves the nonzero
weight spaces of L(lam0) up to h with those of L(lam1) up to h // p.  The
digit recursion :func:`_simple_dims` is the one product of the theorem: the
factorization check compares it with a Gram sweep of every weight space of
its box, which never factorizes and never uses W.

The inner loops run on coordinate tuples, not on ``Weight`` objects.  The
digit recursion and its memo ``_SIMPLE_CACHE`` are keyed by the Cartan type
and the coordinates of lam.  A table row reads its below-set from the
offsets of its root-lattice coset (:meth:`LocallyClosedSet.below`) and
peels offsets (:func:`~modcato.charring.peel`), so the table's weights are
the region's own; rows and flags build a ``Weight`` only for what they
return.

Dual Vermas never appear as objects: their characters equal the Verma
characters, and every statement made here factors through characters,
read as tables: a flag is tensored with a character's ``coeffs`` dict,
adding coordinates.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from math import comb
from operator import add, ge, mul, sub
from typing import Callable, Iterable, Mapping, NamedTuple

from . import cache as cache_store
from .charring import FormalCharacter, TruncationBox, peel
from .errors import (
    BoxMarginError,
    ExactnessError,
    ModcatoError,
    SizeGuardError,
    require_prime,
)
from .hypalg import DEFAULT_GUARD, SizeGuard, simple_weight_dims
from .reporting import Report
from .rootdata import (
    RootSystem,
    Weight,
    _check_same,
    height_drop,
    is_dominant,
    kostant_table,
    weyl_hull,
)
from .topology import (
    LocallyClosedSet,
    OpenSet,
    validate_closed_predicate,
    validate_open_predicate,
)


class FlagVector:
    """Finite weight -> nonnegative-integer record of Verma multiplicities."""

    __slots__ = ("mult",)

    def __init__(self, mult: Mapping[Weight, int]):
        cleaned = {}
        for w, m in mult.items():
            if m < 0:
                raise ValueError(f"flag multiplicity at {w} is negative")
            if m:
                cleaned[w] = m
        self.mult = cleaned

    def get(self, w: Weight) -> int:
        return self.mult.get(w, 0)

    def items(self):
        return sorted(self.mult.items(), key=lambda kv: kv[0].coords)

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(self.mult, key=lambda w: w.coords))

    def total(self) -> int:
        return sum(self.mult.values())

    def translate(self, gamma: Weight) -> "FlagVector":
        return FlagVector({w + gamma: m for w, m in self.mult.items()})

    def restrict(self, pred: Callable[[Weight], bool]) -> "FlagVector":
        return FlagVector({w: m for w, m in self.mult.items() if pred(w)})

    def serialize(self) -> list[list]:
        return [[list(w.coords), m] for w, m in self.items()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlagVector) and self.mult == other.mult

    def __hash__(self):
        return hash(frozenset(self.mult.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{w.coords}: {m}" for w, m in self.items())
        return f"FlagVector({{{inner}}})"


class DecompositionTable(NamedTuple):
    """Composition multiplicities of Vermas over a locally closed region.

    ``comparable`` lists every pair (mu, lam) of the region with lam <= mu, in
    region order, zero entries included; ``entries`` holds the nonzero ones."""

    p: int
    region: tuple[Weight, ...]
    entries: Mapping[tuple[Weight, Weight], int]
    comparable: tuple[tuple[Weight, Weight], ...]

    def entry(self, mu: Weight, lam: Weight) -> int:
        return self.entries.get((mu, lam), 0)

    def translate(self, gamma: Weight) -> "DecompositionTable":
        return DecompositionTable(
            self.p,
            tuple(sorted((w + gamma for w in self.region), key=lambda w: w.coords)),
            {(mu + gamma, lam + gamma): v for (mu, lam), v in self.entries.items()},
            tuple((mu + gamma, lam + gamma) for mu, lam in self.comparable),
        )

    def serialize(self) -> list[list]:
        triples = [
            [list(mu.coords), list(lam.coords), v]
            for (mu, lam), v in self.entries.items()
        ]
        return sorted(triples)


# (Cartan type, coordinates of lam, p) -> (h, {nu: dim L(lam)_{lam - nu}}, hull):
# the nonzero ones of height <= h, and weyl_hull(lam) once the recursion has
# built a restricted lam's table (else None)
_SIMPLE_CACHE: dict = {}


def _csv(coords: Iterable[int]) -> str:
    return ",".join(map(str, coords))


def simple_character(
    lam: Weight, p: int, box: TruncationBox, *, guard: SizeGuard | None = None
) -> FormalCharacter:
    """Assemble ch L(lam) on a box from the Gram ranks of restricted weights.

    Dimensions are memoized per (lam, p) up to a height, so a character
    asked on a deeper box ranks only the weight spaces below that height.
    The finished character is one ``simple_dim`` disk record per box; a hit
    fills the memo without a Gram build, and the highest-weight check still
    runs on it.  ``char simple``, :func:`tensor_flag` and
    :func:`full_simple_character` come here.  The peel bases of
    :func:`decomposition_numbers` and :func:`build_decomposition_table`
    read the memo through :func:`_simple_dims` and write no record: only a
    rerun of that row or table could read one, and its own ``decomp_row``
    or ``decomp_table`` record answers the rerun first.
    """
    require_prime(p)
    gap = box.offset(lam)
    if gap is None:
        raise BoxMarginError(f"box does not contain the highest weight {lam}")
    rs = lam.system
    height = box.depth - sum(gap)
    payload = f"lam={_csv(lam.coords)};box={_csv(box.top.coords)};depth={box.depth}"
    cached = cache_store.get_value("simple_dim", rs.cartan_type, p, payload)
    key = (rs.cartan_type, lam.coords, p)
    if cached is not None:
        # A record lists the nonzero dimensions of every weight space in its box.
        done, dims, hull = _SIMPLE_CACHE.get(key, (-1, {}, None))
        if height > done:
            gaps = ((rs.to_root_vector(lam - rs.weight(*c)), d) for c, d in json.loads(cached))
            on_disk = {nu: d for nu, d in gaps if nu is not None and min(nu) >= 0 and sum(nu) <= height}
            _SIMPLE_CACHE[key] = (height, {**on_disk, **dims}, hull)
    dims = _simple_dims(rs, lam.coords, p, height, guard)
    chi = FormalCharacter({tuple(map(add, gap, nu)): d for nu, d in dims.items() if sum(nu) <= height}, box)
    if chi.coefficient(lam) != 1:
        raise ExactnessError(f"L({lam}) has multiplicity {chi.coefficient(lam)} at its highest weight")
    if cached is None:
        cache_store.put_value(
            "simple_dim", rs.cartan_type, p, payload, json.dumps(chi.serialize())
        )
    return chi


def _digits(lam: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lam0, lam1) with lam = lam0 + p*lam1 and lam0's coordinates in [0, p),
    all as coordinate tuples."""
    return tuple([c % p for c in lam]), tuple([c // p for c in lam])


def _simple_dims(rs: RootSystem, lam: tuple[int, ...], p: int, height: int, guard: SizeGuard | None) -> dict:
    """Every nonzero dim L(lam)_{lam - nu} with nu of height <= ``height``,
    as ``{nu: dim}``, by the theorem above, for the weight of ``rs`` with
    coordinates ``lam``; kept in ``_SIMPLE_CACHE``.

    A restricted lam is dominant, so every weight of L(lam) is one of its
    Weyl module W(lam), whose dominant weights are the dominant lam - nu with
    nu >= 0 (Humphreys, §21.3).  L(lam) is a finite-dimensional G-module,
    whose weight multiplicities are W-invariant (Jantzen, *RAG*, II.1.19),
    so only the dominant lam - nu of height <= ``height`` not yet known are
    ranked (the top among them, checked), and each nonzero one is copied to
    the images nu_w = (lam - w(lam)) + w(nu) of its orbit
    (:func:`~modcato.rootdata.weyl_hull`), which are no lower than nu.

    Any other lam convolves the nonzero entries of L(lam0) up to ``height``
    with those of L(lam1) up to ``height // p``: nu = nu0 + p*mu.  At height
    0 the table is the top alone, {0: 1}, asked of neither digit, so the
    recursion ends even where lam1 = lam.  A step whose term count passes
    the guard's ``max_terms`` raises ``SizeGuardError`` before it is built.
    """
    key = (rs.cartan_type, lam, p)
    done, dims, hull = _SIMPLE_CACHE.get(key, (-1, {}, None))
    if height <= done:
        return dims
    zero = (0,) * len(lam)
    lam0, lam1 = _digits(lam, p)
    if lam0 == lam:
        weight = Weight(rs, lam)
        hull = hull or weyl_hull(weight)
        # Every weight lam - nu of W(lam) has nu of height at most height_drop(lam).
        drop = max(sum(offset) for offset, _ in hull)
        dominant = [nu for nu in rs.root_vectors_up_to_height(min(height, drop))
                    if all(c >= sum(map(mul, row, nu)) for c, row in zip(lam, rs.cartan_matrix))]
        ranked = simple_weight_dims(weight, [nu for nu in dominant if sum(nu) > done], p, guard=guard)
        if done < 0 and ranked[zero] != 1:
            raise ExactnessError(f"L({weight}) has multiplicity {ranked[zero]} at its highest weight")
        dims = dict(dims)
        for nu in dominant:
            d = ranked[nu] if sum(nu) > done else dims.get(nu, 0)
            for offset, w in hull if d else ():
                image = tuple(o + sum(map(mul, row, nu)) for o, row in zip(offset, w))
                if done < sum(image) <= height:
                    dims[image] = d
    elif height == 0:
        dims = {zero: 1}
    else:
        d0 = _simple_dims(rs, lam0, p, height, guard)
        # A step has at most comb(height + r, r) * comb(height // p + r, r)
        # terms.  Past the guard, their count is read first as a floor, before
        # L(lam1) is asked, then exactly, before the product is built.
        limit, r = (guard or DEFAULT_GUARD).max_terms, len(zero)
        large = comb(height + r, r) * comb(height // p + r, r) > limit
        terms = 0
        if large:
            n1, top1 = _size_floor(rs, lam1, p, height // p)
            terms = n1 * sum(1 for nu0 in d0 if sum(nu0) + p * top1 <= height)
        if terms <= limit:
            d1 = [(p * sum(mu), [p * b for b in mu], c) for mu, c in _simple_dims(rs, lam1, p, height // p, guard).items()]
            if large:
                heights = sorted(h1 for h1, _, _ in d1)
                terms = sum(bisect_right(heights, height - sum(nu0)) for nu0 in d0)
        if terms > limit:
            raise SizeGuardError(f"digit product L({lam0}) x L({lam1})^[1] of L({lam}) "
                                 f"at p={p} has at least {terms} terms, over the guard's max_terms={limit}")
        dims = {}
        for nu0, c0 in d0.items():
            room = height - sum(nu0)
            for h1, pmu, c1 in d1:
                if h1 <= room:
                    nu = tuple(map(add, nu0, pmu))
                    dims[nu] = dims.get(nu, 0) + c0 * c1
    _SIMPLE_CACHE[key] = (height, dims, hull)
    return dims


def _size_floor(rs: RootSystem, lam: tuple[int, ...], p: int, height: int) -> tuple[int, int]:
    """(n, top): the table of L(lam) to ``height`` has at least n entries,
    none of them higher than top, read from the digits' Weyl orbits without
    a table or a Gram rank.

    A restricted L(lam0) has dimension 1 on the W-orbit of lam0 and no
    weight below its lowest one, height_drop(lam0) deep.  A product's
    entries are nu0 + p*mu; where the orbit offsets nu0 have distinct
    residues mod p, the shifted copies of L(lam1)'s table are disjoint, so
    each nu0 that fits below ``height`` with every mu adds n1 entries;
    otherwise nu0 = 0 alone does.
    """
    if height == 0:
        return 1, 0
    lam0, lam1 = _digits(lam, p)
    orbit = {offset for offset, _ in weyl_hull(Weight(rs, lam0))}
    drop = max(map(sum, orbit))
    if lam0 == lam:
        return sum(1 for nu in orbit if sum(nu) <= height), min(height, drop)
    n1, top1 = _size_floor(rs, lam1, p, height // p)
    fit = sum(1 for nu0 in orbit if sum(nu0) + p * top1 <= height)
    disjoint = len({tuple(c % p for c in nu0) for nu0 in orbit}) == len(orbit)
    return (fit * n1 if disjoint else n1), min(height, drop + p * top1)


def full_simple_character(lam: Weight, p: int, *, guard: SizeGuard | None = None) -> FormalCharacter:
    """Complete character of the finite-dimensional simple at dominant lam,
    on the box of lam's Weyl-orbit hull."""
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return simple_character(lam, p, TruncationBox.make(lam, height_drop(lam)), guard=guard)


def _checked_row(mu: Weight, row: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """A peeled row [Delta(mu) : L(mu - m)], keyed by offset m, after
    checking that no multiplicity is negative and that L(mu) occurs once."""
    rs = mu.system
    for m, a in row.items():
        if a < 0:
            raise ExactnessError(
                f"negative multiplicity {a} at {Weight(rs, rs.lower(mu.coords, m))} while decomposing {mu}"
            )
    head = row.get((0,) * rs.rank)
    if head != 1:
        raise ExactnessError(f"row of {mu} has multiplicity {head} at its own head")
    return row


def decomposition_numbers(
    mu: Weight,
    p: int,
    depth: int,
    *,
    guard: SizeGuard | None = None,
) -> dict[Weight, int]:
    """One row [Delta(mu) : L(lam)], for every lam in the down-set of mu to
    ``depth``, by peeling its Kostant counts into simple characters."""
    require_prime(p)
    if type(depth) is not int or depth < 0:
        raise ModcatoError(f"depth={depth!r} must be a nonnegative int")
    rs = mu.system
    payload = f"mu={_csv(mu.coords)};depth={depth}"
    cached = cache_store.get_value("decomp_row", rs.cartan_type, p, payload)
    if cached is not None:
        return {
            rs.weight(*coords): v for coords, v in json.loads(cached)
        }
    top = mu.coords
    peeled = peel(kostant_table(rs, depth), lambda m, height: _simple_dims(rs, rs.lower(top, m), p, height, guard))
    row = {Weight(rs, rs.lower(top, m)): a for m, a in _checked_row(mu, peeled).items()}
    cache_store.put_value(
        "decomp_row",
        rs.cartan_type,
        p,
        payload,
        json.dumps(sorted([list(w.coords), v] for w, v in row.items())),
    )
    return row


def build_decomposition_table(
    weights: LocallyClosedSet | Iterable[Weight],
    p: int,
    *,
    guard: SizeGuard | None = None,
) -> DecompositionTable:
    """Region-bounded table [Delta(mu) : L(lam)] over a locally closed set.

    A :class:`LocallyClosedSet` is used as it is; any other iterable goes
    through :meth:`LocallyClosedSet.make`, which raises ``ValueError`` on an
    empty or leaking set.

    The region is order-convex, so for lam <= mu in it every xi with
    lam <= xi <= mu lies in it too, and [Delta(mu) : L(lam)] depends only on
    characters at region weights.  Each row peels the Kostant counts of the
    region weights below mu, read from one table, and no row reads a weight
    outside the region.  A row's below-set comes from the offsets of mu's
    root-lattice coset (:meth:`LocallyClosedSet.below`), keyed by the gap
    mu - lam the peel works on.  The finished table is one ``decomp_table``
    disk record, keyed by p and the sorted region, read first on a rerun.
    """
    require_prime(p)
    if not isinstance(weights, LocallyClosedSet):
        weights = LocallyClosedSet.make(weights)
    region = weights.sorted
    rs = region[0].system
    rows = [(mu, weights.below(mu)) for mu in region]
    comparable = tuple((mu, lam) for mu, below in rows for lam in below.values())
    payload = f"region={';'.join(_csv(w.coords) for w in region)}"
    cached = cache_store.get_value("decomp_table", rs.cartan_type, p, payload)
    if cached is not None:
        entries = {(rs.weight(*m), rs.weight(*l)): v for m, l, v in json.loads(cached)}
        return DecompositionTable(p, region, entries, comparable)
    kp = kostant_table(rs, max(sum(gap) for _, below in rows for gap in below))
    entries: dict[tuple[Weight, Weight], int] = {}
    for mu, below in rows:
        row = peel({gap: kp[gap] for gap in below},
                   lambda m, height: _simple_dims(rs, below[m].coords, p, height, guard))
        entries.update(((mu, below[m]), a) for m, a in _checked_row(mu, row).items())
    table = DecompositionTable(p, region, entries, comparable)
    cache_store.put_value("decomp_table", rs.cartan_type, p, payload, json.dumps(table.serialize()))
    return table


def validate_table_consistency(
    table: DecompositionTable, *, guard: SizeGuard | None = None
) -> Report:
    """Character identity dim Delta(mu)_nu = sum_lam [Delta(mu):L(lam)] dim L(lam)_nu
    at each comparable pair of the table, read from the peel's tables."""
    require_prime(table.p)
    report = Report(f"character consistency over {len(table.region)} weights, p={table.p}")
    rs = table.region[0].system
    offset = {w: rs.coset_offset(w.coords)[1] for w in table.region}
    gaps: dict[Weight, dict[Weight, tuple[int, ...]]] = {}
    for mu, nu in table.comparable:
        gaps.setdefault(mu, {})[nu] = tuple(map(sub, offset[mu], offset[nu]))
    kp = kostant_table(rs, max(sum(gap) for below in gaps.values() for gap in below.values()))
    for mu, below in gaps.items():
        depth = max(map(sum, below.values()))
        simples = [(g, table.entry(mu, lam), _simple_dims(rs, lam.coords, table.p, depth - sum(g), guard))
                   for lam, g in below.items() if table.entry(mu, lam)]
        for nu, gap in below.items():
            rhs = sum(a * dims.get(tuple(map(sub, gap, g)), 0) for g, a, dims in simples if all(map(ge, gap, g)))
            report.record(f"dim Delta({mu.coords})_{nu.coords}", kp[gap], rhs)
    return report


def _flag_tensor_char(V: FlagVector, coeffs: Mapping[Weight, int]) -> FlagVector:
    """Flag of M (x) a module of character ``coeffs``: convolve multiplicities
    with the character; the flag total must grow by its dimension.  The
    sums run on coordinates; each weight of the result is built once."""
    shifts = [(s.coords, c) for s, c in coeffs.items()]
    out: dict[tuple[int, ...], int] = {}
    for lam, m in V.mult.items():
        for s, c in shifts:
            w = tuple(map(add, lam.coords, s))
            out[w] = out.get(w, 0) + m * c
    weights = [*V.mult, *coeffs]
    for w in weights:
        _check_same(w.system, weights[0].system)
    flag = FlagVector({Weight(weights[0].system, w): c for w, c in out.items()})
    if flag.total() != V.total() * sum(coeffs.values()):
        raise ExactnessError("flag total is not multiplied by the character's dimension")
    return flag


def tensor_flag(
    V: FlagVector, gamma: Weight, p: int, *, guard: SizeGuard | None = None
) -> FlagVector:
    """Flag of M (x) L(gamma): convolve multiplicities with dim L(gamma)_*."""
    return _flag_tensor_char(V, full_simple_character(gamma, p, guard=guard).coeffs)


def truncate_flag(
    V: FlagVector,
    region_test,
    kind: str,
) -> FlagVector:
    """Restrict a flag vector to an open (quotient) or closed (sub) region."""
    pred = region_test.contains if hasattr(region_test, "contains") else region_test
    if kind == "open":
        validate_open_predicate(pred, V.support())
    elif kind == "closed":
        validate_closed_predicate(pred, V.support())
    else:
        raise ValueError("kind must be 'open' or 'closed'")
    return V.restrict(pred)


def q_module_mult(lam: Weight, J: OpenSet) -> FlagVector:
    """Verma multiplicities of the universal projective attached to lam in
    the truncation to J: partition counts over the finite up-set."""
    if not J.contains(lam):
        raise ValueError(f"{lam} does not lie in the open set")
    rs = lam.system
    gaps = {mu: rs.to_root_vector(mu - lam) for mu in J.up_set(lam)}
    table = kostant_table(rs, max(map(sum, gaps.values())))
    flag = FlagVector({mu: table[nu] for mu, nu in gaps.items()})
    if flag.get(lam) != 1:
        raise ExactnessError(f"flag has multiplicity {flag.get(lam)} at its head {lam}")
    return flag


def projective_verma_mult(
    lam: Weight,
    J: OpenSet,
    p: int,
    *,
    guard: SizeGuard | None = None,
) -> FlagVector:
    """Verma multiplicities of the projective cover of L(lam) in the
    truncation to J, through reciprocity: [Delta(mu) : L(lam)] for mu in J,
    column lam of one table over the up-set of lam.  That set is the union
    of the intervals [lam, c] over J's ceiling, so it is order-convex."""
    if not J.contains(lam):
        raise ValueError(f"{lam} does not lie in the open set")
    up = LocallyClosedSet(frozenset(J.up_set(lam)))
    table = build_decomposition_table(up, p, guard=guard)
    flag = FlagVector({mu: table.entry(mu, lam) for mu in up})
    if flag.get(lam) != 1:
        raise ExactnessError(f"flag has multiplicity {flag.get(lam)} at its head {lam}")
    return flag


def steinberg_digits(lam: Weight, p: int) -> tuple[Weight, ...]:
    """Base-p digit weights of a dominant weight, all coordinates in [0, p)."""
    require_prime(p)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    coords, digits = lam.coords, []
    while not digits or any(coords):
        digit, coords = _digits(coords, p)
        digits.append(Weight(lam.system, digit))
    return tuple(digits)


def steinberg_check(
    lam: Weight,
    p: int,
    box: TruncationBox,
    *,
    guard: SizeGuard | None = None,
) -> tuple[bool, FormalCharacter]:
    """Compare the Gram sweep of ch L(lam) with its digit product on the box.

    The left side is one Gram sweep over every weight space of the box
    below lam, which never factorizes; the right side is the digit
    recursion :func:`_simple_dims` that ``char simple`` prints, asked for
    the same weight spaces.  Neither reads nor writes a disk record.  At a
    restricted lam the product ranks only the dominant weights of the Weyl
    module and copies each to its W-orbit, so the check is that the sweep
    ranks 0 on every weight space of the box outside the Weyl module and is
    W-invariant on the rest.  At the dominant weights it agrees with itself;
    those need an independent route, such as Jantzen's sum formula.

    Returns (equal on box, difference character sweep - product on box).
    """
    steinberg_digits(lam, p)  # checks p and dominance before the box
    if not box.contains(lam):
        raise BoxMarginError(f"box does not contain the highest weight {lam}")
    below = box.below(lam)
    sweep = simple_weight_dims(lam, [nu for _, nu in below], p, guard=guard)
    product = _simple_dims(lam.system, lam.coords, p, box.depth - sum(box.offset(lam)), guard)
    diff = FormalCharacter({m: sweep[nu] - product.get(nu, 0) for m, nu in below}, box)
    return not diff.offsets, diff
