"""Character-level category O data.

Simple characters from contravariant-form ranks, decomposition numbers by
triangular peeling, Verma-flag vectors under tensor and truncation
functors, projective multiplicities through reciprocity, and the base-p
tensor factorization check for finite-dimensional simples.

Dual Vermas never appear as objects: their characters equal the Verma
characters, and every statement made here factors through characters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import cache as cache_store
from .charring import (
    FormalCharacter,
    TruncationBox,
    char_add,
    char_multiply,
    char_scale,
    char_single,
    frobenius_twist_char,
    peel_decompose,
    verma_character,
)
from .errors import (
    BoxMarginError,
    ExactnessError,
    InvalidCharacterError,
    ModcatoError,
    require_prime,
)
from .hypalg import SizeGuard, simple_weight_dims
from .reporting import Report
from .rootdata import (
    Weight,
    height_drop,
    is_dominant,
    kostant_partition,
    leq,
)
from .topology import (
    OpenSet,
    is_locally_closed,
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


@dataclass(frozen=True)
class DecompositionTable:
    """Composition multiplicities of Vermas over a locally closed region."""

    p: int
    region: tuple[Weight, ...]
    entries: Mapping[tuple[Weight, Weight], int]

    def entry(self, mu: Weight, lam: Weight) -> int:
        return self.entries.get((mu, lam), 0)

    def translate(self, gamma: Weight) -> "DecompositionTable":
        return DecompositionTable(
            self.p,
            tuple(sorted((w + gamma for w in self.region), key=lambda w: w.coords)),
            {(mu + gamma, lam + gamma): v for (mu, lam), v in self.entries.items()},
        )

    def serialize(self) -> list[list]:
        triples = [
            [list(mu.coords), list(lam.coords), v]
            for (mu, lam), v in self.entries.items()
        ]
        return sorted(triples)


# (lam, p) -> {nu coefficients: dim L(lam)_{lam - nu}}
_SIMPLE_CACHE: dict = {}


def _csv(coords: Iterable[int]) -> str:
    return ",".join(map(str, coords))


def full_support_box(lam: Weight) -> TruncationBox:
    """Box holding the entire hull of the Weyl orbit of a dominant weight."""
    return TruncationBox.make((lam,), height_drop(lam))


def _covers_full_support(lam: Weight, box: TruncationBox) -> bool:
    rs = lam.system
    for rv in rs.root_vectors_up_to_height(height_drop(lam)):
        if not box.contains(lam - rs.weight_of(rv)):
            return False
    return True


def simple_character(
    lam: Weight, p: int, box: TruncationBox, *, guard: SizeGuard | None = None
) -> FormalCharacter:
    """Assemble ch L(lam) on a box from per-weight-space Gram ranks.

    The ranks are memoized per (lam, p) and weight space, so a character
    asked on a new box ranks only the weight spaces no earlier box held.
    The finished character is one ``simple_dim`` disk record per box; a hit
    fills the memo without a Gram build, and the highest-weight check still
    runs on it.  ``char simple``, ``steinberg``, :func:`tensor_flag` and
    :func:`full_simple_character` come here.  The peel bases of
    :func:`decomposition_numbers` and :func:`hom_dim_projective` use the
    memo-only core and write no record: their box is the row's own, so only
    a rerun of that row could read one, and the row's ``decomp_row`` record
    answers the rerun first.
    """
    require_prime(p)
    if not box.contains(lam):
        raise BoxMarginError(f"box does not contain the highest weight {lam}")
    rs = lam.system
    ceiling = "|".join(_csv(c) for c in sorted(w.coords for w in box.ceiling))
    payload = f"lam={_csv(lam.coords)};box={ceiling};depth={box.depth}"
    cached = cache_store.get_value("simple_dim", rs.cartan_type, p, payload)
    # A record lists the nonzero dimensions of every weight space in its box.
    on_disk = None if cached is None else {tuple(c): d for c, d in json.loads(cached)}
    chi = _simple_char(lam, p, box, guard, on_disk)
    if cached is None:
        cache_store.put_value(
            "simple_dim", rs.cartan_type, p, payload, json.dumps(chi.serialize())
        )
    return chi


def _simple_char(
    lam: Weight, p: int, box: TruncationBox, guard: SizeGuard | None, on_disk=None
) -> FormalCharacter:
    """Memo-only core of :func:`simple_character`, for a lam in the box.

    Weight spaces missing from ``_SIMPLE_CACHE`` are read from ``on_disk``
    (weight coordinates -> dimension) when given, else ranked.
    """
    dims = _SIMPLE_CACHE.setdefault((lam, p), {})
    below = box.below(lam)
    missing = [(w, nu) for w, nu in below if nu not in dims]
    if on_disk is not None:
        dims.update((nu, on_disk.get(w.coords, 0)) for w, nu in missing)
    elif missing:
        dims.update(simple_weight_dims(lam, [nu for _, nu in missing], p, guard=guard))
    complete = is_dominant(lam) and _covers_full_support(lam, box)
    chi = FormalCharacter({w: dims[nu] for w, nu in below}, box, complete)
    if chi.coefficient(lam) != 1:
        raise ExactnessError(f"L({lam}) has multiplicity {chi.coefficient(lam)} at its highest weight")
    return chi


def full_simple_character(lam: Weight, p: int, *, guard: SizeGuard | None = None) -> FormalCharacter:
    """Complete character of the finite-dimensional simple at dominant lam."""
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return simple_character(lam, p, full_support_box(lam), guard=guard)


def decomposition_numbers(
    mu: Weight,
    p: int,
    depth: int,
    *,
    guard: SizeGuard | None = None,
) -> dict[Weight, int]:
    """One row [Delta(mu) : L(lam)], for every lam in the down-set of mu to
    ``depth``, by peeling simple characters on that box."""
    require_prime(p)
    if type(depth) is not int or depth < 0:
        raise ModcatoError(f"depth={depth!r} must be a nonnegative int")
    rs = mu.system
    box = TruncationBox.make((mu,), depth)
    payload = f"mu={_csv(mu.coords)};depth={depth}"
    cached = cache_store.get_value("decomp_row", rs.cartan_type, p, payload)
    if cached is not None:
        return {
            rs.weight(*coords): v for coords, v in json.loads(cached)
        }
    chi = verma_character(mu, box)

    row = peel_decompose(chi, lambda w: _simple_char(w, p, box, guard), box.weights())
    for w, a in row.items():
        if a < 0:
            raise ExactnessError(
                f"negative multiplicity {a} at {w} while decomposing {mu}"
            )
    if row.get(mu) != 1:
        raise ExactnessError(f"row of {mu} has multiplicity {row.get(mu)} at its own head")
    cache_store.put_value(
        "decomp_row",
        rs.cartan_type,
        p,
        payload,
        json.dumps(sorted([list(w.coords), v] for w, v in row.items())),
    )
    return row


def build_decomposition_table(
    weights: Iterable[Weight],
    p: int,
    *,
    depth: int | None = None,
    guard: SizeGuard | None = None,
) -> DecompositionTable:
    """Region-bounded table [Delta(mu) : L(lam)] over a locally closed set."""
    if depth is not None and depth < 0:
        raise ModcatoError(f"depth={depth} must be nonnegative")
    weights = sorted(set(weights), key=lambda w: w.coords)
    if not weights:
        raise ValueError("table region must be nonempty")
    rs = weights[0].system
    if not is_locally_closed(weights):
        raise ValueError("table region must be locally closed")
    entries: dict[tuple[Weight, Weight], int] = {}
    for mu in weights:
        gaps = [
            rs.to_root_vector(mu - lam).height()
            for lam in weights
            if leq(lam, mu)
        ]
        row_depth = max(gaps)
        if depth is not None:
            row_depth = max(row_depth, depth)
        row = decomposition_numbers(mu, p, row_depth, guard=guard)
        for lam in weights:
            if leq(lam, mu) and row.get(lam, 0):
                entries[(mu, lam)] = row[lam]
    return DecompositionTable(p, tuple(weights), entries)


def validate_table_consistency(
    table: DecompositionTable, *, guard: SizeGuard | None = None
) -> Report:
    """Character identity dim Delta(mu)_nu = sum_lam [Delta(mu):L(lam)] dim L(lam)_nu."""
    report = Report(f"character consistency over {len(table.region)} weights, p={table.p}")
    rs = table.region[0].system
    for mu in table.region:
        below = [nu for nu in table.region if leq(nu, mu)]
        if not below:
            continue
        depth = max(rs.to_root_vector(mu - nu).height() for nu in below)
        box = TruncationBox.make((mu,), depth)
        delta = verma_character(mu, box)
        for nu in below:
            lhs = delta.coefficient(nu)
            rhs = 0
            for lam in table.region:
                coeff = table.entry(mu, lam)
                if coeff and leq(nu, lam):
                    rhs += coeff * simple_character(lam, table.p, box, guard=guard).coefficient(nu)
            report.record(
                f"dim Delta({mu.coords})_{nu.coords}", lhs, rhs
            )
    return report


def _flag_tensor_char(V: FlagVector, chi: FormalCharacter) -> FlagVector:
    out: dict[Weight, int] = {}
    for lam, m in V.mult.items():
        for s, c in chi.items():
            w = lam + s
            out[w] = out.get(w, 0) + m * c
    return FlagVector(out)


def tensor_flag(
    V: FlagVector,
    gamma: Weight,
    p: int,
    box: TruncationBox | None = None,
    *,
    guard: SizeGuard | None = None,
) -> FlagVector:
    """Flag of M (x) L(gamma): convolve multiplicities with dim L(gamma)_*."""
    if not is_dominant(gamma):
        raise ValueError(f"{gamma} is not dominant")
    if box is None:
        box = full_support_box(gamma)
    elif not _covers_full_support(gamma, box):
        raise BoxMarginError("box does not cover the full support of L(gamma)")
    chi = simple_character(gamma, p, box, guard=guard)
    out = _flag_tensor_char(V, chi)
    if out.total() != V.total() * sum(c for _, c in chi.items()):
        raise ExactnessError(f"flag total is not multiplied by dim L({gamma})")
    return out


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
    out = {}
    for mu in J.up_set(lam):
        rv = rs.to_root_vector(mu - lam)
        out[mu] = kostant_partition(rv)
    flag = FlagVector(out)
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
    truncation to J, through reciprocity: [Delta(mu) : L(lam)] for mu in J."""
    if not J.contains(lam):
        raise ValueError(f"{lam} does not lie in the open set")
    rs = lam.system
    out = {}
    for mu in J.up_set(lam):
        gap = rs.to_root_vector(mu - lam).height()
        row = decomposition_numbers(mu, p, gap, guard=guard)
        val = row.get(lam, 0)
        if val:
            out[mu] = val
    flag = FlagVector(out)
    if flag.get(lam) != 1:
        raise ExactnessError(f"flag has multiplicity {flag.get(lam)} at its head {lam}")
    return flag


def hom_dim_projective(
    lam: Weight,
    J: OpenSet,
    chi_M: FormalCharacter,
    p: int,
    *,
    guard: SizeGuard | None = None,
) -> int:
    """Multiplicity [M : L(lam)], read off as a Hom-space dimension from the
    projective cover; computed by peeling chi_M into simple characters."""
    require_prime(p)
    if not J.contains(lam):
        raise ValueError(f"{lam} does not lie in the open set")
    box = chi_M.box
    coeffs = peel_decompose(chi_M, lambda w: _simple_char(w, p, box, guard), box.weights())
    negative = {w: a for w, a in coeffs.items() if a < 0}
    if negative:
        raise InvalidCharacterError(
            f"input is not a genuine character; negative multiplicities {negative}"
        )
    return coeffs.get(lam, 0)


def steinberg_digits(lam: Weight, p: int) -> tuple[Weight, ...]:
    """Base-p digit weights of a dominant weight, all coordinates in [0, p)."""
    require_prime(p)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    rs = lam.system
    ndigits = 1
    for c in lam.coords:
        d = 1
        while c >= p**d:
            d += 1
        ndigits = max(ndigits, d)
    return tuple(
        rs.weight(*(((c // p**j) % p) for c in lam.coords)) for j in range(ndigits)
    )


def steinberg_check(
    lam: Weight,
    p: int,
    box: TruncationBox,
    *,
    guard: SizeGuard | None = None,
) -> tuple[bool, FormalCharacter]:
    """Compare ch L(lam) with the product of twisted digit characters.

    Returns (equal on box, difference character on box).
    """
    lhs = simple_character(lam, p, box, guard=guard)
    digits = steinberg_digits(lam, p)
    rs = lam.system
    zero = rs.zero_weight()
    prod = char_single(zero, TruncationBox.make((zero,), 0), complete=True)
    for i, digit in enumerate(digits):
        factor = full_simple_character(digit, p, guard=guard)
        if i:
            factor = frobenius_twist_char(factor, i, p)
        new_box = TruncationBox.make(
            (prod.box.ceiling[0] + factor.box.ceiling[0],),
            prod.box.depth + factor.box.depth,
        )
        prod = char_multiply(prod, factor, new_box)
    ok = lhs.same_on(prod, box)
    diff = char_add(lhs.restrict(box), char_scale(prod.restrict(box), -1))
    return ok, diff
