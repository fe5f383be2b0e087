"""Truncated formal characters.

A character is a table on a :class:`TruncationBox`, which records where
it is guaranteed correct, so infinite-support characters (Verma characters
and their relatives) only exist relative to a box.  A box is one top
weight and a depth; its members are top - nu for the nonnegative
simple-root vectors nu of height at most the depth, so each member is
named by its offset nu, and a character is an offset -> integer dict.
A ``Weight`` is built only where a caller asks for one: ``coeffs``,
``serialize`` and the peeled weights.  Nothing adds or multiplies
characters; a sum or twist is dict arithmetic on ``offsets`` (or on
``coeffs``, keyed back with :meth:`TruncationBox.offset`), wrapped in a
new character.

Verma and Weyl characters walk the lattice through :meth:`TruncationBox.below`,
which gives the offsets of the members below a weight without a scan:
Verma characters read Kostant partition counts for it from one
:func:`~modcato.rootdata.kostant_table` at the box depth, and Weyl characters
sum those counts with signs over the dot-action orbit.  :func:`peel` works
on offsets from one top alone and builds no ``Weight``: it reads its
triangular basis as a sparse table by height, ``basis(m, height)`` for the
basis character at offset m, subtracts those entries alone, at the offsets
it peels, and returns offsets; :func:`peel_decompose` names them by weight.

Boxes and characters are immutable values.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter, sub
from typing import Callable, Mapping, NamedTuple

from .errors import BoxMarginError, ExactnessError
from .rootdata import (
    RootSystem,
    Weight,
    dot_action,
    height_drop,
    is_dominant,
    kostant_table,
)


class TruncationBox(NamedTuple):
    """The weights w below one top weight whose offset nu = top - w, in
    simple-root coordinates, is nonnegative of height at most depth."""

    top: Weight
    depth: int

    @staticmethod
    def make(top: Weight, depth: int) -> "TruncationBox":
        if not isinstance(top, Weight):
            raise ValueError(f"box top {top!r} is not a Weight")
        if type(depth) is not int or depth < 0:
            raise ValueError(f"box depth {depth!r} must be a nonnegative int")
        return TruncationBox(top, depth)

    @property
    def system(self) -> RootSystem:
        return self.top.system

    def offset(self, w: Weight) -> tuple[int, ...] | None:
        """The offset top - w of a member w, or None when w is not one."""
        nu = self.system.to_root_vector(self.top - w)
        return nu if nu is not None and min(nu) >= 0 and sum(nu) <= self.depth else None

    def contains(self, w: Weight) -> bool:
        return self.offset(w) is not None

    def weight(self, nu: tuple[int, ...]) -> Weight:
        """The member top - C·nu at offset nu."""
        return self.top - self.system.weight_of(nu)

    def weights(self) -> tuple[Weight, ...]:
        """All box members, sorted by coordinates."""
        members = map(self.weight, self.system.root_vectors_up_to_height(self.depth))
        return tuple(sorted(members, key=lambda w: w.coords))

    def below(self, lam: Weight) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(m, nu) for each member w <= lam: its offset m = top - w and
        nu = lam - w, both in simple-root coordinates, with m in the order
        of ``root_vectors_up_to_height``."""
        gap = self.system.to_root_vector(self.top - lam)
        if gap is None:
            return []
        # The offsets m with lam - w = m - gap >= 0 are low + e for the
        # nonnegative e of height at most depth - |low|.
        low = [max(g, 0) for g in gap]
        out = []
        for e in self.system.root_vectors_up_to_height(self.depth - sum(low)):
            m = tuple(map(add, low, e))
            out.append((m, tuple(map(sub, m, gap))))
        return out


class FormalCharacter:
    """Finite offset -> integer map on a truncation box: the coefficient of
    the member top - C·nu at each offset nu."""

    __slots__ = ("offsets", "box")

    def __init__(self, offsets: Mapping[tuple[int, ...], int], box: TruncationBox):
        rank = box.system.rank
        for nu in offsets:
            if not (type(nu) is tuple and len(nu) == rank and all(type(a) is int for a in nu)
                    and min(nu) >= 0 and sum(nu) <= box.depth):
                raise ValueError(f"{nu!r} is not the offset of a truncation box member")
        self.offsets: dict[tuple[int, ...], int] = {nu: c for nu, c in offsets.items() if c != 0}
        self.box = box

    @property
    def coeffs(self) -> dict[Weight, int]:
        """The same coefficients keyed by weight, in a new dict."""
        return {self.box.weight(nu): c for nu, c in self.offsets.items()}

    def coefficient(self, w: Weight) -> int:
        return self.offsets.get(self.box.offset(w), 0)

    def items(self):
        return self.coeffs.items()

    def serialize(self) -> list[list]:
        return sorted([list(self.box.weight(nu).coords), c] for nu, c in self.offsets.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalCharacter)
            and self.offsets == other.offsets
            and self.box == other.box
        )

    def __hash__(self):
        return hash((frozenset(self.offsets.items()), self.box))

    def __repr__(self) -> str:
        parts = " + ".join(f"{c}*e{tuple(coords)}" for coords, c in self.serialize())
        return f"FormalCharacter({parts or '0'})"


def verma_character(lam: Weight, box: TruncationBox) -> FormalCharacter:
    """Character of the Verma with highest weight ``lam``: partition counts."""
    if not box.contains(lam):
        raise BoxMarginError(f"box does not contain {lam}")
    table = kostant_table(lam.system, box.depth)
    return FormalCharacter({m: table[nu] for m, nu in box.below(lam)}, box)


def weyl_dimension(lam: Weight) -> int:
    """Product formula for the dimension of the characteristic-0 simple."""
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    rs = lam.system
    num = 1
    den = 1
    for k in range(len(rs.positive_roots)):
        num *= rs.root_pairing(lam + rs.rho, k)
        den *= rs.root_pairing(rs.rho, k)
    if num % den:
        raise ExactnessError(f"Weyl dimension product of {lam} is not integral")
    return num // den


def weyl_character(lam: Weight) -> FormalCharacter:
    """Character of the Weyl module with highest weight lam, as the
    alternating Verma sum ch W(lam) = sum_w sign(w) ch M(w.lam) on the box
    of lam's Weyl-orbit hull, which holds its whole support."""
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    rs = lam.system
    box = TruncationBox.make(lam, height_drop(lam))
    table = kostant_table(rs, box.depth)
    out: dict[tuple[int, ...], int] = {}
    for w in rs.weyl_group:
        for m, nu in box.below(dot_action(w, lam)):
            out[m] = out.get(m, 0) + w.sign * table[nu]
    chi = FormalCharacter(out, box)
    if chi.coefficient(lam) != 1:
        raise ExactnessError(f"Weyl character of {lam} has top coefficient {chi.coefficient(lam)}")
    if sum(chi.offsets.values()) != weyl_dimension(lam):
        raise ExactnessError(f"Weyl character of {lam} disagrees with the dimension formula")
    return chi


def peel(
    counts: Mapping[tuple[int, ...], int],
    basis: Callable[[tuple[int, ...], int], Mapping[tuple[int, ...], int]],
) -> dict[tuple[int, ...], int]:
    """Expand ``counts``, the coefficient of e^(top - m) at each offset m of
    an order-convex set of offsets that holds 0, zeros included, in a
    triangular basis, as ``{m: coefficient of the basis character at
    top - m}``.  ``basis(m, height)`` gives the basis character labelled
    top - m as ``{nu: coefficient of e^(top - m - nu)}``, keyed by offsets:
    every nonzero one up to ``height``, the highest offset's height less
    m's, and 1 at nu = 0.  Offsets are peeled by height, then by
    reverse-lexicographic offset (increasing coordinates in A1, A2 and B2),
    and a subtraction at an offset that is not a key of ``counts`` is
    skipped; the set is convex, so each residual is final at its turn.
    """
    depth = max(map(sum, counts))
    zero = (0,) * len(next(iter(counts)))
    residual = dict(counts)
    out: dict[tuple[int, ...], int] = {}
    for m in sorted(sorted(counts, reverse=True), key=sum):
        a = residual[m]
        if a == 0:
            continue
        dims = basis(m, depth - sum(m))
        if dims.get(zero) != 1:
            raise ValueError(f"basis character at offset {m} does not have leading coefficient 1")
        out[m] = a
        # m + nu for every key nu of dims, added a coordinate column at a time
        shifted = zip(*[map(add, map(itemgetter(i), dims), repeat(c)) for i, c in enumerate(m)])
        for m2, d in zip(shifted, dims.values()):
            if m2 in residual:
                residual[m2] -= a * d
    return out


def peel_decompose(
    chi: FormalCharacter,
    basis: Callable[[Weight, int], Mapping[tuple[int, ...], int]],
) -> dict[Weight, int]:
    """Expand ``chi`` in a triangular basis: :func:`peel` over its box,
    after checking that each key ``basis`` returns is ``rank`` nonnegative
    ints and that its coefficient at 0 is 1."""
    box = chi.box
    rank = box.system.rank
    zero = (0,) * rank

    def checked(m: tuple[int, ...], height: int) -> Mapping[tuple[int, ...], int]:
        mu = box.weight(m)
        dims = basis(mu, height)
        for nu in dims:
            if not (type(nu) is tuple and len(nu) == rank and all(type(c) is int and c >= 0 for c in nu)):
                raise ValueError(f"basis character at {mu} has key {nu!r}, not {rank} nonnegative ints")
        if dims.get(zero) != 1:
            raise ValueError(f"basis character at {mu} does not have leading coefficient 1")
        return dims

    counts = dict.fromkeys(box.system.root_vectors_up_to_height(box.depth), 0)
    counts.update(chi.offsets)
    return {box.weight(m): a for m, a in peel(counts, checked).items()}
