"""Truncated formal characters.

A character is a table: a weight -> integer dict with the
:class:`TruncationBox` that records where it is guaranteed correct, so
infinite-support characters (Verma characters and their relatives) only
exist relative to a box.  A box is one top weight and a depth; its members
are top - nu for the nonnegative simple-root vectors nu of height at most
the depth, in one table keyed by nu.  Nothing adds or multiplies
characters; a sum or twist is dict arithmetic on ``coeffs``, wrapped in a
new character.

Every character walks the lattice through :meth:`TruncationBox.below`,
which reads the members below a weight off the table by offset, without a
scan: Verma characters read Kostant partition counts for it from one
:func:`~modcato.rootdata.kostant_table` at the box depth, Weyl characters
sum those counts with signs over the dot-action orbit, and
:func:`peel_decompose` reads its triangular basis as a table on the
character's own box: ``basis(mu, nus)`` gives ``{nu: coefficient}`` for the
simple-root coordinates nu of ``box.below(mu)`` and nothing else.

Boxes and characters are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Callable, Mapping

from .errors import BoxMarginError, ExactnessError
from .rootdata import (
    RootSystem,
    Weight,
    dot_action,
    height_drop,
    is_dominant,
    kostant_table,
)


@dataclass(frozen=True)
class TruncationBox:
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

    def contains(self, w: Weight) -> bool:
        nu = self.system.to_root_vector(self.top - w)
        return nu is not None and min(nu) >= 0 and sum(nu) <= self.depth

    @cached_property
    def _members(self) -> dict[tuple[int, ...], Weight]:
        # offset nu -> top - C·nu, in the coordinate order of the weights.
        rs = self.system
        members = {nu: self.top - rs.weight_of(nu) for nu in rs.root_vectors_up_to_height(self.depth)}
        return dict(sorted(members.items(), key=lambda kv: kv[1].coords))

    def weights(self) -> tuple[Weight, ...]:
        """All box members, sorted by coordinates."""
        return tuple(self._members.values())

    def below(self, lam: Weight) -> list[tuple[Weight, tuple[int, ...]]]:
        """Box members w <= lam, sorted, each with the simple-root
        coordinates of lam - w."""
        gap = self.system.to_root_vector(self.top - lam)
        if gap is None:
            return []
        # The offsets nu = top - w with lam - w = nu - gap >= 0 are low + e
        # for the nonnegative e of height at most depth - |low|.
        low = [max(g, 0) for g in gap]
        out = []
        for e in self.system.root_vectors_up_to_height(self.depth - sum(low)):
            nu = tuple(map(add, low, e))
            out.append((self._members[nu], tuple(map(sub, nu, gap))))
        return sorted(out, key=lambda pair: pair[0].coords)


class FormalCharacter:
    """Finite weight -> integer map together with its truncation box."""

    __slots__ = ("coeffs", "box")

    def __init__(self, coeffs: Mapping[Weight, int], box: TruncationBox):
        cleaned = {w: c for w, c in coeffs.items() if c != 0}
        for w in cleaned:
            if not box.contains(w):
                raise ValueError(f"coefficient at {w} lies outside the truncation box")
        self.coeffs: dict[Weight, int] = cleaned
        self.box = box

    def coefficient(self, w: Weight) -> int:
        return self.coeffs.get(w, 0)

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(self.coeffs, key=lambda w: w.coords))

    def items(self):
        return self.coeffs.items()

    def serialize(self) -> list[list]:
        return [[list(w.coords), c] for w, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].coords)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalCharacter)
            and self.coeffs == other.coeffs
            and self.box == other.box
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.box))

    def __repr__(self) -> str:
        parts = " + ".join(f"{c}*e{w.coords}" for w, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].coords))
        return f"FormalCharacter({parts or '0'})"


def verma_character(lam: Weight, box: TruncationBox) -> FormalCharacter:
    """Character of the Verma with highest weight ``lam``: partition counts."""
    if not box.contains(lam):
        raise BoxMarginError(f"box does not contain {lam}")
    table = kostant_table(lam.system, box.depth)
    return FormalCharacter({w: table[nu] for w, nu in box.below(lam)}, box)


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
    out: dict[Weight, int] = {}
    for w in rs.weyl_group:
        for x, nu in box.below(dot_action(w, lam)):
            out[x] = out.get(x, 0) + w.sign * table[nu]
    chi = FormalCharacter(out, box)
    if chi.coefficient(lam) != 1:
        raise ExactnessError(f"Weyl character of {lam} has top coefficient {chi.coefficient(lam)}")
    if sum(chi.coeffs.values()) != weyl_dimension(lam):
        raise ExactnessError(f"Weyl character of {lam} disagrees with the dimension formula")
    return chi


def peel_decompose(
    chi: FormalCharacter,
    basis: Callable[[Weight, list[tuple[int, ...]]], Mapping[tuple[int, ...], int]],
) -> dict[Weight, int]:
    """Expand ``chi`` in a triangular basis over every weight of its box.

    ``basis(mu, nus)`` gives the basis character labelled mu as
    ``{nu: coefficient of e^(mu - nu)}``.  It is asked only for the
    simple-root coordinates nu of ``chi.box.below(mu)``, must answer every
    one of them, and must give 1 at nu = 0.  Box weights are peeled by
    non-increasing height with a lexicographic tie-break, so each weight's
    residual is final when its turn comes and none is left at the end.
    """
    box = chi.box
    order = sorted(box._members.items(), key=lambda kv: (sum(kv[0]), kv[1].coords))
    zero = (0,) * box.system.rank
    residual = dict(chi.coeffs)
    out: dict[Weight, int] = {}
    for _, mu in order:
        a = residual.get(mu, 0)
        if a == 0:
            continue
        below = box.below(mu)
        dims = basis(mu, [nu for _, nu in below])
        if dims[zero] != 1:
            raise ValueError(f"basis character at {mu} does not have leading coefficient 1")
        out[mu] = a
        for w, nu in below:
            residual[w] = residual.get(w, 0) - a * dims[nu]
    return out
