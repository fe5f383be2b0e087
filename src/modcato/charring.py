"""Truncated formal characters.

A character is a table: a weight -> integer dict with the
:class:`TruncationBox` that records where it is guaranteed correct, so
infinite-support characters (Verma characters and their relatives) only
exist relative to a box.  Nothing adds or multiplies characters; a sum or
twist is dict arithmetic on ``coeffs``, wrapped in a new character.

Every character walks the lattice through :meth:`TruncationBox.below`:
Verma characters read Kostant partition counts off it, Weyl characters sum
those counts with signs over the dot-action orbit, and
:func:`peel_decompose` reads its triangular basis as a table on the
character's own box: ``basis(mu, nus)`` gives ``{nu: coefficient}`` for the
simple-root coordinates nu of ``box.below(mu)`` and nothing else.

Boxes and characters are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Iterable, Mapping

from .errors import BoxMarginError, ExactnessError
from .rootdata import (
    RootSystem,
    RootVector,
    Weight,
    dot_action,
    height_drop,
    is_dominant,
    kostant_partition,
)


@dataclass(frozen=True)
class TruncationBox:
    """Down-region below a finite ceiling, cut off at a fixed height depth.

    A weight mu belongs to the box when mu <= c for some ceiling weight c
    with height(c - mu) <= depth.
    """

    ceiling: tuple[Weight, ...]
    depth: int

    @staticmethod
    def make(ceiling: Iterable[Weight], depth: int) -> "TruncationBox":
        ceiling = tuple(sorted(set(ceiling), key=lambda w: w.coords))
        if not ceiling:
            raise ValueError("box ceiling must be nonempty")
        if depth < 0:
            raise ValueError("box depth must be nonnegative")
        return TruncationBox(ceiling, depth)

    @property
    def system(self) -> RootSystem:
        return self.ceiling[0].system

    # Membership works on the integer images adj(C)·w of weights: c - w is a
    # nonnegative root vector of height <= depth iff every entry of
    # adj(C)·(c - w) is a nonnegative multiple of det(C) summing to at most
    # depth·det(C).  The map is linear, so images are computed once per box.

    @cached_property
    def _scaled_ceiling(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.system.scaled_root_coords(c) for c in self.ceiling)

    def contains(self, w: Weight) -> bool:
        x = self.system.scaled_root_coords(w)
        d = self.system.cartan_det
        top = self.depth * d
        for c in self._scaled_ceiling:
            diff = [a - b for a, b in zip(c, x)]
            if min(diff) >= 0 and sum(diff) <= top and not any(v % d for v in diff):
                return True
        return False

    @cached_property
    def _cosets(self) -> dict[tuple[int, ...], list[tuple[Weight, tuple[int, ...]]]]:
        # Members with their images, sorted and grouped by the image modulo
        # det(C): w and lam differ by a root-lattice vector iff their residues
        # agree.  The member c - C·nu has image adj(C)·c - det(C)·nu.
        rs = self.system
        d = rs.cartan_det
        seen = {}
        for c, top in zip(self.ceiling, self._scaled_ceiling):
            for rv in rs.root_vectors_up_to_height(self.depth):
                nu = rv.coeffs
                coords = tuple([a - sum(map(mul, row, nu)) for a, row in zip(c.coords, rs.cartan_matrix)])
                if coords not in seen:
                    seen[coords] = (Weight(rs, coords), tuple([t - d * n for t, n in zip(top, nu)]))
        out: dict = {}
        for coords in sorted(seen):
            w, x = seen[coords]
            out.setdefault(tuple([v % d for v in x]), []).append((w, x))
        return out

    def weights(self) -> tuple[Weight, ...]:
        """All box members, sorted by coordinates."""
        return tuple(sorted((w for members in self._cosets.values() for w, _ in members), key=lambda w: w.coords))

    def below(self, lam: Weight) -> list[tuple[Weight, tuple[int, ...]]]:
        """Box members w <= lam, sorted, each with the simple-root
        coordinates of lam - w."""
        top = self.system.scaled_root_coords(lam)
        d = self.system.cartan_det
        out = []
        for w, x in self._cosets.get(tuple([v % d for v in top]), ()):
            nu = [(a - b) // d for a, b in zip(top, x)]
            if min(nu) >= 0:
                out.append((w, tuple(nu)))
        return out


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
        raise BoxMarginError(f"box ceiling region does not contain {lam}")
    rs = lam.system
    out = {}
    for w, nu in box.below(lam):
        p = kostant_partition(RootVector(rs, nu))
        if p:
            out[w] = p
    return FormalCharacter(out, box)


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
    box = TruncationBox.make((lam,), height_drop(lam))
    out: dict[Weight, int] = {}
    for w in rs.weyl_group:
        for x, nu in box.below(dot_action(w, lam)):
            out[x] = out.get(x, 0) + w.sign * kostant_partition(RootVector(rs, nu))
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
    rs = box.system
    order = sorted(box.weights(), key=lambda w: (-sum(rs.scaled_root_coords(w)), w.coords))
    zero = (0,) * rs.rank
    residual = dict(chi.coeffs)
    out: dict[Weight, int] = {}
    for mu in order:
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
