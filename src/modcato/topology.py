"""The order topology on the weight lattice.

Open sets are downward closed; only down-closures of finite ceilings are
representable here, which makes every open set quasi-bounded by
construction.  Locally closed sets are finite and order-convex.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .errors import ExactnessError, PredicateError, require_prime
from .record import Record
from .rootdata import Weight, leq


class OpenSet(NamedTuple):
    """Down-closure of a finite ceiling; membership is mu <= some ceiling."""

    ceiling: tuple[Weight, ...]

    @staticmethod
    def down_closure(weights) -> "OpenSet":
        weights = list(weights)
        if not weights:
            raise ValueError("open sets need a nonempty ceiling")
        maximal = [
            w for w in weights if not any(leq(w, v) and w != v for v in weights)
        ]
        unique = sorted(set(maximal), key=lambda w: w.coords)
        return OpenSet(tuple(unique))

    @property
    def system(self):
        return self.ceiling[0].system

    def contains(self, w: Weight) -> bool:
        return any(leq(w, c) for c in self.ceiling)

    def up_set(self, lam: Weight) -> tuple[Weight, ...]:
        """The finite set of members above lam (quasi-boundedness): the
        union of the intervals [lam, c] over the ceiling."""
        found = {w.coords: w for c in self.ceiling for w in interval(lam, c)}
        return tuple(found[c] for c in sorted(found))

    def translate(self, gamma: Weight) -> "OpenSet":
        return OpenSet(tuple(c + gamma for c in self.ceiling))

    def serialize(self) -> list[list[int]]:
        return sorted(list(c.coords) for c in self.ceiling)


class CarvedOpen(NamedTuple):
    """The open complement of K inside its down-closure J, as a predicate."""

    inside: OpenSet
    removed: "LocallyClosedSet"

    def contains(self, w: Weight) -> bool:
        return self.inside.contains(w) and w not in self.removed.elements

    def translate(self, gamma: Weight) -> "CarvedOpen":
        return CarvedOpen(self.inside.translate(gamma), shift_set(self.removed, gamma))


class LocallyClosedSet(Record):
    """Finite order-convex weight set.  :meth:`make` is the one place that
    checks convexity; :func:`shift_set` translates a checked set."""

    _fields = ("elements",)
    __slots__ = _fields + ("__dict__",)  # the dict holds ``sorted`` once read

    def __init__(self, elements: frozenset[Weight]):
        object.__setattr__(self, "elements", elements)

    @staticmethod
    def make(weights) -> "LocallyClosedSet":
        weights = frozenset(weights)
        if not weights:
            raise ValueError("locally closed sets here are nonempty")
        if not is_locally_closed(weights):
            raise ValueError("set is not locally closed (an interval leaks)")
        return LocallyClosedSet(weights)

    @cached_property
    def sorted(self) -> tuple[Weight, ...]:
        return tuple(sorted(self.elements, key=lambda w: w.coords))

    def __iter__(self):
        return iter(self.sorted)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, w: Weight) -> bool:
        return w in self.elements

    def serialize(self) -> list[list[int]]:
        return [list(w.coords) for w in self.sorted]


def interval(lam: Weight, nu: Weight) -> tuple[Weight, ...]:
    """The finite order interval [lam, nu]; empty unless lam <= nu."""
    rs = lam.system
    gap = rs.to_root_vector(nu - lam)
    if gap is None or min(gap) < 0:
        return ()
    vectors = itertools.product(*(range(g + 1) for g in gap))
    out = tuple(lam + rs.weight_of(v) for v in vectors)
    return tuple(sorted(out, key=lambda w: w.coords))


def is_locally_closed(weights) -> bool:
    """Order convexity: no lam + alpha_i outside the set lies below a member.

    Simple-root steps suffice: if lam < mu < nu with lam, nu inside and mu
    outside, a chain of simple-root steps from lam through mu up to nu leaves
    the set at some step lam' -> lam' + alpha_i, and lam' + alpha_i <= nu.
    """
    weights = set(weights)
    steps = (lam + lam.system.weight_of(a) for lam in weights for a in lam.system.simple_roots)
    return not any(w not in weights and any(leq(w, nu) for nu in weights) for w in steps)


def carve_J_Jprime(K: LocallyClosedSet) -> tuple[OpenSet, CarvedOpen]:
    """J = down-closure of K; J' = J minus K, open because K is convex."""
    J = OpenSet.down_closure(K.sorted)
    Jprime = CarvedOpen(J, K)
    _assert_open_on_sample(Jprime, K)
    return J, Jprime


def _assert_open_on_sample(Jprime: CarvedOpen, K: LocallyClosedSet) -> None:
    # Openness can only fail just below K, so K and its one-root-deep
    # neighbours are a sufficient witness set for the finite data we ever
    # touch.  K is convex (make and shift_set keep it so): the intervals
    # between its members lie in K.
    rs = K.sorted[0].system
    sample = set(K.sorted) | {a - rs.weight_of(r) for a in K.sorted for r in rs.positive_roots}
    for hi in sample:
        if not Jprime.contains(hi):
            continue
        for lo in sample:
            if leq(lo, hi) and Jprime.inside.contains(lo) and not Jprime.contains(lo):
                raise ExactnessError("carved complement failed openness sample")


def periodicity_condition(K: LocallyClosedSet, p: int, l: int) -> bool:
    """No two elements of K differ by p^l times a positive root-lattice vector."""
    require_prime(p)
    rs = K.sorted[0].system
    factor = p**l
    for k1 in K.sorted:
        for k2 in K.sorted:
            nu = rs.to_root_vector(k1 - k2)
            if nu is None or min(nu) < 0 or not any(nu):
                continue
            if all(c % factor == 0 for c in nu):
                return False
    return True


def min_l(K: LocallyClosedSet, p: int) -> int:
    """Smallest l >= 1 making the periodicity condition hold; always exists."""
    l = 1
    while not periodicity_condition(K, p, l):
        l += 1
    return l


def shift_set(K: LocallyClosedSet, gamma: Weight) -> LocallyClosedSet:
    # Translation is an order isomorphism, so convexity is preserved.
    return LocallyClosedSet(frozenset(w + gamma for w in K.elements))


def _check_downward(pred, support, message: str) -> None:
    # A pair lo <= hi can break downward closure only with pred(hi) and not
    # pred(lo), so pred is read once per weight and leq only on such pairs.
    marked = [(w, bool(pred(w))) for w in support]
    for hi, hi_in in marked:
        for lo, lo_in in marked:
            if hi_in and not lo_in and leq(lo, hi):
                raise PredicateError(message.format(lo=lo, hi=hi))


def validate_open_predicate(pred, support) -> None:
    """Check a membership predicate is downward closed on a finite sample."""
    _check_downward(pred, support, "predicate is not open: contains {hi} but not {lo} below it")


def validate_closed_predicate(pred, support) -> None:
    """Check a membership predicate is upward closed on a finite sample: its
    complement must be downward closed on the same pairs."""
    _check_downward(lambda w: not pred(w), support,
                    "predicate is not closed: contains {lo} but not {hi} above it")
