"""The order topology on the weight lattice.

Open sets are downward closed; only down-closures of finite ceilings are
representable here, which makes every open set quasi-bounded by
construction.  Locally closed sets are finite and order-convex.

Order tests run on integer offsets, not on weights.
:meth:`~modcato.rootdata.RootSystem.coset_offset` names each weight by its
root-lattice coset, whose base is the same for every set, and its offset
nu from that base in simple-root coordinates, so mu <= lam exactly when
the cosets agree and nu(mu) <= nu(lam) componentwise.  A
:class:`LocallyClosedSet` keeps its members' offsets by coset, and an
:class:`OpenSet` its ceiling's; a ``Weight`` is built only for what a
function returns.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import ge, sub
from typing import NamedTuple

from .errors import ExactnessError, PredicateError, require_prime
from .record import Record
from .rootdata import Weight, _check_same


def _cosets(weights) -> dict[tuple[int, ...], dict[tuple[int, ...], Weight]]:
    """{coset: {offset: weight}}, weights in the order given; the weights
    must share one root system (ValueError otherwise)."""
    out: dict = {}
    rs = None
    for w in weights:
        if rs is None:
            rs = w.system
        _check_same(w.system, rs)
        coset, nu = rs.coset_offset(w.coords)
        out.setdefault(coset, {})[nu] = w
    return out


def _under(nu: tuple[int, ...], tops) -> bool:
    """nu <= some offset of ``tops``, componentwise."""
    return any(all(map(ge, top, nu)) for top in tops)


def _maxima(offsets) -> list[tuple[int, ...]]:
    """The maximal members of a finite set of offsets.  An offset below
    another has a lower height, so visiting by height, highest first, meets
    every maximal one before anything it bounds."""
    tops: list[tuple[int, ...]] = []
    for nu in sorted(offsets, key=sum, reverse=True):
        if not _under(nu, tops):
            tops.append(nu)
    return tops


def _lower_boxes(rs, boxes) -> tuple[Weight, ...]:
    """The weights top - C·v for each pair (top coordinates, gap) of
    ``boxes`` and each root vector 0 <= v <= gap, sorted by coordinates."""
    coords = sorted({rs.lower(top, v) for top, gap in boxes
                     for v in itertools.product(*(range(g + 1) for g in gap))})
    return tuple(Weight(rs, c) for c in coords)


class OpenSet(Record):
    """Down-closure of a finite ceiling; membership is mu <= some ceiling."""

    _fields = ("ceiling",)
    __slots__ = _fields + ("__dict__",)  # the dict holds ``tops`` once read

    def __init__(self, ceiling: tuple[Weight, ...]):
        object.__setattr__(self, "ceiling", ceiling)

    @staticmethod
    def down_closure(weights) -> "OpenSet":
        cosets = _cosets(weights)
        if not cosets:
            raise ValueError("open sets need a nonempty ceiling")
        maximal = [members[nu] for members in cosets.values() for nu in _maxima(members)]
        return OpenSet(tuple(sorted(maximal, key=lambda w: w.coords)))

    @property
    def system(self):
        return self.ceiling[0].system

    @cached_property
    def tops(self) -> dict[tuple[int, ...], dict[tuple[int, ...], Weight]]:
        """The ceiling by coset, as {offset: weight}."""
        return _cosets(self.ceiling)

    def _offset(self, w: Weight) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rs = self.system
        _check_same(w.system, rs)
        return rs.coset_offset(w.coords)

    def contains(self, w: Weight) -> bool:
        coset, nu = self._offset(w)
        return _under(nu, self.tops.get(coset, ()))

    def up_set(self, lam: Weight) -> tuple[Weight, ...]:
        """The finite set of members above lam (quasi-boundedness): the
        union of the intervals [lam, c] over the ceiling."""
        coset, low = self._offset(lam)
        boxes = [(c.coords, tuple(map(sub, top, low))) for top, c in self.tops.get(coset, {}).items()]
        return _lower_boxes(lam.system, [(top, gap) for top, gap in boxes if min(gap) >= 0])

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
    __slots__ = _fields + ("__dict__",)  # the dict holds ``sorted`` and ``cosets`` once read

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

    @cached_property
    def cosets(self) -> dict[tuple[int, ...], dict[tuple[int, ...], Weight]]:
        """{coset: {offset: member}}, members in coordinate order."""
        return _cosets(self.sorted)

    def below(self, mu: Weight) -> dict[tuple[int, ...], Weight]:
        """{mu - lam in simple-root coordinates: lam} for the members
        lam <= mu, in coordinate order."""
        coset, high = mu.system.coset_offset(mu.coords)
        members = self.cosets.get(coset, {})
        return {tuple(map(sub, high, nu)): lam for nu, lam in members.items() if all(map(ge, high, nu))}

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
    gap = lam.system.to_root_vector(nu - lam)
    if gap is None or min(gap) < 0:
        return ()
    return _lower_boxes(lam.system, [(nu.coords, gap)])


def is_locally_closed(weights) -> bool:
    """Order convexity: no lam + alpha_i outside the set lies below a member.

    Simple-root steps suffice: if lam < mu < nu with lam, nu inside and mu
    outside, a chain of simple-root steps from lam through mu up to nu leaves
    the set at some step lam' -> lam' + alpha_i, and lam' + alpha_i <= nu.
    A step lies below a member exactly when it lies below a maximal one of
    its coset.
    """
    for members in _cosets(weights).values():
        tops = _maxima(members)
        rank = len(tops[0])
        for nu in members:
            for i in range(rank):
                step = nu[:i] + (nu[i] + 1,) + nu[i + 1:]
                if step not in members and _under(step, tops):
                    return False
    return True


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
    # between its members lie in K.  Every sample weight lies in J, so J'
    # must be downward closed on the sample.
    rs = K.sorted[0].system
    sample = dict.fromkeys([*K, *(Weight(rs, rs.lower(w.coords, r)) for w in K for r in rs.positive_roots)])
    try:
        _check_downward(Jprime.contains, sample, "J' holds {hi} but not {lo} below it")
    except PredicateError as exc:
        raise ExactnessError(f"carved complement failed openness sample: {exc}") from None


def _clashes(groups, factor: int) -> list[list[tuple[int, ...]]]:
    """Each group of offsets regrouped by residue mod ``factor``, keeping the
    parts with two members, one below the other.  Members of one part differ
    by ``factor`` times a root vector, so such a pair is a collision."""
    out = []
    for group in groups:
        parts: dict = {}
        for nu in group:
            parts.setdefault(tuple([c % factor for c in nu]), []).append(nu)
        out.extend(part for part in parts.values() if len(part) > 1 and any(
            all(map(ge, hi, lo)) for hi, lo in itertools.permutations(part, 2)))
    return out


def periodicity_condition(K: LocallyClosedSet, p: int, l: int) -> bool:
    """No two elements of K differ by p^l times a positive root-lattice
    vector: no two offsets of one coset, one below the other, agree mod p^l."""
    require_prime(p)
    return not _clashes(K.cosets.values(), p**l)


def min_l(K: LocallyClosedSet, p: int) -> int:
    """Smallest l >= 1 making the periodicity condition hold; always exists.
    Only the parts that clash at l are regrouped for l + 1: a collision mod
    p^(l+1) is one mod p^l."""
    require_prime(p)
    l, groups = 1, _clashes(K.cosets.values(), p)
    while groups:
        l += 1
        groups = _clashes(groups, p**l)
    return l


def shift_set(K: LocallyClosedSet, gamma: Weight) -> LocallyClosedSet:
    # Translation is an order isomorphism, so convexity is preserved.
    return LocallyClosedSet(frozenset(w + gamma for w in K.elements))


def _check_downward(pred, support, message: str) -> None:
    # A pair lo <= hi can break downward closure only with pred(hi) and not
    # pred(lo), in one coset; such a lo lies below a maximal such hi.  So
    # pred is read once per weight, and each offset outside is compared
    # with the maximal offsets inside of its coset.
    for members in _cosets(support).values():
        inside = {nu: w for nu, w in members.items() if pred(w)}
        for top, nu in itertools.product(_maxima(inside), [nu for nu in members if nu not in inside]):
            if all(map(ge, top, nu)):
                raise PredicateError(message.format(lo=members[nu], hi=inside[top]))


def validate_open_predicate(pred, support) -> None:
    """Check a membership predicate is downward closed on a finite sample."""
    _check_downward(pred, support, "predicate is not open: contains {hi} but not {lo} below it")


def validate_closed_predicate(pred, support) -> None:
    """Check a membership predicate is upward closed on a finite sample: its
    complement must be downward closed on the same pairs."""
    _check_downward(lambda w: not pred(w), support,
                    "predicate is not closed: contains {lo} but not {hi} above it")
