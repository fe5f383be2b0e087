"""Order topology: open sets, locally closed sets, carving, periodicity."""

from __future__ import annotations

import random

import pytest

from modcato.errors import ExactnessError, PredicateError
from modcato.rootdata import build_root_system, leq
from modcato.topology import (
    CarvedOpen,
    LocallyClosedSet,
    OpenSet,
    carve_J_Jprime,
    interval,
    is_locally_closed,
    min_l,
    periodicity_condition,
    shift_set,
    validate_closed_predicate,
    validate_open_predicate,
)

import oracles
from oracles import convex_by_intervals

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")


def w1(c):
    return A1.weight(c)


def test_open_set_membership_and_upsets():
    J = OpenSet.down_closure([w1(2)])
    assert J.contains(w1(2)) and J.contains(w1(-4))
    assert not J.contains(w1(4)) and not J.contains(w1(1))
    assert [w.coords[0] for w in J.up_set(w1(-2))] == [-2, 0, 2]
    assert J.up_set(w1(3)) == ()


def test_down_closure_keeps_only_maximal_elements():
    J = OpenSet.down_closure([w1(2), w1(0), w1(1)])
    assert {c.coords[0] for c in J.ceiling} == {1, 2}


def test_is_locally_closed_examples():
    assert not is_locally_closed({w1(0), w1(4)})
    assert is_locally_closed({w1(0)})
    assert is_locally_closed({w1(0), w1(1)})
    assert is_locally_closed({w1(0), w1(2), w1(4)})


def test_a2_interval_and_convexity():
    z = A2.weight(0, 0)
    top = A2.weight(1, 1)
    box = interval(z, top)
    assert {w.coords for w in box} == {(0, 0), (2, -1), (-1, 2), (1, 1)}
    # The naive two-element set leaks its interval.
    assert not is_locally_closed({z, top})
    assert is_locally_closed({z, A2.weight(2, -1)})


def test_step_convexity_agrees_with_interval_oracle():
    # Random sets of 1-7 weights in [-3, 3]^rank; half of them are first
    # closed under an interval [lam, lam + sum_i c_i alpha_i], 0 <= c_i <= 2,
    # from one of their weights and then punctured at a random member.
    rng = random.Random(4000)
    seen = {True: 0, False: 0}
    for rs in (A1, A2, B2):
        for _ in range(400):
            weights = {rs.weight(*(rng.randint(-3, 3) for _ in range(rs.rank)))
                       for _ in range(rng.randint(1, 7))}
            if rng.random() < 0.5:
                lam = rng.choice(sorted(weights, key=lambda w: w.coords))
                gap = tuple(rng.randint(0, 2) for _ in range(rs.rank))
                weights |= set(interval(lam, lam + rs.weight_of(gap)))
                weights.discard(rng.choice(sorted(weights, key=lambda w: w.coords)))
            expected = convex_by_intervals(weights)
            assert is_locally_closed(weights) == expected, sorted(w.coords for w in weights)
            seen[expected] += 1
    assert min(seen.values()) > 400, seen


def test_locally_closed_constructor_validates():
    with pytest.raises(ValueError):
        LocallyClosedSet.make([w1(0), w1(4)])
    K = LocallyClosedSet.make([w1(0), w1(2)])
    assert len(K) == 2


def test_carve_examples():
    K = LocallyClosedSet.make([w1(0), w1(2)])
    J, Jp = carve_J_Jprime(K)
    assert {c.coords[0] for c in J.ceiling} == {2}
    assert Jp.contains(w1(-2))
    assert not Jp.contains(w1(0))
    assert not Jp.contains(w1(2))
    assert isinstance(Jp, CarvedOpen)


def test_carve_singleton():
    K = LocallyClosedSet.make([w1(3)])
    J, Jp = carve_J_Jprime(K)
    assert J.contains(w1(3))
    assert not Jp.contains(w1(3))
    assert Jp.contains(w1(1))


def test_carve_incomparable_pair():
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(1, -1)])
    J, Jp = carve_J_Jprime(K)
    assert {c.coords for c in J.ceiling} == {(0, 0), (1, -1)}
    assert not Jp.contains(A2.weight(1, -1))


def test_carve_recovers_K_on_window():
    K = LocallyClosedSet.make([w1(0), w1(2)])
    J, Jp = carve_J_Jprime(K)
    window = [w1(c) for c in range(-8, 9)]
    recovered = {w for w in window if J.contains(w) and not Jp.contains(w)}
    assert recovered == set(K.elements)


def test_periodicity_condition_examples():
    assert periodicity_condition(LocallyClosedSet.make([w1(5)]), 2, 1)
    K = LocallyClosedSet.make([w1(0), w1(2)])
    assert periodicity_condition(K, 3, 1)
    K6 = LocallyClosedSet.make([w1(0), w1(2), w1(4), w1(6)])
    assert not periodicity_condition(K6, 3, 1)


def test_periodicity_condition_monotone_in_l():
    K = LocallyClosedSet.make([w1(0), w1(2), w1(4), w1(6)])
    for p in (2, 3, 5):
        state = [periodicity_condition(K, p, l) for l in range(1, 6)]
        first_true = state.index(True)
        assert all(state[first_true:])


def test_min_l_examples():
    assert min_l(LocallyClosedSet.make([w1(0), w1(2)]), 2) == 1
    assert min_l(LocallyClosedSet.make([w1(7)]), 5) == 1
    K6 = LocallyClosedSet.make([w1(0), w1(2), w1(4), w1(6)])
    assert min_l(K6, 3) == 2


def test_shift_set_examples():
    K = LocallyClosedSet.make([w1(0), w1(2)])
    assert shift_set(K, w1(0)) == K
    moved = shift_set(K, w1(6))
    assert {w.coords[0] for w in moved} == {6, 8}
    single = shift_set(LocallyClosedSet.make([w1(0)]), w1(5))
    assert {w.coords[0] for w in single} == {5}


def test_shift_commutes_with_carve():
    K = LocallyClosedSet.make([w1(0), w1(2)])
    gamma = w1(6)
    J, Jp = carve_J_Jprime(K)
    Jt, Jtp = carve_J_Jprime(shift_set(K, gamma))
    window = [w1(c) for c in range(-6, 12)]
    for w in window:
        assert Jt.contains(w) == J.translate(gamma).contains(w)
        assert Jtp.contains(w) == Jp.translate(gamma).contains(w)


def test_openness_sample_catches_a_leak(monkeypatch):
    # A 63-weight convex B2 region carves cleanly; a carved complement that
    # misses (0,0) - (alpha_1 + alpha_2) = (-1,-1) in A2 while holding
    # (-1,-1) + alpha_2 above it is caught by the sample.
    box = LocallyClosedSet.make(interval(B2.weight(-2, -2), B2.weight(2, 2)))
    assert len(box) == 63
    J, Jp = carve_J_Jprime(box)
    assert [c.coords for c in J.ceiling] == [(2, 2)]
    assert not any(Jp.contains(w) for w in box)

    hole = A2.weight(-1, -1)
    real = CarvedOpen.contains
    monkeypatch.setattr(CarvedOpen, "contains", lambda self, w: w != hole and real(self, w))
    with pytest.raises(ExactnessError):
        carve_J_Jprime(LocallyClosedSet.make([A2.weight(0, 0)]))


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_predicate_validators_match_every_pair(rs):
    # Brute force over all ordered pairs of the support: open fails exactly
    # when some lo <= hi has hi inside and lo outside, closed exactly when
    # some lo <= hi has lo inside and hi outside.
    rng = random.Random(40 + rs.rank)
    seen = {"open": 0, "not open": 0, "closed": 0, "not closed": 0}
    for _ in range(60):
        support = list({rs.weight(*[rng.randint(-3, 3) for _ in range(rs.rank)])
                        for _ in range(rng.randint(1, 8))})
        inside = {w for w in support if rng.random() < 0.5}
        pred = inside.__contains__
        pairs = [(lo, hi) for lo in support for hi in support if leq(lo, hi)]
        for kind, check, leak in (
            ("open", validate_open_predicate, any(hi in inside and lo not in inside for lo, hi in pairs)),
            ("closed", validate_closed_predicate, any(lo in inside and hi not in inside for lo, hi in pairs)),
        ):
            if leak:
                seen["not " + kind] += 1
                with pytest.raises(PredicateError, match=f"predicate is not {kind}"):
                    check(pred, support)
            else:
                seen[kind] += 1
                check(pred, support)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("typ, n", [("B2", 3), ("B2", 5), ("A2", 9)])
def test_bucketed_checks_match_the_pairwise_oracles(typ, n):
    # periodicity_condition and min_l compare offsets only inside a residue
    # bucket, and a row's below-set reads its coset's offsets; the oracles
    # compare every pair of K through a brute-force root-lattice table.
    rs = build_root_system(typ)
    K = LocallyClosedSet.make(interval(rs.weight(-n, -n), rs.weight(n, n)))
    points = oracles.root_lattice_points(typ, 20)
    gaps = oracles.comparable_gaps(K.sorted, points)
    seen = set()
    for p in (2, 3, 5):
        for l in range(1, 5):
            holds = periodicity_condition(K, p, l)
            assert holds == oracles.periodicity_by_pairs(gaps, p, l), (p, l)
            seen.add(holds)
        assert min_l(K, p) == oracles.min_l_by_pairs(gaps, p), p
    assert seen == {True, False}
    for mu in K:
        below = [(lam, gap) for gap, lam in K.below(mu).items()]
        assert below == list(oracles.below_set(mu, K.sorted, points).items()), mu


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_membership_on_offsets_matches_brute_force(rs):
    # OpenSet.contains and LocallyClosedSet membership read coset offsets;
    # the oracle reads each difference off a brute-force root-lattice table.
    rng = random.Random(70 + rs.rank)
    points = oracles.root_lattice_points(rs.cartan_type, 24)
    rand = lambda: rs.weight(*[rng.randint(-6, 6) for _ in range(rs.rank)])
    below = lambda w, top: bool(oracles.below_set(top, [w], points))
    hits = [0, 0]
    for _ in range(20):
        ceiling = [rand() for _ in range(rng.randint(1, 4))]
        J = OpenSet.down_closure(ceiling)
        lo, hi = sorted((rand(), rand()), key=lambda w: sum(w.coords))
        K = LocallyClosedSet.make(interval(lo, hi) or [lo])
        for w in [rand() for _ in range(40)] + list(K):
            inside = any(below(w, c) for c in ceiling)
            assert J.contains(w) == inside, (ceiling, w)
            hits[inside] += 1
            assert (w in K) == (w == lo or below(lo, w) and below(w, hi)), (lo, hi, w)
    assert min(hits) > 0
