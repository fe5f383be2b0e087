"""Truncation boxes, Verma/Weyl characters, peel expansion."""

from __future__ import annotations

import random
import re

import pytest

from modcato.charring import (
    FormalCharacter,
    TruncationBox,
    peel,
    peel_decompose,
    verma_character,
    weyl_character,
    weyl_dimension,
)
from modcato.errors import BoxMarginError
from modcato.rootdata import RootSystem, build_root_system, is_dominant, kostant_partition
from modcato.topology import interval

import oracles

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")


def a1box(top: int, depth: int) -> TruncationBox:
    return TruncationBox.make(A1.weight(top), depth)


def test_box_membership_and_enumeration():
    box = a1box(2, 3)
    members = [w.coords[0] for w in box.weights()]
    assert members == [-4, -2, 0, 2]
    assert box.contains(A1.weight(0))
    assert not box.contains(A1.weight(1))
    assert not box.contains(A1.weight(-6))
    assert not box.contains(A1.weight(4))


def _random_box(rs, rng):
    return TruncationBox.make(rs.weight(*[rng.randint(-4, 4) for _ in range(rs.rank)]), rng.randint(0, 5))


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_box_membership_matches_brute_force(rs):
    rng = random.Random(8 + rs.rank)
    # Tops lie in [-4, 4]^rank and depths in [0, 5], so members and probes lie
    # in [-14, 14]^rank and every difference in [-28, 28]^rank.  C^-1 has
    # entries of size at most 1 for A1, A2 and B2, so their simple-root
    # coefficients lie in [-56, 56], inside the table.
    points = oracles.root_lattice_points(rs.cartan_type, 56)
    seen = {"in": 0, "out of depth": 0, "out of coset": 0,
            "lam off coset": 0, "lam above top": 0, "lam beneath box": 0}
    for _ in range(40):
        box = _random_box(rs, rng)
        members = box.weights()
        probes = list(members) + [
            rs.weight(*[rng.randint(-12, 6) for _ in range(rs.rank)]) for _ in range(40)
        ]
        for w in probes:
            expected = oracles.box_contains(box.top, box.depth, w, points)
            assert box.contains(w) == expected, (box, w)
            if expected:
                seen["in"] += 1
            elif (box.top - w).coords in points:
                seen["out of depth"] += 1
            else:
                seen["out of coset"] += 1
        assert all(oracles.box_contains(box.top, box.depth, w, points) for w in members)
        for lam in probes[:: 3]:
            gap = points.get((box.top - lam).coords)
            if gap is None:
                seen["lam off coset"] += 1
            elif min(gap) < 0:
                seen["lam above top"] += 1
            elif sum(gap) > box.depth:
                seen["lam beneath box"] += 1
            below = box.below(lam)
            assert {box.weight(m): nu for m, nu in below} == oracles.below_set(lam, members, points), (box, lam)
            offsets = [m for m, _ in below]
            assert all(box.offset(box.weight(m)) == m for m in offsets), (box, lam)
            kept = set(offsets)
            assert offsets == [m for m in rs.root_vectors_up_to_height(box.depth) if m in kept]
    assert min(seen.values()) > 0, seen
    other = B2 if rs is not B2 else A2
    box = _random_box(rs, rng)
    with pytest.raises(ValueError):
        box.contains(other.zero_weight())
    with pytest.raises(ValueError):
        box.below(other.zero_weight())


@pytest.mark.parametrize("key", [None, A2.weight(2, 0), (1,), (1.0, 0), (-1, 2), (2, 2)],
                         ids=["none", "weight", "short", "float", "negative", "too-deep"])
def test_character_rejects_keys_outside_its_box(key):
    box = TruncationBox.make(A2.weight(1, 1), 3)
    assert FormalCharacter({(1, 2): 1}, box).coefficient(A2.weight(1, -2)) == 1
    with pytest.raises(ValueError, match="offset"):
        FormalCharacter({key: 1}, box)


def test_characters_build_no_member_weights(monkeypatch):
    # A character is keyed by box offset: building one makes no member
    # weight, and a Verma character converts only its top and its lam.
    calls = dict.fromkeys(["weight_of", "to_root_vector"], 0)
    for name in calls:
        def counting(self, arg, real=getattr(RootSystem, name), name=name):
            calls[name] += 1
            return real(self, arg)
        monkeypatch.setattr(RootSystem, name, counting)
    chi = verma_character(B2.weight(-1, -1), TruncationBox.make(B2.weight(-1, -1), 100))
    assert len(chi.offsets) == 5151
    assert calls["weight_of"] == 0 and calls["to_root_vector"] <= 2, calls
    calls.update(weight_of=0)
    assert sum(weyl_character(B2.weight(6, 6)).offsets.values()) == weyl_dimension(B2.weight(6, 6))
    assert calls["weight_of"] == 0, calls


@pytest.mark.parametrize("top, depth", [
    ((A2.weight(1, 0),), 2),   # the one-tuple form of a single top
    ([A2.weight(1, 0)], 2),
    ((1, 0), 2),
    (A2.weight(1, 0), 2.5),
    (A2.weight(1, 0), True),
    (A2.weight(1, 0), -1),
    (A2.weight(1, 0), "2"),
], ids=["one-tuple", "list", "coords", "float-depth", "bool-depth", "negative-depth", "str-depth"])
def test_box_make_rejects_a_non_weight_top_or_a_bad_depth(top, depth):
    with pytest.raises(ValueError, match="box (top|depth)"):
        TruncationBox.make(top, depth)


def test_verma_character_values():
    chi = verma_character(A1.weight(0), a1box(0, 6))
    for n in range(4):
        assert chi.coefficient(A1.weight(-2 * n)) == 1
    box2 = TruncationBox.make(A2.weight(0, 0), 4)
    chi2 = verma_character(A2.weight(0, 0), box2)
    assert chi2.coefficient(A2.weight(-1, -1)) == 2
    assert chi2.coefficient(A2.weight(0, 0)) == 1


def test_verma_character_requires_lambda_in_box():
    with pytest.raises(BoxMarginError):
        verma_character(A1.weight(4), a1box(0, 6))


def test_verma_shift_property():
    base = verma_character(A1.weight(0), a1box(0, 8))
    for lam in (A1.weight(2), A1.weight(6)):
        box = TruncationBox.make(lam, 8)
        moved = verma_character(lam, box)
        for w, c in base.items():
            assert moved.coefficient(w + lam) == c


def test_weyl_character_rank1_string():
    chi = weyl_character(A1.weight(3))
    assert {w.coords[0]: c for w, c in chi.items()} == {3: 1, 1: 1, -1: 1, -3: 1}
    assert [w.coords[0] for w in chi.box.weights()] == [-3, -1, 1, 3]


def test_weyl_character_a2_fundamental():
    chi = weyl_character(A2.weight(1, 0))
    assert len(chi.coeffs) == 3
    assert all(c == 1 for c in chi.coeffs.values())
    assert weyl_dimension(A2.weight(1, 0)) == 3


def test_weyl_character_trivial_and_errors():
    chi = weyl_character(A2.weight(0, 0))
    assert chi.coeffs == {A2.weight(0, 0): 1}
    with pytest.raises(ValueError):
        weyl_character(A2.weight(-1, 2))


def test_weyl_character_adjoint_zero_multiplicity():
    chi = weyl_character(A2.weight(1, 1))
    assert chi.coefficient(A2.weight(0, 0)) == 2
    assert sum(chi.coeffs.values()) == 8


def test_weyl_dimension_sweep_small():
    # Every coefficient against the all-weights alternating sum, and the
    # total against the dimension formula.
    for rs in (A1, A2, B2):
        if rs.rank == 1:
            lams = [rs.weight(a) for a in range(7)]
        else:
            lams = [rs.weight(a, b) for a in range(7) for b in range(7)]
        for lam in lams:
            assert is_dominant(lam)
            chi = weyl_character(lam)
            assert chi.coeffs == oracles.weyl_alternating_sum(lam, chi.box.weights())
            assert sum(chi.coeffs.values()) == weyl_dimension(lam)


def test_b2_known_dimensions():
    assert weyl_dimension(B2.weight(1, 0)) == 5
    assert weyl_dimension(B2.weight(0, 1)) == 4
    assert weyl_dimension(B2.weight(1, 1)) == 16


def verma_basis(rs):
    """Peel basis of Verma characters: dim Delta(mu)_{mu - nu} = P(nu), on
    every nu of height at most the asked height."""
    return lambda mu, height: {nu: kostant_partition(rs, nu) for nu in rs.root_vectors_up_to_height(height)}


def verma_sum(coeffs, box):
    """The character sum of c * ch Delta(w) over ``coeffs``, on ``box``."""
    out = {}
    for w, c in coeffs.items():
        for m, d in verma_character(w, box).offsets.items():
            out[m] = out.get(m, 0) + c * d
    return FormalCharacter(out, box)


def test_peel_single_basis_element():
    box = a1box(3, 5)
    chi = verma_character(A1.weight(3), box)
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(3): 1}


def test_peel_two_vermas():
    box = a1box(0, 6)
    chi = verma_sum({A1.weight(0): 1, A1.weight(-2): 1}, box)
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(0): 1, A1.weight(-2): 1}


def test_peel_weyl_against_verma_basis():
    # ch V(3) = ch Delta(3) - ch Delta(-5) in rank 1.
    box = a1box(3, 6)
    chi = FormalCharacter({box.offset(w): c for w, c in weyl_character(A1.weight(3)).items()}, box)
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(3): 1, A1.weight(-5): -1}


def test_peel_reassembly_roundtrip():
    rng = random.Random(21)
    box = TruncationBox.make(A2.weight(2, 2), 5)
    weights = list(box.weights())
    for _ in range(10):
        picks = rng.sample(weights, k=min(10, len(weights)))
        coeffs = {w: rng.randint(-4, 4) for w in picks}
        out = peel_decompose(verma_sum(coeffs, box), verma_basis(A2))
        assert out == {w: c for w, c in coeffs.items() if c != 0}


def test_peel_rejects_basis_without_leading_coefficient_1():
    box = a1box(0, 4)
    mu = A1.weight(0)
    twice = lambda w, height: {nu: 2 * d for nu, d in verma_basis(A1)(w, height).items()}
    without_top = lambda w, height: {nu: d for nu, d in verma_basis(A1)(w, height).items() if any(nu)}
    for basis in (twice, without_top):
        with pytest.raises(ValueError, match=f"basis character at {re.escape(str(mu))} "
                                             "does not have leading coefficient 1"):
            peel_decompose(verma_character(mu, box), basis)


def test_peel_asks_the_basis_for_the_box_below_each_peeled_weight():
    # The box cuts the down-set of each peeled mu at the box depth below the
    # top, so the basis is asked for exactly the height of the box weights
    # below mu: 3 at the top, and 2 at (1,1) = top - alpha_1.
    top = A2.weight(3, 0)
    box = TruncationBox.make(top, 3)
    rng = random.Random(5)
    coeffs = {w: rng.randint(1, 3) for w in box.weights()}
    chi = verma_sum(coeffs, box)
    asked = []

    def recording(mu, height):
        asked.append((mu, height))
        return verma_basis(A2)(mu, height)

    assert peel_decompose(chi, recording) == coeffs
    assert sorted(mu.coords for mu, _ in asked) == sorted(w.coords for w in coeffs)
    for mu, height in asked:
        assert type(height) is int
        assert height == max(sum(nu) for _, nu in chi.box.below(mu))
    assert dict(asked)[top] == 3
    assert dict(asked)[A2.weight(1, 1)] == 2


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_peel_goes_down_by_offset_height_then_coordinates(rs):
    rng = random.Random(30 + rs.rank)
    for _ in range(8):
        box = _random_box(rs, rng)
        coeffs = {w: rng.randint(1, 3) for w in box.weights()}
        seen = []

        def recording(mu, height):
            seen.append(mu)
            return verma_basis(rs)(mu, height)

        assert peel_decompose(verma_sum(coeffs, box), recording) == coeffs
        assert seen == sorted(coeffs, key=lambda mu: (sum(box.offset(mu)), mu.coords)), box


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_peel_within_a_convex_set_is_the_box_peel_restricted_to_it(rs):
    # A character supported on the offsets W of an interval [lo, hi] of the
    # box: peeled by charring.peel over the interval's offsets below hi,
    # zeros included, it gives the box peel's coefficients on W, and the
    # basis is asked only at weights of W, since no subtraction lands
    # outside it.  The box peel of the same character leaves weights outside
    # W with nonzero coefficients.
    rng = random.Random(40 + rs.rank)
    outside = 0
    for _ in range(8):
        box = TruncationBox.make(rs.weight(*[rng.randint(-4, 4) for _ in range(rs.rank)]), rng.randint(2, 6))
        hi = rng.choice(box.weights())
        lo = box.weight(rng.choice(box.below(hi))[0])
        W = frozenset(box.offset(w) for w in interval(lo, hi))
        coeffs = {w: rng.randint(-3, 3) for w in box.weights()}
        full = verma_sum(coeffs, box)
        chi = FormalCharacter({m: c for m, c in full.offsets.items() if m in W}, box)
        counts = {rs.to_root_vector(hi - w): full.coefficient(w) for w in interval(lo, hi)}
        asked = []

        def recording(m, height):
            mu = hi - rs.weight_of(m)
            asked.append(mu)
            return verma_basis(rs)(mu, height)

        whole = peel_decompose(chi, verma_basis(rs))
        inside = {hi - rs.weight_of(m): a for m, a in peel(counts, recording).items()}
        assert inside == {w: a for w, a in whole.items() if box.offset(w) in W}
        assert all(box.offset(mu) in W for mu in asked)
        outside += sum(box.offset(w) not in W for w in whole)
    assert outside


@pytest.mark.parametrize("key", [(-1,), (1, 0), (), (1.0,), (True,), "1"],
                         ids=["negative", "too-long", "empty", "float", "bool", "str"])
def test_peel_rejects_a_basis_key_that_is_not_an_offset(key):
    box = a1box(0, 4)
    mu = A1.weight(0)
    with pytest.raises(ValueError, match=f"basis character at {re.escape(str(mu))} has key "
                                         f"{re.escape(repr(key))}, not 1 nonnegative ints"):
        peel_decompose(verma_character(mu, box), lambda w, height: {(0,): 1, key: 1})


def test_peel_subtracts_only_the_nonzero_entries_up_to_the_asked_height():
    # A sparse unitriangular basis, e^mu + 3 e^(mu - 2 alpha): the basis may
    # list its zero entries or leave them out, and may hold entries above
    # the asked height, whose weights lie outside the box; the peel reads
    # only the entries of the box.
    box = a1box(3, 9)
    sparse = lambda mu, height: {(0,): 1, (2,): 3}
    dense = lambda mu, height: {(n,): {0: 1, 2: 3}.get(n, 0) for n in range(height + 1)}
    coeffs = {A1.weight(3): 2, A1.weight(1): -1, A1.weight(-7): 4, A1.weight(-15): 1}
    out = {}
    for w, c in coeffs.items():
        (m,) = box.offset(w)
        for (n,), d in dense(w, box.depth - m).items():
            out[(m + n,)] = out.get((m + n,), 0) + c * d
    chi = FormalCharacter(out, box)
    assert chi.coefficient(A1.weight(-11)) == 3 * 4
    assert peel_decompose(chi, dense) == coeffs
    assert peel_decompose(chi, sparse) == coeffs
