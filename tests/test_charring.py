"""Truncated character arithmetic, Verma/Weyl characters, peel expansion."""

from __future__ import annotations

import random
import re

import pytest

from modcato.charring import (
    TruncationBox,
    char_add,
    char_multiply,
    char_scale,
    char_single,
    frobenius_twist_char,
    height_spread,
    negate_weights,
    peel_decompose,
    verma_character,
    weyl_character,
    weyl_dimension,
)
from modcato.errors import BoxMarginError
from modcato.rootdata import RootVector, build_root_system, is_dominant, kostant_partition

import oracles

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")


def a1box(top: int, depth: int) -> TruncationBox:
    return TruncationBox.make((A1.weight(top),), depth)


def test_box_membership_and_enumeration():
    box = a1box(2, 3)
    members = [w.coords[0] for w in box.weights()]
    assert members == [-4, -2, 0, 2]
    assert box.contains(A1.weight(0))
    assert not box.contains(A1.weight(1))
    assert not box.contains(A1.weight(-6))
    assert not box.contains(A1.weight(4))


def _random_box(rs, rng):
    """1-3 ceilings; a second ceiling, when present, lies in another coset."""
    ceiling = [rs.weight(*[rng.randint(-4, 4) for _ in range(rs.rank)])]
    if rng.random() < 0.7:
        ceiling.append(ceiling[0] + rs.weight(*([0] * (rs.rank - 1) + [1])))
        if rng.random() < 0.5:
            ceiling.append(rs.weight(*[rng.randint(-4, 4) for _ in range(rs.rank)]))
    return TruncationBox.make(ceiling, rng.randint(0, 5))


@pytest.mark.parametrize("rs", [A1, A2, B2], ids=lambda rs: rs.cartan_type)
def test_box_membership_matches_brute_force(rs):
    rng = random.Random(8 + rs.rank)
    shift = rs.weight(*([0] * (rs.rank - 1) + [1]))
    assert rs.to_root_vector(shift) is None
    seen = {"in": 0, "out of depth": 0, "out of coset": 0, "cosets": 0}
    for _ in range(40):
        box = _random_box(rs, rng)
        if any(rs.to_root_vector(a - b) is None for a in box.ceiling for b in box.ceiling):
            seen["cosets"] += 1
        members = box.weights()
        probes = list(members) + [
            rs.weight(*[rng.randint(-12, 6) for _ in range(rs.rank)]) for _ in range(40)
        ]
        for w in probes:
            expected = oracles.box_contains(box.ceiling, box.depth, w)
            assert box.contains(w) == expected, (box, w)
            if expected:
                seen["in"] += 1
            elif any(rs.to_root_vector(c - w) is not None for c in box.ceiling):
                seen["out of depth"] += 1
            else:
                seen["out of coset"] += 1
        assert all(oracles.box_contains(box.ceiling, box.depth, w) for w in members)
        for lam in probes[:: 3]:
            below = box.below(lam)
            assert dict(below) == oracles.below_set(lam, members), (box, lam)
            assert [w for w, _ in below] == sorted((w for w, _ in below), key=lambda w: w.coords)
    assert min(seen.values()) > 0, seen
    other = B2 if rs is not B2 else A2
    box = _random_box(rs, rng)
    with pytest.raises(ValueError):
        box.contains(other.zero_weight())
    with pytest.raises(ValueError):
        box.below(other.zero_weight())


def test_char_add_and_cancellation():
    box = a1box(2, 4)
    e0 = char_single(A1.weight(0), box)
    assert char_add(e0, e0).coefficient(A1.weight(0)) == 2
    e2 = char_single(A1.weight(2), box)
    mixed = char_add(char_add(e2, char_scale(e0, -1)), e0)
    assert mixed.coeffs == {A1.weight(2): 1}
    assert char_scale(char_add(e2, e0), 0).coeffs == {}


def test_char_add_combines_boxes():
    a = char_single(A1.weight(0), a1box(0, 4))
    b = char_single(A1.weight(2), a1box(2, 2))
    out = char_add(a, b)
    assert out.box.depth == 2
    assert set(out.box.ceiling) == {A1.weight(0), A1.weight(2)}


def test_char_add_rejects_mixed_systems():
    a = char_single(A1.weight(0), a1box(0, 1))
    b = char_single(A2.weight(0, 0), TruncationBox.make((A2.weight(0, 0),), 1))
    with pytest.raises(ValueError):
        char_add(a, b)


def test_char_multiply_binomial_example():
    # (e^0 + e^-alpha)^2 within depth 2
    box = a1box(0, 2)
    lhs = char_multiply(_binomial_factor(), _binomial_factor(), box)
    assert lhs.coefficient(A1.weight(0)) == 1
    assert lhs.coefficient(A1.weight(-2)) == 2
    assert lhs.coefficient(A1.weight(-4)) == 1


def _binomial_factor():
    box = a1box(0, 4)
    return char_add(char_single(A1.weight(0), box), char_single(A1.weight(-2), box))


def test_char_multiply_identity_element():
    box = a1box(0, 3)
    chi = verma_character(A1.weight(0), a1box(0, 6))
    unit = char_single(A1.weight(0), a1box(0, 0))
    prod = char_multiply(chi, unit, box)
    assert prod.coeffs == verma_character(A1.weight(0), box).coeffs


def test_char_multiply_translation_invariance():
    shift = char_single(A1.weight(2), TruncationBox.make((A1.weight(2),), 0))
    chi = verma_character(A1.weight(0), a1box(0, 6))
    box = a1box(2, 6)
    shifted = char_multiply(chi, shift, box)
    direct = verma_character(A1.weight(2), box)
    assert shifted.coeffs == direct.coeffs


def test_char_multiply_margin_guard():
    chi = verma_character(A1.weight(0), a1box(0, 2))
    wide = char_add(
        char_single(A1.weight(0), a1box(0, 4)), char_single(A1.weight(-4), a1box(0, 4))
    )
    with pytest.raises(BoxMarginError):
        char_multiply(chi, wide, a1box(0, 2))


def test_verma_character_values():
    chi = verma_character(A1.weight(0), a1box(0, 6))
    for n in range(4):
        assert chi.coefficient(A1.weight(-2 * n)) == 1
    box2 = TruncationBox.make((A2.weight(0, 0),), 4)
    chi2 = verma_character(A2.weight(0, 0), box2)
    assert chi2.coefficient(A2.weight(-1, -1)) == 2
    assert chi2.coefficient(A2.weight(0, 0)) == 1


def test_verma_character_requires_lambda_in_box():
    with pytest.raises(BoxMarginError):
        verma_character(A1.weight(4), a1box(0, 6))


def test_verma_shift_property():
    base = verma_character(A1.weight(0), a1box(0, 8))
    for lam in (A1.weight(2), A1.weight(6)):
        box = TruncationBox.make((lam,), 8)
        moved = verma_character(lam, box)
        for w, c in base.items():
            assert moved.coefficient(w + lam) == c


def test_weyl_character_rank1_string():
    chi = weyl_character(A1.weight(3))
    assert {w.coords[0]: c for w, c in chi.items()} == {3: 1, 1: 1, -1: 1, -3: 1}
    assert chi.complete


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


def test_frobenius_twist_examples():
    box = a1box(1, 2)
    e1 = char_single(A1.weight(1), box)
    t = frobenius_twist_char(e1, 1, 3)
    assert t.coeffs == {A1.weight(3): 1}
    assert t.box.depth == 6
    pm1 = char_add(e1, char_single(A1.weight(-1), box))
    t2 = frobenius_twist_char(pm1, 2, 2)
    assert {w.coords[0] for w in t2.coeffs} == {4, -4}
    e0 = char_single(A1.weight(0), a1box(0, 0))
    assert frobenius_twist_char(e0, 1, 5).coeffs == e0.coeffs


def test_frobenius_twist_multiplicative():
    rng = random.Random(7)
    box = a1box(4, 8)
    for _ in range(10):
        a = char_add(
            char_single(A1.weight(rng.choice([0, 2, 4])), box),
            char_single(A1.weight(rng.choice([-2, 0, 2])), box),
        )
        b = char_single(A1.weight(rng.choice([0, -2])), box)
        prod_box = a1box(8, 6)
        lhs = frobenius_twist_char(char_multiply(a, b, prod_box), 1, 2)
        rhs = char_multiply(
            frobenius_twist_char(a, 1, 2), frobenius_twist_char(b, 1, 2), prod_box.scale(2)
        )
        assert lhs.coeffs == rhs.coeffs


def test_negate_weights():
    chi = weyl_character(A2.weight(1, 0))
    neg = negate_weights(chi)
    assert {(-w).coords for w in chi.coeffs} == {w.coords for w in neg.coeffs}
    assert neg.complete


def verma_basis(rs):
    """Peel basis of Verma characters: dim Delta(mu)_{mu - nu} = P(nu)."""
    return lambda mu, nus: {nu: kostant_partition(RootVector(rs, nu)) for nu in nus}


def test_peel_single_basis_element():
    box = a1box(3, 5)
    chi = verma_character(A1.weight(3), box)
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(3): 1}


def test_peel_two_vermas():
    box = a1box(0, 6)
    chi = char_add(
        verma_character(A1.weight(0), box), verma_character(A1.weight(-2), box)
    )
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(0): 1, A1.weight(-2): 1}


def test_peel_weyl_against_verma_basis():
    # ch V(3) = ch Delta(3) - ch Delta(-5) in rank 1.
    box = a1box(3, 6)
    chi = weyl_character(A1.weight(3)).restrict(box)
    out = peel_decompose(chi, verma_basis(A1))
    assert out == {A1.weight(3): 1, A1.weight(-5): -1}


def test_peel_reassembly_roundtrip():
    rng = random.Random(21)
    box = TruncationBox.make((A2.weight(2, 2),), 5)
    weights = list(box.weights())
    for _ in range(10):
        picks = rng.sample(weights, k=min(10, len(weights)))
        coeffs = {w: rng.randint(-4, 4) for w in picks}
        chi = None
        for w, c in coeffs.items():
            term = char_scale(verma_character(w, box), c)
            chi = term if chi is None else char_add(chi, term)
        out = peel_decompose(chi, verma_basis(A2))
        assert out == {w: c for w, c in coeffs.items() if c != 0}


def test_peel_rejects_basis_without_leading_coefficient_1():
    box = a1box(0, 4)
    mu = A1.weight(0)
    twice = lambda w, nus: {nu: 2 * d for nu, d in verma_basis(A1)(w, nus).items()}
    with pytest.raises(ValueError, match=f"basis character at {re.escape(str(mu))} "
                                         "does not have leading coefficient 1"):
        peel_decompose(verma_character(mu, box), twice)


def test_peel_asks_the_basis_for_the_box_below_each_peeled_weight():
    # (1,1) = (3,0) - alpha_1, so the second ceiling reaches height 4 below
    # (3,0), one deeper than the box depth: the basis is asked for exactly
    # the box weights below each peeled mu, whichever ceiling they come from.
    box = TruncationBox.make((A2.weight(3, 0), A2.weight(1, 1)), 3)
    rng = random.Random(5)
    coeffs = {w: rng.randint(1, 3) for w in box.weights()}
    chi = None
    for w, c in coeffs.items():
        term = char_scale(verma_character(w, box), c)
        chi = term if chi is None else char_add(chi, term)
    asked = []

    def recording(mu, nus):
        asked.append((mu, nus))
        return verma_basis(A2)(mu, nus)

    assert peel_decompose(chi, recording) == coeffs
    assert sorted(mu.coords for mu, _ in asked) == sorted(w.coords for w in coeffs)
    for mu, nus in asked:
        assert nus == [nu for _, nu in chi.box.below(mu)]
    assert max(sum(nu) for nu in dict(asked)[A2.weight(3, 0)]) == 4


def test_peel_reads_every_asked_nu_from_the_basis():
    box = a1box(0, 4)
    top_only = lambda w, nus: {(0,): 1}
    with pytest.raises(KeyError):
        peel_decompose(verma_character(A1.weight(0), box), top_only)


def test_height_spread():
    box = a1box(2, 4)
    chi = char_add(char_single(A1.weight(2), box), char_single(A1.weight(-2), box))
    assert height_spread(chi) == 2
