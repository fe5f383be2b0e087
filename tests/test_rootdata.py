"""Root-system constants, dominance order, and partition counts."""

from __future__ import annotations

import itertools
import operator
import pickle
import sys

import pytest

from modcato.category_o import q_module_mult
from modcato.charring import TruncationBox, verma_character, weyl_character
from modcato.hypalg import simple_weight_dims
from modcato.rootdata import (
    _vectors_up_to_height,
    build_root_system,
    dot_action,
    is_dominant,
    kostant_partition,
    kostant_table,
    leq,
    pairing,
)
from modcato.topology import OpenSet

from oracles import (
    cartan_matrix,
    kostant_by_recursion,
    partition_counts_by_genfun,
    root_lattice_points,
)


@pytest.fixture(params=["A1", "A2", "B2"])
def rs(request):
    return build_root_system(request.param)


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("G2")


def test_tabulated_counts(rs):
    expected = {"A1": 1, "A2": 3, "B2": 4}[rs.cartan_type]
    assert len(rs.positive_roots) == expected
    expected_w = {"A1": 2, "A2": 6, "B2": 8}[rs.cartan_type]
    assert len(rs.weyl_group) == expected_w


def test_cartan_invariants(rs):
    a = rs.cartan_matrix
    for i in range(rs.rank):
        assert a[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert a[i][j] <= 0


def test_rho_pairs_to_one_on_simples(rs):
    for i in range(rs.rank):
        assert pairing(rs.rho, i) == 1


def test_simple_roots_are_positive_roots(rs):
    for s in rs.simple_roots:
        assert s in rs.positive_roots


def test_a1_single_root_pairing():
    rs = build_root_system("A1")
    alpha = rs.positive_roots[0]
    assert rs.root_pairing(rs.weight_of(alpha), 0) == 2


def test_a2_positive_roots():
    rs = build_root_system("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_pairing_examples():
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    assert pairing(a1.weight(3), 0) == 3
    assert pairing(a2.weight(1, 0), 1) == 0
    assert pairing(a2.rho, 0) == 1
    with pytest.raises(IndexError):
        pairing(a1.weight(3), 1)


def test_leq_examples():
    a1 = build_root_system("A1")
    assert leq(a1.weight(0), a1.weight(2))
    assert not leq(a1.weight(1), a1.weight(2))
    a2 = build_root_system("A2")
    assert leq(a2.weight(0, 0), a2.weight(1, 1))


def test_leq_rejects_mixed_systems():
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    with pytest.raises(ValueError):
        leq(a1.weight(0), a2.weight(0, 0))


def test_leq_is_a_partial_order_on_a2_sample():
    rs = build_root_system("A2")
    sample = [rs.weight(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for x in sample:
        assert leq(x, x)
    for x, y in itertools.permutations(sample, 2):
        if leq(x, y) and leq(y, x):
            assert x == y
    for x, y, z in itertools.product(sample, repeat=3):
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


def test_is_dominant_examples():
    a2 = build_root_system("A2")
    a1 = build_root_system("A1")
    assert is_dominant(a2.weight(0, 0))
    assert not is_dominant(a2.weight(-1, 2))
    assert is_dominant(a1.weight(3))


def test_kostant_partition_examples():
    a1 = build_root_system("A1")
    assert kostant_partition(a1, (3,)) == 1
    a2 = build_root_system("A2")
    assert kostant_partition(a2, (1, 1)) == 2
    assert kostant_partition(a2, (0, 0)) == 1
    assert kostant_partition(a2, (-1, 0)) == 0


def test_kostant_partition_rejects_short_coordinates():
    # A short tuple once looped forever: zip never ran past its end.
    with pytest.raises(ValueError, match="2 simple-root coordinates"):
        kostant_partition(build_root_system("A2"), (1,))


def test_kostant_partition_rejects_long_coordinates():
    with pytest.raises(ValueError, match="2 simple-root coordinates"):
        kostant_partition(build_root_system("A2"), (1, 1, 1))


def test_weight_of_rejects_wrong_length():
    a2 = build_root_system("A2")
    for nu in ((1,), (1, 1, 1), (1, 0.5)):
        with pytest.raises(ValueError, match="2 simple-root coordinates"):
            a2.weight_of(nu)


def test_kostant_partition_against_generating_function(rs):
    table = partition_counts_by_genfun(rs.cartan_type, 8)
    for nu in rs.root_vectors_up_to_height(8):
        assert kostant_partition(rs, nu) == table.get(nu, 0), nu


@pytest.mark.parametrize("height", [-1, 0, 12])
def test_kostant_table_matches_recursion_and_generating_function(rs, height):
    table = kostant_table(rs, height)
    assert list(table) == list(rs.root_vectors_up_to_height(height))
    assert table == {nu: kostant_by_recursion(rs.cartan_type, nu) for nu in table}
    assert table == partition_counts_by_genfun(rs.cartan_type, height)


def test_characters_and_flags_read_one_table_not_kostant_partition(monkeypatch):
    import modcato.cli  # noqa: F401  (imports every layer)

    def refuse(rs, nu):
        raise AssertionError(f"kostant_partition({nu}) called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modcato" and hasattr(module, "kostant_partition"):
            monkeypatch.setattr(module, "kostant_partition", refuse)
    b2, a2 = build_root_system("B2"), build_root_system("A2")
    counts = partition_counts_by_genfun("B2", 10)
    lam = b2.weight(-1, -1)
    chi = verma_character(lam, TruncationBox.make(lam, 10))
    assert {b2.to_root_vector(lam - w): c for w, c in chi.items()} == counts
    assert sum(weyl_character(b2.weight(2, 2)).coeffs.values()) == 81
    lam = a2.weight(-2, -2)
    flag = q_module_mult(lam, OpenSet.down_closure([a2.weight(2, 2), a2.weight(3, 0)]))
    assert all(c == partition_counts_by_genfun("A2", 8)[a2.to_root_vector(mu - lam)]
               for mu, c in flag.items())
    assert simple_weight_dims(a2.weight(1, 1), [(0, 0), (1, 1)], 3) == {(0, 0): 1, (1, 1): 1}


def test_weyl_group_permutes_roots(rs):
    all_roots = set()
    for r in rs.positive_roots:
        all_roots.add(r)
        all_roots.add(tuple(-c for c in r))
    for w, matrix in zip(rs.weyl_group, rs.weyl_root_matrices, strict=True):
        image = set()
        for coeffs in all_roots:
            nu = rs.to_root_vector(w.apply(rs.weight_of(coeffs)))
            assert nu is not None
            assert nu == tuple(sum(a * c for a, c in zip(row, coeffs)) for row in matrix)
            image.add(nu)
        assert image == all_roots


def test_weyl_group_closed_under_composition(rs):
    mats = {w.matrix for w in rs.weyl_group}
    for u in rs.weyl_group:
        for v in rs.weyl_group:
            prod = tuple(
                tuple(
                    sum(u.matrix[i][k] * v.matrix[k][j] for k in range(rs.rank))
                    for j in range(rs.rank)
                )
                for i in range(rs.rank)
            )
            assert prod in mats


def test_weyl_preserves_pairing_up_to_coroot_permutation(rs):
    # <w lam, (w alpha)^vee> = <lam, alpha^vee> for positive and negative alpha.
    signed_roots = [(k, 1) for k in range(len(rs.positive_roots))] + [
        (k, -1) for k in range(len(rs.positive_roots))
    ]
    sample = [rs.weight(*c) for c in itertools.product(range(-2, 3), repeat=rs.rank)]
    index_of = {r: k for k, r in enumerate(rs.positive_roots)}
    for w in rs.weyl_group:
        for k, eps in signed_roots:
            root = tuple(eps * c for c in rs.positive_roots[k])
            image = rs.to_root_vector(w.apply(rs.weight_of(root)))
            sign = 1
            if min(image) < 0:
                image, sign = tuple(-c for c in image), -1
            k_img = index_of[image]
            for lam in sample:
                assert sign * rs.root_pairing(w.apply(lam), k_img) == eps * rs.root_pairing(lam, k)


def test_conversions_roundtrip(rs):
    for nu in rs.root_vectors_up_to_height(4):
        assert rs.to_root_vector(rs.weight_of(nu)) == nu


def test_lattice_conversion_against_brute_force_oracle(rs):
    # In [-6, 6]^rank every multiple k w with k <= det C = 2 or 3 has
    # preimage coefficients of size at most 24, so the sample below holds
    # every root-lattice point the test looks up.
    assert rs.cartan_matrix == cartan_matrix(rs.cartan_type)
    points = root_lattice_points(rs.cartan_type, 24)
    zero = rs.zero_weight()
    for coords in itertools.product(range(-6, 7), repeat=rs.rank):
        w = rs.weight(*coords)
        pre = points.get(coords)
        assert rs.to_root_vector(w) == pre, coords
        nonnegative = pre is not None and min(pre) >= 0
        assert leq(zero, w) == nonnegative, coords
        assert leq(rs.rho - w, rs.rho) == nonnegative, coords


def test_root_vector_enumeration_is_lexicographic():
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    assert list(a1.root_vectors_up_to_height(2)) == [(0,), (1,), (2,)]
    assert list(a2.root_vectors_up_to_height(2)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]
    assert list(a2.root_vectors_up_to_height(-1)) == []


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_vectors_up_to_height_are_the_filtered_product(rank):
    # Built directly, without the (h + 1)^rank product and its filter, in
    # the same lexicographic order.
    for h in range(-1, 16):
        product = [v for v in itertools.product(range(h + 1), repeat=rank) if sum(v) <= h]
        assert _vectors_up_to_height(rank, h) == product, h


def test_dot_action_of_identity(rs):
    identity = [w for w in rs.weyl_group if all(
        w.matrix[i][j] == (1 if i == j else 0) for i in range(rs.rank) for j in range(rs.rank)
    )]
    assert len(identity) == 1
    lam = rs.weight(*range(1, rs.rank + 1))
    assert dot_action(identity[0], lam) == lam


def test_weight_equality_and_hash_keep_their_meaning():
    # Equality has an identity fast path and hashes the coordinates alone:
    # A2 (1,1) and B2 (1,1) stay unequal, a pickled copy (whose root system
    # is a new object) equals and hashes like the original, and arithmetic
    # and leq across types still raise.
    A2, B2 = build_root_system("A2"), build_root_system("B2")
    a, b = A2.weight(1, 1), B2.weight(1, 1)
    assert a != b and b != a and len({a, b}) == 2
    copy = pickle.loads(pickle.dumps(a))
    assert copy.system is not A2
    assert copy == a and a == copy and hash(copy) == hash(a) and {a: 1}[copy] == 1
    assert copy != b and copy + copy == a * 2
    for op in (leq, operator.add, operator.sub):
        with pytest.raises(ValueError, match="mismatched root systems A2 and B2"):
            op(a, b)
    with pytest.raises(ValueError, match="mismatched root systems"):
        OpenSet.down_closure([a]).contains(b)
