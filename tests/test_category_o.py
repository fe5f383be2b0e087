"""Simple characters, decomposition rows, flag calculus, Steinberg check."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from modcato import cache
from modcato.category_o import (
    FlagVector,
    build_decomposition_table,
    decomposition_numbers,
    full_simple_character,
    projective_verma_mult,
    q_module_mult,
    simple_character,
    steinberg_check,
    steinberg_digits,
    tensor_flag,
    truncate_flag,
    validate_table_consistency,
)
from modcato.charring import FormalCharacter, TruncationBox, verma_character, weyl_character
from modcato.errors import (
    BoxMarginError,
    ModcatoError,
    PredicateError,
    SizeGuardError,
    require_prime,
)
from modcato.hypalg import SizeGuard, rank_mod_p, simple_weight_dims
from modcato.periodicity import ShiftContext
from modcato.rootdata import build_root_system, height_drop, is_dominant, leq
from modcato.topology import LocallyClosedSet, OpenSet, interval, min_l

import oracles

A1 = build_root_system("A1")
A2 = build_root_system("A2")


def box1(top: int, depth: int) -> TruncationBox:
    return TruncationBox.make(A1.weight(top), depth)


def chardict(chi):
    return {w.coords[0]: c for w, c in chi.items()}


def test_simple_character_trivial_weight():
    chi = simple_character(A1.weight(0), 5, box1(0, 6))
    assert chardict(chi) == {0: 1}


def test_simple_character_frozen_examples():
    chi = simple_character(A1.weight(3), 3, box1(3, 6))
    assert chardict(chi) == {3: 1, -3: 1}
    chi2 = simple_character(A1.weight(1), 2, box1(1, 4))
    assert chardict(chi2) == {1: 1, -1: 1}


def test_simple_character_nondominant_is_infinite():
    # L(-3) at p=2 keeps picking up weights; box only windows it.
    chi = simple_character(A1.weight(-3), 2, box1(-3, 3))
    assert chardict(chi) == {-3: 1, -5: 1}


@pytest.mark.parametrize("typ", ["A1", "A2", "B2"])
def test_simple_character_ranks_exactly_the_weight_spaces_below(typ, monkeypatch):
    # Characters come digit by digit: only restricted highest weights are
    # ranked, the shared memo ranks no weight space twice in a process, and
    # the product equals one Gram sweep of the box below lam.
    import modcato.category_o as category_o

    rs = build_root_system(typ)
    rng = random.Random(31 + rs.rank)
    ranked = []
    real = category_o.simple_weight_dims

    def record(lam, nus, p, guard=None):
        nus = list(nus)
        ranked.extend((lam, p, nu) for nu in nus)
        return real(lam, nus, p, guard=guard)

    monkeypatch.delenv("MODCATO_CACHE", raising=False)
    cache.configure(None)
    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    for _ in range(20):
        top = rs.weight(*[rng.randint(-3, 3) for _ in range(rs.rank)])
        box = TruncationBox.make(top, rng.randint(0, 4))
        lam = rng.choice(box.weights())
        p = rng.choice((2, 3))
        chi = simple_character(lam, p, box)
        below = TruncationBox.make(lam, box.depth - sum(box.offset(lam)))
        assert chi.coeffs == oracles.sweep_simple_coeffs(lam, p, below), (lam, p)
    assert ranked
    assert all(0 <= c < p for lam, p, _ in ranked for c in lam.coords)
    assert len(ranked) == len(set(ranked))


def test_simple_character_matches_the_gram_sweep(monkeypatch):
    # Differential test of the digit recursion against one Gram sweep on
    # every weight space below lam, for random (mostly non-dominant) lam.
    import modcato.category_o as category_o

    monkeypatch.delenv("MODCATO_CACHE", raising=False)
    cache.configure(None)
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    rng = random.Random(20261019)
    cases = []
    for typ in ("A1", "A2", "B2"):
        rs = build_root_system(typ)
        for _ in range(40):
            lam = rs.weight(*[rng.randint(-12, 14) for _ in range(rs.rank)])
            cases.append((lam, rng.choice((2, 3, 5)), rng.randint(3, 12)))
    cases.append((build_root_system("B2").weight(-7, 5), 2, 20))
    for lam, p, depth in cases:
        box = TruncationBox.make(lam, depth)
        expect = oracles.sweep_simple_coeffs(lam, p, box)
        assert simple_character(lam, p, box).coeffs == expect, (lam, p, depth)


def test_box_margin_error_precedes_disk_access(monkeypatch):
    import modcato.category_o as category_o

    def no_disk(*args, **kwargs):
        raise AssertionError("cache read before the box check")

    monkeypatch.setattr(category_o.cache_store, "get_value", no_disk)
    with pytest.raises(BoxMarginError):
        simple_character(A1.weight(5), 2, box1(3, 4))


def test_decomposition_row_triangular_singleton():
    row = decomposition_numbers(A1.weight(4), 5, 0)
    assert row == {A1.weight(4): 1}


def test_decomposition_row_a1_p2_frozen():
    row = decomposition_numbers(A1.weight(1), 2, 2)
    assert row == {A1.weight(1): 1, A1.weight(-3): 1}


def test_decomposition_row_a1_p3_exhausted():
    row = decomposition_numbers(A1.weight(2), 3, 2)
    assert row == {A1.weight(2): 1}


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6])
def test_non_prime_p_is_rejected(p):
    lam = A1.weight(3)
    K = LocallyClosedSet.make([A1.weight(0), A1.weight(2)])
    calls = [
        lambda: simple_character(lam, p, box1(3, 3)),
        lambda: full_simple_character(lam, p),
        lambda: decomposition_numbers(lam, p, 0),
        lambda: steinberg_digits(lam, p),
        lambda: min_l(K, p),
        lambda: ShiftContext.build(K, A1.weight(4), p, 1),
        lambda: simple_weight_dims(lam, [(1,)], p),
        lambda: rank_mod_p([[3]], p),
    ]
    for call in calls:
        with pytest.raises(ModcatoError, match=f"p={p} is not a prime"):
            call()
    for depth in (-1, 1.5, "2", True):
        with pytest.raises(ModcatoError, match=re.escape(f"depth={depth!r} must be")):
            decomposition_numbers(lam, 2, depth)


def test_require_prime_agrees_with_trial_division():
    for n in range(-2, 10**4):
        is_prime = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        if is_prime:
            require_prime(n)
        else:
            with pytest.raises(ModcatoError, match=f"p={n} is not a prime"):
                require_prime(n)


@pytest.mark.parametrize("n", [561, 2047, 3215031751])
def test_require_prime_rejects_pseudoprimes(n):
    # A Carmichael number, the least strong pseudoprime to base 2, and the
    # least strong pseudoprime to bases 2, 3, 5 and 7.
    with pytest.raises(ModcatoError, match=f"p={n} is not a prime"):
        require_prime(n)


def test_require_prime_on_large_values():
    require_prime(1000000000000000003)
    require_prime(2**61 - 1)
    with pytest.raises(ModcatoError, match="p=1000000000000000001 is not a prime"):
        require_prime(10**18 + 1)
    # The least strong pseudoprime to every base up to 37 sits at the bound.
    with pytest.raises(ModcatoError, match="p=318665857834031151167461 is too large"):
        require_prime(318665857834031151167461)
    with pytest.raises(ModcatoError, match=f"p={2**89 - 1} is too large"):
        require_prime(2**89 - 1)


def test_negative_table_depth_is_rejected():
    # A table peels inside its region and takes no depth; a row of the table
    # still reads a box of the depth it is given, and refuses a negative one.
    weights = [A1.weight(c) for c in (-3, -1, 1)]
    with pytest.raises(TypeError):
        build_decomposition_table(weights, 2, depth=-3)
    with pytest.raises(ModcatoError, match="depth=-3 must be a nonnegative int"):
        decomposition_numbers(A1.weight(1), 2, -3)
    table = build_decomposition_table(weights, 2)
    assert table.entries
    row = decomposition_numbers(A1.weight(1), 2, 4)
    for mu, lam in table.comparable:
        if mu == A1.weight(1):
            assert row.get(lam, 0) == table.entry(mu, lam)


def test_table_region_must_be_nonempty_and_convex():
    with pytest.raises(ValueError):
        build_decomposition_table([], 2)
    with pytest.raises(ValueError):
        build_decomposition_table({A1.weight(0), A1.weight(4)}, 2)


def test_table_checks_convexity_only_of_unchecked_regions(monkeypatch):
    # A LocallyClosedSet was checked when it was made; any other iterable
    # is checked once, through LocallyClosedSet.make.
    import modcato.category_o as category_o
    import modcato.topology as topology

    real = topology.is_locally_closed
    calls = []

    def record(weights):
        calls.append(weights)
        return real(weights)

    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1), A2.weight(-1, 2)])
    monkeypatch.setattr(topology, "is_locally_closed", record)
    monkeypatch.setattr(category_o, "is_locally_closed", record, raising=False)
    table = build_decomposition_table(K, 2)
    assert calls == []
    assert table.region == K.sorted
    assert build_decomposition_table(list(K), 2) == table
    assert len(calls) == 1


def test_table_consistency_a1():
    table = build_decomposition_table([A1.weight(c) for c in (-3, -1, 1)], 2)
    report = validate_table_consistency(table)
    assert report.passed


def test_table_consistency_a2():
    weights = [A2.weight(0, 0), A2.weight(2, -1), A2.weight(-1, 2)]
    table = build_decomposition_table(weights, 2)
    report = validate_table_consistency(table)
    assert report.passed


def test_tensor_flag_identity_for_trivial_gamma():
    V = FlagVector({A1.weight(0): 1, A1.weight(2): 3})
    out = tensor_flag(V, A1.weight(0), 2)
    assert out == V


def test_tensor_flag_frozen_example():
    out = tensor_flag(FlagVector({A1.weight(0): 1}), A1.weight(2), 2)
    assert out == FlagVector({A1.weight(2): 1, A1.weight(-2): 1})


def test_tensor_flag_linearity_and_mass():
    single = tensor_flag(FlagVector({A1.weight(0): 1}), A1.weight(2), 3)
    double = tensor_flag(FlagVector({A1.weight(0): 2}), A1.weight(2), 3)
    assert {w: 2 * m for w, m in single.mult.items()} == double.mult
    dim = sum(c for _, c in full_simple_character(A1.weight(2), 3).items())
    assert double.total() == 2 * dim


def test_truncate_flag_partition():
    V = FlagVector({A1.weight(0): 1, A1.weight(2): 1})
    J = OpenSet.down_closure([A1.weight(0)])
    lower = truncate_flag(V, J, "open")
    upper = truncate_flag(V, lambda w: not J.contains(w), "closed")
    assert lower == FlagVector({A1.weight(0): 1})
    assert upper == FlagVector({A1.weight(2): 1})
    assert truncate_flag(V, lambda w: True, "open") == V


def test_truncate_flag_validates_predicates():
    V = FlagVector({A1.weight(0): 1, A1.weight(2): 1})
    J = OpenSet.down_closure([A1.weight(0)])
    with pytest.raises(PredicateError):
        truncate_flag(V, J, "closed")
    with pytest.raises(PredicateError):
        truncate_flag(V, lambda w: not J.contains(w), "open")


def test_q_module_mult_values():
    J = OpenSet.down_closure([A1.weight(3)])
    flag = q_module_mult(A1.weight(-3), J)
    assert flag == FlagVector({A1.weight(-3): 1, A1.weight(-1): 1, A1.weight(1): 1, A1.weight(3): 1})
    J2 = OpenSet.down_closure([A2.weight(1, 1)])
    flag2 = q_module_mult(A2.weight(0, 0), J2)
    assert flag2.get(A2.weight(1, 1)) == 2
    assert flag2.get(A2.weight(0, 0)) == 1
    with pytest.raises(ValueError):
        q_module_mult(A1.weight(5), J)


def test_projective_verma_mult_examples():
    J = OpenSet.down_closure([A1.weight(1)])
    flag = projective_verma_mult(A1.weight(1), J, 2)
    assert flag == FlagVector({A1.weight(1): 1})
    flag2 = projective_verma_mult(A1.weight(-3), J, 2)
    assert flag2.get(A1.weight(1)) == 1
    assert flag2.get(A1.weight(-3)) == 1
    for w in flag2.support():
        assert J.contains(w)


def _random_convex_region(rs, rng, span, size):
    # The weights between two of a few random ones, each above a random base:
    # convex, since xi1 <= eta <= xi2 with s1 <= xi1 and xi2 <= s2 puts eta
    # in [s1, s2].  Half the time a translate off the root lattice joins it,
    # whose weights are comparable with none of the first.
    units = (rs.weight(*(int(i == j) for j in range(rs.rank))) for i in range(rs.rank))
    off = next(w for w in units if rs.to_root_vector(w) is None)
    while True:
        base = rs.weight(*(rng.randint(-span, span) for _ in range(rs.rank)))
        seeds = [base] + [base + rs.weight_of(tuple(rng.randint(0, 3) for _ in range(rs.rank)))
                          for _ in range(rng.randint(1, 2))]
        region = {w for s1 in seeds for s2 in seeds for w in interval(s1, s2)}
        if rng.random() < 0.5:
            region |= {w + off for w in region}
        if len(region) <= size:
            return LocallyClosedSet.make(region)


@pytest.mark.parametrize("typ, p, span, size", [
    ("A1", 2, 6, 8), ("A1", 3, 6, 8), ("A1", 5, 9, 8),
    ("A2", 2, 2, 12), ("A2", 3, 2, 12), ("A2", 5, 3, 12),
    ("B2", 2, 2, 12), ("B2", 3, 2, 12), ("B2", 5, 2, 12),
])
def test_region_table_equals_rows_on_a_deeper_box(typ, p, span, size):
    # Each row peeled inside the region gives the entries of the whole-box
    # row of decomposition_numbers, on a box deeper than the region.
    rs = build_root_system(typ)
    rng = random.Random(f"{typ}-{p}")
    linked = 0
    for _ in range(5):
        K = _random_convex_region(rs, rng, span, size)
        table = build_decomposition_table(K, p)
        expect = {}
        for mu in K:
            below = [lam for lam in K if leq(lam, mu)]
            depth = max(sum(rs.to_root_vector(mu - lam)) for lam in below) + 2
            row = decomposition_numbers(mu, p, depth)
            expect.update(((mu, lam), row[lam]) for lam in below if row.get(lam))
        assert table.entries == expect
        assert set(table.comparable) == {(mu, lam) for mu in K for lam in K if leq(lam, mu)}
        linked += sum(mu != lam for mu, lam in table.entries)
    assert linked


@pytest.mark.parametrize("typ, p, lam, ceiling", [
    ("A1", 2, (-5,), [(3,)]), ("A2", 3, (-2, -2), [(2, 2)]),
    ("A2", 2, (-3, 0), [(1, 1), (3, -2)]), ("B2", 3, (-2, -2), [(2, 2)]),
    ("B2", 5, (-2, -1), [(1, 1), (3, -1)]),
])
def test_projective_mult_equals_rows_read_one_by_one(typ, p, lam, ceiling):
    # Column lam of the up-set's table against one box row per mu, read at lam.
    rs = build_root_system(typ)
    lam = rs.weight(*lam)
    J = OpenSet.down_closure([rs.weight(*c) for c in ceiling])
    rows = {mu: decomposition_numbers(mu, p, sum(rs.to_root_vector(mu - lam))) for mu in J.up_set(lam)}
    assert projective_verma_mult(lam, J, p) == FlagVector({mu: row.get(lam, 0) for mu, row in rows.items()})


def test_steinberg_digits_examples():
    assert [d.coords for d in steinberg_digits(A1.weight(4), 3)] == [(1,), (1,)]
    assert [d.coords for d in steinberg_digits(A2.weight(1, 0), 2)] == [(1, 0)]
    assert [d.coords for d in steinberg_digits(A2.weight(2, 3), 2)] == [(0, 1), (1, 1)]
    with pytest.raises(ValueError):
        steinberg_digits(A1.weight(-1), 2)


def test_steinberg_check_examples():
    ok, diff = steinberg_check(A1.weight(4), 3, box1(4, 8))
    assert ok and not diff.coeffs
    ok2, _ = steinberg_check(A1.weight(3), 2, box1(3, 8))
    assert ok2
    ok3, _ = steinberg_check(A1.weight(1), 5, box1(1, 4))
    assert ok3  # restricted weight, single factor


def test_steinberg_check_a2():
    box = TruncationBox.make(A2.weight(2, 2), 6)
    ok, diff = steinberg_check(A2.weight(2, 2), 2, box)
    assert ok and not diff.coeffs


def test_simple_character_matches_the_ring_digit_product():
    # steinberg_check compares the Gram sweep with the digit recursion; this
    # keeps an independent convolution of twisted digit characters checked.
    B2 = build_root_system("B2")
    cases = [(A1.weight(t), p) for t in range(21) for p in (2, 3)]
    cases += [(A2.weight(a, b), p) for a in range(6) for b in range(6) for p in (2, 3)]
    cases += [(B2.weight(2, 3), 2), (B2.weight(1, 2), 2), (B2.weight(3, 1), 3)]
    for lam, p in cases:
        chi = full_simple_character(lam, p)
        assert chi.coeffs == oracles.ring_digit_product(lam, p), (lam, p)


def test_simple_dimensions_match_literature():
    # Frozen values from the standard small-rank tables of restricted
    # simple dimensions; fully independent of this code base.
    B2 = build_root_system("B2")

    def dim(rs, coords, p):
        chi = full_simple_character(rs.weight(*coords), p)
        return sum(c for _, c in chi.items())

    assert dim(A2, (1, 0), 2) == 3
    assert dim(A2, (1, 1), 2) == 8      # Steinberg p=2
    assert dim(A2, (1, 1), 3) == 7      # adjoint loses the center in char 3
    assert dim(A2, (2, 2), 3) == 27     # Steinberg p=3
    assert dim(A2, (2, 0), 2) == 3      # twist of L(1,0)
    assert dim(B2, (1, 0), 2) == 4      # 5-dim vector rep degenerates
    assert dim(B2, (0, 1), 2) == 4
    assert dim(B2, (1, 1), 2) == 16     # Steinberg p=2
    assert dim(B2, (1, 0), 3) == 5
    assert dim(B2, (0, 1), 3) == 4
    assert dim(B2, (2, 2), 3) == 81     # Steinberg p=3, height-14 Gram sweep


@pytest.mark.parametrize("p", [5, 7])
def test_steinberg_module_is_the_weyl_module_a2(p):
    # Steinberg 1963; Jantzen, Representations of Algebraic Groups, II.3.18:
    # L((p-1) rho) is the Weyl module, of dimension p^{|Phi^+|}.
    lam = A2.weight(p - 1, p - 1)
    chi = full_simple_character(lam, p)
    assert chi.coeffs == weyl_character(lam).coeffs
    assert sum(c for _, c in chi.items()) == p**3


def test_steinberg_and_frobenius_b2():
    B2 = build_root_system("B2")
    for coords, p, depth in [((2, 3), 2, 5), ((1, 2), 2, 5), ((3, 1), 3, 4)]:
        lam = B2.weight(*coords)
        ok, diff = steinberg_check(lam, p, TruncationBox.make(lam, depth))
        assert ok, diff.serialize()
    lam = B2.weight(1, 1)
    box = TruncationBox.make(lam, 4)
    twisted = oracles.twisted(simple_character(lam, 2, box).coeffs, 2)
    direct = simple_character(lam * 2, 2, oracles.scaled_box(box, 2))
    assert twisted == direct.coeffs


def _restricted_weights():
    for typ, primes in (("A1", (2, 3, 5, 7)), ("A2", (2, 3, 5)), ("B2", (2, 3, 5))):
        rs = build_root_system(typ)
        for p in primes:
            for coords in itertools.product(range(p), repeat=rs.rank):
                yield rs.weight(*coords), p


def test_restricted_asks_are_the_weyl_module_support(monkeypatch):
    # A restricted lam asked to height_drop ranks exactly the nu with lam - nu
    # a dominant weight of W(lam), read off the alternating Weyl sum; the
    # table holds exactly the whole support, and every nu it leaves out
    # within height_drop ranks 0 in the Gram sweep.
    import modcato.category_o as category_o

    real = category_o.simple_weight_dims
    asked = []

    def record(lam, nus, p, guard=None):
        asked.extend(nus)
        return {nu: 1 for nu in nus}

    monkeypatch.setattr(category_o, "simple_weight_dims", record)
    weights = zeros = 0
    for lam, p in _restricted_weights():
        rs = lam.system
        drop = height_drop(lam)
        nus = list(rs.root_vectors_up_to_height(drop))
        monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
        asked.clear()
        dims = category_o._simple_dims(lam, p, drop, None)
        support = oracles.weyl_alternating_sum(lam, [lam - rs.weight_of(nu) for nu in nus])
        dominant = {w for w in support if is_dominant(w)}
        assert len(asked) == len(set(asked)), (lam, p)
        assert {lam - rs.weight_of(nu) for nu in asked} == dominant, (lam, p)
        assert set(dims) <= set(nus) and all(dims.values()), (lam, p)
        assert {lam - rs.weight_of(nu) for nu in dims} == support.keys(), (lam, p)
        weights += 1
        if drop <= 14:
            dropped = [nu for nu in nus if lam - rs.weight_of(nu) not in support]
            assert not any(real(lam, dropped, p).values()), (lam, p)
            zeros += len(dropped)
    assert (weights, zeros) == (93, 1642)


def test_restricted_tables_match_one_sweep_without_w(monkeypatch):
    # A restricted lam ranks one weight space per W-orbit and copies it to
    # the rest of the orbit (Jantzen, RAG, II.1.19).  One Gram sweep of
    # every nu up to height_drop, which never uses W, must give the same table.
    import modcato.category_o as category_o

    cases = 0
    for lam, p in _restricted_weights():
        drop = height_drop(lam)
        if drop > 14:
            continue
        nus = list(lam.system.root_vectors_up_to_height(drop))
        monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
        dims = category_o._simple_dims(lam, p, drop, None)
        sweep = simple_weight_dims(lam, nus, p)
        assert dims == {nu: d for nu, d in sweep.items() if d}, (lam, p)
        cases += 1
    assert cases == 80


@pytest.mark.parametrize("typ, coords, p, depth", [
    ("A2", (5, 4), 3, 12), ("A2", (-1, -1), 3, 12), ("A2", (-4, 7), 2, 10),
    ("B2", (5, 4), 3, 12), ("B2", (-1, -1), 2, 12), ("B2", (7, 3), 5, 14),
])
def test_digit_product_asks_each_digit_once(typ, coords, p, depth, monkeypatch):
    # One product step asks L(lam0) once, at the asked height, and L(lam1)
    # once, at that height // p, and keeps only nonzero dimensions.  At
    # lam = (-1,-1) the second digit is lam itself, asked lower down.
    import modcato.category_o as category_o

    real = category_o._simple_dims
    level = []
    children = []

    def record(lam, p, height, guard):
        if len(level) == 1:
            children.append((lam, height))
        level.append(lam)
        try:
            return real(lam, p, height, guard)
        finally:
            level.pop()

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "_simple_dims", record)
    rs = build_root_system(typ)
    lam = rs.weight(*coords)
    lam0, lam1 = category_o._digits(lam, p)
    dims = category_o._simple_dims(lam, p, depth, None)
    assert children == [(lam0, depth), (lam1, depth // p)]
    assert all(dims.values()) and max(map(sum, dims)) <= depth
    box = TruncationBox.make(lam, depth)
    expect = oracles.sweep_simple_coeffs(lam, p, box)
    assert {box.weight(nu): d for nu, d in dims.items()} == expect


@pytest.mark.parametrize("typ, coords, p, height", [
    ("A1", (255,), 2, 300), ("A1", (-1,), 3, 200), ("A2", (-1, -1), 3, 60),
    ("A2", (8, 8), 3, 30), ("B2", (5, 4), 3, 40), ("B2", (-1, -1), 2, 30),
])
def test_digit_product_guard_reads_the_step_term_count(typ, coords, p, height, monkeypatch):
    # The top step pairs nu0 of L(lam0) with mu of L(lam1) wherever
    # |nu0| + p|mu| <= height.  The guard trips one term below that count
    # and not at it; its floor, read before L(lam1) is asked, is no larger.
    import modcato.category_o as category_o

    rs = build_root_system(typ)
    lam = rs.weight(*coords)
    lam0, lam1 = category_o._digits(lam, p)
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    d0 = category_o._simple_dims(lam0, p, height, None)
    d1 = category_o._simple_dims(lam1, p, height // p, None)
    terms = sum(1 for nu0 in d0 for mu in d1 if sum(nu0) + p * sum(mu) <= height)
    n1, top1 = category_o._size_floor(lam1, p, height // p)
    assert n1 * sum(1 for nu0 in d0 if sum(nu0) + p * top1 <= height) <= terms
    assert n1 <= len(d1) and max(map(sum, d1)) <= top1
    category_o._SIMPLE_CACHE.clear()
    with pytest.raises(SizeGuardError, match=f"of L\\({re.escape(str(lam.coords))}\\) at p={p} has at least "
                                             f"\\d+ terms, over the guard's max_terms={terms - 1}"):
        category_o._simple_dims(lam, p, height, SizeGuard(max_terms=terms - 1))
    category_o._SIMPLE_CACHE.clear()
    assert category_o._simple_dims(lam, p, height, SizeGuard(max_terms=terms))


def test_digit_product_trips_the_guard_before_building_it(monkeypatch):
    # L(2^20 - 1) at p = 2 has 2^20 weights, each of dimension 1; its last
    # step trips the default guard of 10^6 terms, and L(10^20 - 1) trips it
    # from the digits' orbits alone, before any product is built.
    import modcato.category_o as category_o

    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    dims = category_o._simple_dims(A1.weight(2**16 - 1), 2, 70000, None)
    assert len(dims) == 2**16 and set(dims.values()) == {1}
    for lam in (2**20 - 1, 10**20 - 1):
        category_o._SIMPLE_CACHE.clear()
        with pytest.raises(SizeGuardError, match="max_terms=1000000"):
            category_o._simple_dims(A1.weight(lam), 2, 10**20, None)
    assert len(category_o._SIMPLE_CACHE) < 100


@pytest.mark.parametrize("typ", ["A2", "B2"])
@pytest.mark.parametrize("coords", [(5, 4), (-1, -1), (-4, 7)])
def test_a_table_extended_in_steps_equals_one_ask(typ, coords, monkeypatch):
    # Asking height h and then h' > h extends the memo of lam and of its
    # digits, the restricted digit's included; the result must be the table
    # one fresh ask at h' gives, and the Gram sweep on the box of depth h'.
    import modcato.category_o as category_o

    rs = build_root_system(typ)
    lam = rs.weight(*coords)
    for p, steps in ((3, (0, 1, 4, 10)), (2, (3, 9))):
        monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
        for h in steps:
            stepped = category_o._simple_dims(lam, p, h, None)
        monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
        assert stepped == category_o._simple_dims(lam, p, steps[-1], None), (lam, p)
        box = TruncationBox.make(lam, steps[-1])
        expect = oracles.sweep_simple_coeffs(lam, p, box)
        assert {box.weight(nu): d for nu, d in stepped.items()} == expect, (lam, p)
