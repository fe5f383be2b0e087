"""Contravariant Gram matrices, their checks against whole-word straightening, and rank computations."""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from modcato import hypalg
from modcato.charring import weyl_character
from modcato.errors import ExactnessError, SizeGuardError
from modcato.hypalg import (
    DEFAULT_GUARD,
    ChevalleyStructure,
    PBWEngine,
    SizeGuard,
    _divided_grams,
    _f_exponents,
    _solve_in_basis,
    get_engine,
    get_structure,
    rank_mod_p,
    rank_rational,
    shapovalov_gram,
    simple_weight_dims,
)
from modcato.rootdata import build_root_system, kostant_partition

from oracles import (
    binomial_mod_p,
    determinant,
    f_exponents_brute_force,
    lucas_dominates,
    partition_counts_by_genfun,
    rank_by_fractions,
    shapovalov_product,
    sl2_divided_gram,
    sl2_gram_ordinary,
)
from straightener import evaluate, hc_project, multiply, straighten, weight

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")


def test_structure_tables_build_for_all_types():
    for ct in ("A1", "A2", "B2"):
        get_structure(ct)


def test_structure_table_with_flipped_sign_builds():
    get_structure("A2", flip=(2,))
    get_structure("B2", flip=(2, 3))


def test_f_exponents_counts_match_partition():
    for rs in (A1, A2, B2):
        for nu in rs.root_vectors_up_to_height(8):
            monos = list(_f_exponents(rs, nu))
            assert len(monos) == kostant_partition(rs, nu)
            assert monos == sorted(monos)


@pytest.mark.parametrize("cartan_type", ["A1", "A2", "B2"])
def test_f_exponents_matches_brute_force(cartan_type):
    # The solved basis against trying every exponent of every root: the same
    # tuples in the same order, and as many as the generating function says.
    rs = build_root_system(cartan_type)
    counts = partition_counts_by_genfun(cartan_type, 14)
    for nu in rs.root_vectors_up_to_height(14):
        exps = list(_f_exponents(rs, nu))
        assert exps == list(f_exponents_brute_force(cartan_type, nu)), nu
        assert len(exps) == counts[nu], nu


def test_f_exponents_examples():
    assert len(_f_exponents(A1, (2,))) == 1
    assert _f_exponents(A1, (2,))[0] == (2,)
    assert len(_f_exponents(A2, (1, 1))) == 2
    empty = _f_exponents(A2, (0, 0))
    assert len(empty) == 1 and not any(empty[0])


def test_sl2_defining_relation():
    terms = straighten("A1", [("e", 0, 1), ("f", 0, 1)])
    assert terms == {((1,), (0,), (1,)): 1, ((0,), (1,), (0,)): 1}


def test_h_past_f_commutation():
    # h_i * f_a = f_a * h_i - <a, a_i^vee> f_a  for each positive root a.
    for rs in (A1, A2, B2):
        for k in range(len(rs.positive_roots)):
            for i in range(rs.rank):
                u = straighten(rs.cartan_type, [("h", i, 1), ("f", k, 1)])
                m = len(rs.positive_roots)
                f1 = tuple(1 if t == k else 0 for t in range(m))
                hz = (0,) * rs.rank
                h1 = tuple(1 if t == i else 0 for t in range(rs.rank))
                ez = (0,) * m
                pairing = rs.root_fund[k][i]
                expected = {(f1, h1, ez): 1}
                if pairing:
                    expected[(f1, hz, ez)] = -pairing
                assert u == expected


def test_a2_commuting_generators():
    # e_alpha and f_beta commute: alpha - beta is not a root.
    u = straighten("A2", [("e", 1, 1), ("f", 0, 1)])
    assert len(u) == 1
    (((f_exps, _, e_exps), c),) = u.items()
    assert c == 1
    assert f_exps == (1, 0, 0) and e_exps == (0, 1, 0)


def test_weight_homogeneity_random_words():
    rng = random.Random(11)
    for rs in (A1, A2):
        m = len(rs.positive_roots)
        for _ in range(25):
            word = []
            for _ in range(rng.randint(1, 6)):
                kind = rng.choice(["e", "f", "h"])
                pos = rng.randrange(m if kind != "h" else rs.rank)
                word.append((kind, pos, rng.randint(1, 2)))
            u = straighten(rs.cartan_type, word)
            if not u:
                continue
            expected = [0] * rs.rank
            for kind, pos, power in word:
                if kind == "h":
                    continue
                sgn = 1 if kind == "e" else -1
                for i in range(rs.rank):
                    expected[i] += sgn * power * rs.positive_roots[pos][i]
            assert weight(rs.cartan_type, u) == tuple(expected)


def test_associativity_spot_check():
    rng = random.Random(5)
    for rs in (A1, A2):
        m = len(rs.positive_roots)
        for _ in range(12):
            words = []
            for _ in range(3):
                w = []
                for _ in range(rng.randint(1, 3)):
                    kind = rng.choice(["e", "f", "h"])
                    pos = rng.randrange(m if kind != "h" else rs.rank)
                    w.append((kind, pos, rng.randint(1, 2)))
                words.append(w)
            ct = rs.cartan_type
            u, v, w = (straighten(ct, word) for word in words)
            assert multiply(ct, multiply(ct, u, v), w) == multiply(ct, u, multiply(ct, v, w))
            assert multiply(ct, u, multiply(ct, v, w)) == straighten(ct, words[0] + words[1] + words[2])


def test_hc_project_examples():
    u = straighten("A1", [("e", 0, 1), ("f", 0, 1)])
    h = hc_project(u)
    assert len(h) == 1
    (((_, h_exps, _), c),) = h.items()
    assert h_exps == (1,) and c == 1
    pure_f = straighten("A1", [("f", 0, 2)])
    assert hc_project(pure_f) == {}


def test_hc_project_e2f2_matches_matrix_oracle():
    u = hc_project(straighten("A1", [("e", 0, 2), ("f", 0, 2)]))
    for t in range(0, 7):
        assert evaluate(u, (t,)) == sl2_gram_ordinary(t, 2)
        divided = evaluate(u, (t,)) // (math.factorial(2) ** 2)
        assert divided == math.comb(t, 2)


def test_chi_eval_examples():
    h = straighten("A1", [("h", 0, 1)])
    assert evaluate(h, (5,)) % 7 == 5
    h2 = straighten("A1", [("h", 0, 2)])  # h^2
    # h(h-1) at 5 equals 20; build it from h^2 - h.
    val = evaluate(h2, (5,)) - evaluate(h, (5,))
    assert val % 3 == 20 % 3
    one = straighten("A1", [])
    assert evaluate(one, (0,)) % 5 == 1
    with pytest.raises(ValueError):
        evaluate(straighten("A1", [("f", 0, 1)]), (0,))


def test_binomial_mod_p_examples():
    assert binomial_mod_p(5, 2, 3) == 1
    assert binomial_mod_p(3, 1, 3) == 0
    assert binomial_mod_p(-3, 2, 2) == 0
    for a in range(-6, 12):
        for n in range(0, 7):
            expect = math.comb(a, n) if a >= 0 else (-1) ** n * math.comb(-a + n - 1, n)
            assert binomial_mod_p(a, n, 5) == expect % 5


def test_shapovalov_gram_rank1_values():
    g = shapovalov_gram(A1.weight(3), (1,))
    assert g.entries == ((3,),)
    g0 = shapovalov_gram(A1.weight(5), (0,))
    assert g0.entries == ((1,),)
    for t in range(0, 7):
        for n in range(0, 7):
            g = shapovalov_gram(A1.weight(t), (n,))
            assert g.entries[0][0] == sl2_divided_gram(t, n) == math.comb(t, n)


def test_shapovalov_gram_a2_weight_alpha_plus_beta():
    # Known 2x2 form on the (alpha+beta)-depth space; determinant is the
    # classical product t1 t2 (t1 + t2 + 1) up to basis ordering.
    for t1 in range(0, 4):
        for t2 in range(0, 4):
            g = shapovalov_gram(A2.weight(t1, t2), (1, 1))
            det = g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0]
            assert det == t1 * t2 * (t1 + t2 + 1)


def test_simple_weight_dims_examples():
    assert simple_weight_dims(A1.weight(3), [(1,)], 3)[(1,)] == 0
    assert simple_weight_dims(A1.weight(3), [(0,)], 3)[(0,)] == 1
    assert simple_weight_dims(A1.weight(1), [(1,)], 2)[(1,)] == 1


def test_rank_rational_examples():
    assert rank_rational(shapovalov_gram(A1.weight(3), (2,)).entries) == 1
    assert rank_rational(shapovalov_gram(A1.weight(3), (4,)).entries) == 0
    assert rank_rational(shapovalov_gram(A2.weight(0, 0), (0, 0)).entries) == 1


def test_char0_ranks_match_weyl_coefficients_small():
    for lam_coords in [(1, 0), (1, 1), (2, 1)]:
        lam = A2.weight(*lam_coords)
        chi = weyl_character(lam)
        for nu in A2.root_vectors_up_to_height(4):
            expect = chi.coefficient(lam - A2.weight_of(nu))
            assert rank_rational(shapovalov_gram(lam, nu).entries) == expect


def test_b2_char0_ranks_match_weyl_coefficients():
    for lam_coords in [(1, 0), (0, 1), (1, 1)]:
        lam = B2.weight(*lam_coords)
        chi = weyl_character(lam)
        for nu in B2.root_vectors_up_to_height(4):
            expect = chi.coefficient(lam - B2.weight_of(nu))
            assert rank_rational(shapovalov_gram(lam, nu).entries) == expect


def test_lucas_oracle_small():
    for p in (2, 3):
        for t in range(0, 13):
            for n in range(0, t + 1):
                dim = simple_weight_dims(A1.weight(t), [(n,)], p)[(n,)]
                assert dim == (1 if lucas_dominates(n, t, p) else 0)


def test_sign_flip_leaves_ranks_invariant():
    plain = get_engine("A2")
    flipped = get_engine("A2", flip=(2,))
    guard = SizeGuard()
    for lam_coords in [(1, 1), (2, 0), (2, 2)]:
        lam = A2.weight(*lam_coords)
        for nu in A2.root_vectors_up_to_height(4):
            g1 = shapovalov_gram(lam, nu, engine=plain)
            g2 = shapovalov_gram(lam, nu, engine=flipped, guard=guard)
            assert rank_rational(g1.entries) == rank_rational(g2.entries)
            for p in (2, 3):
                assert rank_mod_p(g1.entries, p) == rank_mod_p(g2.entries, p)


def _straightened_grams(cartan_type, flip, max_height):
    """Per nu, the divided-power Gram as U^0 polynomials with their
    factorial denominators, from straightening transpose(f^I) f^J."""
    rs = build_root_system(cartan_type)
    m = len(rs.positive_roots)
    out = {}
    for nu in rs.root_vectors_up_to_height(max_height):
        basis = list(_f_exponents(rs, nu))
        out[nu] = [
            [
                (
                    hc_project(straighten(
                        cartan_type,
                        [("e", k, bi[k]) for k in reversed(range(m)) if bi[k]]
                        + [("f", k, bj[k]) for k in range(m) if bj[k]],
                        flip,
                    )),
                    math.prod(math.factorial(a) for a in bi + bj),
                )
                for bj in basis
            ]
            for bi in basis
        ]
    return out


def test_hc_pipeline_agrees_with_general_straightening():
    # Differential check: the Gram sweep against straightening the whole
    # word transpose(f^I) f^J and projecting to U^0, entry by entry.
    for rs in (A2, B2):
        eng = get_engine(rs.cartan_type)
        for nu, cells in _straightened_grams(rs.cartan_type, (), 3).items():
            basis = list(_f_exponents(rs, nu))
            for a in range(-2, 4):
                for b in range(-2, 4):
                    lam = rs.weight(a, b)
                    g = shapovalov_gram(lam, nu, engine=eng)
                    assert list(g.basis) == basis
                    for i, row in enumerate(cells):
                        for j, (h, den) in enumerate(row):
                            raw = evaluate(h, lam.coords)
                            assert raw % den == 0
                            assert g.entries[i][j] == raw // den, (rs.cartan_type, lam, nu)


@pytest.mark.parametrize(
    "cartan_type,flip", [("A2", ()), ("B2", ()), ("B2", (2, 3))], ids=["A2", "B2", "B2-flipped"]
)
def test_e_on_f_recursion_matches_straightening(cartan_type, flip):
    # The one-letter commutation against straightening the word e_k f^J in
    # full: the terms free of e are the ones that survive on v_lam, and each
    # has at most one h, so its coefficient c_0 + sum_i c_i h_i is affine.
    rs = build_root_system(cartan_type)
    eng = PBWEngine(get_structure(cartan_type, flip))
    guard = SizeGuard()
    for nu in rs.root_vectors_up_to_height(5):
        for exps in _f_exponents(rs, nu):
            word = [("f", j, a) for j, a in enumerate(exps) if a]
            for k in range(len(rs.positive_roots)):
                expect = {}
                for (f_exps, h_exps, e_exps), c in straighten(cartan_type, [("e", k, 1)] + word, flip).items():
                    if not any(e_exps):
                        assert sum(h_exps) <= 1
                        vec = expect.setdefault(f_exps, [0] * (1 + rs.rank))
                        vec[1 + h_exps.index(1) if any(h_exps) else 0] = c
                expect = {f: tuple(vec) for f, vec in expect.items()}
                assert eng._e_on_f(k, exps, guard) == expect, (k, exps)


@pytest.mark.parametrize(
    "cartan_type,flip", [("A2", ()), ("B2", ()), ("B2", (2, 3))], ids=["A2", "B2", "B2-flipped"]
)
def test_left_f_matches_straightening(cartan_type, flip):
    # The memoised left multiplication in U^- against straightening the word
    # f_j f^M, on a fresh engine per product so no memo entry is shared.
    rs = build_root_system(cartan_type)
    structure = get_structure(cartan_type, flip)
    guard = SizeGuard()
    for nu in rs.root_vectors_up_to_height(6):
        for exps in _f_exponents(rs, nu):
            word = [("f", t, a) for t, a in enumerate(exps) if a]
            for j in range(len(rs.positive_roots)):
                u = straighten(cartan_type, [("f", j, 1)] + word, flip)
                assert all(not any(h) and not any(e) for _, h, e in u)
                expect = {f: c for (f, _, _), c in u.items()}
                got = PBWEngine(structure)._left_f(j, exps, guard)
                assert got == expect, (j, exps)


def test_left_f_checks_size_guard():
    # f_(1,0) f_(0,1)^2 has three terms in B2; a fresh engine must trip.
    assert len(PBWEngine(get_structure("B2"))._left_f(1, (2, 0, 0, 0), SizeGuard())) > 1
    with pytest.raises(SizeGuardError):
        PBWEngine(get_structure("B2"))._left_f(1, (2, 0, 0, 0), SizeGuard(max_terms=1))


@pytest.mark.parametrize(
    "cartan_type,flip", [("A1", ()), ("A2", ()), ("B2", ()), ("B2", (2, 3))],
    ids=["A1", "A2", "B2", "B2-flipped"],
)
def test_sweep_ranks_match_straightened_grams(cartan_type, flip):
    # The height-ordered sweep against Grams built entry by entry from
    # whole-word straightening, which shares no code with the plans.
    rs = build_root_system(cartan_type)
    grams = _straightened_grams(cartan_type, flip, 4)
    eng = get_engine(cartan_type, flip)
    rng = random.Random(7 + len(flip) + rs.rank)
    for _ in range(6):
        lam = rs.weight(*[rng.randint(-3, 4) for _ in range(rs.rank)])
        for p in (2, 3, 5):
            expect = {}
            for nu, cells in grams.items():
                rows = []
                for row in cells:
                    rows.append([])
                    for poly, den in row:
                        value, rem = divmod(evaluate(poly, lam.coords), den)
                        assert rem == 0
                        rows[-1].append(value)
                expect[nu] = rank_mod_p(rows, p)
            sweep = _divided_grams(eng, lam.coords, list(grams), DEFAULT_GUARD)
            assert {nu: rank_mod_p(entries, p) for nu, _, entries in sweep} == expect, (lam, p)
            if not flip:
                assert simple_weight_dims(lam, list(grams), p) == expect, (lam, p)


def _corrupted(eng, nu, k, column):
    """eng._plan with c_0 of the first term of one e_k f^J v column raised by 1."""
    real = eng._plan
    higher = tuple(a - b for a, b in zip(nu, eng.rs.positive_roots[k]))

    def plan(nu_coeffs, guard):
        out = real(nu_coeffs, guard)
        if nu_coeffs != nu:
            return out
        groups = []
        for group in out.groups:
            if group.higher == higher:
                c0 = list(group.coeffs[0])
                c0[group.spans[column][0]] += 1
                group = group._replace(coeffs=(tuple(c0), *group.coeffs[1:]))
            groups.append(group)
        return out._replace(groups=tuple(groups))

    return plan


@pytest.mark.parametrize(
    "cartan_type,lam,nu,k,column,message",
    [
        # Off-diagonal entry of the f_(1,1) row: its mirror comes from the
        # f_(0,1) f_(1,0) row, so only the symmetry check can see it.
        ("A2", (2, 1), (1, 1), 2, 1, "not symmetric"),
        # <f^2 v, f^2 v> = lam (2 lam - 2) becomes lam (2 lam - 1), which 2!^2
        # does not divide at lam = 1.
        ("A1", (1,), (2,), 0, 0, "not integral"),
    ],
)
def test_sweep_catches_a_corrupted_plan_column(monkeypatch, cartan_type, lam, nu, k, column, message):
    rs = build_root_system(cartan_type)
    eng = PBWEngine(get_structure(cartan_type))
    monkeypatch.setattr(eng, "_plan", _corrupted(eng, nu, k, column))
    with pytest.raises(ExactnessError, match=message):
        shapovalov_gram(rs.weight(*lam), nu, engine=eng)
    # The same sweep on a clean engine passes every check.
    shapovalov_gram(rs.weight(*lam), nu, engine=PBWEngine(get_structure(cartan_type)))


def test_sweep_checks_every_weight_space_against_the_guard_first():
    # (2,2) has a 3-dim weight space; (1,0) is fine but comes first.  No
    # plan and no Gram may be built before the guard trips.
    eng = PBWEngine(get_structure("A2"))
    with pytest.raises(SizeGuardError, match="dimension 3 exceeds guard 2"):
        next(_divided_grams(eng, (3, 3), [(1, 0), (2, 2)], SizeGuard(max_gram_dim=2)))
    assert eng._plans == {} and eng._memo_e_on_f == {} and eng._memo_left_f == {}


def _frames() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "cartan_type,lam,nu", [("A1", (3,), (600,)), ("A2", (1, 2), (3, 60)), ("B2", (2, 1), (3, 60))]
)
def test_sweep_recursion_depth_does_not_grow_with_nu(cartan_type, lam, nu):
    # A fresh engine builds every memo entry and plan below nu; 40 frames
    # above this test's own must be enough however deep nu is.
    rs = build_root_system(cartan_type)
    eng = PBWEngine(get_structure(cartan_type))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 40)
    try:
        gram = shapovalov_gram(rs.weight(*lam), nu, engine=eng)
    finally:
        sys.setrecursionlimit(limit)
    assert rank_mod_p(gram.entries, 2) == simple_weight_dims(rs.weight(*lam), [nu], 2)[nu]


# Shapovalov 1972; Jantzen, Kontravariante Formen auf induzierten
# Darstellungen, Math. Ann. 1977.  det G_nu(lam) is a nonzero constant times
# prod_{beta>0} prod_{r>=1} (<lam+rho, beta^vee> - r)^{P(nu - r beta)}; the
# divided-power normalisation only changes the constant.
SHAPOVALOV_CONSTANTS = {
    ("A2", (1, 1)): Fraction(1),
    ("A2", (2, 1)): Fraction(1, 2),
    ("A2", (2, 2)): Fraction(1, 8),
    ("A2", (3, 2)): Fraction(1, 48),
    ("B2", (1, 1)): Fraction(1),
    ("B2", (1, 2)): Fraction(1, 2),
    ("B2", (2, 2)): Fraction(1, 8),
    ("B2", (2, 3)): Fraction(1, 48),
    ("B2", (2, 4)): Fraction(1, 4608),
}


@pytest.mark.parametrize(
    "cartan_type,nu", sorted(SHAPOVALOV_CONSTANTS),
    ids=[f"{t}-{a},{b}" for t, (a, b) in sorted(SHAPOVALOV_CONSTANTS)],
)
def test_gram_determinant_matches_shapovalov_formula(cartan_type, nu):
    rs = build_root_system(cartan_type)
    eng = get_engine(cartan_type)
    constant = SHAPOVALOV_CONSTANTS[cartan_type, nu]
    for a in range(-3, 6):
        for b in range(-3, 6):
            g = shapovalov_gram(rs.weight(a, b), nu, engine=eng)
            det = determinant(g.entries)
            assert det == constant * shapovalov_product(cartan_type, (a, b), nu), (a, b)
            assert det.denominator == 1
            for p in (2, 3):
                if int(det) % p:
                    assert rank_mod_p(g.entries, p) == len(g.entries), (a, b, p)


def test_shapovalov_gram_rejects_wrong_length_nu():
    # An A1 vector against an A2 weight once looped forever in the guard's
    # partition count.
    with pytest.raises(ValueError, match="2 simple-root coordinates"):
        shapovalov_gram(A2.weight(1, 1), (1,))
    with pytest.raises(ValueError, match="2 simple-root coordinates"):
        simple_weight_dims(A2.weight(1, 1), [(1,)], 3)


def test_list_nu_answers_as_its_tuple():
    lam = A2.weight(1, 1)
    assert shapovalov_gram(lam, [1, 1]) == shapovalov_gram(lam, (1, 1))
    assert simple_weight_dims(lam, [[1, 1]], 3) == simple_weight_dims(lam, [(1, 1)], 3)


def test_size_guard_trips():
    tiny = SizeGuard(max_gram_dim=1, max_terms=10**6)
    with pytest.raises(SizeGuardError):
        shapovalov_gram(A2.weight(3, 3), (1, 1), guard=tiny)
    tiny2 = SizeGuard(max_gram_dim=200, max_terms=2)
    # A fresh engine has no memo to fall back on: the commutation recursion
    # behind the Gram must check the guard itself.
    with pytest.raises(SizeGuardError):
        shapovalov_gram(A2.weight(3, 3), (2, 2), guard=tiny2,
                        engine=PBWEngine(get_structure("A2")))


def test_rank_helpers():
    assert rank_mod_p([[2, 4], [6, 2]], 2) == 0
    assert rank_mod_p([[2, 4], [1, 2]], 2) == 1
    assert rank_mod_p([[1, 0], [0, 3]], 3) == 1
    assert rank_rational([[2, 4], [1, 2]]) == 1
    assert rank_rational([]) == 0


def test_rank_rational_matches_fraction_elimination():
    # The fraction-free eliminator against elimination over Fraction, on
    # random small matrices: rank-deficient ones (a row is a combination of
    # two others), zero columns and negative entries.
    rng = random.Random(2024)
    for _ in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.5:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for row in mat:
                row[zero] = 0
        assert rank_rational(mat) == rank_by_fractions(mat), mat


def test_solve_in_basis_hand_cases():
    assert _solve_in_basis([[1, 0], [1, 1]], [[3, 2]]) == [[1, 2]]
    assert _solve_in_basis([[2, 0], [0, -3]], [[-4, 6]]) == [[-2, -2]]
    assert _solve_in_basis([[1, 0]], [[0, 1]]) == [None]  # outside the span
    assert _solve_in_basis([[2, 4]], [[1, 3]]) == [None]
    with pytest.raises(ExactnessError):
        _solve_in_basis([[2]], [[1]])  # in the span over Q, not over Z
    with pytest.raises(ExactnessError):
        _solve_in_basis([[1, 1], [1, -1]], [[1, 0]])


def test_solve_in_basis_mixed_batch():
    # One elimination answers each target as a solve of its own would: an
    # in-span target gets its coordinates, an out-of-span one None, in the
    # batch's order; a non-integral target anywhere in the batch raises.
    basis = [[2, 0, 0], [0, 1, 0]]
    inside, outside, halves = [4, -3, 0], [0, 0, 1], [1, 0, 0]
    assert _solve_in_basis(basis, [inside, outside]) == [[2, -3], None]
    assert _solve_in_basis(basis, [outside, inside]) == [None, [2, -3]]
    assert _solve_in_basis(basis, []) == []
    for batch in ([inside, outside, halves], [halves, inside, outside], [outside, halves, inside]):
        with pytest.raises(ExactnessError, match="non-integral"):
            _solve_in_basis(basis, batch)


# SHA-1 of repr(sorted(bracket_table.items())) for flip=(), as first built
# by one Bareiss solve per bracket.
BRACKET_TABLE_SHA1 = {
    "A1": "75e44900da10cb5f42958426b86c75fb5bb5c173",
    "A2": "903631625f5b4f415d4cdf1b7b6d7e534753407b",
    "B2": "078f0736fbcccccf3eb2a9baeb5e7db475597473",
}


@pytest.mark.parametrize("cartan_type", sorted(BRACKET_TABLE_SHA1))
def test_bracket_table_is_pinned(cartan_type):
    table = get_structure(cartan_type).bracket_table
    digest = hashlib.sha1(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == BRACKET_TABLE_SHA1[cartan_type]


def _a1_realization(f, h, e):
    """A monkeypatch for ``_realization`` that hands A1 the given 2x2
    matrices in place of its Chevalley basis."""
    return lambda cartan_type: ([f], [h], [e])


E12, F21, E11 = ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0))
H = ((1, 0), (0, -1))


@pytest.mark.parametrize("f, h, e, message", [
    # [e, f] = diag(1, -1) does not lie in the span of f, diag(1, 0), e.
    (F21, E11, E12, "does not close"),
    # [e, f] = h is half of the basis element 2h.
    (F21, ((2, 0), (0, -2)), E12, "non-integral"),
    # Basis element -h: [-h, e] = -2e against <alpha, alpha^vee> = 2.
    (F21, ((-1, 0), (0, 1)), E12, "weight rule"),
    # Basis element 2e: the weight rules hold, but [2e, f] = 2h.
    (F21, H, ((0, 2), (0, 0)), "coroot mismatch"),
])
def test_structure_self_test_rejects_a_bad_realization(monkeypatch, f, h, e, message):
    monkeypatch.setattr(hypalg, "_realization", _a1_realization(f, h, e))
    with pytest.raises(ExactnessError, match=message):
        ChevalleyStructure(A1)
    monkeypatch.setattr(hypalg, "_realization", _a1_realization(F21, H, E12))
    ChevalleyStructure(A1)  # the true basis passes


def _rescaled(table, scale):
    """The bracket table on the basis b_i' = scale[i] b_i, which is still a
    Lie algebra's: [b_i', b_j'] = sum_m scale[i] scale[j] c_m / scale[m] b_m'."""
    return {
        (i, j): tuple((m, scale[i] * scale[j] * c / scale[m]) for m, c in terms)
        for (i, j), terms in table.items()
    }


def test_structure_self_test_rejects_each_corrupted_table():
    st = ChevalleyStructure(A2)
    good = dict(st.bracket_table)
    e0, e1 = st.e_index(0), st.e_index(1)
    (root, c), = good[e0, e1]
    cases = [
        # One side of a pair changed: the table is not antisymmetric.
        ({(e1, e0): ((root, -2 * c),)}, "antisymmetry"),
        # Both sides changed: antisymmetric, but no longer a Lie algebra.
        ({(e0, e1): ((root, 2 * c),), (e1, e0): ((root, -2 * c),)}, "Jacobi"),
    ]
    for change, message in cases:
        st.bracket_table = {**good, **change}
        with pytest.raises(ExactnessError, match=message):
            st._self_test()
    # A1 has a single basis triple i < j < k, (f, h, e), and with [h, e] = 3e
    # the Jacobi identity fails on it.
    a1 = ChevalleyStructure(A1)
    h, e = a1.h_index(0), a1.e_index(0)
    a1.bracket_table = {**a1.bracket_table, (h, e): ((e, 3),), (e, h): ((e, -3),)}
    with pytest.raises(ExactnessError, match="Jacobi"):
        a1._self_test()
    # e_{(1,1)} halved and f_{(1,1)} doubled: still a Lie algebra with the
    # same weights and coroots, but N_{(0,1),(1,0)} becomes 2 where the
    # Chevalley basis has |N| = 1.
    scale = [Fraction(1)] * st.dim
    scale[st.e_index(2)], scale[st.f_index(2)] = Fraction(1, 2), Fraction(2)
    st.bracket_table = _rescaled(good, scale)
    with pytest.raises(ExactnessError, match="Chevalley sign"):
        st._self_test()
    # Negating both is a change of sign convention, which passes.
    scale[st.e_index(2)], scale[st.f_index(2)] = Fraction(-1), Fraction(-1)
    st.bracket_table = _rescaled(good, scale)
    st._self_test()
