"""Acceptance suite: one test per criterion, exact checks, zero tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output).  Shared contexts are built once through cached
helpers so the criteria stay order-independent.
"""

from __future__ import annotations

import random
from functools import lru_cache

from modcato import cache
from modcato.category_o import (
    FlagVector,
    build_decomposition_table,
    full_simple_character,
    projective_verma_mult,
    simple_character,
    steinberg_check,
    tensor_flag,
    truncate_flag,
    validate_table_consistency,
)
from modcato.charring import TruncationBox, weyl_character
from modcato.errors import ExactnessError
from modcato.hypalg import rank_rational, shapovalov_gram, simple_weight_dims
from modcato.periodicity import (
    ShiftContext,
    verify_periodicity,
    verify_projective_shift,
    verify_updown,
)
from modcato.rootdata import build_root_system, leq
from modcato.topology import LocallyClosedSet, OpenSet, interval

from oracles import binomial_mod_p, lucas_dominates, scaled_box, sweep_simple_coeffs, twisted

A1 = build_root_system("A1")
A2 = build_root_system("A2")

cache.configure(None)  # acceptance always measures the pure compute path


def report(num: int, desc: str, failures: list) -> None:
    ok = not failures
    print(f"criterion {num:02d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed ({desc}): {failures[:5]}"


# -- shared contexts ----------------------------------------------------------

@lru_cache(maxsize=None)
def periodicity_contexts():
    k_a1 = LocallyClosedSet.make([A1.weight(0), A1.weight(2)])
    k_a1_3 = LocallyClosedSet.make([A1.weight(0), A1.weight(2), A1.weight(4)])
    k_a2_single = LocallyClosedSet.make([A2.weight(0, 0)])
    k_a2_pair = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1)])
    return (
        ("A1 p2 K{0,2} gamma 2", ShiftContext.build(k_a1, A1.weight(2), 2, 1)),
        ("A1 p2 K{0,2} gamma 4", ShiftContext.build(k_a1, A1.weight(4), 2, 1)),
        ("A1 p3 K{0,2,4} gamma 3", ShiftContext.build(k_a1_3, A1.weight(3), 3, 1)),
        ("A2 p2 K singleton gamma (2,2)", ShiftContext.build(k_a2_single, A2.weight(2, 2), 2, 1)),
        ("A2 p2 K pair gamma (2,2)", ShiftContext.build(k_a2_pair, A2.weight(2, 2), 2, 1)),
    )


@lru_cache(maxsize=None)
def periodicity_reports():
    return tuple(
        (name, ctx, verify_periodicity(ctx)) for name, ctx in periodicity_contexts()
    )


@lru_cache(maxsize=None)
def suite_tables():
    """Every decomposition table the suite computes, plus standalone sweeps."""
    tables = []
    for name, ctx in periodicity_contexts():
        tables.append((f"{name} / K", build_decomposition_table(ctx.K, ctx.p)))
        tables.append((f"{name} / K+gamma", build_decomposition_table(ctx.Kt, ctx.p)))
    down_a1 = [A1.weight(5 - 2 * k) for k in range(5)]
    tables.append(("A1 p=2 down-set of 5", build_decomposition_table(down_a1, 2)))
    tables.append(("A1 p=3 down-set of 5", build_decomposition_table(down_a1, 3)))
    box = TruncationBox.make(A2.weight(2, 1), 3)
    tables.append(("A2 p=2 down-set of (2,1)", build_decomposition_table(box.weights(), 2)))
    return tuple(tables)


# -- criteria -----------------------------------------------------------------

def test_criterion_01_lucas_oracle():
    failures = []
    for p in (2, 3, 5):
        for t in range(0, 31):
            for n in range(0, t + 1):
                dominates = lucas_dominates(n, t, p)
                if (binomial_mod_p(t, n, p) != 0) != dominates:
                    failures.append(("binomial", p, t, n))
                dim = simple_weight_dims(A1.weight(t), [(n,)], p)[(n,)]
                if dim != (1 if dominates else 0):
                    failures.append(("gram", p, t, n))
    report(1, "Lucas oracle, rank 1, p in {2,3,5}, lambda <= 30", failures)


def test_criterion_02_char0_cross_check():
    failures = []
    for t in range(0, 11):
        lam = A1.weight(t)
        chi = weyl_character(lam)
        for n in range(0, t + 3):
            expect = chi.coefficient(A1.weight(t - 2 * n))
            if rank_rational(shapovalov_gram(lam, (n,)).entries) != expect:
                failures.append(("A1", t, n))
    for a in range(4):
        for b in range(4):
            lam = A2.weight(a, b)
            chi = weyl_character(lam)
            for nu in A2.root_vectors_up_to_height(6):
                expect = chi.coefficient(lam - A2.weight_of(nu))
                if rank_rational(shapovalov_gram(lam, nu).entries) != expect:
                    failures.append(("A2", (a, b), nu))
    report(2, "characteristic-0 Gram ranks match Weyl coefficients", failures)


def test_criterion_03_factorial_divisibility():
    # Every entry of every Gram built here is one checked division.
    failures = []
    divisions = 0
    try:
        for a in range(-2, 6):
            for b in range(-2, 6):
                for nu in A2.root_vectors_up_to_height(5):
                    divisions += len(shapovalov_gram(A2.weight(a, b), nu).entries) ** 2
    except ExactnessError as exc:
        failures.append(("assertion fired", str(exc)))
    if divisions < 1000:
        failures.append(("too few divisions exercised", divisions))
    report(3, "divided-power integrality assertion never fires", failures)


def test_criterion_04_character_self_consistency():
    failures = []
    for name, table in suite_tables():
        rep = validate_table_consistency(table)
        if not rep.passed:
            failures.append((name, [c.identity for c in rep.failures()]))
    report(4, "dim Delta = sum of multiplicities times dim L, every table", failures)


def test_criterion_05_steinberg_tensor_product():
    failures = []
    for p in (2, 3):
        for t in range(0, 21):
            lam = A1.weight(t)
            ok, _ = steinberg_check(lam, p, TruncationBox.make(lam, 8))
            if not ok:
                failures.append(("A1", p, t))
    for a in range(4):
        for b in range(4):
            lam = A2.weight(a, b)
            ok, _ = steinberg_check(lam, 2, TruncationBox.make(lam, 6))
            if not ok:
                failures.append(("A2", 2, (a, b)))
    report(5, "base-p tensor factorization of simples", failures)


def _twist_matches_sweep(lam, p, box):
    # simple_character factorizes by the tensor product theorem, which makes
    # L(p lam) the twist of L(lam) by construction; the Gram sweep does not.
    twist = twisted(simple_character(lam, p, box).coeffs, p)
    return twist == sweep_simple_coeffs(lam * p, p, scaled_box(box, p))


def test_criterion_06_frobenius():
    failures = []
    for p in (2, 3):
        for t in range(0, 21):
            lam = A1.weight(t)
            if not _twist_matches_sweep(lam, p, TruncationBox.make(lam, 8)):
                failures.append(("A1", p, t))
    for a in range(4):
        for b in range(4):
            lam = A2.weight(a, b)
            if not _twist_matches_sweep(lam, 2, TruncationBox.make(lam, 6)):
                failures.append(("A2", 2, (a, b)))
    report(6, "ch L(p lambda) equals the twist of ch L(lambda)", failures)


def test_criterion_07_flag_calculus():
    rng = random.Random(20260810)
    failures = []
    gammas = {
        "A1": [A1.weight(g) for g in (0, 1, 2, 3, 4)],
        "A2": [A2.weight(*g) for g in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))],
    }
    for trial in range(1000):
        rs = A1 if rng.random() < 0.5 else A2
        support = {
            rs.weight(*(rng.randint(-6, 6) for _ in range(rs.rank)))
            for _ in range(rng.randint(1, 4))
        }
        V = FlagVector({w: rng.randint(1, 3) for w in support})
        ceiling = [
            rs.weight(*(rng.randint(-2, 7) for _ in range(rs.rank)))
            for _ in range(rng.randint(1, 2))
        ]
        J = OpenSet.down_closure(ceiling)
        lower = truncate_flag(V, J, "open")
        upper = truncate_flag(V, lambda w: not J.contains(w), "closed")
        merged = {w: lower.get(w) + upper.get(w) for w in V.support()}
        if merged != V.mult:
            failures.append(("partition", trial))
        p = rng.choice([2, 3])
        gamma = rng.choice(gammas[rs.cartan_type])
        out = tensor_flag(V, gamma, p)
        dim = sum(c for _, c in full_simple_character(gamma, p).items())
        if out.total() != V.total() * dim:
            failures.append(("mass", trial))
        if tensor_flag(V, rs.zero_weight(), p) != V:
            failures.append(("identity", trial))
    report(7, "randomized flag truncation and tensor identities (1000 runs)", failures)


def test_criterion_08_updown_identities():
    failures = []
    k_a1 = LocallyClosedSet.make([A1.weight(0), A1.weight(2)])
    cases = [
        ("A1 p3 l1 gamma 3", ShiftContext.build(k_a1, A1.weight(3), 3, 1)),
        ("A1 p3 l1 gamma 6", ShiftContext.build(k_a1, A1.weight(6), 3, 1)),
        ("A1 p2 l2 gamma 4", ShiftContext.build(k_a1, A1.weight(4), 2, 2)),
    ]
    k_00 = LocallyClosedSet.make([A2.weight(0, 0)])
    cases.append(("A2 p2 l1 gamma (2,2)", ShiftContext.build(k_00, A2.weight(2, 2), 2, 1)))
    # gamma = (a, 0) is not self-dual in A2, so these see the sign of the dual.
    k_box = LocallyClosedSet.make(interval(A2.weight(0, 0), A2.weight(1, 1)))
    cases.append(("A2 p3 l1 gamma (3,0)", ShiftContext.build(k_00, A2.weight(3, 0), 3, 1)))
    cases.append(("A2 p2 l1 gamma (2,0)", ShiftContext.build(k_00, A2.weight(2, 0), 2, 1)))
    cases.append(("A2 p3 l1 gamma (3,0) on [(0,0),(1,1)]", ShiftContext.build(k_box, A2.weight(3, 0), 3, 1)))
    for name, ctx in cases:
        rep = verify_updown(ctx)
        if not rep.passed:
            failures.append((name, [c.identity for c in rep.failures()]))
    report(8, "shift functors act on Vermas as translation", failures)


def test_criterion_09_periodicity_theorem():
    failures = []
    for name, ctx, rep in periodicity_reports():
        if not rep.passed:
            failures.append((name, [c.identity for c in rep.failures()]))
    # gamma-independence: both shifted A1 p=2 tables pull back to the K table.
    by_name = {name: (ctx, rep) for name, ctx, rep in periodicity_reports()}
    base = build_decomposition_table([A1.weight(0), A1.weight(2)], 2)
    for name in ("A1 p2 K{0,2} gamma 2", "A1 p2 K{0,2} gamma 4"):
        ctx, rep = by_name[name]
        shifted = build_decomposition_table(ctx.Kt, 2)
        pulled = shifted.translate(-1 * ctx.gamma)
        if pulled.serialize() != base.serialize():
            failures.append(("gamma-independence", name))
    report(9, "decomposition tables agree across the shift", failures)


def test_criterion_10_reciprocity_consistency():
    failures = []
    for name, ctx, _rep in periodicity_reports():
        rep = verify_projective_shift(ctx)
        if not rep.passed:
            failures.append((name, [c.identity for c in rep.failures()]))
    rng = random.Random(1618)
    for trial in range(100):
        rs = A1 if rng.random() < 0.5 else A2
        lam = rs.weight(*(rng.randint(-4, 4) for _ in range(rs.rank)))
        extras = [
            rs.weight(*(rng.randint(-4, 6) for _ in range(rs.rank)))
            for _ in range(rng.randint(0, 2))
        ]
        extras = [w for w in extras if not (leq(lam, w) and w != lam)]
        J = OpenSet.down_closure([lam] + extras)
        p = rng.choice([2, 3])
        flag = projective_verma_mult(lam, J, p)
        if flag != FlagVector({lam: 1}):
            failures.append(("maximal", trial))
        outside = lam + rs.weight_of(rs.positive_roots[-1]) * (rng.randint(3, 5))
        if not J.contains(outside) and flag.get(outside) != 0:
            failures.append(("off-J", trial))
        if any(not J.contains(w) for w in flag.support()):
            failures.append(("support", trial))
    report(10, "reciprocity multiplicities translate, projective behavior", failures)
