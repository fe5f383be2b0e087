"""Shift functors on flag vectors and the table-level periodicity checks."""

from __future__ import annotations

import copy
import pickle

import pytest

import modcato.category_o as category_o
import modcato.periodicity as periodicity
import modcato.topology as topology
from modcato.category_o import FlagVector, build_decomposition_table
from modcato.errors import ModcatoError
from modcato.hypalg import SizeGuard
from modcato.periodicity import (
    Report,
    ShiftContext,
    shift_down_flag,
    shift_up_flag,
    verify_periodicity,
    verify_projective_shift,
    verify_updown,
)
from modcato.rootdata import build_root_system
from modcato.topology import LocallyClosedSet, interval, shift_set

A1 = build_root_system("A1")
A2 = build_root_system("A2")


def ctx_a1(k_coords, gamma, p, l):
    K = LocallyClosedSet.make([A1.weight(c) for c in k_coords])
    return ShiftContext.build(K, A1.weight(gamma), p, l)


def test_context_validation():
    K = LocallyClosedSet.make([A1.weight(0), A1.weight(2)])
    with pytest.raises(ModcatoError):
        ShiftContext.build(K, A1.weight(-2), 2, 1)  # not dominant
    with pytest.raises(ModcatoError):
        ShiftContext.build(K, A1.weight(3), 2, 1)  # not in p^l X
    K6 = LocallyClosedSet.make([A1.weight(0), A1.weight(2), A1.weight(4), A1.weight(6)])
    with pytest.raises(ModcatoError):
        ShiftContext.build(K6, A1.weight(3), 3, 1)  # condition fails
    with pytest.raises(ModcatoError):
        ShiftContext.build(K, A1.weight(2), 2, 0)  # l must be positive


def test_shift_up_single_verma_a1():
    ctx = ctx_a1([0, 2], 3, 3, 1)
    out = shift_up_flag(ctx, FlagVector({A1.weight(0): 1}))
    assert out == FlagVector({A1.weight(3): 1})


def test_shift_up_rejects_support_outside_K():
    ctx = ctx_a1([0, 2], 3, 3, 1)
    with pytest.raises(ModcatoError):
        shift_up_flag(ctx, FlagVector({A1.weight(4): 1}))


def test_shift_round_trip():
    ctx = ctx_a1([0, 2], 3, 3, 1)
    for c in (0, 2):
        V = FlagVector({A1.weight(c): 1})
        up = shift_up_flag(ctx, V)
        assert shift_down_flag(ctx, up) == V
    W = FlagVector({A1.weight(3): 1, A1.weight(5): 2})
    assert shift_up_flag(ctx, shift_down_flag(ctx, W)) == W
    V = FlagVector({A1.weight(0): 1, A1.weight(2): 2})
    assert shift_down_flag(ctx, shift_up_flag(ctx, V)) == V
    assert shift_up_flag(ctx, V) == V.translate(ctx.gamma)


def test_verify_updown_cases():
    singleton = ctx_a1([4], 2, 2, 1)
    rep = verify_updown(singleton)
    assert rep.passed and len(rep.checks) == 2

    rep2 = verify_updown(ctx_a1([0, 2], 3, 3, 1))
    assert rep2.passed and len(rep2.checks) == 4

    rep3 = verify_updown(ctx_a1([0, 2], 4, 2, 2))
    assert rep3.passed

    K = LocallyClosedSet.make([A2.weight(0, 0)])
    ctx = ShiftContext.build(K, A2.weight(2, 2), 2, 1)
    assert verify_updown(ctx).passed

    # L(gamma) for gamma = (a, 0) in A2 has lowest weight (0, -a), not -gamma,
    # so only the negated character of L(gamma) brings the down shift back.
    box = LocallyClosedSet.make(interval(A2.weight(0, 0), A2.weight(1, 1)))
    for region, gamma, p in [(K, (3, 0), 3), (K, (2, 0), 2), (box, (3, 0), 3)]:
        rep = verify_updown(ShiftContext.build(region, A2.weight(*gamma), p, 1))
        assert rep.passed and len(rep.checks) == 2 * len(region.sorted), (region.sorted, gamma)


def test_verify_periodicity_a1_p2():
    for gamma in (2, 4):
        rep = verify_periodicity(ctx_a1([0, 2], gamma, 2, 1))
        assert rep.passed
        assert rep.payload["table"]


def test_verify_periodicity_a1_p3_three_weights():
    rep = verify_periodicity(ctx_a1([0, 2, 4], 3, 3, 1))
    assert rep.passed
    # The nontrivial entry [Delta(4):L(0)] = 1 survives the shift.
    table = {tuple(map(tuple, t[:2])): t[2] for t in rep.payload["table"]}
    assert table[((4,), (0,))] == 1
    shifted = {tuple(map(tuple, t[:2])): t[2] for t in rep.payload["shifted_table"]}
    assert shifted[((7,), (3,))] == 1


def test_verify_periodicity_gamma_independence():
    t2 = verify_periodicity(ctx_a1([0, 2], 2, 2, 1)).payload["shifted_table"]
    t4 = verify_periodicity(ctx_a1([0, 2], 4, 2, 1)).payload["shifted_table"]
    base = build_decomposition_table([A1.weight(0), A1.weight(2)], 2).serialize()

    def normalize(serialized, shift):
        return sorted(
            [[mu[0] - shift], [lam[0] - shift], v] for mu, lam, v in serialized
        )

    assert normalize(t2, 2) == normalize(t4, 4) == normalize(base, 0)


def test_verify_periodicity_a2():
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1)])
    ctx = ShiftContext.build(K, A2.weight(2, 2), 2, 1)
    rep = verify_periodicity(ctx)
    assert rep.passed
    table = {tuple(map(tuple, t[:2])): t[2] for t in rep.payload["table"]}
    assert table[((2, -1), (0, 0))] == 1


def test_verify_projective_shift():
    assert verify_projective_shift(ctx_a1([0, 2], 2, 2, 1)).passed
    assert verify_projective_shift(ctx_a1([0, 2, 4], 3, 3, 1)).passed
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1)])
    ctx = ShiftContext.build(K, A2.weight(2, 2), 2, 1)
    assert verify_projective_shift(ctx).passed


def test_projective_shift_agrees_with_table_reciprocity():
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1)])
    ctx = ShiftContext.build(K, A2.weight(2, 2), 2, 1)
    table = build_decomposition_table(K.sorted, 2)
    from modcato.category_o import projective_verma_mult
    from modcato.rootdata import leq

    for lam in K:
        flag = projective_verma_mult(lam, ctx.J, ctx.p)
        for mu in K:
            if leq(lam, mu):
                assert flag.get(mu) == table.entry(mu, lam)


def test_context_builds_the_character_of_L_gamma_once(monkeypatch):
    # Both shifts of every weight of K read one ch L(gamma), built with the
    # context's guard, whichever module asks for it.
    real = category_o.full_simple_character
    calls = []

    def record(lam, p, *, guard=None):
        calls.append((lam, p, guard))
        return real(lam, p, guard=guard)

    monkeypatch.setattr(category_o, "full_simple_character", record)
    monkeypatch.setattr(periodicity, "full_simple_character", record)
    guard = SizeGuard(max_gram_dim=150)
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1), A2.weight(-1, 2), A2.weight(1, 1)])
    ctx = ShiftContext.build(K, A2.weight(3, 3), 3, 1, guard=guard)
    rep = verify_updown(ctx)
    assert rep.passed and len(rep.checks) == 8
    assert calls == [(A2.weight(3, 3), 3, guard)]


def test_context_shifted_region_is_built_once():
    ctx = ctx_a1([0, 2], 3, 3, 1)
    assert ctx.Kt is ctx.Kt
    assert ctx.Kt == shift_set(ctx.K, ctx.gamma)


def test_verify_periodicity_checks_no_region_again(monkeypatch):
    # K and K + gamma are LocallyClosedSets, so neither table tests convexity
    # again; every row is peeled from simple characters asked under the
    # context's guard.
    real_dims = category_o._simple_dims
    guards = []
    convexity = []

    def dims(rs, lam, p, height, guard):
        guards.append(guard)
        return real_dims(rs, lam, p, height, guard)

    def convex(weights):
        convexity.append(weights)
        return True

    guard = SizeGuard(max_gram_dim=150)
    K = LocallyClosedSet.make([A2.weight(0, 0), A2.weight(2, -1)])
    ctx = ShiftContext.build(K, A2.weight(2, 2), 2, 1, guard=guard)
    monkeypatch.setattr(category_o, "_simple_dims", dims)
    monkeypatch.setattr(topology, "is_locally_closed", convex)
    monkeypatch.setattr(category_o, "is_locally_closed", convex, raising=False)
    assert verify_periodicity(ctx).passed
    assert convexity == []
    assert guards and guards == [guard] * len(guards)


def test_verify_periodicity_reads_comparability_from_the_table(monkeypatch):
    # The table's region gives the pairs lam <= mu of K from coset offsets,
    # zero entries included, and so does its translate's; the comparison
    # walks those and calls leq on no pair of K again.
    import modcato.rootdata as rootdata
    from modcato.rootdata import leq

    K = LocallyClosedSet.make(interval(A2.weight(-1, -1), A2.weight(1, 1)))
    ctx = ShiftContext.build(K, A2.weight(3, 3), 3, 1)
    table = build_decomposition_table(K, 3)
    expect = [(mu, lam) for mu in K for lam in K if leq(lam, mu)]

    def pairs(region):
        return [(mu, lam) for mu in region for lam in region.below(mu).values()]

    assert table.region is K and pairs(table.region) == expect
    assert any(not table.entry(mu, lam) for mu, lam in expect)
    shifted = table.translate(ctx.gamma)
    assert shifted.region == ctx.Kt
    assert pairs(shifted.region) == [(mu + ctx.gamma, lam + ctx.gamma) for mu, lam in expect]

    def no_leq(*args):
        raise AssertionError("comparability derived again")

    monkeypatch.setattr(rootdata, "leq", no_leq)
    monkeypatch.setattr(category_o, "leq", no_leq, raising=False)
    monkeypatch.setattr(periodicity, "leq", no_leq, raising=False)
    rep = verify_periodicity(ctx)
    assert rep.passed
    assert [c.identity for c in rep.checks] == [
        f"[Delta({mu.coords}):L({lam.coords})] vs shift by (3, 3)" for mu, lam in expect
    ]


def test_value_classes_keep_equality_hash_repr_and_immutability():
    # The slots records compare, hash and print as the frozen dataclasses
    # they replace did; Report stays mutable and unhashable.
    K = LocallyClosedSet.make([A2.weight(0, 0)])
    ctx = ShiftContext.build(K, A2.weight(3, 3), 3, 1)
    assert repr(K) == "LocallyClosedSet(elements=frozenset({Weight(A2, (0, 0))}))"
    assert repr(ctx).startswith(
        "ShiftContext(K=LocallyClosedSet(elements=frozenset({Weight(A2, (0, 0))})), "
        "gamma=Weight(A2, (3, 3)), p=3, l=1, J=OpenSet(ceiling=(Weight(A2, (0, 0)),)), ")
    assert repr(ctx).endswith(", guard=None)")
    twin = ShiftContext.build(LocallyClosedSet.make([A2.weight(0, 0)]), A2.weight(3, 3), 3, 1)
    assert ctx == twin and hash(ctx) == hash(twin)
    assert ctx != ShiftContext.build(K, A2.weight(6, 6), 3, 1)
    assert ctx.Kt is ctx.Kt and ctx.Kt == shift_set(K, A2.weight(3, 3))
    for obj, field in ((ctx, "p"), (K, "elements"), (A2.weight(1, 0), "coords"), (SizeGuard(), "max_terms")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert repr(SizeGuard()) == "SizeGuard(max_gram_dim=200, max_terms=1000000)"
    report = Report("t")
    assert report == Report("t", [], {}) and repr(report) == "Report(title='t', checks=[], payload={})"
    report.record("x", 1, 2)
    report.title = "u"
    assert repr(report) == ("Report(title='u', checks=[CheckRecord(identity='x', left=1, right=2)], "
                            "payload={})")
    with pytest.raises(TypeError):
        hash(report)
    for obj in (A2.weight(1, 0), K, ctx, report):
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
