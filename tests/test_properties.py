"""Property-based invariants over generated inputs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from modcato.rootdata import build_root_system, kostant_partition, leq

A2 = build_root_system("A2")

coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@given(coords, coords, coords)
@settings(max_examples=200, deadline=None)
def test_leq_partial_order(a, b, c):
    x, y, z = A2.weight(*a), A2.weight(*b), A2.weight(*c)
    assert leq(x, x)
    if leq(x, y) and leq(y, x):
        assert x == y
    if leq(x, y) and leq(y, z):
        assert leq(x, z)


@given(coords, coords)
@settings(max_examples=200, deadline=None)
def test_leq_translation_invariant(a, b):
    x, y = A2.weight(*a), A2.weight(*b)
    shift = A2.weight(3, -2)
    assert leq(x, y) == leq(x + shift, y + shift)


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_kostant_partition_monotone_under_root_addition(a, b):
    # Adding a positive root never decreases the partition count.
    for root in A2.positive_roots:
        assert kostant_partition(A2, (a + root[0], b + root[1])) >= kostant_partition(A2, (a, b))
