"""Persistent cache: round trips, atomicity contract, corruption handling."""

from __future__ import annotations

import logging

import pytest

from modcato import cache


@pytest.fixture(autouse=True)
def isolate(tmp_path, monkeypatch):
    monkeypatch.delenv("MODCATO_CACHE", raising=False)
    cache.configure(tmp_path)
    yield tmp_path
    cache.configure(None)


def test_round_trip(isolate):
    key = cache.make_key("simple_dim", "A1", 3, "lam=3;nu=1")
    assert cache.get(key) is None
    cache.put(key, "0")
    assert cache.get(key) == "0"


def test_fresh_store_is_absent(isolate):
    assert cache.get_value("decomp_row", "A2", 3, "mu=1,0;depth=2") is None


def test_idempotent_puts_single_record(isolate):
    key = cache.make_key("decomp_row", "A1", 2, "mu=3;depth=2")
    cache.put(key, "1")
    cache.put(key, "1")
    files = [p for p in isolate.iterdir() if p.suffix == ".rec"]
    assert len(files) == 1
    assert cache.get(key) == "1"


def test_corrupt_record_treated_as_absent(isolate, caplog):
    key = cache.make_key("simple_dim", "A1", 3, "lam=3;box=3;depth=1")
    cache.put(key, "[]")
    path = isolate / key.filename()
    path.write_text("garbage")
    with caplog.at_level(logging.WARNING, logger="modcato.cache"):
        assert cache.get(key) is None
    assert any("corrupt" in r.message for r in caplog.records)


def test_version_mismatch_invalidates(isolate):
    key = cache.make_key("simple_dim", "A1", 3, "lam=3;box=3;depth=2")
    path = isolate / key.filename()
    path.write_text(f"modcato-cache-v0\t{key.canonical()}\t5\n")
    assert cache.get(key) is None


def test_unwritable_store_logs_and_continues(tmp_path, caplog):
    cache.configure(tmp_path / "nope")
    (tmp_path / "nope").write_text("a file, not a directory")
    key = cache.make_key("simple_dim", "A1", 2, "lam=1;nu=1")
    with caplog.at_level(logging.ERROR, logger="modcato.cache"):
        cache.put(key, "1")  # must not raise
    assert any("proceeding uncached" in r.message for r in caplog.records)
    assert cache.get(key) is None


def test_env_var_is_picked_up(tmp_path, monkeypatch):
    cache.configure(None)
    monkeypatch.setenv("MODCATO_CACHE", str(tmp_path))
    # a fresh module state would read the env var; emulate by clearing the
    # explicit configure flag
    cache._explicit = False
    try:
        key = cache.make_key("simple_dim", "A1", 2, "lam=5;nu=2")
        cache.put(key, "1")
        assert (tmp_path / key.filename()).exists()
        assert cache.get(key) == "1"
    finally:
        cache.configure(None)


def test_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cache.make_key("bogus", "A1", None, "x=1")


def test_warm_cache_matches_cold_results(isolate):
    from modcato.category_o import decomposition_numbers
    from modcato.rootdata import build_root_system

    A1 = build_root_system("A1")
    cold = decomposition_numbers(A1.weight(1), 2, 2)
    files = [p for p in isolate.iterdir() if p.suffix == ".rec"]
    assert files, "expected persisted records"
    warm = decomposition_numbers(A1.weight(1), 2, 2)
    assert cold == warm


def test_existing_decomp_row_record_answers_without_ranking(isolate, monkeypatch):
    # A record written under the decomp_row payload format "mu=…;depth=…"
    # answers the row alone: no weight space may be ranked.
    import modcato.category_o as category_o
    from modcato.rootdata import build_root_system

    def no_rank(*args, **kwargs):
        raise RuntimeError("a weight space was ranked")

    A1 = build_root_system("A1")
    cache.put_value("decomp_row", "A1", 2, "mu=1;depth=2", "[[[-3], 1], [[1], 1]]")
    monkeypatch.setattr(category_o, "_SIMPLE_CACHE", {})
    monkeypatch.setattr(category_o, "simple_weight_dims", no_rank)
    row = category_o.decomposition_numbers(A1.weight(1), 2, 2)
    assert row == {A1.weight(1): 1, A1.weight(-3): 1}
