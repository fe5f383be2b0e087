"""Persistent cache: round trips, atomicity contract, corruption handling."""

from __future__ import annotations

import hashlib
import logging
import random

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


# Names of records that the CLI wrote through hashlib.sha256, one key of each
# kind: a store keeps answering only while its records keep these names.
PINNED_FILENAMES = {
    ("decomp_row", "A2", 3, "mu=2,2;depth=4"):
        "e59361bd0aa60873c6768e3a57f9b17a3dba13f780a24c7697bf55b204497224.rec",
    ("simple_dim", "A2", 3, "lam=2,1;box=2,1;depth=6"):
        "a99b6e4d72d3dddd12fa07b4e8ede3afff78064289b83878bdf4443ba31edaca.rec",
    ("decomp_table", "A2", 3, "region=-1,2;0,0;1,1;2,-1"):
        "6883ecc1ee1a9ae3841281161b6eed8a4b2a6b7ed6890404d5ea51e46a6728d3.rec",
}


def test_record_filenames_are_pinned():
    for args, name in PINNED_FILENAMES.items():
        assert cache.make_key(*args).filename() == name
    assert {kind for kind, *_ in PINNED_FILENAMES} == set(cache.KINDS)


def test_record_filenames_match_hashlib_sha256():
    # The built-in SHA-256 the store names records with must agree with
    # hashlib's (OpenSSL's) on any canonical key, non-ASCII payloads included.
    rng = random.Random(1)
    alphabet = "0123456789,;=-_abcdefghijklmnopqrstuvwxyz\u03bb\u03bc\u00e9"
    for _ in range(200):
        key = cache.make_key(rng.choice(cache.KINDS), rng.choice(["A1", "A2", "B2"]),
                             rng.choice([None, 2, 3, 7, 10**20 + 39]),
                             "".join(rng.choices(alphabet, k=rng.randrange(80))))
        expected = hashlib.sha256(key.canonical().encode("utf-8")).hexdigest()
        assert key.filename() == f"{expected}.rec"


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
