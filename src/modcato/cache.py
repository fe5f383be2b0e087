"""Persistent memoization of expensive exact results across runs.

Only finished answers persist, in three kinds: one ``decomp_row`` record per
decomposition row asked for on its own box (``decomp``), one
``decomp_table`` record per finished decomposition table over a locally
closed region (``periodicity full`` and ``projmult``), whose rows are not
written, and one ``simple_dim`` record (its weight -> dimension list on a
truncation box) per simple character asked for in its own right, by
``char simple``, ``tensor_flag`` and ``full_simple_character``
(``steinberg`` compares in memory).  The pieces behind an answer are rebuilt
instead.  One kind of piece is the simple characters a row or table is
peeled into: only a rerun of that row or table could read them, and its own
record answers the rerun first (when such records were written, no process
of the cache-a2 benchmark ever read one).  The other is the
per-weight-space Gram matrices and their ranks: on an ext4 virtio disk of a
2-core VM one atomic put takes 0.56-0.85 ms, while an A2 Gram matrix with
its mod-p rank takes 0.10-0.12 ms to compute (nu <= (6,6)), so a
per-space record cost more to write than it saved.

One record per file, one line per record: ``version<TAB>key<TAB>value``, all
UTF-8 text, written atomically (temp file + rename).  The value is an
answer's ``json.dumps`` (:func:`put_value`); :func:`get_value` parses it once
and returns the caller's ``decode`` of it, an answer that no caller copies
into a memo.  Values are deterministic functions of their keys, so
last-write-wins is safe and two puts of the same pair are a single logical
record.  A record that is not UTF-8, lacks a field, or holds a value that is
not JSON or that ``decode`` rejects is corrupt and read as absent.  The
decoders reject an entry off the answer's domain: a weight off a character's
or row's box, a table pair that is not lam <= mu in its region, and a row or
table multiplicity that is not a positive int.  A record's file is named by the SHA-256 of its canonical key from CPython's
built-in ``_sha2`` (``_sha256`` before 3.12), which ``hashlib`` uses without
OpenSSL: importing ``hashlib`` loads OpenSSL's libcrypto, 3.6 MiB of peak RSS
and 3-4 ms in every process.  The digests are the same, so existing stores
stay warm.

The store directory comes from an explicit :func:`configure` call (the CLI
wires ``--cache-dir`` through it) or the ``MODCATO_CACHE`` environment
variable; with neither set, every lookup misses and puts are no-ops.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

RECORD_VERSION = "modcato-cache-v1"

KINDS = ("simple_dim", "decomp_row", "decomp_table")

_configured: Path | None = None
_explicit = False


class CacheKey(NamedTuple):
    kind: str
    system: str
    p: int | None
    payload: str

    def canonical(self) -> str:
        p = "-" if self.p is None else str(self.p)
        return f"kind={self.kind};system={self.system};p={p};{self.payload}"

    def filename(self) -> str:
        digest = sha256(self.canonical().encode("utf-8")).hexdigest()
        return f"{digest}.rec"


def _logger():
    """The ``modcato.cache`` logger.  Only an unreadable record or an
    unwritable store logs, so ``logging`` is imported here, on those paths,
    rather than by every command."""
    import logging

    return logging.getLogger("modcato.cache")


def configure(directory: str | os.PathLike | None) -> None:
    """Set (or with None, clear) the store directory for this process."""
    global _configured, _explicit
    if directory is None:
        _configured, _explicit = None, True
    else:
        _configured, _explicit = Path(directory), True


def active_dir() -> Path | None:
    if _explicit:
        return _configured
    env = os.environ.get("MODCATO_CACHE")
    return Path(env) if env else None


def make_key(kind: str, system: str, p: int | None, payload: str) -> CacheKey:
    if kind not in KINDS:
        raise ValueError(f"unknown cache kind {kind!r}")
    return CacheKey(kind, system, p, payload)


def get(key: CacheKey) -> str | None:
    """The unparsed value of ``key``'s record, or None if it is absent, unreadable or corrupt."""
    root = active_dir()
    if root is None:
        return None
    path = root / key.filename()
    try:
        version, canonical, value = path.read_text(encoding="utf-8").rstrip("\n").split("\t", 2)
        if version == RECORD_VERSION and canonical == key.canonical():
            return value
    except FileNotFoundError:
        return None
    except OSError as exc:
        _logger().warning("unreadable cache record %s: %s", path, exc)
        return None
    except ValueError:  # not UTF-8, or fewer than three fields
        pass
    _logger().warning("corrupt or stale cache record %s; treating as absent", path)
    return None


def put(key: CacheKey, value: str) -> None:
    root = active_dir()
    if root is None:
        return
    if "\n" in value or "\t" in value:
        raise ValueError("cache values must be single-line tab-free text")
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f"{RECORD_VERSION}\t{key.canonical()}\t{value}\n")
            os.replace(tmp, root / key.filename())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        _logger().error("cache store %s is not writable (%s); proceeding uncached", root, exc)


def get_value(kind: str, system: str, p: int | None, payload: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of a record's value, parsed once, or None without a record.
    A value that is not JSON, or that ``decode`` rejects with ``TypeError`` or
    ``ValueError``, is corrupt and reads as absent."""
    key = make_key(kind, system, p, payload)
    value = get(key)
    if value is None:
        return None
    try:
        return decode(json.loads(value))
    except (TypeError, ValueError):
        _logger().warning("corrupt or stale cache record %s; treating as absent", active_dir() / key.filename())
        return None


def put_value(kind: str, system: str, p: int | None, payload: str, value: Any) -> None:
    """Record the JSON-able answer ``value`` as its ``json.dumps``."""
    put(make_key(kind, system, p, payload), json.dumps(value))
