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

One record per file, one line per record: ``version<TAB>key<TAB>value``,
all UTF-8 text, written atomically (temp file + rename).  Values are
deterministic functions of their keys, so last-write-wins is safe and two
puts of the same pair are a single logical record.

The store directory comes from an explicit :func:`configure` call (the CLI
wires ``--cache-dir`` through it) or the ``MODCATO_CACHE`` environment
variable; with neither set, every lookup misses and puts are no-ops.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger("modcato.cache")

RECORD_VERSION = "modcato-cache-v1"

KINDS = ("simple_dim", "decomp_row", "decomp_table")

_configured: Path | None = None
_explicit = False


@dataclass(frozen=True)
class CacheKey:
    kind: str
    system: str
    p: int | None
    payload: str

    def canonical(self) -> str:
        p = "-" if self.p is None else str(self.p)
        return f"kind={self.kind};system={self.system};p={p};{self.payload}"

    def filename(self) -> str:
        digest = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()
        return f"{digest}.rec"


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
    root = active_dir()
    if root is None:
        return None
    path = root / key.filename()
    try:
        line = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        log.warning("unreadable cache record %s: %s", path, exc)
        return None
    parts = line.rstrip("\n").split("\t", 2)
    if len(parts) != 3 or parts[0] != RECORD_VERSION or parts[1] != key.canonical():
        log.warning("corrupt or stale cache record %s; treating as absent", path)
        return None
    return parts[2]


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
        log.error("cache store %s is not writable (%s); proceeding uncached", root, exc)


def get_value(kind: str, system: str, p: int | None, payload: str) -> str | None:
    return get(make_key(kind, system, p, payload))


def put_value(kind: str, system: str, p: int | None, payload: str, value: str) -> None:
    put(make_key(kind, system, p, payload), value)
