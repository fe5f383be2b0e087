"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec names the source directory, the parent's ``time.monotonic()`` at
spawn, whether to trace, and the argv lists to run through
``modcato.cli.main``.  The worker writes one JSON line per event to stdout:
``{"setup_s": ...}`` once ready, one ``{"i": ..., "rc": ..., "out": ...}``
per command as it finishes (so a hang loses only the commands after it),
then ``{"wall_s": ..., "rss_mb": ..., "trace": ...}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import modcato.cli
    from modcato.hypalg import get_engine
    from modcato.rootdata import build_root_system

    for typ in ("A1", "A2", "B2"):
        build_root_system(typ)
        get_engine(typ)  # runs the Chevalley self-test
    out = sys.stdout
    _emit(out, {"setup_s": time.monotonic() - spec["spawned"]})

    active_dir = modcato.cache.active_dir  # bound before tracing wraps it
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    for i, argv in enumerate(spec["commands"]):
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = modcato.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raised command is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
        if not spec["cache"] and active_dir() is not None:
            rc = f"disk cache active ({active_dir()}) on a cache-off workload"
        text = buf.getvalue()
        if tracer is not None:
            tracer.counts["stdout_bytes"] += len(text.encode("utf-8"))
        _emit(out, {"i": i, "rc": rc, "out": text, "err": err.getvalue()[-500:]})
    wall = time.perf_counter() - t0

    done = {
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        done["trace"] = tracer.snapshot()
    _emit(out, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
