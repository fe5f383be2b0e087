"""Per-layer spans and counters, installed on modcato from outside.

Every public function of a layer module is replaced, in its defining
module and in every other modcato module that bound it with
``from .x import y``, by a wrapper that records a span.  Private functions
bound by another module (``_flag_tensor_char``) are wrapped the same way,
as are the public methods of the layers' classes, which carry the
cross-layer calls (``RootSystem.to_root_vector``, ``TruncationBox.contains``,
``OpenSet.up_set``, ...).  The methods of hypalg's classes are skipped:
they only ever run inside a wrapped hypalg function.  Generator functions
are skipped because a span around one would time only its creation.

A layer's self time is the time of its spans minus the time of the spans
they directly enclose.  Counters read only arguments and results at these
boundaries; nothing inside modcato is modified.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rootdata", "charring", "hypalg", "category_o", "topology",
          "periodicity", "cache", "cli")
CACHE_KINDS = ("gram", "simple_dim", "decomp_row", "rank_0")
_NO_METHODS = ("hypalg",)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("rootdata.to_root_vector_calls", "count", "lower"),
        ("rootdata.kostant_calls", "count", "lower"),
        ("charring.box_contains_calls", "count", "lower"),
        ("charring.peel_calls", "count", "lower"),
        ("hypalg.gram_builds", "count", "lower"),
        ("hypalg.gram_nus", "count", "lower"),
        ("hypalg.gram_entries", "count", "lower"),
        ("hypalg.gram_max_dim", "count", "lower"),
        ("hypalg.rank_calls", "count", "lower"),
        ("hypalg.rank_s", "s", "lower"),
        ("category_o.simple_characters", "count", "lower"),
        ("category_o.decomp_rows", "count", "lower"),
        ("category_o.flag_ops", "count", "lower"),
        ("topology.calls", "count", "lower"),
        ("periodicity.checks", "count", "higher"),
        ("cache.get_s", "s", "lower"),
        ("cache.put_s", "s", "lower"),
        ("cache.bytes_written", "bytes", "lower"),
    ]
    + [(f"cache.{kind}.{what}", "count", "higher" if what == "hits" else "lower")
       for kind in CACHE_KINDS for what in ("hits", "misses", "puts")]
    + [
        ("cache.gram.pass2_hits", "count", "higher"),
        ("cli.commands", "count", "higher"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("ops_failed", "fraction", "lower"),
        ("cache_disk_mb", "MiB", "lower"),
        ("trace.wall_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.counts = Counter()           # named per-layer counters
        self.gram_nus = set()
        self._records = {}                # "layer.qualname" -> [calls, inclusive s]
        self._self = {layer: [0.0] for layer in LAYERS}
        self._stack = [[0.0, None]]       # open spans: [child time, layer]
        self._orig = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        """A span around ``fn``.  A call from code of the same layer is only
        counted: its time already lands in the enclosing span's self time.
        Hooked and separately timed functions always get a full span."""
        key = f"{layer}.{qualname}"
        hook = _HOOKS.get(key)
        always = hook is not None or key in _TIMED
        rec = self._records.setdefault(key, [0, 0.0])
        own = self._self[layer]
        stack = self._stack

        def span(*args, **kwargs):
            rec[0] += 1
            if stack[-1][1] == layer and not always:
                return fn(*args, **kwargs)
            state = hook[0](self, args) if hook and hook[0] else None
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                own[0] += dur - frame[0]
                stack[-1][0] += dur
                rec[1] += dur
            if hook:
                hook[1](self, state, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", qualname)
        self._orig[key] = fn
        return span

    def install(self) -> None:
        mods = {name: importlib.import_module(f"modcato.{name}") for name in LAYERS}
        every = [m for n, m in sys.modules.items() if n == "modcato" or n.startswith("modcato.")]
        bound_elsewhere = {
            id(v) for m in every for k, v in vars(m).items()
            if callable(v) and getattr(v, "__module__", None) not in (None, m.__name__)
        }
        replace = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if layer not in _NO_METHODS:
                        self._wrap_methods(layer, obj)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    if not name.startswith("_") or id(obj) in bound_elsewhere:
                        replace[id(obj)] = self._wrap(layer, name, obj)
        for m in every:
            for k, v in list(vars(m).items()):
                if id(v) in replace:
                    setattr(m, k, replace[id(v)])

    def _wrap_methods(self, layer, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                if not inspect.isgeneratorfunction(fn):
                    setattr(cls, name, staticmethod(self._wrap(layer, f"{cls.__name__}.{name}", fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", raw))

    def original(self, key):
        return self._orig.get(key)

    # -- results ---------------------------------------------------------------

    def calls(self, key) -> int:
        return self._records.get(key, [0, 0.0])[0]

    def inclusive_s(self, key) -> float:
        return self._records.get(key, [0, 0.0])[1]

    def layer_calls(self, layer) -> int:
        prefix = layer + "."
        return sum(r[0] for k, r in self._records.items() if k.startswith(prefix))

    def snapshot(self) -> dict:
        c, calls, incl = self.counts, self.calls, self.inclusive_s
        out = {f"{layer}.self_s": self._self[layer][0] for layer in LAYERS}
        out.update({
            "rootdata.to_root_vector_calls": calls("rootdata.RootSystem.to_root_vector"),
            "rootdata.kostant_calls": calls("rootdata.kostant_partition"),
            "charring.box_contains_calls": calls("charring.TruncationBox.contains"),
            "charring.peel_calls": calls("charring.peel_decompose"),
            "hypalg.gram_builds": c["gram_builds"],
            "hypalg.gram_nus": len(self.gram_nus),
            "hypalg.gram_entries": c["gram_entries"],
            "hypalg.gram_max_dim": c["gram_max_dim"],
            "hypalg.rank_calls": calls("hypalg.rank_mod_p"),
            "hypalg.rank_s": incl("hypalg.rank_mod_p"),
            "category_o.simple_characters": c["simple_characters"],
            "category_o.decomp_rows": calls("category_o.decomposition_numbers"),
            "category_o.flag_ops": sum(calls(f"category_o.{f}") for f in
                                       ("tensor_flag", "truncate_flag", "_flag_tensor_char")),
            "topology.calls": self.layer_calls("topology"),
            "periodicity.checks": c["periodicity_checks"],
            "cache.get_s": incl("cache.get"),
            "cache.put_s": incl("cache.put"),
            "cache.bytes_written": c["cache_bytes_written"],
            "cli.commands": calls("cli.main"),
            "cli.stdout_bytes": c["stdout_bytes"],
        })
        for kind in CACHE_KINDS:
            for what in ("hits", "misses", "puts"):
                out[f"cache.{kind}.{what}"] = c[f"cache.{kind}.{what}"]
        out["layer_calls"] = {layer: self.layer_calls(layer) for layer in LAYERS}
        out["gram_nu_list"] = sorted(self.gram_nus)
        return out


# -- hooks: (before(tracer, args) -> state or None, after(tracer, state, args, result))

def _gram_before(tracer, args):
    return tracer.counts["cache.gram.hits"]


def _gram_after(tracer, hits_before, args, result):
    if tracer.counts["cache.gram.hits"] != hits_before:
        return  # served from the disk cache, not built
    lam, nu = args[0], args[1]
    dim = len(result.entries)
    tracer.counts["gram_builds"] += 1
    tracer.counts["gram_entries"] += dim * dim
    tracer.counts["gram_max_dim"] = max(tracer.counts["gram_max_dim"], dim)
    tracer.gram_nus.add((lam.system.cartan_type, tuple(nu.coeffs)))


def _simple_before(tracer, args):
    memo = getattr(sys.modules["modcato.category_o"], "_SIMPLE_CACHE", None)
    return None if memo is None else len(memo)


def _simple_after(tracer, size_before, args, result):
    memo = getattr(sys.modules["modcato.category_o"], "_SIMPLE_CACHE", None)
    if size_before is None or memo is None or len(memo) > size_before:
        tracer.counts["simple_characters"] += 1


def _checks_after(tracer, state, args, result):
    tracer.counts["periodicity_checks"] += len(result.checks)


def _cache_get_after(tracer, state, args, result):
    if tracer.original("cache.active_dir")() is not None:
        kind = args[0].kind
        tracer.counts[f"cache.{kind}.{'misses' if result is None else 'hits'}"] += 1


def _cache_put_after(tracer, state, args, result):
    root = tracer.original("cache.active_dir")()
    if root is not None:
        key = args[0]
        record = os.path.join(root, tracer.original("cache.CacheKey.filename")(key))
        tracer.counts[f"cache.{key.kind}.puts"] += 1
        tracer.counts["cache_bytes_written"] += os.stat(record).st_size


# Functions whose inclusive time is a metric of its own.
_TIMED = ("hypalg.rank_mod_p", "cache.get", "cache.put")

_HOOKS = {
    "hypalg.shapovalov_gram": (_gram_before, _gram_after),
    "category_o.simple_character": (_simple_before, _simple_after),
    "periodicity.verify_periodicity": (None, _checks_after),
    "periodicity.verify_updown": (None, _checks_after),
    "periodicity.verify_projective_shift": (None, _checks_after),
    "cache.get": (None, _cache_get_after),
    "cache.put": (None, _cache_put_after),
}


# -- combining traced repeats (run in the driver, without modcato) -------------

def _combine_passes(traces):
    """One repeat's traces, one per pass, summed into one set of values."""
    out = {}
    for name, _, _ in PER_LAYER:
        vals = [t[name] for t in traces if name in t]
        if vals:
            out[name] = max(vals) if name == "hypalg.gram_max_dim" else sum(vals)
    out["hypalg.gram_nus"] = len({(n[0], tuple(n[1])) for t in traces for n in t["gram_nu_list"]})
    out["cache.gram.pass2_hits"] = traces[1]["cache.gram.hits"] if len(traces) > 1 else 0
    return out


def check_trace(wl, reps):
    """Per-layer values of a traced run and the list of problems that make
    the trace untrustworthy.  ``reps`` are the completed repeats."""
    problems = []
    if not reps:
        return {}, ["no traced repeat completed"]
    combined = [_combine_passes(r["traces"]) for r in reps]
    values = {}
    for name, unit, _ in PER_LAYER:
        if name in ("ops_failed", "cache_disk_mb", "trace.wall_s"):
            continue
        vals = [c.get(name, 0) for c in combined]
        if unit == "s":
            values[name] = statistics.median(vals)
        else:
            if len(set(vals)) != 1:
                problems.append(f"{name} differs between repeats: {vals}")
            values[name] = vals[0]
    values["trace.wall_s"] = statistics.fmean(sum(r["walls"]) for r in reps)  # as wall_s
    for r in reps:
        for t, wall in zip(r["traces"], r["walls"]):
            selfs = sum(t[f"{layer}.self_s"] for layer in LAYERS)
            if selfs > wall:
                problems.append(f"self times sum to {selfs:.4f} s, more than the wall {wall:.4f} s")
        calls = {layer: sum(t["layer_calls"][layer] for t in r["traces"]) for layer in LAYERS}
        for layer in wl.layers:
            if calls[layer] == 0:
                problems.append(f"layer {layer} reports zero calls on {wl.name}")
    if not wl.uses_cache:
        for kind in CACHE_KINDS:
            for what in ("hits", "puts"):
                if values[f"cache.{kind}.{what}"]:
                    problems.append(f"cache.{kind}.{what} is nonzero on a cache-off workload")
    return values, problems


def properties(values) -> dict:
    """The workload properties BENCHMARK.json's reasons rest on."""
    selfs = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values()) or 1.0
    nus = values["hypalg.gram_nus"]
    return {
        "gram_builds_per_nu": values["hypalg.gram_builds"] / nus if nus else 0.0,
        "pass2_gram_hits": values["cache.gram.pass2_hits"],
        "self_share": {layer: round(s / total, 3) for layer, s in selfs.items()},
    }
