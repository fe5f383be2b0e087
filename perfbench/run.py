"""Outside-in benchmark for modcato.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI commands through ``modcato.cli.main`` in fresh
interpreters, one repeat at a time, for about ``--seconds`` seconds; checks
every output against the independent oracles in ``oracles.py``; and prints
one JSON object as the last line of stdout.  With ``--trace 0`` it reports
the end-to-end metrics (over all repeats of the run); with ``--trace 1`` it runs
the repeats with the per-layer tracer installed and reports the per-layer
metrics.  Only the standard library is used; modcato is imported only in
the worker processes, from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from tracer import PER_LAYER, check_trace, properties  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 16        # setup-only interpreters per run; setup_s is their median
HARD_DEADLINE_S = 165.0  # the whole run ends well inside 180 s
MIB = 1024.0 * 1024.0


class Runner:
    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "MODCATO_CACHE"}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.start = time.monotonic()

    def remaining(self) -> float:
        return HARD_DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, commands, *, trace=False, cache=False, limit=30.0):
        """Run one worker; returns (setup_s, per-command results, summary or None)."""
        spec = {"src": str(self.root / "src"), "bench": str(BENCH), "trace": trace,
                "cache": cache, "commands": [list(c) for c in commands],
                "spawned": time.monotonic()}
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=self.work, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, min(limit, self.remaining())))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        setup, results, summary = None, {}, None
        for line in out.splitlines():
            try:
                msg = json.loads(line)
            except ValueError:  # a line cut short by the kill of a hung worker
                continue
            if "setup_s" in msg:
                setup = msg["setup_s"]
            elif "i" in msg:
                results[msg["i"]] = msg
            else:
                summary = msg
        if setup is None and commands:
            sys.stderr.write(f"worker failed before set-up: {err[-2000:]}\n")
        return setup, results, summary


def _disk_usage(path: Path) -> int:
    """Bytes allocated to the files under ``path``, as du counts them."""
    if not path.is_dir():
        return 0
    return sum(f.stat().st_blocks * 512 for f in path.rglob("*") if f.is_file())


def run_repeat(runner: Runner, wl, trace: bool, verdicts: dict):
    """One repeat of every pass; returns a dict of what it measured."""
    cache_dir = runner.work / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    if wl.uses_cache:
        cache_dir.mkdir()
        os.sync()  # write back the last repeat's deletions before timing this one
    rep = {"walls": [], "rss": [], "traces": [], "failed": 0, "attempted": 0,
           "hung": False}
    first_output = {}  # a command repeated in a later pass must print the same bytes
    for commands in wl.passes:
        rep["attempted"] += len(commands)
        if rep["hung"]:
            rep["failed"] += len(commands)
            continue
        _, results, summary = runner.spawn([c.argv for c in commands], trace=trace,
                                           cache=wl.uses_cache, limit=wl.limit_s)
        if summary is None:
            rep["hung"] = True
        else:
            rep["walls"].append(summary["wall_s"])
            rep["rss"].append(summary["rss_mb"])
            if trace:
                rep["traces"].append(summary["trace"])
        for i, cmd in enumerate(commands):
            res = results.get(i)
            out = None if res is None else res["out"]
            if res is None or res["rc"] != 0:
                reason = "no result (hang)" if res is None else f"rc={res['rc']} {res['err'][-200:]}"
            else:
                key = (cmd.argv, out)
                if key not in verdicts:
                    verdicts[key] = oracles.check(cmd, out)
                reason = verdicts[key]
            if reason is None and first_output.setdefault(cmd.argv, out) != out:
                reason = "bytes differ from the same command in an earlier pass"
            if reason is not None:
                rep["failed"] += 1
                sys.stderr.write(f"FAILED {' '.join(cmd.argv)}: {reason}\n")
    rep["cache_mib"] = _disk_usage(cache_dir) / MIB
    shutil.rmtree(cache_dir, ignore_errors=True)
    return rep


def measure(runner: Runner, wl, seconds: float, trace: bool):
    verdicts: dict = {}
    reps = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        r0 = time.monotonic()
        reps.append(run_repeat(runner, wl, trace, verdicts))
        longest = max(longest, time.monotonic() - r0)
        if reps[-1]["hung"]:
            break
        elapsed = time.monotonic() - t0
        if elapsed + longest > seconds or longest > runner.remaining() - 10.0:
            break
    return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "modcato" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no modcato sources under {root / 'src'}\n")
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path) -> int:
    runner = Runner(root, work, args.seed)
    wl = WORKLOADS[args.workload](args.seed, str(work / "cache"))

    # Write back what earlier runs and the checkout left dirty before timing.
    os.sync()
    # The first interpreter compiles bytecode; it is not a sample.
    if runner.spawn([])[0] is None:
        sys.stderr.write("perfbench: the worker could not set up modcato\n")
        return 2
    # Half the set-up probes run before the repeats and half after, so that
    # setup_s sees the same machine load as the repeats.
    trace = bool(args.trace)
    setups = [runner.spawn([])[0] for _ in range(SETUP_PROBES // 2)]
    reps = measure(runner, wl, args.seconds, trace)
    setups += [runner.spawn([])[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if None in setups:
        sys.stderr.write("perfbench: a set-up probe failed\n")
        return 2

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    complete = [r for r in reps if not r["hung"]]
    ok = failed == 0 and bool(complete)
    if not wl.uses_cache and any(r["cache_mib"] for r in reps):
        sys.stderr.write("perfbench: a cache-off workload left a disk cache\n")
        ok = False
    if not complete:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    walls = [sum(r["walls"]) for r in complete]
    sys.stderr.write(f"perfbench: {args.workload} seed={args.seed} params={wl.params} "
                     f"walls={[round(w, 3) for w in walls]}\n")

    if not trace:
        values = {
            "wall_s": statistics.fmean(walls),  # the whole window's throughput
            "peak_rss_mb": statistics.median(max(r["rss"]) for r in complete),
            "setup_s": statistics.median(setups),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
        rc = 0
    else:
        values, problems = check_trace(wl, complete)
        for p in problems:
            sys.stderr.write(f"perfbench: trace check failed: {p}\n")
        if not problems:
            sys.stderr.write(f"perfbench: properties {json.dumps(properties(values))}\n")
        values["ops_failed"] = failed / attempted
        values["cache_disk_mb"] = statistics.median(r["cache_mib"] for r in reps)
        units = {name: unit for name, unit, _ in PER_LAYER}
        ok = ok and not problems
        rc = 1 if problems else 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
