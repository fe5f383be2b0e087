"""The benchmark workloads as concrete CLI command lists.

BENCHMARK.json lists ``steinberg-b2`` and ``cache-a2``; between them they
reach every layer.  ``weyl-sweep`` and ``periodicity-a2`` run by name (see
README.md for why they are not in BENCHMARK.json).

Each workload is a list of *passes*; each pass runs in its own fresh
interpreter, so engine memos, ``_SIMPLE_CACHE`` and the ``lru_cache``s
start cold.  Only ``cache-a2`` has two passes, sharing one disk-cache
directory.  The seed picks the concrete inputs where the workload family
has freedom, without changing the amount of work:

* ``steinberg-b2`` has none: (p-1)rho = (2,2) is the only Steinberg weight.
* ``weyl-sweep`` shuffles the command order and moves the Verma highest
  weight and the qmult (lambda, ceiling) pair by one common offset; Verma
  and qmult work depends only on differences of weights.
* ``periodicity-a2`` and ``cache-a2`` shuffle the command order within
  each pass.  Translating K is not work-neutral: the decomposition pattern,
  and with it the number of Gram builds, moves by up to 10% between
  translates of K by 3X.

Nothing here imports modcato.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

ALL_LAYERS = ("rootdata", "charring", "hypalg", "category_o", "topology",
              "periodicity", "cache", "cli")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: str        # oracle name in oracles.CHECKS
    info: dict        # parsed inputs the oracle needs


@dataclass
class Workload:
    name: str
    passes: list[list[Command]]
    layers: tuple[str, ...]          # layers the workload is known to use
    limit_s: float                   # per-pass hang limit
    uses_cache: bool = False
    params: dict = field(default_factory=dict)


def _w(coords) -> str:
    return ",".join(str(c) for c in coords)


def _ws(weights) -> str:
    return ";".join(_w(w) for w in weights)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _shuffled(rng, cmds):
    order = list(range(len(cmds)))
    rng.shuffle(order)
    return [cmds[i] for i in order], order


def _char_simple(typ, p, lam, depth, extra=()):
    return Command(
        ("char", "simple", "--type", typ, "--p", str(p), f"--lambda={_w(lam)}",
         "--depth", str(depth)) + tuple(extra),
        "simple", {"type": typ, "p": p, "lambda": lam, "depth": depth})


def _decomp(typ, p, mu, depth, extra=()):
    return Command(
        ("decomp", "--type", typ, "--p", str(p), f"--mu={_w(mu)}",
         "--depth", str(depth)) + tuple(extra),
        "decomp", {"type": typ, "p": p, "mu": mu, "depth": depth})


def _periodicity(which, typ, p, l, K, gamma, depth=None, extra=()):
    argv = ("periodicity", which, "--type", typ, "--p", str(p), "--l", str(l),
            f"--set={_ws(K)}", f"--gamma={_w(gamma)}", "--format", "json")
    if depth is not None:
        argv += ("--depth", str(depth))
    return Command(argv + tuple(extra), f"periodicity_{which}",
                   {"type": typ, "K": K, "gamma": gamma})


def steinberg_b2(seed: int, cache_dir: str) -> Workload:
    return Workload(
        "steinberg-b2",
        [[Command(("char", "simple", "--type", "B2", "--p", "3", "--lambda=2,2",
                   "--depth", "14"),
                  "steinberg", {"type": "B2", "p": 3, "lambda": (2, 2), "depth": 14})]],
        layers=("rootdata", "charring", "hypalg", "category_o", "cli"),
        limit_s=100.0,
    )


def weyl_sweep(seed: int, cache_dir: str) -> Workload:
    rng = random.Random(seed)
    cmds = []
    for typ, top in (("B2", 6), ("A2", 8)):
        for a in range(top + 1):
            for b in range(top + 1):
                cmds.append(Command(("char", "weyl", "--type", typ, f"--lambda={a},{b}"),
                                    "weyl", {"type": typ, "lambda": (a, b)}))
    off = (rng.randint(-4, 4), rng.randint(-4, 4))
    cmds.append(Command(("char", "verma", "--type", "B2", f"--lambda={_w(off)}",
                         "--depth", "24"),
                        "verma", {"type": "B2", "lambda": off, "depth": 24}))
    q_lam = _add((-4, -4), off)
    q_ceiling = [_add((2, 2), off), _add((4, 0), off)]
    cmds.append(Command(("qmult", "--type", "A2", f"--lambda={_w(q_lam)}",
                         f"--ceiling={_ws(q_ceiling)}"),
                        "qmult", {"type": "A2", "lambda": q_lam, "ceiling": q_ceiling}))
    cmds, _ = _shuffled(rng, cmds)
    return Workload(
        "weyl-sweep",
        [cmds],
        layers=("rootdata", "charring", "category_o", "topology", "cli"),
        limit_s=60.0,
        params={"offset": off},
    )


# K is the order interval [(0,0), (1,1)]: no two elements differ by 3 times a
# positive root-lattice vector, and gamma = (3,3) lies in 3X.
_A2_K = [(0, 0), (2, -1), (-1, 2), (1, 1)]
_A2_GAMMA = (3, 3)


def _projmult_a2(extra=()):
    return Command(("projmult", "--type", "A2", "--p", "3", "--lambda=-2,-2",
                    "--ceiling=2,2") + tuple(extra),
                   "projmult", {"type": "A2", "lambda": (-2, -2), "ceiling": [(2, 2)]})


def periodicity_a2(seed: int, cache_dir: str) -> Workload:
    cmds, order = _shuffled(random.Random(seed), [
        _periodicity("full", "A2", 3, 1, _A2_K, _A2_GAMMA, depth=12),
        _periodicity("updown", "A2", 3, 1, _A2_K, _A2_GAMMA),
        _decomp("A2", 3, (6, 6), 12),
        _projmult_a2(),
    ])
    return Workload(
        "periodicity-a2",
        [cmds],
        layers=tuple(layer for layer in ALL_LAYERS if layer != "cache"),
        limit_s=40.0,
        params={"order": order},
    )


def cache_a2(seed: int, cache_dir: str) -> Workload:
    """Pass 1 is periodicity-a2 plus one simple character, with the cache on.
    Pass 2 repeats pass 1's decomp row; run.py requires identical bytes."""
    rng = random.Random(seed)
    use = ("--cache-dir", cache_dir)
    pass1, order1 = _shuffled(rng, [
        _char_simple("A2", 3, (4, 4), 12, use),
        _periodicity("full", "A2", 3, 1, _A2_K, _A2_GAMMA, depth=12, extra=use),
        _periodicity("updown", "A2", 3, 1, _A2_K, _A2_GAMMA, extra=use),
        _decomp("A2", 3, (6, 6), 12, use),
        _projmult_a2(use),
    ])
    pass2, order2 = _shuffled(rng, [
        _char_simple("A2", 2, (4, 4), 12, use),
        _decomp("A2", 2, (6, 6), 12, use),
        _decomp("A2", 3, (5, 5), 10, use),
        _decomp("A2", 3, (6, 6), 12, use),
    ])
    return Workload(
        "cache-a2",
        [pass1, pass2],
        layers=ALL_LAYERS,
        limit_s=40.0,
        uses_cache=True,
        params={"order": [order1, order2]},
    )


WORKLOADS = {
    "steinberg-b2": steinberg_b2,
    "weyl-sweep": weyl_sweep,
    "periodicity-a2": periodicity_a2,
    "cache-a2": cache_a2,
}
