"""Whole-word PBW straightening, the reference the Gram recursion is checked
against.

It imports only ``get_structure`` from modcato and reads nothing of the
structure but its bracket table and sizes, so it shares no code path with
``PBWEngine._e_on_f`` or ``PBWEngine._left_f``.  A PBW monomial is a
nondecreasing word of Chevalley basis indices (every f, then every h, then
every e, each in root order); one rule multiplies it by a letter on the
right, for f, h and e alike.

Words of generators are lists of (kind, index, power) with kind "e", "f" or
"h"; results are {(f_exps, h_exps, e_exps): coefficient}.
"""

from __future__ import annotations

from functools import lru_cache

from modcato.hypalg import get_structure


@lru_cache(maxsize=None)
def _times(cartan_type: str, flip: tuple[int, ...], w: tuple[int, ...], x: int):
    """w x in PBW order: w + (x,) when x >= last(w), else with w = rest y,
    (rest x) y + sum_b [y, x]_b (rest b)."""
    if not w or x >= w[-1]:
        return {w + (x,): 1}
    rest, y = w[:-1], w[-1]
    out: dict[tuple[int, ...], int] = {}
    for u, c in _times(cartan_type, flip, rest, x).items():
        for v, d in _times(cartan_type, flip, u, y).items():
            out[v] = out.get(v, 0) + c * d
    for b, cb in get_structure(cartan_type, flip).bracket_table[(y, x)]:
        for v, d in _times(cartan_type, flip, rest, b).items():
            out[v] = out.get(v, 0) + cb * d
    return {v: c for v, c in out.items() if c}


def _apply(cartan_type, flip, element: dict, letters) -> dict:
    for x in letters:
        out: dict[tuple[int, ...], int] = {}
        for w, c in element.items():
            for v, d in _times(cartan_type, flip, w, x).items():
                out[v] = out.get(v, 0) + c * d
        element = {v: c for v, c in out.items() if c}
    return element


def _letters(st, word):
    offset = {"f": 0, "h": st.nroots, "e": st.nroots + st.rank}
    out = []
    for kind, pos, power in word:
        out += [offset[kind] + pos] * power
    return out


def _monomial(st, w):
    exps = [0] * st.dim
    for x in w:
        exps[x] += 1
    m, r = st.nroots, st.rank
    return tuple(exps[:m]), tuple(exps[m : m + r]), tuple(exps[m + r :])


def _word(mono):
    return tuple(x for x, a in enumerate(mono[0] + mono[1] + mono[2]) for _ in range(a))


def straighten(cartan_type: str, word, flip: tuple[int, ...] = ()) -> dict:
    """The product of ``word`` in the ordinary-power PBW basis."""
    st = get_structure(cartan_type, flip)
    out = _apply(cartan_type, flip, {(): 1}, _letters(st, word))
    return {_monomial(st, w): c for w, c in out.items()}


def multiply(cartan_type: str, u: dict, v: dict, flip: tuple[int, ...] = ()) -> dict:
    """u v for two results of ``straighten``."""
    st = get_structure(cartan_type, flip)
    out: dict[tuple[int, ...], int] = {}
    for mono, c in v.items():
        prod = _apply(cartan_type, flip, {_word(m): d for m, d in u.items()}, _word(mono))
        for w, d in prod.items():
            out[w] = out.get(w, 0) + c * d
    return {_monomial(st, w): c for w, c in out.items() if c}


def weight(cartan_type: str, u: dict) -> tuple[int, ...]:
    """Common root-lattice weight of all terms; raises when inhomogeneous."""
    roots = get_structure(cartan_type).rs.positive_roots
    weights = {
        tuple(sum((e[k] - f[k]) * root[i] for k, root in enumerate(roots)) for i in range(len(roots[0])))
        for f, _, e in u
    }
    if len(weights) > 1:
        raise ValueError("element is not weight homogeneous")
    return weights.pop() if weights else (0,) * len(roots[0])


def hc_project(u: dict) -> dict:
    """The terms in U^0 of the triangular decomposition."""
    return {mono: c for mono, c in u.items() if not any(mono[0]) and not any(mono[2])}


def evaluate(u0: dict, lam_coords: tuple[int, ...]) -> int:
    """Value of a U^0 element at h_i = lam_coords[i]."""
    total = 0
    for (f, h, e), c in u0.items():
        if any(f) or any(e):
            raise ValueError("element has terms outside U^0")
        for i, a in enumerate(h):
            c *= lam_coords[i] ** a
        total += c
    return total
