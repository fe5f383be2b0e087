"""Divided-power contravariant Gram matrices on Verma weight spaces, and
their ranks, from exact integer arithmetic in the enveloping algebra.

Each weight space nu has a plan that does not depend on lambda and is
memoised per nu: the sorted PBW basis f^I (solved for: only non-simple
roots' exponents are enumerated) and, for each row I = k + I' with k the
first root of I, the index of f^I' in the basis of nu - beta_k.  By the
contravariance <f_k x, y> = <x, e_k y>, row I of the ordinary-power Gram
<f^I v, f^J v> is row I' of the Gram one root higher applied to the columns
e_k f^J v, which the plan holds as index lists with coefficients affine in
lambda.  Those come from the memoised one-letter commutation
e_k f_j f^J' v = f_j e_k f^J' v + [e_k, f_j] f^J' v, and each f_j f^M in it
from the memoised left multiplication f_j f_m f^M' = f_m f_j f^M' +
[f_j, f_m] f^M'.  Both fill their memos from an explicit stack, so no
Python recursion grows with the input.

One sweep ranks any set of weight spaces at one lambda.  It walks their
closure under nu -> nu - beta_k in ascending height and keeps only the raw
Grams of the last few levels, as many as the largest root height (2 in A2,
3 in B2).  Divided-power values come from exact factorial division, every
division checked with ``divmod`` (it is exact precisely because the divided
powers span an integral form).  Entry (I, J) and entry (J, I) come from
different rows, so the symmetry check compares two independent routes.
Reduction mod p happens only at rank computation; ranks over Q and
structure-constant coordinates come from one fraction-free (Bareiss)
eliminator whose every division is checked.

Structure constants come from fixed matrix realizations of the three
supported types, all brackets at once: one elimination of the basis
augmented with every distinct nonzero bracket of two basis matrices.  A
self-test runs once per realization, so a transcription error cannot
survive construction: antisymmetry on every pair, then the Jacobi identity
on the basis triples i < j < k (given antisymmetry the Jacobiator is
alternating and trilinear, so those triples suffice), the weight rules, the
coroots and the Chevalley root-string condition.
The engine's memo tables are plain dicts: reads and idempotent inserts
under the interpreter lock are safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import ExactnessError, SizeGuardError, require_prime
from .rootdata import RootSystem, Weight, build_root_system, kostant_table


class SizeGuard(NamedTuple):
    """Hard limits that make oversized instances fail loudly."""

    max_gram_dim: int = 200
    max_terms: int = 10**6


DEFAULT_GUARD = SizeGuard()

class GramMatrix(NamedTuple):
    """Divided-power contravariant form on one Verma weight space, on the
    sorted f-exponents of its PBW basis."""

    basis: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Matrix realizations.

def _elem(n: int, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if (a, b) == (i, j) else 0 for b in range(n)) for a in range(n)
    )


def _mat_add(*ms):
    n = len(ms[0])
    return tuple(
        tuple(sum(m[i][j] for m in ms) for j in range(n)) for i in range(n)
    )


def _mat_neg(m):
    return tuple(tuple(-v for v in row) for row in m)


def _mat_bracket(a, b) -> tuple[int, ...]:
    """The commutator ab - ba, flattened row by row."""
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    return tuple(
        sum(map(operator.mul, ra, cb)) - sum(map(operator.mul, rb, ca))
        for ra, rb in zip(a, b)
        for cb, ca in zip(cols_b, cols_a)
    )


def _realization(cartan_type: str):
    """Chevalley-basis matrices: e per positive root (global order), h per
    simple root.  f matrices are the transposes."""
    if cartan_type == "A1":
        e = [_elem(2, 0, 1)]
        h = [_mat_add(_elem(2, 0, 0), _mat_neg(_elem(2, 1, 1)))]
    elif cartan_type == "A2":
        # Positive root order (0,1), (1,0), (1,1) over (alpha_1, alpha_2).
        e = [_elem(3, 1, 2), _elem(3, 0, 1), _elem(3, 0, 2)]
        h = [
            _mat_add(_elem(3, 0, 0), _mat_neg(_elem(3, 1, 1))),
            _mat_add(_elem(3, 1, 1), _mat_neg(_elem(3, 2, 2))),
        ]
    elif cartan_type == "B2":
        # Rank-2 symplectic realization on basis (v1, v2, v_-2, v_-1);
        # alpha_1 is the long simple root, alpha_2 the short one.
        n = 4
        e = [
            _mat_add(_elem(n, 0, 1), _mat_neg(_elem(n, 2, 3))),  # (0,1) short
            _elem(n, 1, 2),                                      # (1,0) long
            _mat_add(_elem(n, 0, 2), _elem(n, 1, 3)),            # (1,1) short
            _elem(n, 0, 3),                                      # (1,2) long
        ]
        h = [
            _mat_add(_elem(n, 1, 1), _mat_neg(_elem(n, 2, 2))),
            _mat_add(
                _elem(n, 0, 0),
                _mat_neg(_elem(n, 1, 1)),
                _elem(n, 2, 2),
                _mat_neg(_elem(n, 3, 3)),
            ),
        ]
    else:  # pragma: no cover - guarded by build_root_system
        raise ValueError(cartan_type)
    f = [tuple(tuple(row[i] for row in m) for i in range(len(m))) for m in e]
    return f, h, e


def _bareiss(rows, pivot_cols=None):
    """Echelon form of an integer matrix by fraction-free elimination
    (Bareiss 1968), and its pivot columns, which are sought among the first
    ``pivot_cols`` columns (all by default).  Each entry stays a minor of the
    input, so every division by the previous pivot is exact; a remainder
    raises ExactnessError."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    width = len(mat[0]) if mat else 0
    for c in range(width if pivot_cols is None else pivot_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        for i in range(r + 1, len(mat)):
            row, lead = mat[i], mat[i][c]
            for j in range(c, width):
                row[j], rem = divmod(top[c] * row[j] - lead * top[j], prev)
                if rem:
                    raise ExactnessError("inexact division in fraction-free elimination")
        prev = top[c]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def _solve_in_basis(basis_vecs, targets):
    """Integer coordinates of each target in the span of basis_vecs, or None
    for a target outside it, from one elimination of the basis augmented
    with every target; raises ExactnessError when some coordinates are not
    integral.  Pivots are sought only among the basis columns, so each
    target column goes through the row operations a solve of its own would
    apply: it lies in the span exactly when it vanishes below the pivot rows."""
    if not targets:
        return []
    cols = len(basis_vecs)
    rows = [[vec[r] for vec in basis_vecs] + [t[r] for t in targets] for r in range(len(targets[0]))]
    mat, pivots = _bareiss(rows, cols)
    rank = len(pivots)
    out = []
    for t in range(cols, cols + len(targets)):
        if any(row[t] for row in mat[rank:]):
            out.append(None)
            continue
        coords = [0] * cols
        for r in reversed(range(rank)):
            c = pivots[r]
            rhs = mat[r][t] - sum(mat[r][j] * coords[j] for j in range(c + 1, cols))
            coords[c], rem = divmod(rhs, mat[r][c])
            if rem:
                raise ExactnessError("non-integral coordinates in the basis")
        out.append(coords)
    return out


class ChevalleyStructure:
    """Bracket table of a fixed Chevalley basis, with optional sign flips.

    ``flip`` lists indices of (non-simple) positive roots whose e/f basis
    vectors are negated; that is exactly a change of the structure-constant
    sign convention and must not change any Gram rank.
    """

    def __init__(self, rs: RootSystem, flip: tuple[int, ...] = ()):
        self.rs = rs
        self.flip = tuple(sorted(flip))
        self.nroots = len(rs.positive_roots)
        self.rank = rs.rank
        f_mats, h_mats, e_mats = _realization(rs.cartan_type)
        f_mats, e_mats = list(f_mats), list(e_mats)
        for k in self.flip:
            f_mats[k] = _mat_neg(f_mats[k])
            e_mats[k] = _mat_neg(e_mats[k])
        self._basis_mats = list(f_mats) + list(h_mats) + list(e_mats)
        self._basis_vecs = [
            [v for row in m for v in row] for m in self._basis_mats
        ]
        self.dim = len(self._basis_mats)
        self.bracket_table = self._solve_brackets()
        # <root_k, alpha_i^vee> for the h-commutation rules.
        self.root_fund = rs.root_fund
        self._self_test()

    # index bookkeeping -------------------------------------------------
    def f_index(self, k: int) -> int:
        return k

    def h_index(self, i: int) -> int:
        return self.nroots + i

    def e_index(self, k: int) -> int:
        return self.nroots + self.rank + k

    def classify(self, idx: int) -> tuple[str, int]:
        if idx < self.nroots:
            return "f", idx
        if idx < self.nroots + self.rank:
            return "h", idx - self.nroots
        return "e", idx - self.nroots - self.rank

    # construction -------------------------------------------------------
    def _solve_brackets(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Every bracket [b_i, b_j] of basis elements on the basis, from one
        elimination over the distinct nonzero ones."""
        pairs = [(i, j) for i in range(self.dim) for j in range(self.dim)]
        brackets = {}
        for i, j in pairs:
            vec = _mat_bracket(self._basis_mats[i], self._basis_mats[j])
            if any(vec):
                brackets[i, j] = vec
        targets = list(dict.fromkeys(brackets.values()))
        solved = dict(zip(targets, _solve_in_basis(self._basis_vecs, targets)))
        if None in solved.values():
            raise ExactnessError("bracket does not close on the Chevalley basis")
        return {
            ij: tuple((idx, c) for idx, c in enumerate(solved[brackets[ij]]) if c) if ij in brackets else ()
            for ij in pairs
        }

    def _bracket_combo(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for idx, c in self.bracket_table[(i, j)]:
                    out[idx] = out.get(idx, 0) + ci * cj * c
        return {k: v for k, v in out.items() if v}

    def _self_test(self) -> None:
        rs = self.rs
        dim = self.dim
        # Antisymmetry on every pair, the diagonal included.  Given it, the
        # Jacobiator [x,[y,z]] - [[x,y],z] - [y,[x,z]] is alternating and
        # trilinear, so the Jacobi identity holds on the whole algebra as
        # soon as it holds on the basis triples i < j < k.
        for i in range(dim):
            for j in range(i, dim):
                if self.bracket_table[(j, i)] != tuple((idx, -c) for idx, c in self.bracket_table[(i, j)]):
                    raise ExactnessError(f"antisymmetry fails for basis pair ({i}, {j})")
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    lhs = self._bracket_combo({i: 1}, dict(self.bracket_table[(j, k)]))
                    rhs = self._bracket_combo(dict(self.bracket_table[(i, j)]), {k: 1})
                    for idx, c in self._bracket_combo({j: 1}, dict(self.bracket_table[(i, k)])).items():
                        rhs[idx] = rhs.get(idx, 0) + c
                    rhs = {a: b for a, b in rhs.items() if b}
                    if lhs != rhs:
                        raise ExactnessError("Jacobi identity failed in structure table")
        # Weight rules and coroot consistency.
        for k in range(self.nroots):
            for i in range(self.rank):
                expect = self.root_fund[k][i]
                for idx, c in ((self.e_index(k), expect), (self.f_index(k), -expect)):
                    if self.bracket_table[(self.h_index(i), idx)] != (((idx, c),) if c else ()):
                        raise ExactnessError(f"weight rule of root {k} fails against h_{i}")
            ef = dict(self.bracket_table[(self.e_index(k), self.f_index(k))])
            expected = {
                self.h_index(i): rs.coroots[k][i]
                for i in range(self.rank)
                if rs.coroots[k][i]
            }
            if ef != expected:
                raise ExactnessError("coroot mismatch between table and root data")
        # Chevalley sign condition |N_{a,b}| = (string length p) + 1.
        root_set = set(rs.positive_roots)
        root_set |= {tuple(-c for c in r) for r in root_set}
        index_of = {r: k for k, r in enumerate(rs.positive_roots)}
        for i, a in enumerate(rs.positive_roots):
            for j, b in enumerate(rs.positive_roots):
                if i == j:
                    continue
                s = tuple(x + y for x, y in zip(a, b))
                table = self.bracket_table[(self.e_index(i), self.e_index(j))]
                if s not in root_set:
                    ok = table == ()
                else:
                    p = 0
                    while tuple(x - (p + 1) * y for x, y in zip(b, a)) in root_set:
                        p += 1
                    ok = len(table) == 1 and table[0][0] == self.e_index(index_of[s]) and abs(table[0][1]) == p + 1
                if not ok:
                    raise ExactnessError(f"Chevalley sign condition fails for [e_{i}, e_{j}]")


@lru_cache(maxsize=None)
def get_structure(cartan_type: str, flip: tuple[int, ...] = ()) -> ChevalleyStructure:
    return ChevalleyStructure(build_root_system(cartan_type), flip)


class _Group(NamedTuple):
    """The rows of one Gram whose basis monomials f^I = f_k f^I' share their
    first root k.  ``rows`` pairs each row index with the index of f^I' in
    the basis of ``higher`` = nu - beta_k; the columns e_k f^J v are stored
    flat: term t of all columns lies at index ``idxs[t]`` of that basis with
    value ``sum_i coeffs[i][t] * (1, *lam)[i]``, and column J owns the terms
    ``spans[J]``."""

    higher: tuple[int, ...]
    rows: tuple[tuple[int, int], ...]
    idxs: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]
    spans: tuple[tuple[int, int], ...]


class _Plan(NamedTuple):
    """The lambda-independent recipe of one weight space's Gram."""

    basis: tuple[tuple[int, ...], ...]
    facts: tuple[int, ...]  # prod_k exps_I[k]!, the divided-power scale of row I
    groups: tuple[_Group, ...]


class PBWEngine:
    """Memoised Gram construction over one Chevalley structure: the
    one-letter commutation e_k f^J v, the left multiplication f_j f^M in
    U^-, and the per-weight-space Gram plans."""

    def __init__(self, structure: ChevalleyStructure):
        st = self.st = structure
        self.rs = st.rs
        # Affine coefficients (c_0, c_1, ...) of the constant 1, and the
        # linear part (c_1, ...) of each h_i.
        self._one = (1,) + (0,) * st.rank
        self._h_linear = [tuple(int(t == i) for t in range(st.rank)) for i in range(st.rank)]
        # [e_y, f_j] as (kind, position, coefficient) terms.
        self._e_brackets = {
            (y, j): tuple((*st.classify(idx), c) for idx, c in st.bracket_table[st.e_index(y), st.f_index(j)])
            for y in range(st.nroots)
            for j in range(st.nroots)
        }
        self._memo_e_on_f: dict = {}
        self._memo_left_f: dict = {}
        self._plans: dict = {}
        self.max_root_height = max(map(sum, st.rs.positive_roots))
        # _left_f writes f_m (f_j f^M') as f^{...+e_m}: every root of f_j f^M'
        # must come no earlier than m, which holds when each bracket
        # [f_a, f_b] lies on a root later than both.
        for (a, b), terms in st.bracket_table.items():
            if a < st.nroots and b < st.nroots:
                if any(not max(a, b) < idx < st.nroots for idx, _ in terms):
                    raise ExactnessError("root order does not put [f_a, f_b] after f_a and f_b")

    # -- small helpers ----------------------------------------------------
    @staticmethod
    def _bump(exps: tuple[int, ...], k: int, by: int = 1) -> tuple[int, ...]:
        return exps[:k] + (exps[k] + by,) + exps[k + 1 :]

    @staticmethod
    def _first(exps: tuple[int, ...]) -> int | None:
        """The first root with a nonzero exponent, or None."""
        for t, a in enumerate(exps):
            if a:
                return t
        return None

    @staticmethod
    def _fill(memo: dict, key, step):
        """memo[key] by a depth-first walk on an explicit stack, so no Python
        recursion grows with the input.  ``step(*key)`` returns the keys it
        reads that are not in the memo yet, or else the entry itself, as
        (missing, entry)."""
        stack = [key]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            missing, entry = step(*top)
            if missing:
                stack += missing
            else:
                memo[top] = entry
                stack.pop()
        return memo[key]

    # -- contravariant form ---------------------------------------------------
    def _left_f(self, j: int, m_exps: tuple[int, ...], guard: SizeGuard):
        """f_j f^M in PBW order.  With m the first root of M = m + M', it is
        f^{M + e_j} when j <= m, else f_m (f_j f^M') + [f_j, f_m] f^M', where
        f_m (f_j f^M') only raises the exponent of m."""
        hit = self._memo_left_f.get((j, m_exps))
        if hit is not None:
            return hit
        memo, table = self._memo_left_f, self.st.bracket_table

        def step(y, word):
            m = self._first(word)
            if m is None or y <= m:
                return None, {self._bump(word, y): 1}
            rest = self._bump(word, m, -1)
            reads = [(y, rest)] + [(idx, rest) for idx, _ in table[y, m]]
            missing = [key for key in reads if key not in memo]
            if missing:
                return missing, None
            out: dict[tuple[int, ...], int] = {}
            for f2, c in memo[y, rest].items():
                f3 = self._bump(f2, m)
                out[f3] = out.get(f3, 0) + c
            for idx, cb in table[y, m]:
                for f3, c3 in memo[idx, rest].items():
                    out[f3] = out.get(f3, 0) + cb * c3
            result = {f: c for f, c in out.items() if c}
            if len(result) > guard.max_terms:
                raise SizeGuardError(f"U^- commutation exceeded {guard.max_terms} terms")
            return None, result

        return self._fill(memo, (j, m_exps), step)

    def _e_on_f(self, k: int, j_exps: tuple[int, ...], guard: SizeGuard):
        """e_k f^J v_lam as {f-exponents: (c_0, c_1, ...)}, each coefficient
        c_0 + sum_i c_i lam_i affine in lam: only one e letter is commuted,
        so at most one h is met.

        With j the first root of J = j + J', commute one letter:
        e_k f^J v = f_j (e_k f^J' v) + [e_k, f_j] f^J' v.  An h_i in the
        bracket acts on f^J' v as lam_i - <wt f^J', alpha_i^vee>, an e_beta
        reads (beta, J'), an f_gamma reorders f_gamma f^J' in U^-.
        """
        hit = self._memo_e_on_f.get((k, j_exps))
        if hit is not None:
            return hit
        memo, brackets = self._memo_e_on_f, self._e_brackets

        def step(y, word):
            j = self._first(word)
            if j is None:
                return None, {}
            rest = self._bump(word, j, -1)
            reads = [(y, rest)] + [(pos, rest) for kind, pos, _ in brackets[y, j] if kind == "e"]
            missing = [key for key in reads if key not in memo]
            if missing:
                return missing, None
            terms = []  # (f-exponents, affine coefficient, scale)
            for f_exps, vec in memo[y, rest].items():
                terms += [(f2, vec, c) for f2, c in self._left_f(j, f_exps, guard).items()]
            for kind, pos, cb in brackets[y, j]:
                if kind == "h":
                    shift = sum(a * self.st.root_fund[t][pos] for t, a in enumerate(rest) if a)
                    terms.append((rest, (-shift,) + self._h_linear[pos], cb))
                elif kind == "e":
                    terms += [(f, vec, cb) for f, vec in memo[pos, rest].items()]
                else:
                    terms += [(f2, self._one, cb * c) for f2, c in self._left_f(pos, rest, guard).items()]
            out: dict[tuple[int, ...], list[int]] = {}
            for f_exps, vec, c in terms:
                cur = out.get(f_exps)
                out[f_exps] = [c * v for v in vec] if cur is None else [a + c * v for a, v in zip(cur, vec)]
            result = {f: tuple(vec) for f, vec in out.items() if any(vec)}
            vecs = result.values()
            if sum(map(len, vecs)) - sum([vec.count(0) for vec in vecs]) > guard.max_terms:
                raise SizeGuardError(f"U^- commutation exceeded {guard.max_terms} terms")
            return None, result

        return self._fill(memo, (k, j_exps), step)

    def _plan(self, nu_coeffs: tuple[int, ...], guard: SizeGuard) -> _Plan:
        """The memoised Gram plan of the (lam - nu) weight space.  With k the
        first root in f^I = f_k f^I', the contravariance <f_k x, y> =
        <x, e_k y> makes row I row I' of the Gram one root higher, applied
        to the columns e_k f^J v."""
        hit = self._plans.get(nu_coeffs)
        if hit is not None:
            return hit
        basis = _f_exponents(self.rs, nu_coeffs)
        by_root: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        if any(nu_coeffs):
            for i, exps in enumerate(basis):
                by_root.setdefault(self._first(exps), []).append((i, exps))
        groups = []
        for k, members in by_root.items():
            higher = tuple(a - b for a, b in zip(nu_coeffs, self.rs.positive_roots[k]))
            index = {exps: x for x, exps in enumerate(_f_exponents(self.rs, higher))}
            terms, spans = [], []
            for j in basis:
                start = len(terms)
                terms += [(index[f], *vec) for f, vec in self._e_on_f(k, j, guard).items()]
                spans.append((start, len(terms)))
            idxs, *coeffs = zip(*terms) if terms else [()] * (self.st.rank + 2)
            rows = tuple((i, index[self._bump(exps, k, -1)]) for i, exps in members)
            groups.append(_Group(higher, rows, idxs, tuple(coeffs), tuple(spans)))
        plan = _Plan(basis, tuple(map(_factorial_product, basis)), tuple(groups))
        self._plans[nu_coeffs] = plan
        return plan


@lru_cache(maxsize=None)
def get_engine(cartan_type: str, flip: tuple[int, ...] = ()) -> PBWEngine:
    return PBWEngine(get_structure(cartan_type, flip))


# ---------------------------------------------------------------------------
# Public operations.

@lru_cache(maxsize=None)
def _f_exponents(rs: RootSystem, nu_coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sorted f-exponents of weight -nu.  Only non-simple roots are looped
    over; the simple roots' exponents are the rest of nu, if nonnegative."""
    roots = rs.positive_roots
    others = [k for k, r in enumerate(roots) if sum(r) > 1]
    out: list[tuple[int, ...]] = []
    ranges = [range(min(n // c for n, c in zip(nu_coeffs, roots[k]) if c) + 1) for k in others]
    for combo in itertools.product(*ranges):
        chosen = dict(zip(others, combo))
        rem = [n - sum(a * roots[k][i] for k, a in chosen.items()) for i, n in enumerate(nu_coeffs)]
        if min(rem) >= 0:
            out.append(tuple(chosen[k] if k in chosen else rem[r.index(1)] for k, r in enumerate(roots)))
    return tuple(sorted(out))


def _factorial_product(exps: tuple[int, ...]) -> int:
    out = 1
    for a in exps:
        if a > 1:
            out *= math.factorial(a)
    return out


def _divided_grams(
    eng: PBWEngine, lam_coords: tuple[int, ...], nus: list[tuple[int, ...]], guard: SizeGuard
):
    """Yield (nu, plan, divided-power Gram rows) for every nu in ``nus``, in
    ascending height.

    Every nu is checked against the guard before any plan is built.  The
    closure of ``nus`` under the plans' one-root-higher weights is then
    swept in ascending height, keeping only the raw Grams of the last
    ``max_root_height`` levels.  A raw entry is divided by the factorials of
    its row and column exponents with a checked ``divmod``; entry (I, J) and
    entry (J, I) come from different rows, so the symmetry check compares
    two independent routes.
    """
    rs = eng.rs
    nus = list(map(rs._check_nu, nus))
    if min(map(min, nus), default=0) < 0:
        raise ValueError("nu must be a nonnegative root-lattice vector")
    dims = kostant_table(rs, max(map(sum, nus), default=-1))
    for nu in nus:
        if dims[nu] > guard.max_gram_dim:
            raise SizeGuardError(f"weight space dimension {dims[nu]} exceeds guard {guard.max_gram_dim}")
    closure, todo = set(nus), list(nus)
    while todo:
        for group in eng._plan(todo.pop(), guard).groups:
            if group.higher not in closure:
                closure.add(group.higher)
                todo.append(group.higher)
    wanted = set(nus)
    window: dict[tuple[int, ...], list[list[int]]] = {}
    height = -1
    for nu in sorted(closure, key=lambda n: (sum(n), n)):
        if sum(nu) > height:
            height = sum(nu)
            window = {n: g for n, g in window.items() if sum(n) >= height - eng.max_root_height}
        plan = eng._plan(nu, guard)
        raw = [[1]] if not plan.groups else [None] * len(plan.basis)
        for group in plan.groups:
            low, spans, idxs = window[group.higher], group.spans, group.idxs
            values = list(group.coeffs[0])
            for lam_i, coeffs in zip(lam_coords, group.coeffs[1:]):
                if lam_i and any(coeffs):
                    values = [v + lam_i * c for v, c in zip(values, coeffs)]
            for i, x in group.rows:
                terms = list(map(operator.mul, values, map(low[x].__getitem__, idxs)))
                raw[i] = [sum(terms[a:b]) for a, b in spans]
        window[nu] = raw
        if nu in wanted:
            yield nu, plan, _divide(plan, raw, lam_coords, nu)


def _divide(plan: _Plan, raw: list[list[int]], lam_coords, nu) -> list[tuple[int, ...]]:
    """The divided-power Gram from the raw one, every division checked,
    and its symmetry check."""
    entries = []
    for i, (raw_row, fi) in enumerate(zip(raw, plan.facts)):
        row, rems = zip(*map(divmod, raw_row, map(fi.__mul__, plan.facts)))
        if any(rems):
            j = next(j for j, r in enumerate(rems) if r)
            raise ExactnessError(
                f"divided-power value not integral at lam={lam_coords}, "
                f"nu={nu}, pair=({plan.basis[i]},{plan.basis[j]})"
            )
        entries.append(row)
    if list(zip(*entries)) != entries:
        raise ExactnessError("contravariant Gram matrix is not symmetric")
    return entries


def shapovalov_gram(
    lam: Weight,
    nu: tuple[int, ...],
    *,
    guard: SizeGuard | None = None,
    engine: PBWEngine | None = None,
) -> GramMatrix:
    """Exact integer Gram matrix of the divided-power contravariant form
    on the (lam - nu) weight space of the Verma with highest weight lam,
    for ``nu`` in simple-root coordinates."""
    eng = engine or get_engine(lam.system.cartan_type)
    ((_, plan, entries),) = _divided_grams(eng, lam.coords, [nu], guard or DEFAULT_GUARD)
    return GramMatrix(plan.basis, tuple(map(tuple, entries)))


def rank_mod_p(rows: Iterable[Iterable[int]], p: int) -> int:
    """Rank over F_p by exact Gaussian elimination to row echelon form."""
    require_prime(p)
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        inv = pow(top[c], -1, p)
        for r in range(rank + 1, len(mat)):
            if mat[r][c]:
                factor = mat[r][c] * inv
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], top)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_rational(rows: Iterable[Iterable[int]]) -> int:
    """Rank over Q: the pivot count of the fraction-free echelon form."""
    return len(_bareiss(rows)[1])


def simple_weight_dims(
    lam: Weight,
    nus: Iterable[tuple[int, ...]],
    p: int,
    *,
    guard: SizeGuard | None = None,
) -> dict[tuple[int, ...], int]:
    """dim L(lam)_{lam - nu} over F_p for every nu (simple-root coordinates)
    in ``nus``: the mod-p ranks of their divided-power Gram matrices, from
    one height-ordered sweep."""
    require_prime(p)
    eng = get_engine(lam.system.cartan_type)
    grams = _divided_grams(eng, lam.coords, list(nus), guard or DEFAULT_GUARD)
    return {nu: rank_mod_p(entries, p) for nu, _, entries in grams}
