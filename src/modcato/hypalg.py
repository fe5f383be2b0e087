"""Divided-power contravariant Gram matrices on Verma weight spaces, and
their ranks, from exact integer arithmetic in the enveloping algebra.

The ordinary-power Gram <f^I v, f^J v> at a numeric lambda is built by the
contravariance <f_k x, y> = <x, e_k y>: writing f^I = f_k f^I' with k the
first root of I, row I is row I' of the Gram one root higher, applied to
e_k f^J v.  That column comes from the memoised one-letter commutation
e_k f_j f^J' v = f_j e_k f^J' v + [e_k, f_j] f^J' v, and each f_j f^M in it
from the memoised left multiplication f_j f_m f^M' = f_m f_j f^M' +
[f_j, f_m] f^M'.  Bases are solved for: only non-simple roots' exponents are
enumerated.  Divided-power values are recovered at the very end by exact
factorial division, whose exactness is asserted entrywise (it holds
precisely because the divided powers span an integral form).  Entry (I, J)
and entry (J, I) come from different rows of the recursion, so the symmetry
check compares two independent routes.  Reduction mod p happens only at
rank computation; ranks over Q and structure-constant coordinates come from
one fraction-free (Bareiss) eliminator whose every division is checked.

Structure constants come from fixed matrix realizations of the three
supported types; a bracket-closure, Jacobi, and root-string self-test runs
once per realization, so a transcription error cannot survive construction.
The engine's memo tables are plain dicts: reads and idempotent inserts
under the interpreter lock are safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import ExactnessError, SizeGuardError, require_prime
from .rootdata import RootSystem, RootVector, Weight, _mat_mul, build_root_system, kostant_partition


@dataclass(frozen=True)
class SizeGuard:
    """Hard limits that make oversized instances fail loudly."""

    max_gram_dim: int = 200
    max_terms: int = 10**6


DEFAULT_GUARD = SizeGuard()

# Running counters for exactness bookkeeping (read by the acceptance suite).
STATS = {"exact_divisions": 0, "gram_matrices": 0}


class PBWMonomial(NamedTuple):
    """Ordinary-power PBW monomial f^F h^H e^E in the global root order."""

    f_exps: tuple[int, ...]
    h_exps: tuple[int, ...]
    e_exps: tuple[int, ...]


@dataclass(frozen=True)
class GramMatrix:
    """Divided-power contravariant form on one Verma weight space."""

    lam: Weight
    nu: RootVector
    basis: tuple[PBWMonomial, ...]
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


def _mat_bracket(a, b):
    ab = _mat_mul(a, b)
    ba = _mat_mul(b, a)
    n = len(a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(n)) for i in range(n))


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


def _bareiss(rows):
    """Echelon form of an integer matrix by fraction-free elimination
    (Bareiss 1968), and its pivot columns.  Each entry stays a minor of the
    input, so every division by the previous pivot is exact; a remainder
    raises ExactnessError."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        for i in range(r + 1, len(mat)):
            row, lead = mat[i], mat[i][c]
            for j in range(c, len(row)):
                row[j], rem = divmod(top[c] * row[j] - lead * top[j], prev)
                if rem:
                    raise ExactnessError("inexact division in fraction-free elimination")
        prev = top[c]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def _solve_in_basis(basis_vecs, target):
    """Integer coordinates of target in the span of basis_vecs, or None when
    it lies outside; raises ExactnessError when they are not integral."""
    cols = len(basis_vecs)
    mat, pivots = _bareiss(
        [[vec[r] for vec in basis_vecs] + [t] for r, t in enumerate(target)]
    )
    if pivots and pivots[-1] == cols:
        return None
    coords = [0] * cols
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        rhs = mat[r][cols] - sum(mat[r][j] * coords[j] for j in range(c + 1, cols))
        coords[c], rem = divmod(rhs, mat[r][c])
        if rem:
            raise ExactnessError("non-integral coordinates in the basis")
    return coords


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
        self.bracket_table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for i in range(self.dim):
            for j in range(self.dim):
                self.bracket_table[(i, j)] = self._expand_bracket(i, j)
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
    def _expand_bracket(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        br = _mat_bracket(self._basis_mats[i], self._basis_mats[j])
        vec = [v for row in br for v in row]
        if not any(vec):
            return ()
        coords = _solve_in_basis(self._basis_vecs, vec)
        if coords is None:
            raise ExactnessError("bracket does not close on the Chevalley basis")
        return tuple((idx, c) for idx, c in enumerate(coords) if c)

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
        # Jacobi identity over the whole basis.
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
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
                assert self.bracket_table[(self.h_index(i), self.e_index(k))] == (
                    ((self.e_index(k), expect),) if expect else ()
                )
                assert self.bracket_table[(self.h_index(i), self.f_index(k))] == (
                    ((self.f_index(k), -expect),) if expect else ()
                )
            ef = dict(self.bracket_table[(self.e_index(k), self.f_index(k))])
            expected = {
                self.h_index(i): rs.coroots[k][i]
                for i in range(self.rank)
                if rs.coroots[k][i]
            }
            if ef != expected:
                raise ExactnessError("coroot mismatch between table and root data")
        # Chevalley sign condition |N_{a,b}| = (string length p) + 1.
        root_set = {r.coeffs for r in rs.positive_roots}
        root_set |= {tuple(-c for c in r) for r in root_set}
        index_of = {r.coeffs: k for k, r in enumerate(rs.positive_roots)}
        for i, a in enumerate(rs.positive_roots):
            for j, b in enumerate(rs.positive_roots):
                if i == j:
                    continue
                s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
                table = self.bracket_table[(self.e_index(i), self.e_index(j))]
                if s not in root_set:
                    assert table == ()
                    continue
                p = 0
                while tuple(x - (p + 1) * y for x, y in zip(b.coeffs, a.coeffs)) in root_set:
                    p += 1
                assert len(table) == 1
                idx, n = table[0]
                assert idx == self.e_index(index_of[s])
                assert abs(n) == p + 1


@lru_cache(maxsize=None)
def get_structure(cartan_type: str, flip: tuple[int, ...] = ()) -> ChevalleyStructure:
    return ChevalleyStructure(build_root_system(cartan_type), flip)


class PBWEngine:
    """Memoised Gram construction over one Chevalley structure: the
    one-letter commutation e_k f^J v, the left multiplication f_j f^M in
    U^-, and the ordinary-power Grams of the latest lambda."""

    def __init__(self, structure: ChevalleyStructure):
        self.st = structure
        self.rs = structure.rs
        self._zero_h = (0,) * structure.rank
        self._memo_e_on_f: dict = {}
        self._memo_left_f: dict = {}
        self._raw_lam: tuple[int, ...] | None = None
        self._raw_grams: dict = {}

    # -- small helpers ----------------------------------------------------
    @staticmethod
    def _bump(exps: tuple[int, ...], k: int, by: int = 1) -> tuple[int, ...]:
        return exps[:k] + (exps[k] + by,) + exps[k + 1 :]

    def _weight_pairings(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """<sum_k exps[k] beta_k, alpha_i^vee> for every simple root i."""
        rf = self.st.root_fund
        return tuple(
            sum(exps[k] * rf[k][i] for k in range(self.st.nroots) if exps[k])
            for i in range(self.st.rank)
        )

    # -- contravariant form ---------------------------------------------------
    def _left_f(self, j: int, m_exps: tuple[int, ...], guard: SizeGuard):
        """f_j f^M in PBW order.  With m the first root of M = m + M', it is
        f^{M + e_j} when j <= m, else f_m (f_j f^M') + [f_j, f_m] f^M'.
        Ordered products are memoised too, so _e_on_f shares their keys."""
        key = (j, m_exps)
        hit = self._memo_left_f.get(key)
        if hit is not None:
            return hit
        m = next((t for t, a in enumerate(m_exps) if a), j)
        if j <= m:
            result = {self._bump(m_exps, j): 1}
        else:
            rest = self._bump(m_exps, m, -1)
            out: dict[tuple[int, ...], int] = {}
            for f2, c in self._left_f(j, rest, guard).items():
                for f3, c3 in self._left_f(m, f2, guard).items():
                    out[f3] = out.get(f3, 0) + c * c3
            for idx, cb in self.st.bracket_table[(self.st.f_index(j), self.st.f_index(m))]:
                for f3, c3 in self._left_f(self.st.classify(idx)[1], rest, guard).items():
                    out[f3] = out.get(f3, 0) + cb * c3
            result = {f: c for f, c in out.items() if c}
            if len(result) > guard.max_terms:
                raise SizeGuardError(f"U^- commutation exceeded {guard.max_terms} terms")
        self._memo_left_f[key] = result
        return result

    def _e_on_f(self, k: int, j_exps: tuple[int, ...], guard: SizeGuard):
        """e_k f^J v_lam as {f-exponents: h-polynomial in lam}.

        With j the first root of J = j + J', commute one letter:
        e_k f^J v = f_j (e_k f^J' v) + [e_k, f_j] f^J' v.  An h_i in the
        bracket acts on f^J' v as h_i - <wt f^J', alpha_i^vee>, an e_beta
        recurses on (beta, J'), an f_gamma reorders f_gamma f^J' in U^-.
        """
        key = (k, j_exps)
        hit = self._memo_e_on_f.get(key)
        if hit is not None:
            return hit
        terms = []  # (f-exponents, h-polynomial, scale)
        if any(j_exps):
            j = next(t for t, a in enumerate(j_exps) if a)
            rest = self._bump(j_exps, j, -1)
            for f_exps, poly in self._e_on_f(k, rest, guard).items():
                terms += [(f2, poly, c) for f2, c in self._left_f(j, f_exps, guard).items()]
            for idx, cb in self.st.bracket_table[(self.st.e_index(k), self.st.f_index(j))]:
                kind, pos = self.st.classify(idx)
                if kind == "h":
                    shift = self._weight_pairings(rest)[pos]
                    terms.append((rest, {self._bump(self._zero_h, pos): 1, self._zero_h: -shift}, cb))
                elif kind == "e":
                    terms += [(f, poly, cb) for f, poly in self._e_on_f(pos, rest, guard).items()]
                else:
                    terms += [(f2, {self._zero_h: c}, cb) for f2, c in self._left_f(pos, rest, guard).items()]
        flat: dict[tuple, int] = {}
        for f_exps, poly, scale in terms:
            for h_exps, c in poly.items():
                flat[f_exps, h_exps] = flat.get((f_exps, h_exps), 0) + scale * c
        result: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for (f_exps, h_exps), c in flat.items():
            if c:
                result.setdefault(f_exps, {})[h_exps] = c
        if sum(map(len, result.values())) > guard.max_terms:
            raise SizeGuardError(f"U^- commutation exceeded {guard.max_terms} terms")
        self._memo_e_on_f[key] = result
        return result

    def raw_gram(self, lam_coords: tuple[int, ...], nu_coeffs: tuple[int, ...], guard: SizeGuard):
        """Ordinary-power Gram <f^I v, f^J v> on the (lam - nu) weight space.

        With k the first root in f^I = f_k f^I', the contravariance
        <f_k x, y> = <x, e_k y> gives row I as row I' of the Gram one root
        higher, applied to e_k f^J v.  Returns the sorted basis and the rows
        as {I: {J: value}}.  Only the Grams of the latest lam are kept.
        """
        if lam_coords != self._raw_lam:
            self._raw_lam, self._raw_grams = lam_coords, {}
        hit = self._raw_grams.get(nu_coeffs)
        if hit is not None:
            return hit
        basis = _f_exponents(self.rs, nu_coeffs)
        if not any(nu_coeffs):
            return basis, {basis[0]: {basis[0]: 1}}
        rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        by_root: dict[int, tuple] = {}
        for i_exps in basis:
            k = next(t for t, a in enumerate(i_exps) if a)
            if k not in by_root:
                root = self.rs.positive_roots[k].coeffs
                _, higher = self.raw_gram(
                    lam_coords, tuple(a - b for a, b in zip(nu_coeffs, root)), guard
                )
                e_k_columns = {
                    j: {f: _eval_poly(poly, lam_coords) for f, poly in self._e_on_f(k, j, guard).items()}
                    for j in basis
                }
                by_root[k] = (higher, e_k_columns)
            higher, e_k_columns = by_root[k]
            row = higher[self._bump(i_exps, k, -1)]
            rows[i_exps] = {
                j: sum(c * row[f] for f, c in column.items())
                for j, column in e_k_columns.items()
            }
        result = (basis, rows)
        self._raw_grams[nu_coeffs] = result
        return result


@lru_cache(maxsize=None)
def get_engine(cartan_type: str, flip: tuple[int, ...] = ()) -> PBWEngine:
    return PBWEngine(get_structure(cartan_type, flip))


# ---------------------------------------------------------------------------
# Public operations.

@lru_cache(maxsize=None)
def _f_exponents(rs: RootSystem, nu_coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sorted f-exponents of weight -nu.  Only non-simple roots are looped
    over; the simple roots' exponents are the rest of nu, if nonnegative."""
    roots = [r.coeffs for r in rs.positive_roots]
    others = [k for k, r in enumerate(roots) if sum(r) > 1]
    out: list[tuple[int, ...]] = []
    ranges = [range(min(n // c for n, c in zip(nu_coeffs, roots[k]) if c) + 1) for k in others]
    for combo in itertools.product(*ranges):
        chosen = dict(zip(others, combo))
        rem = [n - sum(a * roots[k][i] for k, a in chosen.items()) for i, n in enumerate(nu_coeffs)]
        if min(rem) >= 0:
            out.append(tuple(chosen[k] if k in chosen else rem[r.index(1)] for k, r in enumerate(roots)))
    return tuple(sorted(out))


def enumerate_f_monomials(rs: RootSystem, nu: RootVector) -> list[PBWMonomial]:
    """All f-only PBW monomials of weight -nu, in lexicographic order."""
    if not nu.is_nonnegative():
        raise ValueError("nu must be a nonnegative root-lattice vector")
    m = len(rs.positive_roots)
    zero_h = (0,) * rs.rank
    zero_e = (0,) * m
    return [
        PBWMonomial(exps, zero_h, zero_e) for exps in _f_exponents(rs, nu.coeffs)
    ]


def binomial_mod_p(a: int, n: int, p: int) -> int:
    """Binomial polynomial a(a-1)...(a-n+1)/n! at any integer a, mod p."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = 1
    for k in range(n):
        num *= a - k
    den = math.factorial(n)
    assert num % den == 0
    return (num // den) % p


def _eval_poly(poly: dict[tuple[int, ...], int], coords: tuple[int, ...]) -> int:
    total = 0
    for h_exps, c in poly.items():
        term = c
        for i, e in enumerate(h_exps):
            if e:
                term *= coords[i] ** e
        total += term
    return total


def _factorial_product(exps: tuple[int, ...]) -> int:
    out = 1
    for a in exps:
        if a > 1:
            out *= math.factorial(a)
    return out


def shapovalov_gram(
    lam: Weight,
    nu: RootVector,
    *,
    guard: SizeGuard | None = None,
    engine: PBWEngine | None = None,
) -> GramMatrix:
    """Exact integer Gram matrix of the divided-power contravariant form
    on the (lam - nu) weight space of the Verma with highest weight lam."""
    guard = guard or DEFAULT_GUARD
    rs = lam.system
    if not nu.is_nonnegative():
        raise ValueError("nu must be a nonnegative root-lattice vector")
    dim = kostant_partition(nu)
    if dim > guard.max_gram_dim:
        raise SizeGuardError(
            f"weight space dimension {dim} exceeds guard {guard.max_gram_dim}"
        )
    eng = engine or get_engine(rs.cartan_type)
    exps_list, raw = eng.raw_gram(lam.coords, nu.coeffs, guard)
    facts = [_factorial_product(exps) for exps in exps_list]
    entries = []
    for i_exps, fi in zip(exps_list, facts):
        row = []
        raw_row = raw[i_exps]
        for j_exps, fj in zip(exps_list, facts):
            value, rem = divmod(raw_row[j_exps], fi * fj)
            if rem:
                raise ExactnessError(
                    f"divided-power value not integral at lam={lam.coords}, "
                    f"nu={nu.coeffs}, pair=({i_exps},{j_exps})"
                )
            STATS["exact_divisions"] += 1
            row.append(value)
        entries.append(tuple(row))
    entries = tuple(entries)
    for i in range(dim):
        for j in range(i):
            if entries[i][j] != entries[j][i]:
                raise ExactnessError("contravariant Gram matrix is not symmetric")
    STATS["gram_matrices"] += 1
    basis = [
        PBWMonomial(exps, (0,) * rs.rank, (0,) * len(rs.positive_roots))
        for exps in exps_list
    ]
    return GramMatrix(lam, nu, tuple(basis), entries)


def rank_mod_p(rows: Iterable[Iterable[int]], p: int) -> int:
    """Rank over F_p by exact Gaussian elimination, first nonzero pivot."""
    require_prime(p)
    mat = [[v % p for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                factor = mat[r][c]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_rational(rows: Iterable[Iterable[int]]) -> int:
    """Rank over Q: the pivot count of the fraction-free echelon form."""
    return len(_bareiss(rows)[1])


def simple_weight_dim(
    lam: Weight, nu: RootVector, p: int, *, guard: SizeGuard | None = None
) -> int:
    """dim of the (lam - nu) weight space of the simple head L(lam) over F_p:
    the mod-p rank of the divided-power Gram matrix."""
    require_prime(p)
    return rank_mod_p(shapovalov_gram(lam, nu, guard=guard).entries, p)


def gram_rank_char0(
    lam: Weight, nu: RootVector, *, guard: SizeGuard | None = None
) -> int:
    """Rank of the Gram matrix over the rationals."""
    return rank_rational(shapovalov_gram(lam, nu, guard=guard).entries)
