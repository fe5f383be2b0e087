"""Independent reference computations used to freeze expected test values.

Nothing here may import the straightening or character pipelines it checks;
each oracle goes through a different route (generating functions, explicit
sl2 matrices, digitwise arithmetic).  The two exceptions check the
digit-by-digit simple characters (Steinberg's tensor product theorem) from
both sides: :func:`sweep_simple_coeffs` runs the Gram sweep directly on
every weight space below lam, which never factorizes, and
:func:`ring_digit_product` convolves the coefficient dicts of the full
characters of the restricted digits, Frobenius-twisted by :func:`twisted`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

POSITIVE_ROOTS = {
    "A1": [(1,)],
    "A2": [(0, 1), (1, 0), (1, 1)],
    "B2": [(0, 1), (1, 0), (1, 1), (1, 2)],
}


def partition_counts_by_genfun(cartan_type: str, max_height: int) -> dict[tuple[int, ...], int]:
    """Kostant partition numbers via truncated generating-function products."""
    roots = POSITIVE_ROOTS[cartan_type]
    rank = len(roots[0])
    series: dict[tuple[int, ...], int] = {(0,) * rank: 1}
    for root in roots:
        out: dict[tuple[int, ...], int] = {}
        for vec, c in series.items():
            k = 0
            while True:
                shifted = tuple(v + k * r for v, r in zip(vec, root))
                if sum(shifted) > max_height:
                    break
                out[shifted] = out.get(shifted, 0) + c
                k += 1
        series = out
    return series


@lru_cache(maxsize=None)
def kostant_by_recursion(cartan_type: str, nu: tuple[int, ...], idx: int = 0) -> int:
    """Kostant partition number of ``nu`` by recursion on the roots: the
    number of multiples of root ``idx`` to take, then the rest from the
    later roots."""
    if all(c == 0 for c in nu):
        return 1
    roots = POSITIVE_ROOTS[cartan_type]
    if idx == len(roots) or min(nu) < 0:
        return 0
    total = 0
    k = 0
    rem = nu
    while all(c >= 0 for c in rem):
        total += kostant_by_recursion(cartan_type, rem, idx + 1)
        k += 1
        rem = tuple(c - k * r for c, r in zip(nu, roots[idx]))
    return total


def f_exponents_brute_force(cartan_type: str, nu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every exponent vector (a_beta) with sum_beta a_beta beta = nu, found
    by trying each exponent of each positive root in turn, sorted."""
    roots = POSITIVE_ROOTS[cartan_type]
    out: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: tuple[int, ...], acc: list[int]):
        if idx == len(roots):
            if all(c == 0 for c in remaining):
                out.append(tuple(acc))
            return
        k = 0
        rem = remaining
        while all(c >= 0 for c in rem):
            rec(idx + 1, rem, acc + [k])
            k += 1
            rem = tuple(c - k * r for c, r in zip(remaining, roots[idx]))

    rec(0, tuple(nu), [])
    return tuple(sorted(out))


def sl2_gram_ordinary(t: int, n: int) -> Fraction:
    """<f^n v, f^n v> on the depth-n truncated Verma of highest weight t.

    Built from explicit matrices for e, f on the ordinary-power basis
    f^k v, using only the defining sl2 relations.  Returns the coefficient
    of v in e^n f^n v.
    """
    size = n + 1
    f_mat = [[0] * size for _ in range(size)]
    e_mat = [[0] * size for _ in range(size)]
    for k in range(n):
        f_mat[k + 1][k] = 1  # f . f^k v = f^(k+1) v
    for k in range(1, size):
        e_mat[k - 1][k] = k * (t - k + 1)  # e . f^k v = k(t-k+1) f^(k-1) v
    vec = [0] * size
    vec[0] = 1
    for _ in range(n):
        vec = [sum(f_mat[i][j] * vec[j] for j in range(size)) for i in range(size)]
    for _ in range(n):
        vec = [sum(e_mat[i][j] * vec[j] for j in range(size)) for i in range(size)]
    return Fraction(vec[0])


def sl2_divided_gram(t: int, n: int) -> Fraction:
    """Divided-power form value <f^(n) v, f^(n) v> over the rationals."""
    import math

    return sl2_gram_ordinary(t, n) / (math.factorial(n) ** 2)


def base_p_digits(n: int, p: int) -> list[int]:
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    return digits or [0]


def lucas_dominates(n: int, t: int, p: int) -> bool:
    """True when every base-p digit of n is at most the matching digit of t."""
    dn, dt = base_p_digits(n, p), base_p_digits(t, p)
    dn += [0] * (len(dt) - len(dn))
    dt += [0] * (len(dn) - len(dt))
    return all(a <= b for a, b in zip(dn, dt))


def binomial_int(a: int, n: int) -> int:
    """Binomial polynomial at an arbitrary integer a, exact."""
    num = 1
    for k in range(n):
        num *= a - k
    import math

    d = math.factorial(n)
    assert num % d == 0
    return num // d


def binomial_mod_p(a: int, n: int, p: int) -> int:
    """Binomial polynomial a(a-1)...(a-n+1)/n! at any integer a, mod p."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binomial_int(a, n) % p


# Symmetric form (alpha_i, alpha_j) on the simple roots.  B2's alpha_1 is the
# long simple root.
SIMPLE_ROOT_FORM = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((4, -2), (-2, 2)),
}


def coroot_pairing(cartan_type: str, mu: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """<mu, beta^vee> for mu in fundamental coordinates <mu, alpha_i^vee> and
    beta = sum_i beta_i alpha_i a positive root."""
    form = SIMPLE_ROOT_FORM[cartan_type]
    rank = len(beta)
    beta_sq = sum(beta[i] * beta[j] * form[i][j] for i in range(rank) for j in range(rank))
    value = Fraction(sum(beta[i] * mu[i] * form[i][i] for i in range(rank)), beta_sq)
    assert value.denominator == 1
    return int(value)


def cartan_matrix(cartan_type: str) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)."""
    form = SIMPLE_ROOT_FORM[cartan_type]
    rank = len(form)
    assert all(2 * form[i][j] % form[i][i] == 0 for i in range(rank) for j in range(rank))
    return tuple(tuple(2 * form[i][j] // form[i][i] for j in range(rank)) for i in range(rank))


def root_lattice_points(cartan_type: str, n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """{C c: c} for every c in [-n, n]^rank, by brute force: root-lattice
    points in fundamental-weight coordinates, each with its simple-root
    coefficients."""
    cm = cartan_matrix(cartan_type)
    rank = len(cm)
    points = {}
    for c in itertools.product(range(-n, n + 1), repeat=rank):
        points[tuple(sum(cm[i][j] * c[j] for j in range(rank)) for i in range(rank))] = c
    return points


def convex_by_intervals(weights) -> bool:
    """Order convexity checked exhaustively: for every pair lam <= nu of the
    set, every lam + sum_i c_i alpha_i with 0 <= c <= the simple-root
    coordinates of nu - lam is in the set."""
    weights = set(weights)
    for lam in weights:
        rs = lam.system
        for nu in weights:
            gap = rs.to_root_vector(nu - lam)
            if gap is None or min(gap) < 0:
                continue
            for c in itertools.product(*(range(g + 1) for g in gap)):
                if lam + rs.weight_of(c) not in weights:
                    return False
    return True


def shapovalov_product(cartan_type: str, lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """prod_{beta > 0} prod_{r >= 1} (<lam + rho, beta^vee> - r)^{P(nu - r beta)},
    the lambda-dependent factor of the Shapovalov determinant on the
    (lam - nu) weight space, with P the Kostant partition function."""
    counts = partition_counts_by_genfun(cartan_type, sum(nu))
    lam_rho = tuple(c + 1 for c in lam)
    out = 1
    for beta in POSITIVE_ROOTS[cartan_type]:
        pairing = coroot_pairing(cartan_type, lam_rho, beta)
        r = 1
        while all(n - r * b >= 0 for n, b in zip(nu, beta)):
            rest = tuple(n - r * b for n, b in zip(nu, beta))
            out *= (pairing - r) ** counts.get(rest, 0)
            r += 1
    return out


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, n):
            factor = mat[r][c] / mat[c][c]
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[c])]
    return det


def rank_by_fractions(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination over Fraction."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                factor = mat[r][c]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _diff(a, b) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a.coords, b.coords))


def box_contains(top, depth: int, w, points) -> bool:
    """Box membership by table lookup: top - w must be a point of
    ``points``, a :func:`root_lattice_points` table with n >= depth, with
    nonnegative coefficients of sum at most ``depth``.  Every offset of the
    box lies in [0, depth]^rank, so a point missing from the table is
    outside the box."""
    c = points.get(_diff(top, w))
    return c is not None and min(c) >= 0 and sum(c) <= depth


def below_set(lam, members, points) -> dict:
    """The members w with lam - w a nonnegative root vector, each mapped to
    its simple-root coefficients, read off ``points``, a
    :func:`root_lattice_points` table that must hold every such lam - w."""
    out = {}
    for w in members:
        c = points.get(_diff(lam, w))
        if c is not None and min(c) >= 0:
            out[w] = c
    return out


def weyl_alternating_sum(lam, members) -> dict:
    """Nonzero coefficients of ch W(lam) at the members w, each as the sum
    over the Weyl group of sign(x) P(x(lam + rho) - (w + rho)), with P read
    off the generating function."""
    rs = lam.system
    shifted = [(x.sign, x.apply(lam + rs.rho)) for x in rs.weyl_group]
    terms = []
    for w in members:
        for sign, top in shifted:
            nu = rs.to_root_vector(top - (w + rs.rho))
            if nu is not None and min(nu) >= 0:
                terms.append((w, sign, nu))
    counts = partition_counts_by_genfun(rs.cartan_type, max((sum(c) for *_, c in terms), default=0))
    out = {}
    for w, sign, coeffs in terms:
        out[w] = out.get(w, 0) + sign * counts[coeffs]
    return {w: c for w, c in out.items() if c}


def sweep_simple_coeffs(lam, p: int, box) -> dict:
    """Nonzero dim L(lam)_w for the box weights w <= lam, each from the
    mod-p rank of the Gram matrix at lam, all in one sweep.  ``lam`` is the
    box's top, so every lam - w has coefficients in [0, box.depth]."""
    from modcato.hypalg import simple_weight_dims

    assert lam == box.top
    below = below_set(lam, box.weights(), root_lattice_points(lam.system.cartan_type, box.depth))
    dims = simple_weight_dims(lam, list(below.values()), p)
    return {w: dims[nu] for w, nu in below.items() if dims[nu]}


def scaled_box(box, f: int):
    """The box with its top weight and its depth multiplied by f."""
    from modcato.charring import TruncationBox

    return TruncationBox.make(box.top * f, box.depth * f)


def twisted(coeffs: dict, f: int) -> dict:
    """The character {w: c} with every weight multiplied by f."""
    return {w * f: c for w, c in coeffs.items()}


def ring_digit_product(lam, p: int) -> dict:
    """Complete ch L(lam) for dominant lam as the product of the full
    characters of its base-p digits lam_i, each twisted by p^i, convolved
    as weight -> coefficient dicts."""
    from modcato.category_o import full_simple_character

    rs = lam.system
    prod = {rs.zero_weight(): 1}
    coords, i = lam.coords, 0
    while True:
        digit = rs.weight(*(c % p for c in coords))
        factor = twisted(full_simple_character(digit, p).coeffs, p**i)
        out: dict = {}
        for w1, c1 in prod.items():
            for w2, c2 in factor.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        prod = {w: c for w, c in out.items() if c}
        coords, i = tuple(c // p for c in coords), i + 1
        if not any(coords):
            return prod


def comparable_gaps(weights, points) -> set:
    """Every nonzero nonnegative c with k1 - k2 = sum_i c_i alpha_i, over the
    ordered pairs k1, k2 of ``weights``, pair by pair, read off ``points``,
    a :func:`root_lattice_points` table that must hold every such c."""
    gaps = set()
    for k1 in weights:
        for k2 in weights:
            c = points.get(_diff(k1, k2))
            if c is not None and min(c) >= 0 and any(c):
                gaps.add(c)
    return gaps


def periodicity_by_pairs(gaps, p: int, l: int) -> bool:
    """The periodicity condition on a set with these :func:`comparable_gaps`:
    no gap is p^l times a root vector."""
    return not any(all(c % p**l == 0 for c in gap) for gap in gaps)


def min_l_by_pairs(gaps, p: int) -> int:
    """The smallest l >= 1 at which :func:`periodicity_by_pairs` holds."""
    l = 1
    while not periodicity_by_pairs(gaps, p, l):
        l += 1
    return l


def a2_restricted_simple(lam, p: int) -> dict:
    """ch L(lam) for a restricted A2 weight lam = (a, b): chi(lam) when
    a + b + 2 <= p, and otherwise chi(lam) - chi(lam - k(alpha_1 + alpha_2))
    with k = a + b + 2 - p, where chi(mu) = 0 when mu + rho is singular.
    alpha_1 + alpha_2 has fundamental coordinates (1, 1), so
    mu = (p - 2 - b, p - 2 - a): dominant, or with a coordinate -1, where
    mu + rho is singular.  Reads only Weyl characters."""
    from modcato.charring import weyl_character

    a, b = lam.coords
    assert lam.system.cartan_type == "A2" and 0 <= a < p and 0 <= b < p
    out = dict(weyl_character(lam).coeffs)
    k = a + b + 2 - p
    if k > 0:
        mu = lam.system.weight(a - k, b - k)
        assert min(mu.coords) >= -1
        if min(mu.coords) >= 0:
            for w, c in weyl_character(mu).coeffs.items():
                out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}
