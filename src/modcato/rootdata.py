"""Root-system tables and exact weight arithmetic for the rank-1/2 types.

Weights are stored in fundamental-weight coordinates; a root-lattice
vector is a plain tuple of simple-root coordinates.  The Cartan matrix
converts between the two, here and nowhere else.  All arithmetic is exact
and never uses floats; lattice conversion is integer-only (adjugate of C
and a divisibility test by det C).  :meth:`RootSystem.coset_offset` splits
a coordinate tuple into its root-lattice coset and an integer offset, so
the order inside a coset is a componentwise test on offsets; the layers
above compare those tuples and build a ``Weight`` only for what they return.

Kostant partition counts come a table at a time from :func:`kostant_table`,
built once per walk by its caller and not kept; nothing here memoises them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import Iterator, NamedTuple

from .errors import ExactnessError
from .record import Record

SUPPORTED_TYPES = ("A1", "A2", "B2")

# cartan[i][j] = <alpha_j, alpha_i^vee>, rows indexed by coroots.
_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),  # alpha_1 long, alpha_2 short
}

# Half square lengths (alpha_i, alpha_i)/2 of the simple roots.
_HALF_NORM = {"A1": (1,), "A2": (1, 1), "B2": (2, 1)}

# Positive roots in simple-root coordinates, listed height-increasing
# with lexicographic tie-break.  This order is the global PBW order and
# must never change once caches exist.
_POSITIVE = {
    "A1": ((1,),),
    "A2": ((0, 1), (1, 0), (1, 1)),
    "B2": ((0, 1), (1, 0), (1, 1), (1, 2)),
}

_WEYL_SIZE = {"A1": 2, "A2": 6, "B2": 8}


class Weight(Record):
    """Integral weight in fundamental-weight coordinates."""

    _fields = ("system", "coords")
    __slots__ = _fields

    def __init__(self, system: RootSystem, coords: tuple[int, ...]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other: object) -> bool:
        # Systems are shared, so the type names are compared only for a copy.
        return self is other or (
            isinstance(other, Weight)
            and self.coords == other.coords
            and (self.system is other.system or self.system.cartan_type == other.system.cartan_type)
        )

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        _check_same(self.system, other.system)
        return Weight(self.system, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_same(self.system, other.system)
        return Weight(self.system, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.system, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "Weight":
        return Weight(self.system, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Weight({self.system.cartan_type}, {self.coords})"


class WeylElement(NamedTuple):
    """Lattice automorphism acting on fundamental coordinates, with sign."""

    matrix: tuple[tuple[int, ...], ...]
    sign: int

    def apply(self, w: Weight) -> Weight:
        coords = tuple(
            sum(row[k] * w.coords[k] for k in range(len(row))) for row in self.matrix
        )
        return Weight(w.system, coords)


class RootSystem:
    """Immutable root-system constants; use :func:`build_root_system`.

    Instances are shared and safe for concurrent use.
    """

    def __init__(self, cartan_type: str):
        if cartan_type not in SUPPORTED_TYPES:
            raise ValueError(
                f"unsupported Cartan type {cartan_type!r}; expected one of {SUPPORTED_TYPES}"
            )
        self.cartan_type = cartan_type
        self.cartan_matrix: tuple[tuple[int, ...], ...] = _CARTAN[cartan_type]
        self.rank = len(self.cartan_matrix)
        self.half_norms: tuple[int, ...] = _HALF_NORM[cartan_type]
        # C^{-1} = adj(C) / det(C), with det(C) > 0 (checked in _validate).
        self.cartan_det = _det(self.cartan_matrix)
        self._cartan_adj = _adjugate(self.cartan_matrix)
        self.positive_roots: tuple[tuple[int, ...], ...] = _POSITIVE[cartan_type]
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        self.rho = Weight(self, (1,) * self.rank)
        # Fundamental coordinates of each positive root.
        self.root_fund: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                sum(self.cartan_matrix[i][j] * c[j] for j in range(self.rank))
                for i in range(self.rank)
            )
            for c in _POSITIVE[cartan_type]
        )
        # Coroot pairing vectors: <w, root_k^vee> = sum_i coroot[k][i] * w.coords[i].
        self.coroots: tuple[tuple[int, ...], ...] = tuple(
            self._coroot_vector(c) for c in _POSITIVE[cartan_type]
        )
        self.weyl_group: tuple[WeylElement, ...] = self._generate_weyl_group()
        self._validate()

    # -- construction helpers -------------------------------------------

    def _coroot_vector(self, c: tuple[int, ...]) -> tuple[int, ...]:
        d = self.half_norms
        twice_norm = sum(
            c[i] * c[j] * d[i] * self.cartan_matrix[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        if twice_norm % 2 != 0:
            raise ExactnessError("root norm must be an even multiple of 1/2")
        d_root = twice_norm // 2
        vec = []
        for i in range(self.rank):
            num = c[i] * d[i]
            if num % d_root != 0:
                raise ExactnessError("coroot coefficients must be integral")
            vec.append(num // d_root)
        return tuple(vec)

    def _generate_weyl_group(self) -> tuple[WeylElement, ...]:
        n = self.rank
        identity = tuple(tuple(1 if j == k else 0 for k in range(n)) for j in range(n))
        gens = []
        for i in range(n):
            m = [[1 if j == k else 0 for k in range(n)] for j in range(n)]
            for j in range(n):
                m[j][i] -= self.cartan_matrix[j][i]
            gens.append(tuple(tuple(row) for row in m))
        seen = {identity: 1}
        frontier = [identity]
        while frontier:
            nxt = []
            for mat in frontier:
                for g in gens:
                    prod = _mat_mul(g, mat)
                    if prod not in seen:
                        seen[prod] = -seen[mat]
                        nxt.append(prod)
            frontier = nxt
        elements = tuple(
            WeylElement(mat, sign)
            for mat, sign in sorted(seen.items(), key=lambda kv: kv[0])
        )
        return elements

    def _validate(self) -> None:
        a, n = self.cartan_matrix, self.rank
        checks = {
            "Cartan diagonal is not 2": all(a[i][i] == 2 for i in range(n)),
            "Cartan off-diagonal entry is positive": all(
                a[i][j] <= 0 for i in range(n) for j in range(n) if i != j
            ),
            "Weyl group has the wrong order": len(self.weyl_group) == _WEYL_SIZE[self.cartan_type],
            "Cartan determinant is not positive": self.cartan_det > 0,
            "rho is not (1, ..., 1)": all(c == 1 for c in self.rho.coords),
            "Weyl element sign is not its determinant": all(
                _det(w.matrix) == w.sign for w in self.weyl_group
            ),
        }
        for message, ok in checks.items():
            if not ok:
                raise ExactnessError(f"{self.cartan_type} root data: {message}")

    @cached_property
    def weyl_root_matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each element of ``weyl_group`` on simple-root coordinates, in the
        same order: column j is w(alpha_j)."""
        columns = [[self.to_root_vector(w.apply(self.weight_of(e))) for e in self.simple_roots]
                   for w in self.weyl_group]
        if any(None in c for c in columns):
            raise ExactnessError(f"{self.cartan_type} root data: a Weyl image of a root is not integral")
        return tuple(tuple(zip(*c)) for c in columns)

    # -- basic constructors ---------------------------------------------

    def weight(self, *coords: int) -> Weight:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        if not all(isinstance(c, int) for c in coords):
            raise ValueError("weight coordinates must be exact integers")
        return Weight(self, tuple(coords))

    def zero_weight(self) -> Weight:
        return Weight(self, (0,) * self.rank)

    # -- conversions ------------------------------------------------------

    def _check_nu(self, nu) -> tuple[int, ...]:
        if len(nu) != self.rank or not all(isinstance(c, int) for c in nu):
            raise ValueError(f"root-lattice vector {nu!r} is not {self.rank} simple-root coordinates")
        return tuple(nu)

    def weight_of(self, nu: tuple[int, ...]) -> Weight:
        """The weight with the same lattice point as the simple-root
        coordinates ``nu``, that is C·nu."""
        nu = self._check_nu(nu)
        return Weight(self, tuple([sum(map(mul, row, nu)) for row in self.cartan_matrix]))

    def to_root_vector(self, w: Weight) -> tuple[int, ...] | None:
        """Simple-root coordinates of ``w``, exactly; None when ``w`` is not
        in the root lattice."""
        coset, nu = self.coset_offset(w.coords)
        return None if any(coset) else nu

    def coset_offset(self, coords: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(coset, nu) with adj(C)·coords = det(C)·nu + coset and every
        entry of coset in [0, det C).  Two weights lie in one root-lattice
        coset exactly when their cosets are equal, and then they differ by
        the root vector nu - nu'; so mu <= lam exactly when the cosets agree
        and nu(mu) <= nu(lam) componentwise."""
        d = self.cartan_det
        coset, nu = [], []
        for row in self._cartan_adj:
            q, r = divmod(sum(map(mul, row, coords)), d)
            nu.append(q)
            coset.append(r)
        return tuple(coset), tuple(nu)

    def lower(self, coords: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...]:
        """The fundamental coordinates coords - C·nu of the weight nu below coords."""
        return tuple([c - sum(map(mul, row, nu)) for c, row in zip(coords, self.cartan_matrix)])

    def root_pairing(self, w: Weight, k: int) -> int:
        """Pairing of ``w`` with the coroot of the k-th positive root."""
        return sum(self.coroots[k][i] * w.coords[i] for i in range(self.rank))

    # -- enumeration ------------------------------------------------------

    def root_vectors_up_to_height(self, h: int) -> list[tuple[int, ...]]:
        """All nonnegative root vectors of height at most ``h``, in
        lexicographic order."""
        return _vectors_up_to_height(self.rank, h)


def _check_same(a: RootSystem, b: RootSystem) -> None:
    if a is not b and a.cartan_type != b.cartan_type:
        raise ValueError(f"mismatched root systems {a.cartan_type} and {b.cartan_type}")


def _vectors_up_to_height(rank: int, h: int) -> list[tuple[int, ...]]:
    """The nonnegative integer vectors of length ``rank`` with coordinate sum
    at most ``h``, in lexicographic order: each vector is extended by every
    coordinate its remaining budget allows, in ascending order.

    The coordinate values 0..h are built as one tuple first, as
    ``itertools.product`` built them, so a height too large to enumerate
    raises ``OverflowError`` or ``MemoryError`` before any vector is made."""
    values = tuple(range(h + 1))
    level = [((), h)]
    for _ in range(rank):
        level = [(vec + (a,), left - a) for vec, left in level for a in values[: left + 1]]
    return [vec for vec, _ in level]


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _adjugate(m) -> tuple[tuple[int, ...], ...]:
    if len(m) == 1:
        return ((1,),)
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


@lru_cache(maxsize=None)
def build_root_system(cartan_type: str) -> RootSystem:
    """Build (once) the shared root system for a supported Cartan type."""
    return RootSystem(cartan_type)


def pairing(lam: Weight, i: int) -> int:
    """<lam, alpha_i^vee>, which is the i-th fundamental coordinate."""
    if not 0 <= i < lam.system.rank:
        raise IndexError(f"simple-root index {i} out of range for rank {lam.system.rank}")
    return lam.coords[i]


def leq(mu: Weight, lam: Weight) -> bool:
    """Dominance order: lam - mu is a nonnegative root-lattice vector."""
    _check_same(mu.system, lam.system)
    coset, nu = lam.system.coset_offset(tuple(map(sub, lam.coords, mu.coords)))
    return not any(coset) and min(nu) >= 0


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam.coords)


def kostant_table(rs: RootSystem, height: int) -> dict[tuple[int, ...], int]:
    """Kostant's partition function (Humphreys, *Introduction to Lie
    Algebras and Representation Theory*, §24.1) on every nonnegative root
    vector of height at most ``height``: one unbounded coin-change pass per
    positive root, in lexicographic order, so nu - root precedes nu."""
    table = {nu: 0 if any(nu) else 1 for nu in rs.root_vectors_up_to_height(height)}
    for root in rs.positive_roots:
        for nu in table:
            rest = tuple(map(sub, nu, root))
            if min(rest) >= 0:
                table[nu] += table[rest]
    return table


def kostant_partition(rs: RootSystem, nu: tuple[int, ...]) -> int:
    """Number of multisets of positive roots of ``rs`` summing to ``nu``, as
    a single lookup in a fresh table up to its height; a caller that needs
    many counts builds one :func:`kostant_table` and reads it."""
    nu = rs._check_nu(nu)
    if min(nu) < 0:
        return 0
    return kostant_table(rs, sum(nu))[nu]


def dot_action(w: WeylElement, lam: Weight) -> Weight:
    """The rho-shifted Weyl action w.lam = w(lam + rho) - rho."""
    rho = lam.system.rho
    return w.apply(lam + rho) - rho


def height_drop(lam: Weight) -> int:
    """Height of lam minus its lowest Weyl image; bounds orbit-hull depth."""
    return max(map(sum, _weyl_offsets(lam)))


def weyl_hull(lam: Weight) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """One pair (lam - w(lam), w on simple-root coordinates) per w in W.

    For dominant lam, lam - nu lies in the Weyl hull of lam, i.e.
    w(lam - nu) <= lam for every w, exactly when offset + w(nu) >= 0
    coordinatewise for every pair; those are the weights of the Weyl module
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    §21.3)."""
    return tuple(zip(_weyl_offsets(lam), lam.system.weyl_root_matrices))


def _weyl_offsets(lam: Weight) -> Iterator[tuple[int, ...]]:
    """lam - w(lam) in simple-root coordinates, for w in ``weyl_group`` order."""
    rs = lam.system
    for w in rs.weyl_group:
        offset = rs.to_root_vector(lam - w.apply(lam))
        if offset is None:
            raise ExactnessError("Weyl images differ by root-lattice vectors")
        yield offset
