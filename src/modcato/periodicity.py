"""Shift functors on Verma-flag data and the periodicity verifier.

The up shift tensors with the finite simple of highest weight gamma and
cuts away the shifted complement; the down shift tensors with the plain
dual (weights negated, no transpose twist) and truncates back to the
original open set.  Under the no-collision hypothesis on K these act on
flag vectors as translation by gamma, and decomposition tables over K and
K + gamma must agree entrywise; both facts are checked here numerically,
each side computed independently through the full Gram pipeline.

A :class:`ShiftContext` holds everything one verification reads, each part
given or built once: (K, gamma, p, l), the size guard, the carved open sets,
K + gamma and ch L(gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .category_o import (
    FlagVector,
    _flag_tensor_char,
    build_decomposition_table,
    full_simple_character,
    projective_verma_mult,
    truncate_flag,
)
from .errors import ModcatoError, require_prime
from .hypalg import SizeGuard
from .reporting import Report
from .rootdata import Weight, is_dominant
from .topology import (
    CarvedOpen,
    LocallyClosedSet,
    OpenSet,
    carve_J_Jprime,
    periodicity_condition,
    shift_set,
)


@dataclass(frozen=True)
class ShiftContext:
    """Everything one verification reads.  :meth:`build` checks (K, gamma,
    p, l) and carves J, J~ and J~'; ``guard`` bounds every Gram build the
    verification makes, L(gamma)'s included; K + gamma and ch L(gamma) are
    built on first use and kept."""

    K: LocallyClosedSet
    gamma: Weight
    p: int
    l: int
    J: OpenSet
    Jt: OpenSet
    Jtprime: CarvedOpen
    guard: SizeGuard | None = None

    @staticmethod
    def build(K: LocallyClosedSet, gamma: Weight, p: int, l: int, *,
              guard: SizeGuard | None = None) -> "ShiftContext":
        require_prime(p)
        if l < 1:
            raise ModcatoError("the twist exponent l must be positive")
        if not is_dominant(gamma):
            raise ModcatoError(f"gamma={gamma.coords} is not dominant")
        factor = p**l
        if any(c % factor for c in gamma.coords):
            raise ModcatoError(
                f"gamma={gamma.coords} is not divisible by p^l={factor}"
            )
        if not periodicity_condition(K, p, l):
            raise ModcatoError(
                "periodicity condition fails: two region weights differ by "
                f"p^{l} times a positive root-lattice vector"
            )
        J, Jprime = carve_J_Jprime(K)
        return ShiftContext(
            K, gamma, p, l, J, J.translate(gamma), Jprime.translate(gamma), guard
        )

    @cached_property
    def Kt(self) -> LocallyClosedSet:
        return shift_set(self.K, self.gamma)

    @cached_property
    def gamma_char(self) -> dict[Weight, int]:
        """dim L(gamma)_w at every weight w of L(gamma)."""
        return full_simple_character(self.gamma, self.p, guard=self.guard).coeffs


def shift_up_flag(ctx: ShiftContext, V: FlagVector) -> FlagVector:
    """Tensor with L(gamma), then keep the closed complement of J~'."""
    for w in V.support():
        if w not in ctx.K:
            raise ModcatoError(f"flag support {w.coords} is not inside K")
    tensored = _flag_tensor_char(V, ctx.gamma_char)
    return truncate_flag(tensored, lambda w: not ctx.Jtprime.contains(w), "closed")


def shift_down_flag(ctx: ShiftContext, W: FlagVector) -> FlagVector:
    """Tensor with the lowest-weight dual of L(gamma), then truncate to J;
    the dual's character is the full character of L(gamma), negated."""
    for w in W.support():
        if w not in ctx.Kt:
            raise ModcatoError(f"flag support {w.coords} is not inside K + gamma")
    tensored = _flag_tensor_char(W, {-w: c for w, c in ctx.gamma_char.items()})
    return truncate_flag(tensored, ctx.J.contains, "open")


def verify_updown(ctx: ShiftContext) -> Report:
    """Both shift identities on every single-Verma flag over K."""
    report = Report(
        f"shift identities on K={sorted(w.coords for w in ctx.K)}, "
        f"gamma={ctx.gamma.coords}, p={ctx.p}, l={ctx.l}"
    )
    for lam in ctx.K:
        up = shift_up_flag(ctx, FlagVector({lam: 1}))
        report.record(
            f"up shift of Delta({lam.coords})",
            up.serialize(),
            FlagVector({lam + ctx.gamma: 1}).serialize(),
        )
        down = shift_down_flag(ctx, FlagVector({lam + ctx.gamma: 1}))
        report.record(
            f"down shift of Delta({(lam + ctx.gamma).coords})",
            down.serialize(),
            FlagVector({lam: 1}).serialize(),
        )
    return report


def verify_periodicity(ctx: ShiftContext) -> Report:
    """Entrywise equality of the K and K+gamma decomposition tables.

    Both tables go through the full Gram pipeline independently; nothing is
    transported from one side to the other except the final comparison.
    """
    report = Report(
        f"decomposition periodicity on K={sorted(w.coords for w in ctx.K)}, "
        f"gamma={ctx.gamma.coords}, p={ctx.p}, l={ctx.l}"
    )
    table = build_decomposition_table(ctx.K, ctx.p, guard=ctx.guard)
    shifted = build_decomposition_table(ctx.Kt, ctx.p, guard=ctx.guard)
    report.payload["table"] = table.serialize()
    report.payload["shifted_table"] = shifted.serialize()
    for mu, lam in table.comparable:
        report.record(
            f"[Delta({mu.coords}):L({lam.coords})] vs shift by {ctx.gamma.coords}",
            table.entry(mu, lam),
            shifted.entry(mu + ctx.gamma, lam + ctx.gamma),
        )
    return report


def verify_projective_shift(ctx: ShiftContext) -> Report:
    """Projective-cover Verma multiplicities restricted to K translate."""
    report = Report(
        f"projective multiplicities on K={sorted(w.coords for w in ctx.K)}, "
        f"gamma={ctx.gamma.coords}, p={ctx.p}, l={ctx.l}"
    )
    for lam in ctx.K:
        left = projective_verma_mult(lam, ctx.J, ctx.p, guard=ctx.guard)
        left_K = left.restrict(lambda w: w in ctx.K)
        right = projective_verma_mult(lam + ctx.gamma, ctx.Jt, ctx.p, guard=ctx.guard)
        right_Kt = right.restrict(lambda w: w in ctx.Kt)
        report.record(
            f"P-mults of L({lam.coords}) on K vs shifted",
            left_K.translate(ctx.gamma).serialize(),
            right_Kt.serialize(),
        )
    return report
