"""Prolongation of point transformations to derivatives and delayed
arguments, and the extended operator acting on equation residuals.

An infinitesimal pair (omega, upsilon) in (t, x) is extended to the first
and second derivative coefficients, shifted to the delay point, and applied
to a second-order residual in solved form x'' = F.  The output of
apply_operator is the expression whose vanishing on the equation manifold
is the invariance condition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .symexpr import (
    Expr, ExprError, Jet, Rat, Sum, T, X, X1, X1R, X2, X2R, XR, ZERO, atoms,
    collect, diff, diff_explicit, is_delayed, normalize, shift, substitute,
)

@dataclass(frozen=True)
class InfinitesimalAnsatz:
    """Coefficients of the infinitesimal transformation: omega multiplies
    d/dt, upsilon multiplies d/dx.  Both live on (t, x) only."""

    omega: Expr
    upsilon: Expr

    def __post_init__(self):
        for name, e in (("omega", self.omega), ("upsilon", self.upsilon)):
            for a in atoms(e):
                if is_delayed(a):
                    raise ExprError(
                        f"{name} must not contain delayed symbols")
                if isinstance(a, Jet) and a.tag in ("x1", "x2"):
                    raise ExprError(
                        f"{name} may depend on t and x only, found {a.tag}")


@dataclass(frozen=True)
class Prolongation:
    """The shifted pair and the four prolongation coefficients."""

    omega_r: Expr
    upsilon_r: Expr
    ups_t: Expr
    ups_tt: Expr
    ups_t_r: Expr
    ups_tt_r: Expr


def solved_rhs(delta: Expr) -> Expr:
    """F such that the equation delta = 0 is equivalent to x'' = F; delta
    must be of degree one in x'' with a constant coefficient."""
    lead = collect(normalize(delta), {X2}).get(X2, ZERO)
    if not isinstance(lead, Rat) or lead.q == 0:
        raise ExprError("equation is not solvable for x''")
    return normalize(Rat(-Fraction(1, lead.q)) * normalize(delta - lead * X2))


def total_derivative(e) -> Expr:
    """Total t-derivative d/dt + x' d/dx + x'' d/dx', for expressions
    depending on t, x, x' at most."""
    for a in atoms(e):
        if isinstance(a, Jet) and a.tag in ("x2", "xr", "x1r", "x2r"):
            raise ExprError(
                f"total derivative of an expression in {a.tag} would need "
                "jet coordinates beyond x''")
    return normalize(diff(e, T) + X1 * diff(e, X) + X2 * diff(e, X1))


def prolong_first(a: InfinitesimalAnsatz) -> Expr:
    """First prolongation coefficient:
    upsilon_t + (upsilon_x - omega_t) x' - omega_x x'^2."""
    w, u = a.omega, a.upsilon
    return normalize(
        diff(u, T) + (diff(u, X) - diff(w, T)) * X1 - diff(w, X) * X1 ** 2)


def prolong_second(a: InfinitesimalAnsatz) -> Expr:
    """Second prolongation coefficient, as the five-term expansion in
    x' and x''."""
    w, u = a.omega, a.upsilon
    u_tt = diff(diff(u, T), T)
    u_tx = diff(diff(u, T), X)
    u_xx = diff(diff(u, X), X)
    w_tt = diff(diff(w, T), T)
    w_tx = diff(diff(w, T), X)
    w_xx = diff(diff(w, X), X)
    return normalize(
        u_tt
        + (2 * u_tx - w_tt) * X1
        + (u_xx - 2 * w_tx) * X1 ** 2
        - w_xx * X1 ** 3
        + (diff(u, X) - 2 * diff(w, T)) * X2
        - 3 * diff(w, X) * X1 * X2)


@functools.lru_cache(maxsize=16)
def prolong_delayed(a: InfinitesimalAnsatz) -> Prolongation:
    """Delay shift of the pair and of both prolongation coefficients;
    every atom is replaced by its delayed counterpart.  The prolongation
    depends on the generator alone, so each recent one is kept: determine,
    reduce_ansatz and the generator checks ask for the same few."""
    ups_t = prolong_first(a)
    ups_tt = prolong_second(a)
    return Prolongation(
        omega_r=shift(a.omega),
        upsilon_r=shift(a.upsilon),
        ups_t=ups_t,
        ups_tt=ups_tt,
        ups_t_r=shift(ups_t),
        ups_tt_r=shift(ups_tt),
    )


@functools.lru_cache(maxsize=1)
def _solved_partials(delta: Expr):
    """F = x'' of the solved form and the seven partials the extended
    operator takes of it, for the most recent equation only: determine,
    reduce_ansatz and each generator check of one equation share them."""
    F = solved_rhs(delta)
    return F, (diff_explicit(F, "t"), diff(F, X), diff_explicit(F, "tr"),
               diff(F, XR), diff(F, X1), diff(F, X1R), diff(F, X2R))


def apply_operator(a: InfinitesimalAnsatz, delta: Expr) -> Expr:
    """Apply the extended operator to the residual delta and eliminate x''
    via the solved form; x''(t-r) stays an independent coordinate.

    Explicit dependence on the delayed time must enter F through
    coefficient functions of t-r; those derivatives are multiplied by the
    shifted omega.  Of all the terms only the second prolongation holds
    x'', so it is eliminated there, before the one normalisation.
    """
    F, partials = _solved_partials(delta)
    p = prolong_delayed(a)
    factors = (a.omega, a.upsilon, p.omega_r, p.upsilon_r, p.ups_t,
               p.ups_t_r, p.ups_tt_r)
    operator_terms = Sum(tuple(f * dF for f, dF in zip(factors, partials)))
    return normalize(substitute(p.ups_tt, {X2: F}) - operator_terms)
