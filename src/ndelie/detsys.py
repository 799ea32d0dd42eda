"""Determining equations for the reduced equation

    x'' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = 0.

The invariance residual is generated with an unknown infinitesimal pair,
split by jet monomials, specialized to the affine ansatz
omega = beta(t), upsilon = gamma(t) x + rho(t), and rewritten into the
omega-form constraint system.  The reduction tags each row it knows with a
catalog id, rewrites the delayed rows by the delay equalities of the
unknowns in DELAY_PERIODIC, and integrates the two velocity rows by one
candidate-and-verify first-integral rule.  A system keeps its delay
equalities and its assumptions as the lines its report prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .equation import CoeffDescriptor, NdeSpec
from .prolong import InfinitesimalAnsatz, apply_operator
from .symexpr import (
    Coeff, EvalError, Expr, ExprError, Par, Prod, Sum, T, X, X1, X1R, X2,
    X2R, XR, ZERO, atoms, collect, compile_numeric, diff, fn, normalize, num,
    render, substitute,
)

SPLIT_JETS = (X, XR, X1, X1R, X2, X2R)
# the sampled zero test: its seed, its number of points and its bound on
# the largest |value| at a point
ZERO_SEED = 0
ZERO_POINTS = 64
ZERO_TOL = 1e-9
# the unknowns of the affine pair that the reduction takes as r-periodic:
# beta from the delay point, gamma through the velocity split
DELAY_PERIODIC = ("beta", "gamma")


@dataclass
class DetEquation:
    monomial: Expr
    residual: Expr
    catalog_id: str | None = None
    integrated: Expr | None = None
    constant_introduced: str | None = None
    note: str = ""

    def to_json(self):
        out = {"monomial": render(self.monomial),
               "residual": render(self.residual)}
        if self.catalog_id:
            out["catalog"] = self.catalog_id
        if self.integrated is not None:
            out["integrated"] = render(self.integrated)
        if self.constant_introduced:
            out["constant"] = self.constant_introduced
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class DeterminingSystem:
    equations: list
    spec: NdeSpec
    # the report's lines: each delay equality, and each assumption with
    # the reason for it
    functional_constraints: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)

    def nontrivial(self):
        return [eq for eq in self.equations if eq.residual != ZERO]

    def find(self, monomial):
        monomial = normalize(monomial)
        for eq in self.equations:
            if eq.monomial == monomial:
                return eq
        return None

    def to_report(self):
        return {
            "equations": [eq.to_json() for eq in self.nontrivial()],
            "functional_constraints": list(self.functional_constraints),
            "assumptions": list(self.assumptions),
        }


# ---------------------------------------------------------------------------
# ansatz builders


def generic_ansatz() -> InfinitesimalAnsatz:
    """Unknown pair, polynomial in x up to degree two.  Second x-partials
    are all the residual ever uses, so this truncation exhibits every split
    the unknown pair is subject to."""
    omega = fn("beta") + fn("alpha") * X + fn("alpha2") * X ** 2
    upsilon = fn("rho") + fn("gamma") * X + fn("gamma2") * X ** 2
    return InfinitesimalAnsatz(normalize(omega), normalize(upsilon))


def reduced_ansatz() -> InfinitesimalAnsatz:
    return InfinitesimalAnsatz(fn("beta"),
                               normalize(fn("gamma") * X + fn("rho")))


# ---------------------------------------------------------------------------
# residual generation and splitting


def check_reduced(spec: NdeSpec, what):
    """Raise, naming the substitutions that reach it, unless spec is in the
    reduced form h = 0, a = 0."""
    if not spec.h.is_zero or not spec.a.is_zero:
        raise ExprError(f"{what} expects the reduced form (h = 0, a = 0); "
                        "put x = u exp(-int a/2), then shift u by a "
                        "particular solution")


def reduced_equation(spec: NdeSpec) -> Expr:
    """The reduced equation as the residual the extended operator acts on."""
    check_reduced(spec, "invariance residual")
    return spec.residual_expr()


def invariance_residual(spec: NdeSpec, a: InfinitesimalAnsatz) -> Expr:
    """Residual of the extended operator applied to the reduced equation."""
    return apply_operator(a, reduced_equation(spec))


def split(residual: Expr, spec: NdeSpec) -> DeterminingSystem:
    """One equation per jet monomial with nonzero coefficient of an
    invariance residual of spec, plus the delay-point constraint
    omega(t-r, x(t-r)) = omega(t, x)."""
    parts = collect(residual, set(SPLIT_JETS))
    equations = [DetEquation(monomial=m, residual=coeff)
                 for m, coeff in sorted(parts.items(),
                                        key=lambda kv: render(kv[0]))]
    return DeterminingSystem(
        equations=equations, spec=spec,
        functional_constraints=["omega(t,x) = omega(t-r, x(t-r))"])


def determine(spec: NdeSpec):
    return split(invariance_residual(spec, generic_ansatz()), spec)


# ---------------------------------------------------------------------------
# the first integral of a row (candidate construction, verified by
# differentiation)


def first_integral(row: Expr):
    """An antiderivative in t of a row linear in the ansatz unknowns beta
    and gamma: in each term the one factor that is a derivative of an
    unknown loses one order, and a term with an underived unknown is
    dropped.  The candidate is returned only when its t-derivative is the
    row; a zero row, or a term with no unknown factor, with two or with a
    power of one, gives None."""
    row = normalize(row)
    if row == ZERO:
        return None
    candidate = []
    for term in row.terms if isinstance(row, Sum) else (row,):
        factors = term.factors if isinstance(term, Prod) else (term,)
        unknowns = [i for i, f in enumerate(factors)
                    if {a.name for a in atoms(f) if isinstance(a, Coeff)}
                    & {"beta", "gamma"}]
        if len(unknowns) != 1 or not isinstance(factors[unknowns[0]], Coeff):
            return None
        (i,) = unknowns
        u = factors[i]
        if u.order:
            lowered = Coeff(u.name, u.delayed, u.order - 1)
            candidate.append(Prod(factors[:i] + (lowered,) + factors[i + 1:]))
    candidate = normalize(Sum(tuple(candidate)))
    return candidate if diff(candidate, T) == row else None


# ---------------------------------------------------------------------------
# reduction to the affine ansatz


def apply_delay_equalities(e: Expr, names) -> Expr:
    """Rewrite f(t-r) and its derivatives to f(t) for the named functions,
    as licensed by a delay-equality constraint on f."""
    bindings = {}
    for name in names:
        for order in range(4):
            bindings[Coeff(name, True, order)] = Coeff(name, False, order)
    return substitute(e, bindings)


# the catalog id of each row of the reduced split
REDUCED_ROWS = {num(1): "E-1", X: "E-x", X1: "E-x1", XR: "E-xr",
                X1R: "E-x1r", X2R: "E-x2r"}


def reduce_ansatz(sys: DeterminingSystem) -> DeterminingSystem:
    """Specialize the generic system to omega = beta(t),
    upsilon = gamma(t) x + rho(t).

    The three eliminations are stated as assumptions, and only the first
    is checked against the generic split: its cubic delayed-velocity row
    must carry the x^2 part of omega.  The x-linear part of omega goes by
    the x'(t-r) x''(t-r) row when k != 0, and otherwise by the x' x''
    coefficient of the second-prolongation expansion; the x^2 part of
    upsilon goes by the squared-velocity row.  Each row of the split of
    the reduced residual gets its catalog id; the three delayed rows are
    rewritten by the delay equalities, the delayed-velocity row also by
    the integrated velocity split, and the two velocity rows are
    integrated once, with the constants c1 and c3.
    """
    spec = sys.spec

    cubic = sys.find(X1R ** 3)
    if cubic is not None and cubic.residual != ZERO:
        if fn("alpha2", delayed=True) not in atoms(cubic.residual):
            raise ExprError("unexpected cubic delayed-velocity row")
    out = split(invariance_residual(spec, reduced_ansatz()), spec)
    out.functional_constraints = [f"{f}(t) = {f}(t-r)"
                                  for f in DELAY_PERIODIC]
    out.assumptions = sys.assumptions + [
        "omega: affine in x (cubic velocity rows force the second "
        "x-derivative of omega to vanish)",
        "k: nonzero (neutral term present; the x'(t-r) x''(t-r) row "
        "factors through k and kills the x-linear part of omega)"
        if not spec.k.is_zero else
        "omega: independent of x (with no neutral term the x' x'' "
        "coefficient of the second-prolongation expansion forces it "
        "before the acceleration is eliminated)",
        "upsilon: affine in x (the squared-velocity row forces the second "
        "x-derivative of upsilon to vanish)"]

    c1, _, c3 = _own_constants(spec)
    constants = {X1: c1, X1R: c3}
    for eq in out.equations:
        eq.catalog_id = REDUCED_ROWS.get(eq.monomial)
        if eq.monomial in (XR, X1R, X2R):
            eq.residual = apply_delay_equalities(eq.residual, DELAY_PERIODIC)
            eq.note = ("delay equalities for " + " and ".join(DELAY_PERIODIC)
                       + " applied")
        if eq.monomial == X1R:
            # the velocity-split relation gamma = (beta' + c1)/2 removes
            # the delayed copy of the velocity row that rides along here
            eq.residual = substitute(eq.residual, _gamma_rule(c1, "beta"))
            eq.note = ("delay equalities and the integrated velocity "
                       "split applied")
        if eq.monomial in constants:
            anti = first_integral(eq.residual)
            if anti is not None:
                eq.constant_introduced = constants[eq.monomial]
                eq.integrated = normalize(anti - Par(eq.constant_introduced))
    return out


def _own_constants(spec: NdeSpec):
    """Names of the three constants the reduction introduces: c1, c2 and
    c3, except that a name a coefficient of the spec already carries gives
    way to the first of c4, c5, ... that the spec leaves free."""
    used = {a.name for desc in spec.descriptors().values()
            if desc.expr is not None for a in atoms(desc.expr)
            if isinstance(a, Par)}
    free = (f"c{n}" for n in itertools.count(4) if f"c{n}" not in used)
    return [c if c not in used else next(free) for c in ("c1", "c2", "c3")]


def _gamma_rule(c1, unknown):
    """The integrated velocity split gamma = (unknown' + c1)/2, as a
    binding, with the time part of omega named unknown."""
    return {fn("gamma"): normalize(num(1) / 2 * (fn(unknown, order=1)
                                                 + Par(c1)))}


def canonical_constraints(sys: DeterminingSystem) -> DeterminingSystem:
    """Rewrite the reduced system in terms of omega alone: each row kept
    goes through one substitution of the integrated velocity split
    gamma = (omega' + c1)/2 and of beta renamed to omega.  The
    delayed-acceleration branch equation beta k' = 0 is kept; the
    omega-form of the delayed-position row assumes k constant (= c2)."""
    c1, c2, c3 = _own_constants(sys.spec)
    binding = {**_gamma_rule(c1, "omega"), fn("beta"): fn("omega")}
    rows = {eq.monomial: eq for eq in sys.equations}
    equations, assumptions = [], list(sys.assumptions)

    if X in rows:
        equations.append(DetEquation(
            X, normalize(2 * substitute(rows[X].residual, binding)),
            "E-omega-c", note="third-order constraint tying c(t) to omega"))
    if XR in rows:
        row = rows[XR].residual
        # a spec with a value for k leaves nothing to substitute
        holds_k = "k" in {a.name for a in atoms(row) if isinstance(a, Coeff)}
        equations.append(DetEquation(
            XR, normalize(2 * substitute(row, {**binding, fn("k"): Par(c2)})),
            "E-omega-d",
            note=f"k constant (= {c2}) substituted" if holds_k else ""))
        assumptions.append(
            "k: constant (delayed-acceleration row leaves the branch "
            "beta = 0 or k constant; this is the constant branch)")
    if X2R in rows:
        equations.append(DetEquation(
            X2R, substitute(rows[X2R].residual, binding), "E-x2r",
            note="branch equation: omega k' = 0"))
    if X1R in rows and rows[X1R].integrated is not None:
        equations.append(DetEquation(
            X1R, substitute(rows[X1R].integrated, binding), "E-omega-b",
            note="integrated delayed-velocity row; with b nonvanishing "
                 f"it pins omega = {c3} / b"))
        assumptions.append("b: nonzero (required to solve the integrated "
                           "delayed-velocity row for omega)")
    one = rows.get(num(1))
    equations.append(DetEquation(
        num(1), substitute(one.residual, binding) if one else ZERO, "E-1",
        note="rho solves the homogeneous equation"))
    gamma = fn("gamma")
    equations.append(DetEquation(
        X1, normalize(gamma - binding[gamma]), "E-upsilon",
        note=f"upsilon = ((omega_t + {c1})/2) x + rho"))

    return DeterminingSystem(equations=equations, spec=sys.spec,
                             functional_constraints=["omega(t) = omega(t-r)"],
                             assumptions=assumptions)


# ---------------------------------------------------------------------------
# zero testing


@dataclass(frozen=True)
class ZeroResult:
    ok: bool
    mode: str  # 'symbolic' | 'sampled'
    max_abs: float = 0.0
    skipped: int = 0

    def __bool__(self):
        return self.ok


def _instance_family(rng):
    """A concrete coefficient instance with analytic derivatives, for a
    function of t the test leaves unbound, as a descriptor."""
    a0 = rng.uniform(-1.5, 1.5)
    a1 = rng.uniform(-1.0, 1.0)
    a2 = rng.uniform(-1.0, 1.0)
    wv = rng.uniform(0.5, 1.5)
    return CoeffDescriptor.numeric(
        lambda t: a0 + a1 * t + a2 * np.sin(wv * t),
        lambda t: a1 + a2 * wv * np.cos(wv * t),
        lambda t: -a2 * wv * wv * np.sin(wv * t),
        lambda t: -a2 * wv ** 3 * np.cos(wv * t))


def is_zero(e: Expr, fn_table=None, params=None) -> ZeroResult:
    """Symbolic-or-sampled zero test.

    Returns symbolic truth when the normal form vanishes; otherwise samples
    ZERO_POINTS points with t in [0.1, 4], jet values in [-2, 2], and
    concrete instances of the functions fn_table leaves unbound, and passes
    when every |value| is under ZERO_TOL.  Singular sample points are
    skipped and counted; with fewer than half of the points left it raises
    EvalError, as does a binding that cannot answer, such as a numeric
    coefficient asked for an order it does not supply.
    """
    canon = normalize(e)
    if canon == ZERO:
        return ZeroResult(True, "symbolic")

    rng = np.random.RandomState(ZERO_SEED)
    params = dict(params or {})
    r = float(params.get("r", rng.uniform(0.5, 2.0)))

    table = dict(fn_table or {})
    for atom in atoms(canon):
        if isinstance(atom, Coeff) and atom.name not in table:
            table[atom.name] = _instance_family(rng)

    jet_names = [j.tag for j in SPLIT_JETS] + ["x2"]
    par_names = sorted({a.name for a in atoms(canon)
                        if isinstance(a, Par) and a.name != "r"
                        and a.name not in params})

    # one row per point: t, then the jets and the free constants
    names = ["t"] + jet_names + par_names
    lo, hi = np.array([(0.1, 4.0)] + [(-2.0, 2.0)] * (len(names) - 1)).T
    draws = rng.uniform(lo, hi, size=(ZERO_POINTS, len(names)))
    env = {"r": r, **dict(zip(names, draws.T)), **params}
    values = np.broadcast_to(compile_numeric(canon)(env, table), ZERO_POINTS)
    skipped = int(np.isnan(values).sum())
    if 2 * skipped > ZERO_POINTS:
        # too few points evaluated to say anything
        raise EvalError(
            f"{skipped} of {ZERO_POINTS} sample points had no value")
    worst = float(np.nanmax(np.abs(values), initial=0.0))
    return ZeroResult(worst < ZERO_TOL, "sampled", worst, skipped)
