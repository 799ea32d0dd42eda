"""Group classification of the reduced equation

    x'' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = 0

into twelve coefficient classes, each with its admitted generator set.

Closed-form generators are emitted where the class admits elementary
infinitesimals; classes whose time-like direction is only available through
special functions are served by numerically integrating the third-order
equation for omega and monitoring its first integral.  Every emitted
generator is validated against the equation: symbolic-or-sampled zero of
the invariance residual for closed forms, delay-compatibility of omega on
a grid for numeric ones.  Failed checks demote a generator to candidate
status with a warning instead of rejecting the classification.

A compatibility fit, c-constraint or invariance test that cannot be
evaluated, as where a numeric coefficient lacks an order it reads,
demotes its generator through _check.  Other failures stop the run:
_const_info, C3's 1/b initial data and the omega solve's reads of d and
d' come before there is a generator, and a NaN in a delay, positivity,
w b or c check means a coefficient has no value on the span.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .detsys import (
    check_reduced, invariance_residual, is_zero, reduced_equation,
)
from .equation import CoeffDescriptor, NdeSpec
from .ndesolve import _hermite, rk4_step, stage_times
from .prolong import InfinitesimalAnsatz, solved_rhs
from .symexpr import (
    App, EvalError, Expr, ExprError, ONE, Pow, Rat, T, X, X1, X1R, X2R, XR,
    ZERO, check_evaluated, diff, fn, normalize, num, render, substitute,
)

HALF = num(Fraction(1, 2))
# bound of the classifier's numeric checks: delay compatibility, the fits
# of a free constant, the third-order c-constraint along a numeric omega,
# and w b = 1 on the two-term omega equation
CHECK_TOL = 1e-6
OMEGA_POINTS_PER_UNIT = 200  # grid density of a numeric omega


# ---------------------------------------------------------------------------
# numeric omega solutions


@dataclass
class OmegaSolution:
    """Grid solution of a third-order omega equation with derivatives and,
    for the energy forms, the monitored first integral."""

    ts: np.ndarray
    w: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    conserved: np.ndarray | None = None
    truncated: bool = False

    def sample(self, ts, der=0):
        """Cubic Hermite dense output over an array of times; a query
        outside the grid gives NaN; EvalError for an order above 3 or an
        omega of one node."""
        if der not in (0, 1, 2, 3):
            raise EvalError(f"derivative order {der} not stored")
        if len(self.ts) < 2:
            raise EvalError("an omega of one node has no dense output")
        ts = np.asarray(ts, float)
        grid, h = self.ts, float(self.ts[1] - self.ts[0])
        # the interval index truncates toward zero; fmax/fmin also send NaN
        # times to a valid index, and they come out NaN
        i = np.trunc((ts - grid[0]) / h)
        i = np.fmin(np.fmax(i, 0), len(grid) - 2).astype(np.intp)
        s = (ts - grid[i]) / h
        y, m = ((self.w, self.w1), (self.w1, self.w2), (self.w2, self.w3),
                (self.w2, self.w3))[der]
        out = _hermite(y[i], y[i + 1], m[i], m[i + 1], s, h, int(der == 3))
        outside = (ts < grid[0] - 1e-9) | (ts > grid[-1] + 1e-9)
        return np.where(outside, np.nan, out)

    def conservation_drift(self, c2):
        """Max drift of the monitored first integral
        c2 w w'' - c2 w'^2/2 + 2 d w^2 over the grid, relative to the
        largest sum of its terms' magnitudes (the integral itself can be
        zero, so it is no scale)."""
        if self.conserved is None:
            return None
        q = self.conserved
        ww2 = c2 * self.w * self.w2
        w1sq = c2 / 2.0 * self.w1 ** 2
        terms = np.abs(ww2) + np.abs(w1sq) + np.abs(q - ww2 + w1sq)
        return float(np.max(np.abs(q - q[0])) / max(np.max(terms), 1e-30))


def omega_ode_solve(c2, d, inits, grid):
    """Classic RK4 for the third-order omega equation along the 1-D grid,
    which may increase or decrease, from each initial datum (w, w', w'')
    at grid[0]; one OmegaSolution per datum comes back.  c2 is a finite,
    nonzero scalar.  d = None gives the b-branch c2 w w''' + w'' = 0
    (d = 0); else d, a function of t answering sample(ts, order), read
    once per call over the grid's stage times, gives the energy form
    c2 w''' + 2 d' w + 4 d w' = 0 (b = 0), monitoring
    c2 w w'' - c2 w'^2/2 + 2 d w^2.

    Each datum steps as its own chain of floats, one classic RK4 step of
    the system (w, w', w'') at a time, written out in rk4_step's
    operations and order so that it gives rk4_step's values bit for bit.
    A solution stops, flagged truncated, before the first step that gives
    a w, w' or w'' that is not finite, or in the b-branch takes omega
    through zero.  The b-branch equation divides by omega: its third
    derivative is NaN once |omega| falls under 1e-12.
    """
    c2 = float(c2)
    if c2 == 0.0 or not math.isfinite(c2):
        raise ExprError("the omega equation needs a finite, nonzero c2; "
                        f"got {c2!r}")
    ts = np.asarray(grid, float)
    n = len(ts) - 1
    divides_by_w = d is None
    steps = ts[1:] - ts[:-1]
    times, off = stage_times(ts, steps)
    dv = np.zeros((2, len(times)))  # d and d' at the stage times
    if not divides_by_w:
        dv = np.array([d.sample(times, o) for o in (0, 1)])
        check_evaluated("the coefficient d", times, dv)

    def third(p, q, w, w1, w2):
        # w''' from w, w' and w'', with p = 2 d' and q = 4 d at their time
        if not divides_by_w:
            return -(p * w + q * w1) / c2
        if abs(w) < 1e-12:
            return math.nan
        den = c2 * w
        # a divisor that underflows to zero divides as IEEE floats do
        return -w2 / den if den else float(np.float64(-w2) / den)

    def chain(w, w1, w2):
        # the node values of one solution, and whether it truncated.  A
        # step allocates no object that the garbage collector tracks, so
        # stepping starts no collection.
        ws, w1s, w2s, w3s = [w], [w1], [w2], []
        for i, h in enumerate(hs):
            # one classic RK4 step of (w, w', w'') with slopes
            # (w', w'', w'''), in rk4_step's operations and order: stage j
            # steps w' to u_j and w'' to v_j, and k_j is w''' there; the
            # midpoint stages read column i + off[1], the end i + off[2]
            k1 = third(ps[i], qs[i], w, w1, w2)
            w3s.append(k1)
            mid, end, h2 = i + off[1], i + off[2], h / 2
            u2, v2 = w1 + h2 * w2, w2 + h2 * k1
            k2 = third(ps[mid], qs[mid], w + h2 * w1, u2, v2)
            u3, v3 = w1 + h2 * v2, w2 + h2 * k2
            k3 = third(ps[mid], qs[mid], w + h2 * u2, u3, v3)
            u4, v4 = w1 + h * v3, w2 + h * k3
            k4 = third(ps[end], qs[end], w + h * u3, u4, v4)
            nxt = w + h / 6 * (w1 + 2 * u2 + 2 * u3 + u4)
            nxt1 = w1 + h / 6 * (w2 + 2 * v2 + 2 * v3 + v4)
            nxt2 = w2 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            # each value on its own: a sum of finite values can overflow
            finite = (math.isfinite(nxt) and math.isfinite(nxt1)
                      and math.isfinite(nxt2))
            if not finite or divides_by_w and nxt * w <= 0.0:
                return (ws, w1s, w2s, w3s), True
            w, w1, w2 = nxt, nxt1, nxt2
            ws.append(w)
            w1s.append(w1)
            w2s.append(w2)
        w3s.append(third(ps[n], qs[n], w, w1, w2))
        return (ws, w1s, w2s, w3s), False

    # the steps, 2 d' and 4 d at every stage time as flat lists: a list
    # per time would hand the collector thousands of objects per solve
    hs = steps.tolist()
    ps, qs = (2.0 * dv[1]).tolist(), (4.0 * dv[0]).tolist()
    sols = []
    with np.errstate(all="ignore"):
        for row in inits:
            vals, truncated = chain(*(float(v) for v in row))
            w, w1, w2, w3 = (np.array(v) for v in vals)
            conserved = None
            if not divides_by_w:
                conserved = (c2 * w * w2 - c2 / 2.0 * w1 ** 2
                             + 2.0 * w ** 2 * dv[0, :len(w)])
            sols.append(OmegaSolution(ts[:len(w)], w, w1, w2, w3, conserved,
                                      truncated))
    return sols


def solve_omega_two_sided(spec, c2, d, inits):
    """omega_ode_solve's solutions for c2 and d from each datum (w, w',
    w'') at spec's t0, on one uniform grid covering [t0 - 2.5 r,
    t0 + 3.5 r] with OMEGA_POINTS_PER_UNIT nodes per unit of t: one call
    forward and one backward, joined datum by datum.  A datum that
    truncates on either side comes back as its forward side, flagged."""
    t0, lo, hi = spec.t0, spec.t0 - 2.5 * spec.r, spec.t0 + 3.5 * spec.r
    step = 1.0 / OMEGA_POINTS_PER_UNIT
    n_b = max(int(math.ceil((t0 - lo) / step)), 1)
    n_f = max(int(math.ceil((hi - t0) / step)), 1)
    grid = t0 + step * np.arange(-n_b, n_f + 1)

    def merge(a, b):
        return np.concatenate((a[::-1][:-1], b))

    sols = []
    for fwd, bwd in zip(omega_ode_solve(c2, d, inits, grid[n_b:]),
                        omega_ode_solve(c2, d, inits, grid[n_b::-1])):
        if fwd.truncated or bwd.truncated:
            sols.append(replace(fwd, truncated=True))
            continue
        cons = None
        if fwd.conserved is not None:
            cons = merge(bwd.conserved, fwd.conserved)
        sols.append(OmegaSolution(grid, merge(bwd.w, fwd.w),
                                  merge(bwd.w1, fwd.w1),
                                  merge(bwd.w2, fwd.w2),
                                  merge(bwd.w3, fwd.w3), cons, False))
    return sols


# ---------------------------------------------------------------------------
# compatibility formulas (closed forms; each is verified in the tests by
# substitution into the constraint it solves)


def compat_c_from_b(b: Expr, c6=1) -> Expr:
    """c(t) solving the third-order constraint when omega is proportional
    to 1/b: c = (b''/b - (3/2)(b'/b)^2 + (c6/2) b^2) / 2."""
    b = normalize(b)
    b1, b2 = diff(b, T), diff(diff(b, T), T)
    return normalize(HALF * (b2 * b ** -1
                             - num(Fraction(3, 2)) * b1 ** 2 * b ** -2
                             + HALF * num(c6) * b ** 2))


def compat_d_from_b(b: Expr, c2, c5=1) -> Expr:
    """d(t) solving the delayed-position constraint for omega = c3/b with a
    constant neutral coefficient c2:
    d = (c5 b^2 + b' + c2 (b''/b - (3/2)(b'/b)^2)) / 2."""
    b = normalize(b)
    b1, b2 = diff(b, T), diff(diff(b, T), T)
    return normalize(HALF * (num(c5) * b ** 2 + b1
                             + num(c2) * (b2 * b ** -1
                             - num(Fraction(3, 2)) * b1 ** 2 * b ** -2)))


def compat_d_from_b_pure_delay(b: Expr, c32=1) -> Expr:
    """d(t) for the k = 0 family: d = c32 b^2 + b'/2."""
    b = normalize(b)
    return normalize(num(c32) * b ** 2 + HALF * diff(b, T))


def compat_c_from_d_pure_delay(d: Expr, c31=1) -> Expr:
    """c(t) for the b = 0, k = 0 family with omega = 1/sqrt(d):
    c = (c31 d + d''/(2 d) - (5/8)(d'/d)^2) / 2."""
    d = normalize(d)
    d1, d2 = diff(d, T), diff(diff(d, T), T)
    return normalize(HALF * (num(c31) * d + HALF * d2 * d ** -1
                             - num(Fraction(5, 8)) * d1 ** 2 * d ** -2))


def compatibility_c(spec: NdeSpec, omega, c_t0=None, grid=None):
    """c(t) making the third-order omega constraint hold.

    omega == 0 leaves c free ('free').  A constant omega forces c constant
    (the spec's own c is returned when constant).  For omega = c3/b the
    closed form applies, with c6 = 1; otherwise c is integrated
    numerically from c(t0) = c_t0 along the grid.
    """
    if isinstance(omega, Expr):
        omega = normalize(omega)
        if omega == ZERO:
            return "free"
        if isinstance(omega, Rat):
            if spec.c.is_const:
                return spec.c
            raise ExprError(
                "constant omega forces a constant c; the equation's c "
                "varies")
        b_sym = normalize(spec.b.symbolic("b"))
        if b_sym != ZERO and isinstance(normalize(omega * b_sym), Rat):
            return CoeffDescriptor.closed(compat_c_from_b(b_sym))
    # numeric route: c' = -(w''' + 4 c w') / (2 w)
    if grid is None:
        grid = np.linspace(spec.t0, spec.t0 + 3 * spec.r, 601)
    grid = np.asarray(grid, float)
    if c_t0 is None:
        c_t0 = spec.c.eval(grid[0])
    steps = grid[1:] - grid[:-1]
    times, off = stage_times(grid, steps)
    if isinstance(omega, Expr):
        omega = CoeffDescriptor(omega)
    w0, w1, w3 = (omega.sample(times, o) for o in (0, 1, 3))
    check_evaluated("omega", times, (w0, w1, w3))
    if (np.abs(w0) < 1e-12).any():
        raise ExprError("omega vanishes inside the grid; cannot continue c")

    def slope(s, cv):
        j = i + off[s]
        return -(w3[j] + 4.0 * cv * w1[j]) / (2.0 * w0[j])

    cs = np.empty(len(grid))
    cs[0] = float(c_t0)
    for i in range(len(grid) - 1):
        cs[i + 1] = rk4_step(slope, cs[i], steps[i])
    return CoeffDescriptor.from_table(grid, cs)


# ---------------------------------------------------------------------------
# generators and the classification result


@dataclass
class Generator:
    label: str
    kind: str  # 'closed' | 'parametric' | 'numeric'
    omega: Expr | None = None
    upsilon: Expr | None = None
    omega_numeric: OmegaSolution | None = None
    status: str = "admitted"
    warnings: list = field(default_factory=list)
    note: str = ""

    def to_json(self):
        out = {"label": self.label, "kind": self.kind, "status": self.status}
        if self.omega is not None:
            out["omega"] = render(self.omega)
        if self.upsilon is not None:
            out["upsilon"] = render(self.upsilon)
        if self.omega_numeric is not None:
            out["omega"] = "numeric grid on [{:g}, {:g}]".format(
                self.omega_numeric.ts[0], self.omega_numeric.ts[-1])
        if self.warnings:
            out["warnings"] = list(self.warnings)
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ClassificationResult:
    case_id: str | None
    generators: list
    compatibility: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    predicate_trace: list = field(default_factory=list)
    degenerate: bool = False

    @property
    def admitted(self):
        return [g for g in self.generators if g.status == "admitted"]

    @property
    def out_of_taxonomy(self):
        return self.case_id is None

    def to_json(self):
        return {
            "case": self.case_id or "out-of-taxonomy",
            "degenerate": self.degenerate,
            "predicate_trace": list(self.predicate_trace),
            "generators": [g.to_json() for g in self.generators],
            "compatibility": {k: str(v) for k, v in
                              sorted(self.compatibility.items())},
            "warnings": list(self.warnings),
        }


def _gen_scale():
    return Generator("x d/dx", "closed", omega=ZERO, upsilon=X,
                     note="linearity of the equation")


def _gen_half_scale():
    return Generator("(x/2) d/dx", "closed", omega=ZERO,
                     upsilon=normalize(HALF * X),
                     note="linearity of the equation")


def _gen_rho():
    return Generator("rho(t) d/dx", "parametric", omega=ZERO,
                     upsilon=fn("rho"),
                     note="rho is any solution of the homogeneous equation")


def _gen_time():
    return Generator("d/dt", "closed", omega=num(1), upsilon=ZERO)


def _gen_from_omega(label, w):
    w = normalize(w)
    return Generator(label, "closed", omega=w,
                     upsilon=normalize(HALF * diff(w, T) * X))


# ---------------------------------------------------------------------------
# descriptor inspection


def _const_info(desc: CoeffDescriptor, t0, r):
    """('zero',) | ('const', float) | ('varying',) with numeric probing for
    numeric-kind descriptors."""
    if desc.is_zero:
        return ("zero",)
    if desc.is_const:
        return ("const", float(desc.const_value()))
    if desc.expr is not None:
        return ("varying",)
    ts = np.linspace(t0, t0 + 3 * r, 50)
    vals = desc.sample(ts)
    if _max_abs("a numeric coefficient", ts, vals - vals[0]) < 1e-9:
        if abs(vals[0]) < 1e-12:
            return ("zero",)
        return ("const", float(vals[0]))
    return ("varying",)


# the b = 0 class of each special d; d = t^m with m >= 1 is C8
SPECIAL_D = {ONE: "C9", App("exp", T): "C6", App("sin", T): "C7"}


def _special_d_case(desc: CoeffDescriptor):
    """The case id of a special right-shift family, or None."""
    e = desc.expr
    if e == T or isinstance(e, Pow) and e.base == T and e.n >= 1:
        return "C8"
    return SPECIAL_D.get(e)


def _max_abs(what, ts, values):
    """Max |values| over the times ts; raises ExprError where a value is
    NaN, so no failed evaluation reaches a comparison."""
    check_evaluated(what, ts, values)
    return float(np.max(np.abs(values)))


# ---------------------------------------------------------------------------
# validation helpers


def _rho_relation(spec: NdeSpec):
    """Defining relation of a rho slot: rho'' is the solved form of the
    reduced equation with x and its jets read on rho."""
    on_rho = {X: fn("rho"), X1: fn("rho", order=1), XR: fn("rho", True),
              X1R: fn("rho", True, 1), X2R: fn("rho", True, 2)}
    return {fn("rho", order=2): substitute(
        solved_rhs(reduced_equation(spec)), on_rho)}


def _demote(gen, result, warning):
    """Demote gen with warning, and report the warning under its label."""
    gen.status = "candidate"
    gen.warnings.append(warning)
    result.warnings.append(f"{gen.label}: {warning}")


@contextmanager
def _check(gen, result, name):
    """A check on gen, whose ExprError demotes gen with the check's name
    and the error instead of stopping the run."""
    try:
        yield
    except ExprError as err:
        _demote(gen, result, f"{name} failed to evaluate: {err}")


def _validate_closed(spec, gen, result):
    """Symbolic-or-sampled invariance check for a closed or parametric
    generator; demotes on failure."""
    with _check(gen, result, "validation"):
        ansatz = InfinitesimalAnsatz(gen.omega, gen.upsilon)
        res = invariance_residual(spec, ansatz)
        if gen.kind == "parametric":
            res = substitute(res, _rho_relation(spec))
        zr = is_zero(res, fn_table=spec.fn_table(), params={"r": spec.r})
        if not zr.ok:
            _demote(gen, result, f"invariance residual not zero (max "
                    f"{zr.max_abs:.2e}, {zr.mode})")
        else:
            gen.note = (gen.note + f" [invariance zero: {zr.mode}]").strip()


def _check_delay_compat(gen, f, spec, result, what):
    """Demote unless |f(t) - f(t-r)| stays under CHECK_TOL on [t0 + r,
    t0 + 3r], for a function of t f that answers sample(ts, order)."""
    r = spec.r
    ts = np.linspace(spec.t0 + r, spec.t0 + r + 2 * r, 60)
    mism = _max_abs(what, ts, f.sample(ts) - f.sample(ts - r))
    if mism > CHECK_TOL:
        _demote(gen, result, f"delay compatibility violated: max "
                f"|{what}(t) - {what}(t-r)| = {mism:.2e}")


def _fit_form(spec, desc, base, scale):
    """The constant q of the compatibility form desc = base + q scale, for
    expressions base and scale: the median of (desc - base) / scale on 60
    points of [t0 + 0.05, t0 + 3r] where scale is not zero, and whether
    every point lies within CHECK_TOL of it (relative above 1)."""
    ts = np.linspace(spec.t0 + 0.05, spec.t0 + 3 * spec.r, 60)
    fb, fs = (CoeffDescriptor.bound([e], spec.fn_table(), spec.r)
              for e in (base, normalize(scale)))
    s = fs.sample(ts)
    ts, s = ts[s != 0], s[s != 0]
    vals = (desc.sample(ts) - fb.sample(ts)) / s
    check_evaluated("the fitted quotient", ts, vals)
    q = float(np.median(vals))
    return q, float(np.max(np.abs(vals - q))) <= CHECK_TOL * max(1.0, abs(q))


# ---------------------------------------------------------------------------
# the dispatch


def classify(spec: NdeSpec) -> ClassificationResult:
    """Match the reduced equation to its coefficient class and emit the
    admitted generators, with compatibility requirements and warnings.

    Each case runs its own checks first; then every generator still
    admitted that is not numeric has its invariance residual tested."""
    result = _match_case(spec)
    for g in result.generators:
        if g.status == "admitted" and g.kind != "numeric":
            _validate_closed(spec, g, result)
    return result


def _match_case(spec: NdeSpec) -> ClassificationResult:
    """The class of the reduced equation and its generators, before the
    invariance test."""
    check_reduced(spec, "classification")
    t0, r = spec.t0, spec.r
    k_info = _const_info(spec.k, t0, r)
    b_info = _const_info(spec.b, t0, r)
    d_info = _const_info(spec.d, t0, r)
    c_info = _const_info(spec.c, t0, r)
    trace = [f"k: {k_info[0]}", f"b: {b_info[0]}", f"d: {d_info[0]}",
             f"c: {c_info[0]}"]

    result = ClassificationResult(case_id=None, generators=[],
                                  predicate_trace=trace)

    b_zero = b_info[0] == "zero"
    d_zero = d_info[0] == "zero"
    k_zero = k_info[0] == "zero"

    if k_info[0] == "varying":
        result.case_id = "C1"
        trace.append("neutral coefficient varies: two-dimensional group")
        result.generators = [_gen_scale(), _gen_rho()]
        return result

    if k_zero and b_zero and d_zero:
        trace.append("no delayed terms at all: ordinary equation")
        return result  # out of taxonomy

    if not k_zero:
        k_val = k_info[1]
        if b_zero and d_zero:
            # pure neutral coupling; the degenerate sibling of the b=0,
            # d=1 class with the right-shift term absent
            result.case_id = "C9"
            result.degenerate = True
            trace.append("neutral term only: degenerate constant-d class")
            result.generators = [_gen_scale(), _gen_rho()]
            if c_info[0] in ("zero", "const"):
                result.generators.insert(0, _gen_time())
            else:
                result.warnings.append(
                    "c(t) varies: no time translation admitted")
            return result
        if not b_zero and not d_zero:
            return _case_c2(spec, result, k_val, trace)
        if not b_zero and d_zero:
            if abs(k_val - 1.0) < 1e-12 and b_info[0] == "const" \
                    and c_info[0] in ("zero", "const"):
                return _case_c4(spec, result, trace)
            return _case_c3(spec, result, k_val, trace)
        # b = 0, d != 0
        case = _special_d_case(spec.d)
        if case == "C9":
            return _case_c9(spec, result, k_val, trace)
        if case:
            return _case_c678(spec, result, k_val, case, trace)
        return _case_c5(spec, result, k_val, trace)

    # k = 0: delay differential equation
    if not b_zero and not d_zero:
        return _case_c10(spec, result, trace)
    if not b_zero and d_zero:
        result.case_id = "C11"
        trace.append("b != 0, d = 0, k = 0: constant omega only")
        result.generators = [_gen_time(), _gen_scale(), _gen_rho()]
        result.compatibility["c"] = "c constant"
        result.compatibility["b"] = "b constant"
        if "varying" in (b_info[0], c_info[0]):
            _demote(result.generators[0], result,
                    "time translation needs constant b and c")
        return result
    return _case_c12(spec, result, trace)


def _b_family(spec, result, base_d, c_div, d_div):
    """The part C2 and C10 share: the (1/b) generator beside x d/dx and
    the rho slot, the delay check on b, and the constants of the forms
    c = base_c + q b^2 / c_div and d = base_d + q b^2 / d_div, demoting
    the generator unless both fit; NaN where the fit cannot evaluate."""
    b_sym = spec.b.symbolic("b")
    gen_b = _gen_from_omega("(1/b) d/dt + (x/2)(1/b)' d/dx",
                            Pow(b_sym, -1) if not isinstance(b_sym, Rat)
                            else num(Fraction(1) / b_sym.q))
    result.generators = [_gen_scale(), gen_b, _gen_rho()]
    _check_delay_compat(gen_b, spec.b, spec, result, "b")
    c_const = d_const = math.nan
    with _check(gen_b, result, "compatibility fit"):
        (c_const, ok_c), (d_const, ok_d) = (
            _fit_form(spec, spec.c, compat_c_from_b(b_sym, c6=0),
                      b_sym ** 2 / c_div),
            _fit_form(spec, spec.d, base_d, b_sym ** 2 / d_div))
        if not ok_c or not ok_d:
            _demote(gen_b, result, "required c(t), d(t) forms not met")
    return c_const, d_const


def _case_c2(spec, result, k_val, trace):
    result.case_id = "C2"
    trace.append("b != 0, d != 0, k constant: three-dimensional group")
    kq = Fraction(k_val).limit_denominator(10 ** 9)
    c6, c5 = _b_family(
        spec, result, compat_d_from_b(spec.b.symbolic("b"), kq, c5=0), 4, 2)
    result.compatibility["c"] = (
        "c = (b''/b - (3/2)(b'/b)^2)/2 + (c6/4) b^2, c6 = %.6g" % c6)
    result.compatibility["d"] = (
        "d = (b' + c2 (b''/b - (3/2)(b'/b)^2))/2 + (c5/2) b^2, "
        "c5 = %.6g" % c5)
    return result


def _case_c3(spec, result, k_val, trace):
    result.case_id = "C3"
    trace.append("b != 0, d = 0, k constant: omega from the third-order "
                 "two-term equation")
    b0, b1v, b2v = (spec.b.eval(spec.t0, o) for o in range(3))
    try:
        w0 = 1.0 / b0
        w1 = -b1v * w0 ** 2
        w2 = (2 * b1v ** 2 - b0 * b2v) / b0 ** 3
    except (ZeroDivisionError, OverflowError):
        raise ExprError(f"C3 needs 1/b at t0, but b(t0) = {b0:g}") from None
    (sol,) = solve_omega_two_sided(spec, k_val, None, [(w0, w1, w2)])
    gen_w = Generator("Phi d/dt + (x/2) Phi' d/dx", "numeric",
                      omega_numeric=sol,
                      note="Phi solves c2 w w''' + c3 w'' = 0 with "
                           "w = 1/b data")
    result.generators = [_gen_scale(), gen_w, _gen_rho()]
    if not sol.truncated:
        ts = np.linspace(spec.t0, spec.t0 + 3 * spec.r, 601)[::30]
        mism = _max_abs("w b", ts, sol.sample(ts) * spec.b.sample(ts) - 1.0)
        if mism > CHECK_TOL:
            _demote(gen_w, result, "b is not compatible with the "
                    f"two-term omega equation (max |w b - 1| = {mism:.2e})")
    _check_numeric_omega(spec, gen_w, result)
    return result


def _check_c_constraint(spec, gen, result):
    """Residual check of the third-order c-constraint along the numeric
    omega of gen; demotes on failure."""
    sol = gen.omega_numeric
    ts = sol.ts[:: max(len(sol.ts) // 40, 1)]
    with _check(gen, result, "c-constraint"):
        res = (sol.sample(ts, 3) + 4 * spec.c.sample(ts) * sol.sample(ts, 1)
               + 2 * spec.c.sample(ts, 1) * sol.sample(ts, 0))
        if _max_abs("the c-constraint", ts, res) > CHECK_TOL:
            _demote(gen, result,
                    "c(t) incompatible with the third-order constraint")


def _case_c4(spec, result, trace):
    result.case_id = "C4"
    trace.append("b constant != 0, d = 0, k = 1, c constant: time "
                 "translation appears")
    result.generators = [_gen_time(), _gen_half_scale(), _gen_rho()]
    result.compatibility["c"] = "c constant (= c6/4 for the unit-scale "\
        "normalization)"
    return result


def _check_numeric_omega(spec, gen, result):
    """A truncated numeric omega of gen, or else its delay
    compatibility, and the third-order c-constraint along it; demotes on
    failure."""
    sol = gen.omega_numeric
    if sol.truncated:
        # only the b-branch, which has no first integral, divides by omega
        why = "crossed zero" if sol.conserved is None else "overflowed"
        _demote(gen, result, f"omega {why}; solution truncated")
    else:
        _check_delay_compat(gen, sol, spec, result, "omega")
    _check_c_constraint(spec, gen, result)


def _drift_text(sol, c2):
    """The first integral's drift along an energy-form omega, or none where
    the omega stopped at its first node and so has nothing to drift."""
    if len(sol.ts) < 2:
        return "none (omega of one node)"
    return f"{sol.conservation_drift(c2):.2e}"


def _case_c5(spec, result, k_val, trace):
    result.case_id = "C5"
    trace.append("b = 0, d != 0, k constant: omega from the energy form "
                 "of the third-order equation")
    (sol,) = solve_omega_two_sided(spec, k_val, spec.d, [(1.0, 0.0, 0.0)])
    gen_w = Generator("Phi d/dt + (x/2) Phi' d/dx", "numeric",
                      omega_numeric=sol,
                      note="Phi solves the integrated third-order "
                           "equation; first integral monitored")
    result.generators = [_gen_scale(), gen_w, _gen_rho()]
    result.compatibility["first-integral drift"] = _drift_text(sol, k_val)
    _check_numeric_omega(spec, gen_w, result)
    return result


def _case_c678(spec, result, k_val, case_id, trace):
    result.case_id = case_id
    trace.append("b = 0, special d family, k constant: three omega "
                 "directions from independent initial data")
    inits = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    result.generators = [_gen_half_scale()]
    sols = solve_omega_two_sided(spec, k_val, spec.d, inits)
    for i, (init, sol) in enumerate(zip(inits, sols)):
        g = Generator(f"Phi{i + 1} d/dt + (x/2) Phi{i + 1}' d/dx",
                      "numeric", omega_numeric=sol,
                      note="independent initial data "
                           f"{init}; first-integral drift "
                           f"{_drift_text(sol, k_val)}")
        _check_numeric_omega(spec, g, result)
        result.generators.append(g)
    result.generators.append(_gen_rho())
    # the three directions share the third-order constraint exactly when
    # c = d / c2; record how close the equation is to that family
    grid_c = np.linspace(spec.t0 + 0.05, spec.t0 + 2 * spec.r, 40)
    mism = _max_abs("c - d/c2", grid_c,
                    spec.c.sample(grid_c) - spec.d.sample(grid_c) / k_val)
    result.compatibility["c"] = (
        f"three omega directions require c = d/c2; max |c - d/c2| "
        f"= {mism:.2e}")
    return result


def _case_c9(spec, result, k_val, trace):
    result.case_id = "C9"
    trace.append("b = 0, d = 1, k constant: trigonometric omega pair")
    kq = Fraction(k_val).limit_denominator(10 ** 9)
    sqrt_k = App("sqrt", Rat(kq))
    phase = normalize(2 * T * Pow(sqrt_k, -1))
    result.generators = [
        _gen_time(),
        _gen_half_scale(),
        _gen_from_omega("sin(2t/sqrt(k)) d/dt + ...", App("sin", phase)),
        _gen_from_omega("cos(2t/sqrt(k)) d/dt + ...", App("cos", phase)),
        _gen_rho(),
    ]
    result.compatibility["c"] = f"c = 1/k = {1.0 / k_val:.6g}"
    ts = np.linspace(spec.t0, spec.t0 + 2 * spec.r, 20)
    c_mism = _max_abs("c", ts, spec.c.sample(ts) - 1.0 / k_val)
    for g in result.generators[2:4]:
        if c_mism > 1e-9:
            _demote(g, result, f"requires c = 1/k (max deviation "
                    f"{c_mism:.2e})")
        else:
            omega = CoeffDescriptor.bound([g.omega], spec.fn_table(), spec.r)
            _check_delay_compat(g, omega, spec, result, "omega")
    return result


def _case_c10(spec, result, trace):
    result.case_id = "C10"
    trace.append("b != 0, d != 0, k = 0: three-dimensional group")
    c33, c32 = _b_family(
        spec, result, compat_d_from_b_pure_delay(spec.b.symbolic("b"),
                                                 c32=0), 2, 1)
    result.compatibility["c"] = (
        "c = (b''/b - (3/2)(b'/b)^2)/2 + (c33/2) b^2, c33 = %.6g" % c33)
    result.compatibility["d"] = "d = b'/2 + c32 b^2, c32 = %.6g" % c32
    return result


def _case_c12(spec, result, trace):
    result.case_id = "C12"
    trace.append("b = 0, d != 0, k = 0: omega = 1/sqrt(d)")
    d_sym = spec.d.symbolic("d")
    label = "(1/sqrt(d)) d/dt - (d'/(4 d^(3/2))) x d/dx"
    # a negative constant d has no real square root to form omega from;
    # the positivity check below demotes that generator
    gen_w = (Generator(label, "closed")
             if isinstance(d_sym, Rat) and d_sym.q < 0
             else _gen_from_omega(label, Pow(App("sqrt", d_sym), -1)))
    gen_w.note = ("merges the time-like direction with its tied x-scaling; "
                  "the pair is admitted only jointly")
    result.generators = [gen_w, _gen_half_scale(), _gen_rho()]
    ts = np.linspace(spec.t0, spec.t0 + 3 * spec.r, 40)
    dv = spec.d.sample(ts)
    # the first time d fails to be positive, or cannot be evaluated
    stop = np.flatnonzero(~(dv > 0))[:1]
    if stop.size:
        check_evaluated("d", ts[:stop[0] + 1], dv[:stop[0] + 1])
        _demote(gen_w, result, "d must stay positive for 1/sqrt(d)")
    if gen_w.status == "admitted":
        _check_delay_compat(gen_w, spec.d, spec, result, "d")
    c31 = math.nan
    with _check(gen_w, result, "compatibility fit"):
        c31, ok_c = _fit_form(spec, spec.c,
                              compat_c_from_d_pure_delay(d_sym, c31=0),
                              HALF * d_sym)
        if not ok_c:
            _demote(gen_w, result, "required c(t) form not met")
    result.compatibility["c"] = (
        "c = (c31 d + d''/(2d) - (5/8)(d'/d)^2)/2, c31 = %.6g" % c31)
    return result
