"""Finite one-parameter transformations from infinitesimal generators, and
the two numeric invariance tests.

flow() exponentiates a generator by integrating dt/d(delta) = omega,
dx/d(delta) = upsilon with RK4 in the group parameter.  A solution curve is
carried through the flow and resampled as a function of the new time; the
infinitesimal test evaluates the invariance residual along a trajectory,
the finite test measures how well the transformed curve still solves the
equation, and check_generator runs both for the scenario suite and the CLI.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .classify import Generator
from .detsys import reduced_ansatz, reduced_equation
from .equation import CoeffDescriptor, NdeSpec, Spline
from .ndesolve import Trajectory, _write_csv, rk4_step
from .prolong import apply_operator
from .symexpr import (
    EvalError, Expr, ExprError, T, X, ZERO, check_evaluated, compile_numeric,
    diff, fn, normalize, substitute,
)

FINE = 2                 # source samples of a transformed curve per step
SAMPLES_PER_DELTA = 40   # candidate times of the finite check per delta
SUBSTEPS = 24            # RK4 substeps of every flow in the group parameter
INTERIOR_SAMPLES = 30    # about this many times for the infinitesimal check
# the coefficient a numeric omega enters the compiled chains as; the parser
# makes names of word characters only, so no parsed text can alias it
PHI = "Phi#"


def _pair(gen: Generator):
    """omega and upsilon as expressions; a numeric omega is the
    coefficient PHI, with upsilon = (1/2) PHI' x.  A missing field raises
    ExprError: it is not a zero one."""
    if gen.kind == "numeric":
        return fn(PHI), normalize(fn(PHI, order=1) * X / 2)
    if gen.omega is None or gen.upsilon is None:
        raise ExprError(f"generator {gen.label!r} lacks omega or upsilon")
    return gen.omega, gen.upsilon


def _fn_table(gen: Generator, spec: NdeSpec, rho):
    """The coefficients the generator's chains read: the equation's, the
    solution slot rho (zero when None; a Trajectory stores x, x' and x''
    only, so a higher order fails with EvalError) and, for a numeric
    generator, PHI."""
    table = {**spec.fn_table(),
             "rho": CoeffDescriptor.zero() if rho is None else rho}
    if gen.kind == "numeric":
        table[PHI] = gen.omega_numeric
    return table


class _LastAnswer:
    """A function of t for one flow's table: a query at the same order and
    the same times, compared bit for bit (-0.0 is not 0.0), gets the last
    answer again, stored read-only.  So a flow whose t stays put, as under
    rho(t) d/dx, reads each function of t once per distinct set of times."""

    def __init__(self, source):
        self.source, self.last = source, {}

    def sample(self, ts, order=0):
        arr = np.asarray(ts, float)
        key = (arr.shape, arr.tobytes())
        hit = self.last.get(order)
        if hit is None or hit[0] != key:
            value = self.source.sample(ts, order)
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            hit = self.last[order] = (key, value)
        return hit[1]


def _rk4(vel, y, delta, substeps):
    """Classic RK4 in the group parameter for every row of y at once; the
    velocity vel(s, y) does not depend on the stage s.  delta is one group
    parameter for all rows or one per row; a row's own step, of shape
    (rows, 1), leaves its arithmetic as it is alone.  A row that turns
    non-finite (NaN marks a failed evaluation) comes back None, the others
    as tuples."""
    n = max(int(substeps), 1)
    # one delta stays a float: numpy scalar arithmetic is the cheaper step
    h = np.reshape(delta, (-1, 1)) / n if np.ndim(delta) else delta / n
    with np.errstate(all="ignore"):
        for _ in range(n):
            y = rk4_step(vel, y, h)
        ok = np.isfinite(y).all(axis=1)
    return [tuple(row) if good else None
            for row, good in zip(y.tolist(), ok.tolist())]


def flow(gen: Generator, points, delta, spec: NdeSpec, rho=None,
         substeps=SUBSTEPS):
    """RK4 exponentiation of the generator from each point, by delta or by
    one delta per point; entries become None where the flow leaves the
    numeric domain, NaN marking a point where the generator cannot be
    evaluated."""
    table = {k: _LastAnswer(f) for k, f in _fn_table(gen, spec, rho).items()}
    program = compile_numeric(list(_pair(gen)))

    def vel(_, y):
        out = np.empty_like(y)
        out[:, 0], out[:, 1] = program(
            {"t": y[:, 0], "x": y[:, 1], "r": spec.r}, table)
        return out

    y = np.array(points, float).reshape(-1, 2)
    return _rk4(vel, y, delta, substeps)


@dataclass
class TransformedCurve:
    """Piecewise-spline image of a solution; segment boundaries are the
    images of the derivative-breaking points, so no fit straddles a jump
    of the transported acceleration."""

    boundaries: np.ndarray
    segments: list  # per segment: (lo, hi, spline of x, x', x'')
    t_lo: float
    t_hi: float

    def sample(self, ts, der=0):
        """x, x' or x'' over an array of times, read as jets reads them; an
        order outside 0..2 raises EvalError."""
        if der not in (0, 1, 2):
            raise EvalError(f"derivative order {der} not stored")
        return self.jets(ts)[der]

    def jets(self, ts):
        """x, x' and x'' over an array of times, shape (3,) + ts.shape,
        each time read from the first segment that holds it with one spline
        call per segment; a time outside the curve or between segments
        gives NaN."""
        ts = np.asarray(ts, float)
        flat = ts.reshape(-1)
        out = np.full((3, len(flat)), np.nan)
        todo = (flat >= self.t_lo - 1e-9) & (flat <= self.t_hi + 1e-9)
        for lo, hi, spline in self.segments:
            hit = todo & (flat >= lo - 1e-9) & (flat <= hi + 1e-9)
            out[:, hit] = spline(flat[hit]).T
            todo &= ~hit
        return out.reshape((3,) + ts.shape)

    def to_csv(self, path, points=200):
        _write_csv(path, self, np.linspace(self.t_lo, self.t_hi, points))


def prolonged_flow(gen: Generator, jets, delta, spec: NdeSpec, rho=None,
                   substeps=SUBSTEPS):
    """Flow jet points (t, x, x', x'') with the generator extended to the
    first and second derivative coefficients, so the image of a curve
    carries its derivatives exactly (no numerical differentiation).

    The extension of an x-affine pair omega = beta(t),
    upsilon = gamma(t) x + rho(t) transports
        x'  by gamma' x + rho' + (gamma - beta') x'
        x'' by gamma'' x + rho'' + (2 gamma' - beta'') x' +
             (gamma - 2 beta') x''.
    """
    table = {k: _LastAnswer(f) for k, f in _fn_table(gen, spec, rho).items()}
    program = compile_numeric([e for c in _affine_exprs(gen) for e in c])

    def vel(_, y):
        t, x, x1, x2 = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        b0, b1v, b2v, g0, g1v, g2v, r0, r1v, r2v = program(
            {"r": spec.r, "t": t}, table)
        out = np.empty_like(y)
        out[:, 0] = b0
        out[:, 1] = g0 * x + r0
        out[:, 2] = g1v * x + r1v + (g0 - b1v) * x1
        out[:, 3] = (g2v * x + r2v + (2 * g1v - b2v) * x1
                     + (g0 - 2 * b1v) * x2)
        return out

    y = np.array(jets, float).reshape(-1, 4)
    return _rk4(vel, y, delta, substeps)


def transform_solution(traj: Trajectory, gen: Generator, delta,
                       spec: NdeSpec, rho=None) -> TransformedCurve:
    """Carry the solution curve through the prolonged flow and resample the
    image as a function of the transformed time.

    Source samples sit on nodes and midpoints, where the dense output is at
    its most accurate; the image splines only interpolate transported
    values, they are never differentiated.
    """
    step = traj.hstep / FINE
    count = int(round((traj.t_end - (traj.t0 - traj.r)) / step))
    ts = (traj.t0 - traj.r) + step * np.arange(count + 1)
    # x'' jumps at the breaking points, every FINE n samples from t0 - r,
    # and jets reads its right-hand side: a segment closing at a cut ends
    # on a jet whose x'' is read capped at the interval ending at the cut's
    # node, transported in the same batch
    n = traj.steps_per_delay
    cuts = np.arange(FINE * n, len(ts) - 1, FINE * n)
    both = np.concatenate([ts, ts[cuts]])
    jets = np.column_stack([both, *traj.jets(both)])
    jets[len(ts):, 3] = traj.jets(ts[cuts], cuts // FINE - n - 1)[2]
    moved = prolonged_flow(gen, jets, delta, spec, rho)
    if any(m is None for m in moved):
        raise ExprError("flow left the numeric domain for some points")
    tbar = np.array([m[0] for m in moved[:len(ts)]])
    if not np.all(np.diff(tbar) > 0):
        raise ExprError("transformed time is not strictly increasing; the "
                        "image is no longer a graph")
    edges = [0, *cuts.tolist(), len(ts) - 1]
    closing = moved[len(ts):] + [moved[len(ts) - 1]]
    segments = []
    for lo_i, hi_i, end in zip(edges[:-1], edges[1:], closing):
        if hi_i - lo_i < 3:
            continue
        seg = np.array(moved[lo_i:hi_i] + [end])
        segments.append((float(seg[0, 0]), float(seg[-1, 0]),
                         Spline(seg[:, 0], seg[:, 1:], "the image curve")))
    return TransformedCurve(tbar[edges], segments, float(tbar[0]),
                            float(tbar[-1]))


def _affine_exprs(gen: Generator):
    """beta, gamma and rho of the affine pair omega = beta(t),
    upsilon = gamma(t) x + rho(t), each with its first two derivatives in
    t, which are all the prolonged flow and the invariance residual read;
    every taxonomy generator is affine in x."""
    w, u = _pair(gen)
    gamma_expr = diff(u, X)
    if diff(gamma_expr, X) != ZERO or diff(w, X) != ZERO:
        raise ExprError("infinitesimal check covers pairs affine in x")

    def chain(e):
        exprs = [normalize(e)]
        for _ in range(2):
            exprs.append(diff(exprs[-1], T))
        return exprs

    return chain(w), chain(gamma_expr), chain(substitute(u, {X: ZERO}))


def _affine_chains(gen: Generator, spec: NdeSpec, rho):
    """beta, gamma and rho of the affine pair as functions of t, read with
    the generator's table."""
    table = _fn_table(gen, spec, rho)
    return tuple(CoeffDescriptor.bound(c, table, spec.r)
                 for c in _affine_exprs(gen))


@functools.lru_cache(maxsize=1)
def _affine_residual(delta: Expr):
    """Compiled invariance residual of the affine ansatz, for the latest
    equation only; numeric coefficients enter it by name and are read from
    the fn_table."""
    return compile_numeric(apply_operator(reduced_ansatz(), delta))


def infinitesimal_check(traj: Trajectory, gen: Generator, spec: NdeSpec,
                        samples, rho=None) -> float:
    """Max |invariance residual| along the solution, all jet values read
    from dense output; raises ExprError where a jet or the residual cannot
    be evaluated."""
    beta, gamma, rho_part = _affine_chains(gen, spec, rho)
    table = {**spec.fn_table(), "beta": beta, "gamma": gamma,
             "rho": rho_part}
    ts = np.asarray(samples, float)
    if ts.size == 0:
        raise ExprError("no sample times for the invariance residual")
    (x, xr), (x1, x1r), (_, x2r) = traj.jets(
        np.concatenate([ts, ts - spec.r])).reshape(3, 2, -1)
    env = {"t": ts, "r": spec.r, "x": x, "xr": xr, "x1": x1, "x1r": x1r,
           "x2r": x2r}
    residual = _affine_residual(reduced_equation(spec))
    res = np.broadcast_to(residual(env, table), ts.shape)
    check_evaluated("the invariance residual", ts,
                    [res] + [env[k] for k in ("x", "xr", "x1", "x1r", "x2r")])
    return float(np.max(np.abs(res)))


def finite_check(traj: Trajectory, gen: Generator, spec: NdeSpec,
                 delta_grid, rho=None, curves=None) -> float | None:
    """Worst residual of the transformed curve against the equation over
    the group parameters, sampling away from the span ends and the images
    of the derivative-breaking points (the curve's segment boundaries).
    None when the grid is empty or any parameter gives no image or no
    admissible sample, so one failed parameter cannot hide behind
    another.  A list passed as curves receives each parameter's curve, or
    the ExprError that left it without one."""
    h = traj.hstep
    worst = None
    for delta in delta_grid:
        try:
            curve = transform_solution(traj, gen, float(delta), spec, rho)
        except ExprError as err:
            if curves is not None:
                curves.append(err)
            return None
        if curves is not None:
            curves.append(curve)
        cand = np.linspace(curve.t_lo + spec.r + h, curve.t_hi - h,
                           SAMPLES_PER_DELTA)[:, None]
        bi = curve.boundaries
        near = (np.abs(cand - bi) < h / 2) | (np.abs(cand - spec.r - bi)
                                              < h / 2)
        ts = cand[~near.any(axis=1), 0]
        if len(ts) == 0:
            return None
        res = float(np.max(np.abs(spec.residual(curve, ts))))
        if worst is None or res > worst:
            worst = res
    return worst


def interior_samples(traj: Trajectory, spec: NdeSpec):
    """About INTERIOR_SAMPLES grid nodes, at least one step away from the
    span ends and 1.5 steps from the derivative-breaking points (in both
    the direct and the delayed position)."""
    ts, h = traj.ts, traj.hstep
    keep = (ts >= traj.t0 + h) & (ts <= traj.t_end - h)
    for bp in traj.breaking_points():
        keep &= (np.abs(ts - bp) >= 1.5 * h) & (np.abs(ts - spec.r - bp)
                                                >= 1.5 * h)
    out = ts[keep].tolist()
    return out[::max(len(out) // INTERIOR_SAMPLES, 1)]


# acceptance tolerances of the infinitesimal and the finite residual
TOL_INF = 1e-6
TOL_FIN = 1e-4


def check_generator(traj: Trajectory, gen: Generator, spec: NdeSpec,
                    samples, deltas, rho, tol_inf, tol_fin, curves=None):
    """Both invariance checks of one generator; it passes when each
    residual is under its tolerance, and never when the finite check
    failed.  curves is passed on to finite_check."""
    inf = infinitesimal_check(traj, gen, spec, samples, rho=rho)
    fin = finite_check(traj, gen, spec, deltas, rho=rho, curves=curves)
    return {"infinitesimal_residual": inf, "finite_residual": fin,
            "pass": inf < tol_inf and fin is not None and fin < tol_fin}


# ---------------------------------------------------------------------------
# group axioms


def _flow_all(gen: Generator, points, deltas, spec: NdeSpec, rho,
              substeps=SUBSTEPS):
    """flow() of the rows of points by their deltas that keeps its rows
    aligned: a row that left the numeric domain raises ExprError naming
    its point and its own delta instead of coming back None."""
    moved = flow(gen, points, deltas, spec, rho, substeps)
    for p, d, m in zip(points.tolist(), deltas.tolist(), moved):
        if m is None:
            raise ExprError(f"flow from {tuple(p)} by {d} left the "
                            "numeric domain")
    return moved


def _gap(a, b):
    """Largest coordinate difference between aligned lists of points."""
    return float(np.max(np.abs(np.subtract(a, b))))


def axiom_errors(gen: Generator, points, d1, d2, spec: NdeSpec, rho=None):
    """The identity, inverse and closure gaps of the generator's flow from
    each point, in three flows: one substep at delta 0; the points by d1
    and by d1 + d2; their images by d1 back by -d1 and on by d2."""
    pts = np.array(points, float).reshape(-1, 2)
    m = len(pts)
    ident = _gap(_flow_all(gen, pts, np.zeros(m), spec, rho, 1), pts)
    both = np.repeat([d1, d1 + d2], m)
    moved = _flow_all(gen, np.concatenate([pts, pts]), both, spec, rho)
    fwd = np.array(moved[:m])
    back = _flow_all(gen, np.concatenate([fwd, fwd]), np.repeat([-d1, d2], m),
                     spec, rho)
    return ident, _gap(back[:m], pts), _gap(back[m:], moved[m:])


# one-line views of axiom_errors, kept for callers that name one axiom
def identity_error(gen: Generator, points, spec: NdeSpec, rho=None):
    return axiom_errors(gen, points, 0.0, 0.0, spec, rho)[0]


def inverse_error(gen: Generator, points, delta, spec: NdeSpec, rho=None):
    return axiom_errors(gen, points, delta, 0.0, spec, rho)[1]


def closure_error(gen: Generator, points, d1, d2, spec: NdeSpec, rho=None):
    return axiom_errors(gen, points, d1, d2, spec, rho)[2]
