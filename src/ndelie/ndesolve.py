"""Fixed-step method-of-steps integrator for

    x'' = h - a x' - b x'(t-r) - c x - d x(t-r) - k x''(t-r)

with an analytic initial function on [t0-r, t0].

The step size divides the delay exactly, so every delayed lookup falls in a
completed interval and RK4 stage points land on earlier nodes and midpoints
where the dense output is most accurate.  Dense output is cubic Hermite for
x (from x, x') and for x' (from x', x''); the delayed acceleration is the
derivative of the x' interpolant.  Derivative jumps propagate at t0 + n r
and coincide with interval boundaries, so no step straddles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equation import NdeSpec
from .symexpr import (
    Expr, ExprError, T, compile_array, compile_numeric, diff, normalize, parse,
)


@dataclass
class InitialFunction:
    """Closed-form history x(t) = theta(t) on [t0 - r, t0]; must be twice
    differentiable symbolically because the neutral term needs theta''."""

    theta: Expr
    _chain: tuple = field(default=None, repr=False, compare=False)
    _chain_array: tuple = field(default=None, repr=False, compare=False)

    @classmethod
    def make(cls, theta):
        if isinstance(theta, str):
            theta = parse(theta)
        return cls(normalize(theta))

    def _derivatives(self):
        d1 = diff(self.theta, T)
        return (self.theta, d1, diff(d1, T))

    def _compiled(self):
        if self._chain is None:
            self._chain = tuple(compile_numeric(e)
                                for e in self._derivatives())
        return self._chain

    def value(self, t, der=0):
        return self._compiled()[der]({"t": float(t)}, None)

    def sample(self, ts, der=0):
        """value over an array of times; domain errors give NaN."""
        if self._chain_array is None:
            self._chain_array = tuple(compile_array(e)
                                      for e in self._derivatives())
        ts = np.asarray(ts, float)
        return np.broadcast_to(self._chain_array[der]({"t": ts}, None),
                               ts.shape)

    def __add__(self, other):
        return InitialFunction(normalize(self.theta + other.theta))


def _hermite(y0, y1, m0, m1, s, h, der):
    """Cubic Hermite on a unit interval scaled by h; der in {0, 1}."""
    if der == 0:
        s2 = s * s
        s3 = s2 * s
        return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * m0
                + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * m1)
    s2 = s * s
    return ((6 * s2 - 6 * s) * y0 / h + (3 * s2 - 4 * s + 1) * m0
            + (-6 * s2 + 6 * s) * y1 / h + (3 * s2 - 2 * s) * m1)


@dataclass
class Trajectory:
    """Dense numeric solution on [t0 - r, T]; history queries below t0
    delegate to the initial function.

    With a neutral term the acceleration jumps at the breaking points
    t0 + n r; stored node accelerations are right-hand values (derivatives
    at the solution start are right-hand by convention) and the left-hand
    values live in left_x2, so each dense interval sees the one-sided
    slopes of its own smooth piece.
    """

    t0: float
    r: float
    hstep: float
    ts: np.ndarray
    xs: np.ndarray
    x1s: np.ndarray
    x2s: np.ndarray
    theta: InitialFunction
    left_x2: dict = None
    role: str = "solution"

    @property
    def t_end(self):
        return float(self.ts[-1])

    @property
    def span(self):
        return (self.t0 - self.r, self.t_end)

    def _interval(self, t):
        # the epsilon keeps queries at grid points in the interval that
        # starts there, so breaking-point values are right-hand
        i = int(math.floor((t - self.t0) / self.hstep + 1e-9))
        return min(max(i, 0), len(self.ts) - 2)

    def _right_slope(self, i):
        if self.left_x2 and (i + 1) in self.left_x2:
            return self.left_x2[i + 1]
        return self.x2s[i + 1]

    def value(self, t, der=0, side="+"):
        """x, x' or x'' at t; exact node values at grid points.  At a
        breaking point the acceleration is right-hand unless side is
        '-'."""
        if t < self.t0 or (t == self.t0 and (der < 2 or side == "-")):
            if t < self.t0 - self.r - 1e-9:
                raise ExprError(f"query at {t} precedes the span")
            return self.theta.value(t, der)
        if t > self.t_end + 1e-9:
            raise ExprError(f"query at {t} exceeds the span")
        i = self._interval(t)
        if side == "-" and der == 2 and i > 0 and t <= self.ts[i]:
            i -= 1
        s = (t - self.ts[i]) / self.hstep
        if der == 0:
            return _hermite(self.xs[i], self.xs[i + 1], self.x1s[i],
                            self.x1s[i + 1], s, self.hstep, 0)
        if der == 1:
            return _hermite(self.x1s[i], self.x1s[i + 1], self.x2s[i],
                            self._right_slope(i), s, self.hstep, 0)
        if der == 2:
            return _hermite(self.x1s[i], self.x1s[i + 1], self.x2s[i],
                            self._right_slope(i), s, self.hstep, 1)
        raise ExprError(f"derivative order {der} not stored")

    def sample(self, ts, der=0, side="+"):
        """value over an array of times, element for element the same
        floats; a query outside the span gives NaN instead of raising."""
        if der not in (0, 1, 2):
            raise ExprError(f"derivative order {der} not stored")
        ts = np.asarray(ts, float)
        t0, h = self.t0, self.hstep
        early = (ts < t0) | ((ts == t0) & (der < 2 or side == "-"))
        # fmax/fmin also send NaN times to a valid index; they come out NaN
        i = np.floor((ts - t0) / h + 1e-9)
        i = np.fmin(np.fmax(i, 0), len(self.ts) - 2).astype(np.intp)
        if side == "-" and der == 2:
            i = np.where((i > 0) & (ts <= self.ts[i]), i - 1, i)
        s = (ts - self.ts[i]) / h
        if der == 0:
            out = _hermite(self.xs[i], self.xs[i + 1], self.x1s[i],
                           self.x1s[i + 1], s, h, 0)
        else:
            # right-hand slope of each interval: the left-hand acceleration
            # where the interval closes at a breaking point
            right = self.x2s.copy()
            for j, v in (self.left_x2 or {}).items():
                if j > 0:
                    right[j] = v
            out = _hermite(self.x1s[i], self.x1s[i + 1], self.x2s[i],
                           right[i + 1], s, h, der - 1)
        if early.any():
            out[early] = self.theta.sample(ts[early], der)
        outside = (ts < t0 - self.r - 1e-9) | (ts > self.t_end + 1e-9)
        return np.where(outside, np.nan, out)

    def breaking_points(self):
        """Times t0 + n r where propagated derivative jumps may sit."""
        out = []
        t = self.t0
        while t <= self.t_end + 1e-12:
            out.append(t)
            t += self.r
        return out

    def to_csv(self, path, points=None):
        if points is None:
            points = self.ts
        with open(path, "w") as fh:
            fh.write("t,x,xprime,xsecond\n")
            for t in points:
                fh.write(f"{float(t):.12g},{self.value(t, 0):.12g},"
                         f"{self.value(t, 1):.12g},{self.value(t, 2):.12g}\n")


def integrate(spec: NdeSpec, theta, t_end, steps_per_delay=64) -> Trajectory:
    """Classic RK4 over whole delay intervals.

    t_end must equal t0 + M r for an integer M >= 1 and steps_per_delay
    must be at least 16 so the dense history stays accurate enough for the
    neutral term.
    """
    if isinstance(theta, (str, Expr)):
        theta = InitialFunction.make(theta)
    n = int(steps_per_delay)
    if n < 16:
        raise ExprError("steps_per_delay must be at least 16")
    r, t0 = spec.r, spec.t0
    m_float = (t_end - t0) / r
    m = round(m_float)
    if m < 1 or abs(m_float - m) > 1e-9:
        raise ExprError(
            "t_end must be t0 + M*r for an integer M >= 1; got "
            f"(t_end - t0)/r = {m_float}")
    h = r / n
    total = m * n
    ts = t0 + h * np.arange(total + 1)
    xs = np.empty(total + 1)
    x1s = np.empty(total + 1)
    x2s = np.empty(total + 1)
    xs[0] = theta.value(t0, 0)
    x1s[0] = theta.value(t0, 1)

    rhs = spec.rhs_solved()
    left_x2 = {0: theta.value(t0, 2)}
    traj = Trajectory(t0=t0, r=r, hstep=h, ts=ts, xs=xs, x1s=x1s, x2s=x2s,
                      theta=theta, left_x2=left_x2)

    def hist(t, der, cap):
        """Delayed dense lookup restricted to intervals up to cap, so each
        step reads the delayed smooth piece with that piece's one-sided
        closures at its ends.  At exactly t0 the side follows the cap: a
        step closing the first piece reads theta, later steps read the
        right-hand start values."""
        if t < t0 or cap < 0 or (t == t0 and der < 2):
            return theta.value(t, der)
        if t == t0:
            return x2s[0]
        i = min(max(int((t - t0) / h + 1e-9), 0), cap)
        s = (t - ts[i]) / h
        if der == 0:
            return _hermite(xs[i], xs[i + 1], x1s[i], x1s[i + 1], s, h, 0)
        m1 = left_x2.get(i + 1, x2s[i + 1])
        if der == 1:
            return _hermite(x1s[i], x1s[i + 1], x2s[i], m1, s, h, 0)
        return _hermite(x1s[i], x1s[i + 1], x2s[i], m1, s, h, 1)

    def accel(t, x, x1, cap):
        td = t - r
        return rhs(t, x, hist(td, 0, cap), x1, hist(td, 1, cap),
                   hist(td, 2, cap))

    x2s[0] = accel(t0, xs[0], x1s[0], -1)
    for i in range(total):
        t = ts[i]
        cap = i - n  # highest delayed interval this step is allowed to read
        x, v = xs[i], x1s[i]
        a1 = accel(t, x, v, cap)
        k1x, k1v = v, a1
        a2 = accel(t + h / 2, x + h / 2 * k1x, v + h / 2 * k1v, cap)
        k2x, k2v = v + h / 2 * k1v, a2
        a3 = accel(t + h / 2, x + h / 2 * k2x, v + h / 2 * k2v, cap)
        k3x, k3v = v + h / 2 * k2v, a3
        a4 = accel(t + h, x + h * k3x, v + h * k3v, cap)
        k4x, k4v = v + h * k3v, a4
        xs[i + 1] = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        x1s[i + 1] = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (i + 1) % n == 0:
            # breaking point: keep both one-sided accelerations
            tb = ts[i + 1]
            jd = i + 1 - n
            x2r_left = theta.value(t0, 2) if jd == 0 else left_x2[jd]
            left_x2[i + 1] = rhs(tb, xs[i + 1], xs[jd] if jd >= 0
                                 else theta.value(tb - r, 0),
                                 x1s[i + 1],
                                 x1s[jd] if jd >= 0
                                 else theta.value(tb - r, 1),
                                 x2r_left)
            x2s[i + 1] = accel(tb, xs[i + 1], x1s[i + 1], i + 1 - n)
        else:
            x2s[i + 1] = accel(ts[i + 1], xs[i + 1], x1s[i + 1], i + 1 - n)
    return traj


def residual(traj: Trajectory, spec: NdeSpec, samples) -> float:
    """Max absolute equation residual over the samples, read from dense
    output."""
    worst = 0.0
    for t in samples:
        t = float(t)
        if not (traj.t0 < t <= traj.t_end):
            raise ExprError(f"sample {t} outside ({traj.t0}, {traj.t_end}]")
        td = t - spec.r
        v = (traj.value(t, 2)
             + spec.a.eval(t) * traj.value(t, 1)
             + spec.b.eval(t) * traj.value(td, 1)
             + spec.c.eval(t) * traj.value(t, 0)
             + spec.d.eval(t) * traj.value(td, 0)
             + spec.k.eval(t) * traj.value(td, 2)
             - spec.h.eval(t))
        worst = max(worst, abs(v))
    return worst


def solve_homogeneous_slot(spec: NdeSpec, seed, t_end,
                           steps_per_delay=64) -> Trajectory:
    """Concrete solution of the homogeneous equation for a rho-slot
    generator binding."""
    if not spec.h.is_zero:
        raise ExprError("rho slots require the homogeneous equation (h = 0)")
    traj = integrate(spec, seed, t_end, steps_per_delay)
    traj.role = "rho"
    return traj
