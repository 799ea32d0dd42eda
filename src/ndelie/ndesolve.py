"""Fixed-step method-of-steps integrator for

    x'' = h - a x' - b x'(t-r) - c x - d x(t-r) - k x''(t-r)

with a closed-form initial function on [t0-r, t0], held as a closed
CoeffDescriptor so its first two derivatives are exact.

The step size divides the delay exactly, so every delayed lookup falls in a
completed interval and RK4 stage points land on earlier nodes and midpoints
where the dense output is most accurate.  Dense output is cubic Hermite for
x (from x, x') and for x' (from x', x''); the delayed acceleration is the
derivative of the x' interpolant.  Derivative jumps propagate at t0 + n r
and coincide with interval boundaries, so no step straddles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .equation import CoeffDescriptor, NdeSpec
from .symexpr import EvalError, Expr, ExprError, check_evaluated


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
    t0 + n r; x2s holds the right-hand acceleration at every node
    (derivatives at the solution start are right-hand by convention) and
    x2l the left-hand one, equal to x2s except at the breaking points, so
    each dense interval sees the one-sided slopes of its own smooth piece.
    """

    t0: float
    r: float
    hstep: float
    ts: np.ndarray
    xs: np.ndarray
    x1s: np.ndarray
    x2s: np.ndarray
    x2l: np.ndarray
    theta: CoeffDescriptor

    @property
    def t_end(self):
        return float(self.ts[-1])

    @property
    def steps_per_delay(self):
        return round(self.r / self.hstep)

    @property
    def span(self):
        return (self.t0 - self.r, self.t_end)

    def value(self, t, der=0):
        """x, x' or x'' at t; exact node values at grid points, and the
        right-hand acceleration at a breaking point before t_end.  t_end
        has no interval to its right, so x'' there is the left-hand one."""
        v = float(self.sample(t, der))
        if math.isnan(v):
            lo, hi = self.span
            raise ExprError(f"no value at {t} on the span [{lo}, {hi}]")
        return v

    def sample(self, ts, der=0):
        """value over an array of times; a query outside the span gives NaN
        instead of raising, and an order above 2 raises EvalError."""
        if der not in (0, 1, 2):
            raise EvalError(f"derivative order {der} not stored")
        return self._read(ts, (der,), None)[0]

    def jets(self, ts, cap=None):
        """x, x' and x'' over an array of times, as sample reads each order
        but with each time located once: shape (3,) + ts.shape.

        cap is the highest dense interval each query may read; a negative
        cap reads the initial function.  A cap of n - 1 at node n reads its
        left-hand x''; the integrator caps each step at the intervals
        already complete, so a delayed read sees its own smooth piece."""
        return self._read(ts, (0, 1, 2), cap)

    def _read(self, ts, orders, cap):
        """The given orders over an array of times, one row each; a time
        reads no dense interval above its cap."""
        ts = np.asarray(ts, float)
        flat = ts.reshape(-1)
        t0, h = self.t0, self.hstep
        # the epsilon keeps queries at grid points in the interval that
        # starts there, so breaking-point values are right-hand; fmax/fmin
        # also send NaN times to a valid index, and they come out NaN
        i = np.floor((flat - t0) / h + 1e-9)
        i = np.fmin(np.fmax(i, 0), len(self.ts) - 2).astype(np.intp)
        # the times the initial function answers: those before t0 or capped
        # below the first interval, and t0 itself for x and x' (x'' is
        # right-hand there)
        early2 = flat < t0
        if cap is not None:
            early2 |= np.less(cap, 0)
            i = np.maximum(np.minimum(i, cap), 0)
        early = early2 | (flat == t0)
        s = (flat - self.ts[i]) / h
        j = i + 1
        v0, v1 = self.x1s[i], self.x1s[j]
        out = np.empty((len(orders), len(flat)))
        for row, der in enumerate(orders):
            if der == 0:
                out[row] = _hermite(self.xs[i], self.xs[j], v0, v1, s, h, 0)
            else:  # an interval closes on the left-hand x'' of its end
                out[row] = _hermite(v0, v1, self.x2s[i], self.x2l[j], s, h,
                                    der - 1)
            mask = early2 if der == 2 else early
            if mask.any():
                out[row, mask] = self.theta.sample(flat[mask], der)
        outside = (flat < t0 - self.r - 1e-9) | (flat > self.t_end + 1e-9)
        out[:, outside] = np.nan
        return out.reshape(out.shape[:1] + ts.shape)

    def breaking_points(self):
        """The nodes at t0 + n r, where propagated derivative jumps may
        sit."""
        return self.ts[::self.steps_per_delay]

    def to_csv(self, path, points=None):
        _write_csv(path, self, self.ts if points is None else points)


def _write_csv(path, curve, ts):
    """t, x, x' and x'' of a curve at the given times, one row each; the
    curve answers jets(ts) over arrays."""
    ts = np.asarray(ts, float)
    cols = curve.jets(ts)
    check_evaluated("the curve", ts, cols)
    with open(path, "w") as fh:
        fh.write("t,x,xprime,xsecond\n")
        for row in zip(ts.tolist(), *cols.tolist()):
            fh.write("{:.12g},{:.12g},{:.12g},{:.12g}\n".format(*row))


def stage_times(ts, h):
    """The times every RK4 step over the grid ts reads, with h its step
    size (a scalar, or one per step): the nodes, then each step's midpoint
    and then its end.  Stage s of step i reads column i + offsets[s]."""
    n = len(ts)
    times = np.concatenate([ts, ts[:-1] + h / 2, ts[:-1] + h])
    return times, (0, n, 2 * n - 1)


def rk4_step(f, y, h):
    """One classic RK4 step of y' = f(s, y) of size h, where s names the
    stage: 0 at the start, 1 at the midpoint (twice) and 2 at the end, as
    stage_times orders their columns.  y is a scalar (compatibility_c) or
    a numpy array (the flows); integrate and the omega chain write the
    step out on floats in its operations and order."""
    k1 = f(0, y)
    k2 = f(1, y + h / 2 * k1)
    k3 = f(1, y + h / 2 * k2)
    k4 = f(2, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _accel(row, x, v):
    """x'' = h - a x' - b x'(t-r) - c x - d x(t-r) - k x''(t-r), with row
    holding (h, a, b x'(t-r), c, d x(t-r), k x''(t-r)): the delayed terms
    come as their products."""
    hc, ac, bx1r, cc, dxr, kx2r = row
    return hc - ac * v - bx1r - cc * x - dxr - kx2r


def integrate(spec: NdeSpec, theta, t_end, steps_per_delay=64) -> Trajectory:
    """Classic RK4 over whole delay intervals, one chain of floats per
    interval in rk4_step's operations and order: x' with the equation's
    stages, x with their velocities.  Each interval reads its delayed
    history with one capped jets call, and every stage time gets the row
    (h, a, b x'(t-r), c, d x(t-r), k x''(t-r)) that _accel takes, the
    delayed products formed as arrays.

    t_end must equal t0 + M r for an integer M >= 1 and steps_per_delay
    must be a whole number, at least 16 so the dense history stays accurate
    enough for the neutral term.
    """
    if isinstance(theta, (str, Expr)):
        theta = CoeffDescriptor.closed(theta)
    if not (steps_per_delay >= 16 and steps_per_delay % 1 == 0):
        raise ExprError("steps_per_delay must be a whole number of at least "
                        f"16; got {steps_per_delay!r}")
    n = int(steps_per_delay)
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
    xs = np.zeros(total + 1)
    x1s = np.zeros(total + 1)
    x2s = np.zeros(total + 1)
    x2l = np.zeros(total + 1)
    xs[0] = theta.eval(t0, 0)
    x1s[0] = theta.eval(t0, 1)
    x2l[0] = theta.eval(t0, 2)
    traj = Trajectory(t0=t0, r=r, hstep=h, ts=ts, xs=xs, x1s=x1s, x2s=x2s,
                      x2l=x2l, theta=theta)
    # the coefficients (h, a, b, c, d, k) at every node, then every
    # mid-step and every step-end time
    times, off = stage_times(ts, h)
    coefs = np.array([desc.sample(times) for desc in (
        spec.h, spec.a, spec.b, spec.c, spec.d, spec.k)])
    check_evaluated("a coefficient", times, coefs)

    x, v = float(xs[0]), float(x1s[0])
    h2, h6 = h / 2, h / 6
    for i in range(0, total + 1, n):
        if i:
            # breaking point: keep the left-hand acceleration too
            jd = i - n
            hc, ac, bc, cc, dc, kc = coefs[:, i]
            x2l[i] = _accel((hc, ac, bc * x1s[jd], cc, dc * xs[jd],
                             kc * x2l[jd]), x, v)
        # rows for this delay interval's n nodes and the mid- and end-stage
        # times of its n steps (the last interval holds only the final
        # node); each delayed read is capped at the last interval complete
        # when its step runs, the step index minus n
        nodes = np.arange(i, min(i + n, total + 1))
        steps = nodes[nodes < total]
        at = np.concatenate([nodes, steps + off[1], steps + off[2]])
        td = times[at] - r
        cap = np.concatenate([nodes, steps, steps]) - n
        past = traj.jets(td, cap)
        check_evaluated("the delayed history", td, past)
        # b, d and k times x'(t-r), x(t-r) and x''(t-r) in _accel's row
        rows = coefs[:, at]
        rows[[2, 4, 5]] *= past[[1, 0, 2]]
        rows = rows.T.tolist()
        if i == total:
            x2s[i] = _accel(rows[0], x, v)
            break
        # one RK4 step per node, whose own x'' is the first stage; stage s
        # reads x at (h/2) s times the last stage velocity
        out = []  # x'' at each node, then x and x' at the step's end
        for q in range(n):
            a0 = _accel(rows[q], x, v)
            w2 = v + h2 * a0
            a2 = _accel(rows[n + q], x + h2 * v, w2)
            w3 = v + h2 * a2
            a3 = _accel(rows[n + q], x + h2 * w2, w3)
            w4 = v + h * a3
            a4 = _accel(rows[2 * n + q], x + h2 * 2 * w3, w4)
            x, v = (x + h6 * (v + 2 * w2 + 2 * w3 + w4),
                    v + h6 * (a0 + 2 * a2 + 2 * a3 + a4))
            out += a0, x, v
        # the interval's history, complete before the next one reads it;
        # off the breaking points x'' is continuous
        x2s[i:i + n], xs[i + 1:i + n + 1], x1s[i + 1:i + n + 1] = (
            out[0::3], out[1::3], out[2::3])
        x2l[i + 1:i + n] = out[3::3]
    return traj


def residual(traj: Trajectory, spec: NdeSpec, samples) -> float:
    """Max absolute equation residual over the samples, read from dense
    output.  x''(t_end) has only its left side, so every delayed read is
    capped at the interval ending at t_end - r: x''(t_end - r) is read from
    the left too, and no other read is moved."""
    ts = np.asarray(samples, float)
    if ts.size == 0:
        raise ExprError("no sample times for the residual")
    inside = (traj.t0 < ts) & (ts <= traj.t_end)
    if not inside.all():
        raise ExprError(f"sample {ts[~inside][0]} outside "
                        f"({traj.t0}, {traj.t_end}]")
    last = len(traj.ts) - 2  # the last dense interval
    cap = np.repeat([last, last - traj.steps_per_delay], ts.size)
    left = SimpleNamespace(jets=lambda both: traj.jets(both, cap))
    return float(np.max(np.abs(spec.residual(left, ts))))
