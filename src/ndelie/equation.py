"""Coefficient descriptors and the equation record for

    x'' + a x' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = h

with a single constant delay r > 0.  A descriptor is one function of t,
given either as a closed-form expression in t (zero and the exact
constants are the expressions 0 and q) or as numeric callables; it gives
both the symbolic coefficient used when building residuals and numeric
values with derivatives up to order three.  The initial function of a
method-of-steps run is a closed descriptor too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .symexpr import (
    Coeff, EvalError, Expr, ExprError, Par, Rat, T, X, X1, X1R, X2, X2R, XR,
    ZERO, atoms, check_evaluated, compile_numeric, diff, normalize, parse,
    render,
)

COEFF_NAMES = ("a", "b", "c", "d", "k", "h")

# by derivative order, the falling factorials of the powers 3, 2, 1, 0
# that the order keeps
_FALLING = (np.array([1.0, 1.0, 1.0, 1.0]), np.array([3.0, 2.0, 1.0]),
            np.array([6.0, 2.0]), np.array([6.0]))


class Spline:
    """The not-a-knot cubic spline through (x[i], y[i]) for each column of
    y (de Boor, A Practical Guide to Splines, ch. IV), continued by the end
    polynomials outside the knots; two knots give the line, three the
    parabola.  The tests hold every operation's order fixed by comparing
    the values bit for bit with a reference implementation.  `what` names
    the data in the error for a bad table."""

    def __init__(self, x, y, what):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        n = len(x)
        if n < 2:
            raise ExprError(f"{what} needs at least 2 samples, got {n}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ExprError(f"{what} has a time or value that is not finite")
        dx = np.diff(x)
        if not (dx > 0).all():
            raise ExprError(f"{what} times are not strictly increasing")
        cols = y.reshape(n, -1)
        dxr = dx[:, None]
        slope = np.diff(cols, axis=0) / dxr
        # the tridiagonal system for the slopes at the knots
        diag, upper, lower = np.ones(n), np.zeros(n - 1), np.zeros(n - 1)
        rhs = np.empty_like(cols)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 2:
            rhs[:] = slope[0]
        elif n == 3:
            upper[0] = lower[-1] = 1.0
            rhs[0] = 2 * slope[0]
            rhs[-1] = 2 * slope[1]
        else:
            # the squares are Python floats, rounded by the math library's
            # pow, which can differ from an array square in the last bit
            d0, dn = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0] = dx[1], d0
            rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0]
                      + float(dx[0]) ** 2 * slope[1]) / d0
            diag[-1], lower[-1] = dx[-2], dn
            rhs[-1] = (float(dx[-1]) ** 2 * slope[-2]
                       + (2 * dn + dx[-1]) * dx[-2] * slope[-1]) / dn
        s = _gtsv(lower.tolist(), diag.tolist(), upper.tolist(),
                  rhs.T.tolist())
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        coeffs = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1],
                           cols[:-1]))
        # per derivative order, the rows of powers it keeps, each scaled
        self.orders = [coeffs[:4 - o] * _FALLING[o][:, None, None]
                       for o in range(4)]
        self.x = x
        self.shape = y.shape[1:]

    def __call__(self, q, der=0):
        """The der-th derivative (0..3) at q, shaped q.shape + the shape of
        a row of y; a NaN time gives NaN."""
        q = np.asarray(q, float)
        flat = q.reshape(-1)
        # the interval holding each time, the end ones stretched outward
        i = np.searchsorted(self.x[1:-1], flat, "right")
        z = (flat - self.x[i])[:, None]
        res, power = 0.0, 1.0
        for row in self.orders[der][::-1, i]:
            res = res + row * power
            power = power * z
        if der == 3:
            # a constant per interval: a NaN time reads no z to carry it
            res = np.where(np.isnan(z), np.nan, res)
        return res.reshape(q.shape + self.shape)


def _number(value, what):
    """value as a float; ExprError naming what if it is no number (a JSON
    true or false is none)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ExprError(f"{what} is not a number: {value!r}")


def _gtsv(dl, d, du, cols):
    """The tridiagonal system (lists of floats: sub-, main and
    superdiagonal) solved for each right-hand side in cols, as LAPACK dgtsv
    solves it: two rows swap only where the subdiagonal entry is larger.
    One elimination serves every column; one column of the result each."""
    n = len(d)
    du2 = [0.0] * n
    steps = []
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            steps.append((False, fact))
        else:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            steps.append((True, fact))
    for b in cols:
        for i, (swap, fact) in enumerate(steps):
            if swap:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
            else:
                b[i + 1] = b[i + 1] - fact * b[i]
        b[-1] = b[-1] / d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return np.array(cols).T


@dataclass
class CoeffDescriptor:
    """One function of t: a normal-form expression, or numeric callables.

    kind 'zero'     -- the expression 0
    kind 'const'    -- an exact rational expression q
    kind 'closed'   -- any other expression in t, differentiated
                       symbolically
    kind 'numeric'  -- no expression; callables over arrays of times for
                       orders 0..3, and a cubic-spline table keeps its
                       samples, which is what its JSON form holds

    Every function of t that a compiled program reads, a descriptor or
    anything else, answers sample(ts, order).
    """

    expr: Expr | None
    fns: tuple | None = None
    samples: tuple | None = None
    # derivative expressions and their closures by order, each built on
    # first use
    _derivs: list = field(default_factory=list, repr=False, compare=False)
    _closures: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def zero(cls):
        return cls(ZERO)

    def __post_init__(self):
        if isinstance(self.expr, Rat):
            try:
                float(self.expr.q)
            except OverflowError:
                raise ExprError("a constant coefficient must be a finite "
                                "float") from None

    @classmethod
    def const(cls, value):
        try:
            return cls(Rat(Fraction(value)))
        except ZeroDivisionError:
            raise ExprError(f"const value {value!r} divides by zero") from None

    @classmethod
    def closed(cls, expr):
        if isinstance(expr, str):
            expr = parse(expr)
        expr = normalize(expr)
        for atom in atoms(expr):
            # free constants and opaque named functions of t are allowed
            if atom != T and not isinstance(atom, (Par, Coeff)):
                raise ExprError(
                    f"closed coefficient must be a function of t, found "
                    f"{render(atom)}")
        return cls(expr)

    @classmethod
    def numeric(cls, *fns):
        """fns[o] gives the o-th derivative over an array of times, or a
        value that broadcasts against them."""
        if not fns:
            raise ExprError("numeric descriptor needs at least f(t)")
        return cls(None, fns=tuple(fns))

    @classmethod
    def bound(cls, exprs, table, r):
        """Numeric descriptor whose o-th derivative is exprs[o], compiled
        and read with the functions of t in table and the delay r."""
        return cls.numeric(*(lambda t, f=compile_numeric(e): f(
            {"t": t, "r": r}, table) for e in exprs))

    @classmethod
    def from_table(cls, ts, vs):
        ts = [_number(t, "numeric table time") for t in ts]
        vs = [_number(v, "numeric table value") for v in vs]
        spline = Spline(ts, vs, "numeric table")
        return cls(None, fns=tuple(lambda t, o=o: spline(t, o)
                                   for o in range(4)),
                   samples=tuple(zip(ts, vs)))

    # -- predicates ---------------------------------------------------------

    @property
    def kind(self):
        if self.expr is None:
            return "numeric"
        if isinstance(self.expr, Rat):
            return "zero" if self.expr == ZERO else "const"
        return "closed"

    @property
    def is_zero(self):
        return self.expr == ZERO

    @property
    def is_const(self):
        return isinstance(self.expr, Rat)

    def const_value(self):
        """The exact value of a constant, None for any other kind."""
        return self.expr.q if self.is_const else None

    # -- symbolic and numeric views -----------------------------------------

    def symbolic(self, name) -> Expr:
        """Expression used when this coefficient enters a residual."""
        return Coeff(name) if self.expr is None else self.expr

    def _closure(self, order):
        """Compiled closure of the order-th derivative of the expression;
        the derivative and the closure are built on first use."""
        f = self._closures.get(order)
        if f is None:
            derivs = self._derivs
            if not derivs:
                derivs.append(self.expr)
            while len(derivs) <= order:
                derivs.append(diff(derivs[-1], T))
            f = self._closures[order] = compile_numeric(derivs[order])
        return f

    def eval(self, t, order=0):
        """The order-th derivative at t; EvalError where it has no value."""
        v = self.sample(float(t), order)
        if math.isnan(v):
            what = self.kind if self.expr is None else render(self.expr)
            raise EvalError(f"coefficient {what} has no value at t = {t}")
        return v

    def sample(self, ts, order=0):
        """The order-th derivative over an array of times, or a float at a
        float time; NaN marks a time where it has no value."""
        if isinstance(ts, float):
            return float(self._values(ts, order))
        ts = np.asarray(ts, float)
        return np.broadcast_to(self._values(ts, order), ts.shape)

    def _values(self, t, order):
        """The order-th derivative at a float or an array of times: an
        expression through its compiled closure, or the order's
        callable."""
        if not 0 <= order <= 3:
            raise ExprError(f"derivative order {order} is not in 0..3")
        if self.expr is not None:
            try:
                return self._closure(order)({"t": t}, None)
            except KeyError as err:
                raise EvalError(f"unbound symbol {err.args[0]} in "
                                f"{render(self.expr)}") from None
        if order >= len(self.fns):
            raise EvalError("numeric descriptor supplies orders "
                            f"0..{len(self.fns) - 1}")
        return self.fns[order](t)

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        kind = self.kind
        if kind == "zero":
            return {"kind": "zero"}
        if kind == "const":
            return {"kind": "const", "value": str(self.expr.q)}
        if kind == "closed":
            return {"kind": "closed", "expr": render(self.expr)}
        if self.samples is None:
            raise ExprError("a numeric descriptor built from callables has "
                            "no JSON form; build it from a table")
        return {"kind": "numeric-table",
                "samples": [list(p) for p in self.samples]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ExprError(f"a descriptor is a JSON object, not {obj!r}")
        kind = obj.get("kind")

        def need(key):
            if key not in obj:
                raise ExprError(f"{kind} descriptor has no {key!r}")
            return obj[key]

        if kind == "zero":
            return cls.zero()
        if kind == "const":
            return cls.const(str(need("value")))
        if kind == "closed":
            return cls.closed(need("expr"))
        if kind == "numeric-table":
            samples = need("samples")
            if not isinstance(samples, list) or not all(
                    isinstance(s, list) and len(s) == 2 for s in samples):
                raise ExprError("numeric table samples must be [t, value] "
                                "pairs")
            return cls.from_table([s[0] for s in samples],
                                  [s[1] for s in samples])
        raise ExprError(f"unknown descriptor kind {kind!r}")


@dataclass
class NdeSpec:
    """The equation x'' + a x' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = h."""

    a: CoeffDescriptor
    b: CoeffDescriptor
    c: CoeffDescriptor
    d: CoeffDescriptor
    k: CoeffDescriptor
    h: CoeffDescriptor
    r: float
    t0: float = 0.0

    def __post_init__(self):
        if not (0 < self.r < math.inf and math.isfinite(self.t0)):
            raise ExprError("the delay r must be positive and finite and t0 "
                            f"finite, not r = {self.r!r}, t0 = {self.t0!r}")

    @classmethod
    def make(cls, *, a=None, b=None, c=None, d=None, k=None, h=None,
             r=1.0, t0=0.0):
        def coerce(v):
            if v is None:
                return CoeffDescriptor.zero()
            if isinstance(v, CoeffDescriptor):
                return v
            if isinstance(v, (int, Fraction)):
                return CoeffDescriptor.const(v)
            if isinstance(v, (str, Expr)):
                return CoeffDescriptor.closed(v)
            raise ExprError(f"cannot build a descriptor from {v!r}")

        return cls(coerce(a), coerce(b), coerce(c), coerce(d), coerce(k),
                   coerce(h), float(r), float(t0))

    def descriptors(self):
        return dict(zip(COEFF_NAMES,
                        (self.a, self.b, self.c, self.d, self.k, self.h)))

    def fn_table(self):
        """The coefficients that enter a residual as functions of t."""
        return {name: desc for name, desc in self.descriptors().items()
                if desc.kind in ("closed", "numeric")}

    def residual(self, curve, ts):
        """x'' + a x' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) - h of a
        curve at each time of a 1-D array, reading the curve once, at ts
        and ts - r together (its jets(ts) works element by element).
        Raises ExprError where a term cannot be evaluated.  A Trajectory
        read at its t_end gives x'' there from the left but x''(t_end - r)
        from the right, so on a neutral equation that value pairs the two
        sides of a jump; ndesolve.residual is the read capped for that."""
        ts = np.asarray(ts, float)
        both = np.concatenate([ts, ts - self.r])
        (x0, xr), (x1, x1r), (x2, x2r) = curve.jets(both).reshape(3, 2, -1)
        out = (x2 + self.a.sample(ts) * x1 + self.b.sample(ts) * x1r
               + self.c.sample(ts) * x0 + self.d.sample(ts) * xr
               + self.k.sample(ts) * x2r - self.h.sample(ts))
        check_evaluated("the equation residual", ts, out)
        return out

    def residual_expr(self) -> Expr:
        """Symbolic h-moved-left residual of the full equation."""
        return normalize(
            X2 + self.a.symbolic("a") * X1 + self.b.symbolic("b") * X1R
            + self.c.symbolic("c") * X + self.d.symbolic("d") * XR
            + self.k.symbolic("k") * X2R - self.h.symbolic("h"))

    def to_json(self):
        out = {name: desc.to_json()
               for name, desc in self.descriptors().items()}
        out["r"] = self.r
        out["t0"] = self.t0
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ExprError(f"a spec is a JSON object, not {obj!r}")
        unknown = [key for key in obj if key not in (*COEFF_NAMES, "r", "t0")]
        if unknown:
            raise ExprError(f"unknown spec key {unknown[0]!r}")
        kwargs = {}
        for name in COEFF_NAMES:  # an absent coefficient is zero
            try:
                kwargs[name] = CoeffDescriptor.from_json(
                    obj.get(name, {"kind": "zero"}))
            except (ExprError, ValueError) as err:  # a bad const value
                raise ExprError(f"coefficient {name}: {err}") from None
        if "r" not in obj:
            raise ExprError("the spec has no delay 'r'")
        r, t0 = (_number(obj.get(key, 0.0), repr(key)) for key in ("r", "t0"))
        return cls(r=r, t0=t0, **kwargs)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
