"""Coefficient descriptors and the equation record for

    x'' + a x' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = h

with a single constant delay r > 0.  Descriptors carry one of four kinds
(zero, exact constant, closed-form expression in t, numeric callable) and
can produce both the symbolic coefficient used when building residuals and
numeric values with derivatives up to order three.
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


@dataclass
class CoeffDescriptor:
    """One coefficient of the equation.

    kind 'zero'     -- identically zero
    kind 'const'    -- exact rational value, optionally carrying a name
    kind 'closed'   -- closed-form Expr in t, differentiable symbolically
    kind 'numeric'  -- callables for orders 0..3; a cubic-spline table
                       keeps its samples, which is what its JSON form holds
    """

    kind: str
    value: Fraction | None = None
    const_name: str | None = None
    expr: Expr | None = None
    fns: tuple | None = None
    nonvanishing: bool | None = None
    samples: tuple | None = None
    # closed kind: derivative expressions and their closures by order,
    # each built on first use
    _derivs: list = field(default_factory=list, repr=False, compare=False)
    _closures: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def const(cls, value, name=None, nonvanishing=None):
        value = Fraction(value)
        if value == 0 and name is None:
            return cls.zero()
        return cls("const", value=value, const_name=name,
                   nonvanishing=nonvanishing)

    @classmethod
    def closed(cls, expr, nonvanishing=None):
        if isinstance(expr, str):
            expr = parse(expr)
        expr = normalize(expr)
        if isinstance(expr, Rat):
            return cls.const(expr.q, nonvanishing=nonvanishing)
        for atom in atoms(expr):
            if not isinstance(atom, (Par,)) and atom != T:
                if isinstance(atom, Coeff):
                    continue  # opaque named function of t is allowed
                raise ExprError(
                    f"closed coefficient must be a function of t, found "
                    f"{render(atom)}")
        return cls("closed", expr=expr, nonvanishing=nonvanishing)

    @classmethod
    def numeric(cls, *fns, nonvanishing=None):
        if not fns:
            raise ExprError("numeric descriptor needs at least f(t)")
        return cls("numeric", fns=tuple(fns), nonvanishing=nonvanishing)

    @classmethod
    def from_table(cls, ts, vs, nonvanishing=None):
        from scipy.interpolate import CubicSpline

        ts = [float(t) for t in ts]
        vs = [float(v) for v in vs]
        spline = CubicSpline(np.asarray(ts), np.asarray(vs))
        ders = [spline] + [spline.derivative(i) for i in range(1, 4)]
        return cls("numeric",
                   fns=tuple((lambda d: (lambda t: float(d(t))))(d)
                             for d in ders),
                   nonvanishing=nonvanishing, samples=tuple(zip(ts, vs)))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return self.kind == "zero"

    @property
    def is_const(self):
        return self.kind in ("zero", "const")

    def const_value(self):
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "const":
            return self.value
        return None

    # -- symbolic and numeric views -----------------------------------------

    def symbolic(self, name) -> Expr:
        """Expression used when this coefficient enters a residual."""
        if self.kind == "zero":
            return ZERO
        if self.kind == "const":
            if self.const_name is not None and self.value is None:
                return Par(self.const_name)
            return Rat(self.value)
        if self.kind == "closed":
            return self.expr
        return Coeff(name)

    def _closure(self, order):
        """Compiled closure of the order-th derivative of a closed form;
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
        v = float(self._values(float(t), order))
        if math.isnan(v):
            what = render(self.expr) if self.kind == "closed" else self.kind
            raise EvalError(f"coefficient {what} has no value at t = {t}")
        return v

    def sample(self, ts, order=0):
        """The order-th derivative over an array of times; NaN marks a time
        where it has no value."""
        ts = np.asarray(ts, float)
        return np.broadcast_to(self._values(ts, order), ts.shape)

    def _values(self, t, order):
        """The order-th derivative at a float or an array of times: a
        constant as one float, a closed form through its compiled closure,
        a numeric one point by point."""
        if not 0 <= order <= 3:
            raise ExprError(f"derivative order {order} is not in 0..3")
        if self.kind == "closed":
            return self._closure(order)({"t": t}, None)
        if self.kind == "numeric":
            if order >= len(self.fns):
                raise ExprError("numeric descriptor supplies orders "
                                f"0..{len(self.fns) - 1}")
            f = self.fns[order]
            return np.array([f(x) for x in np.ravel(t).tolist()],
                            float).reshape(np.shape(t))
        if self.kind == "const" and order == 0:
            return float(self.value)
        return 0.0

    def fn_entry(self):
        """Entry for a symexpr fn_table: callables over arrays of times,
        indexed by order."""
        return [lambda t, o=o: self.sample(t, o) for o in range(4)]

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        if self.kind == "zero":
            return {"kind": "zero"}
        if self.kind == "const":
            out = {"kind": "const", "value": str(self.value)}
            if self.const_name:
                out["name"] = self.const_name
            return out
        if self.kind == "closed":
            return {"kind": "closed", "expr": render(self.expr)}
        if self.samples is None:
            raise ExprError("a numeric descriptor built from callables has "
                            "no JSON form; build it from a table")
        return {"kind": "numeric-table",
                "samples": [list(p) for p in self.samples]}

    @classmethod
    def from_json(cls, obj):
        kind = obj.get("kind")
        if kind == "zero":
            return cls.zero()
        if kind == "const":
            return cls.const(Fraction(str(obj["value"])),
                             name=obj.get("name"))
        if kind == "closed":
            return cls.closed(obj["expr"])
        if kind == "numeric-table":
            samples = obj["samples"]
            ts = [s[0] for s in samples]
            vs = [s[1] for s in samples]
            return cls.from_table(ts, vs)
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
        if not self.r > 0:
            raise ExprError("delay r must be positive")

    @classmethod
    def make(cls, *, a=None, b=None, c=None, d=None, k=None, h=None,
             r=1.0, t0=0.0):
        def coerce(v):
            if v is None:
                return CoeffDescriptor.zero()
            if isinstance(v, CoeffDescriptor):
                return v
            if isinstance(v, str):
                return CoeffDescriptor.closed(v)
            if isinstance(v, (int, Fraction)):
                return CoeffDescriptor.const(v)
            if isinstance(v, Expr):
                return CoeffDescriptor.closed(v)
            raise ExprError(f"cannot build a descriptor from {v!r}")

        return cls(coerce(a), coerce(b), coerce(c), coerce(d), coerce(k),
                   coerce(h), float(r), float(t0))

    def descriptors(self):
        return dict(zip(COEFF_NAMES,
                        (self.a, self.b, self.c, self.d, self.k, self.h)))

    def fn_table(self):
        return {name: desc.fn_entry()
                for name, desc in self.descriptors().items()
                if desc.kind in ("closed", "numeric")}

    def residual(self, curve, ts):
        """x'' + a x' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) - h of a
        curve at each time; the curve answers sample(ts, der) over arrays.
        Raises ExprError where a term cannot be evaluated."""
        ts = np.asarray(ts, float)
        td = ts - self.r
        out = (curve.sample(ts, 2)
               + self.a.sample(ts) * curve.sample(ts, 1)
               + self.b.sample(ts) * curve.sample(td, 1)
               + self.c.sample(ts) * curve.sample(ts, 0)
               + self.d.sample(ts) * curve.sample(td, 0)
               + self.k.sample(ts) * curve.sample(td, 2)
               - self.h.sample(ts))
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
        kwargs = {}
        for name in COEFF_NAMES:
            if name in obj:
                kwargs[name] = CoeffDescriptor.from_json(obj[name])
            else:
                kwargs[name] = CoeffDescriptor.zero()
        return cls(r=float(obj["r"]), t0=float(obj.get("t0", 0.0)), **kwargs)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
