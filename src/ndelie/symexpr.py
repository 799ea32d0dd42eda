"""Small exact-arithmetic expression kernel for the jet space of a delayed
second-order equation.

Expressions are built from rational constants, parameters (c1, c2, ..., and
the reserved delay symbol r), the seven jet coordinates
t, x, x(t-r), x', x'(t-r), x'', x''(t-r), named coefficient functions of t or
t-r with up to three primes, integer powers, and the elementary functions
sin, cos, exp, ln, sqrt.

The kernel provides a canonical normal form (expanded sums of ordered
monomials with exact rational coefficients), partial differentiation, the
delay shift t -> t-r, simultaneous substitution, coefficient collection by
jet monomials, and IEEE-double evaluation.  No trigonometric or exponential
identities are applied beyond literal constant folding; callers that need
such identities use numeric sampling instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class ExprError(Exception):
    """Malformed expression or unsupported operation."""


class ParseError(ExprError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ExprError):
    """Unbound symbol or numeric domain violation during evaluation."""


_JET_TAGS = ("t", "x", "xr", "x1", "x1r", "x2", "x2r")
_JET_INDEX = {tag: i for i, tag in enumerate(_JET_TAGS)}
_FN_NAMES = ("sin", "cos", "exp", "ln", "sqrt")
_FN_INDEX = {name: i for i, name in enumerate(_FN_NAMES)}
_MAX_COEFF_ORDER = 3


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(Fraction(v))
    raise ExprError(f"cannot coerce {v!r} to an expression")


class Expr:
    """Immutable expression node.  Arithmetic operators build raw trees;
    call normalize() for the canonical form."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _as_expr(other)))

    def __radd__(self, other):
        return Sum((_as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Prod((Rat(Fraction(-1)), _as_expr(other)))))

    def __rsub__(self, other):
        return Sum((_as_expr(other), Prod((Rat(Fraction(-1)), self))))

    def __mul__(self, other):
        return Prod((self, _as_expr(other)))

    def __rmul__(self, other):
        return Prod((_as_expr(other), self))

    def __truediv__(self, other):
        other = _as_expr(other)
        if isinstance(other, Rat):
            if other.q == 0:
                raise ExprError("division by zero")
            return Prod((Rat(1 / other.q), self))
        return Prod((self, Pow(other, -1)))

    def __rtruediv__(self, other):
        return Prod((_as_expr(other), Pow(self, -1)))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ExprError("only integer exponents are supported")
        return Pow(self, n)

    def __neg__(self):
        return Prod((Rat(Fraction(-1)), self))

    def __repr__(self):
        return render(self)

    def __getstate__(self):
        # caches stay behind: string hashes differ between processes
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass(frozen=True, repr=False)
class Rat(Expr):
    """Exact rational constant; floats never enter expressions."""

    q: Fraction

    def __post_init__(self):
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))


@dataclass(frozen=True, repr=False)
class Par(Expr):
    """Named parameter (c1..c99, the delay r, ...)."""

    name: str


@dataclass(frozen=True, repr=False)
class Jet(Expr):
    """One of the seven jet coordinates; delayed values are independent
    symbols from their undelayed counterparts."""

    tag: str

    def __post_init__(self):
        if self.tag not in _JET_INDEX:
            raise ExprError(f"unknown jet tag {self.tag!r}")


@dataclass(frozen=True, repr=False)
class Coeff(Expr):
    """Named coefficient function of t (or of t-r when delayed), carrying a
    derivative order 0..3."""

    name: str
    delayed: bool = False
    order: int = 0

    def __post_init__(self):
        if not (0 <= self.order <= _MAX_COEFF_ORDER):
            raise ExprError(
                f"derivative order {self.order} of {self.name} exceeds "
                f"{_MAX_COEFF_ORDER}"
            )


@dataclass(frozen=True, repr=False)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))

    def __getattr__(self, name):
        # a normal form's sum builds its terms the first time they are
        # read, from the sorted factors _rebuild leaves and its _poly
        d = self.__dict__
        if name != "terms" or "_pending" not in d:
            raise AttributeError(name)
        poly = d["_poly"]
        terms = d["terms"] = tuple(_term_expr(f, poly[m])
                                   for f, m in d.pop("_pending"))
        return terms


@dataclass(frozen=True, repr=False)
class Prod(Expr):
    factors: tuple

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    """Integer power.  Negative exponents are allowed; the polynomial layer
    keeps multi-term bases with negative exponents opaque."""

    base: Expr
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ExprError("exponent must be an integer")


@dataclass(frozen=True, repr=False)
class App(Expr):
    """Application of an elementary function."""

    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in _FN_INDEX:
            raise ExprError(f"unknown function {self.fn!r}")


def _cached_hash(self):
    """The dataclass hash, of the tuple of the fields, once per node."""
    d = self.__dict__
    h = d.get("_hash")
    if h is None:
        h = d["_hash"] = hash(tuple(getattr(self, f)
                                    for f in self.__dataclass_fields__))
    return h


for _cls in (Rat, Par, Jet, Coeff, Sum, Prod, Pow, App):
    _cls.__hash__ = _cached_hash


T = Jet("t")
X = Jet("x")
XR = Jet("xr")
X1 = Jet("x1")
X1R = Jet("x1r")
X2 = Jet("x2")
X2R = Jet("x2r")
R = Par("r")

ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def num(v) -> Rat:
    """Exact rational literal."""
    return Rat(Fraction(v))


def fn(name, delayed=False, order=0) -> Coeff:
    return Coeff(name, delayed, order)


def _operands(e):
    """The child nodes of e, none for a leaf."""
    if isinstance(e, (Sum, Prod)):
        return e.terms if isinstance(e, Sum) else e.factors
    return ((e.base,) if isinstance(e, Pow)
            else (e.arg,) if isinstance(e, App) else ())


# ---------------------------------------------------------------------------
# canonical ordering


@functools.lru_cache(maxsize=256)
def _natkey(name):
    m = re.fullmatch(r"([A-Za-z_]*)(\d*)", name)
    if m is None:
        return (name, -1, name)
    alpha, digits = m.groups()
    # the name last, so that c1 and c01 still differ
    return (alpha, int(digits) if digits else -1, name)


def _skey(e):
    """Total structural order on canonical expressions.  Atom ranks follow
    Parameter < Coeff < Jet < App; composite bases sort last.  Computed
    once per node."""
    d = e.__dict__
    k = d.get("_skey")
    if k is None:
        k = d["_skey"] = _skey_of(e)
    return k


def _skey_of(e):
    if isinstance(e, Rat):
        return (0, e.q.numerator, e.q.denominator)
    if isinstance(e, Par):
        return (1,) + _natkey(e.name)
    if isinstance(e, Coeff):
        return (2,) + _natkey(e.name) + (int(e.delayed), e.order)
    if isinstance(e, Jet):
        return (3, _JET_INDEX[e.tag])
    if isinstance(e, App):
        return (4, _FN_INDEX[e.fn], _skey(e.arg))
    if isinstance(e, Pow):
        return (5, _skey(e.base), e.n)
    if isinstance(e, Prod):
        return (6,) + tuple(_skey(f) for f in e.factors)
    if isinstance(e, Sum):
        return (7,) + tuple(_skey(t) for t in e.terms)
    raise ExprError(f"unexpected node {e!r}")


# ---------------------------------------------------------------------------
# normal form

# A polynomial is a dict {monomial: coefficient}.  A monomial is a tuple of
# (atom id, exponent) pairs sorted by id, and a coefficient is an int where
# it is integral and a Fraction otherwise.  Atoms are Par/Coeff/Jet/App
# nodes, or whole canonical Sums serving as opaque bases of negative powers.
# An atom gets the next id the first time the kernel meets it, and an equal
# atom met later gets the same id, cached on each node as _id; _ATOMS and
# _SKEYS map an id back to its atom and to that atom's _skey.  Node order
# is _skey order, restored once per monomial when nodes are built
# (_in_skey_order), so the ids never reach a canonical form.  An id is
# never reused, and a pickled node drops its _id with its other caches, so
# an id names one atom for the life of the process and never leaves it.
# The table keeps every atom it numbers, so it grows with the distinct
# atoms a process meets, not with the expressions built from them.
# _poly may return a dict that a canonical node keeps (see _rebuild), so no
# polynomial it returns is ever mutated; only a dict built here is.

_IDS = {}
_ATOMS = []
_SKEYS = []


def _atom_id(a):
    """The id of an atom, given the first time the kernel meets it."""
    d = a.__dict__
    i = d.get("_id")
    if i is None:
        i = _IDS.get(a)
        if i is None:
            i = _IDS[a] = len(_ATOMS)
            _ATOMS.append(a)
            _SKEYS.append(_skey(a))
        d["_id"] = i
    return i


def _in_skey_order(mono):
    """The (_skey, exponent, id) of each factor of a monomial, in node
    order."""
    return sorted([(_SKEYS[i], n, i) for i, n in mono])


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        f1, f2 = m1[i], m2[j]
        if f1[0] < f2[0]:
            out.append(f1)
            i += 1
        elif f2[0] < f1[0]:
            out.append(f2)
            j += 1
        else:
            n = f1[1] + f2[1]
            if n:
                out.append((f1[0], n))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _rational(c):
    """A Fraction coefficient as an int where it is integral."""
    return c.numerator if c.denominator == 1 else c


def _poly_add_term(out, m, c):
    """Add the term c*m into out, which the caller owns."""
    s = out.get(m)
    if s is not None:
        c += s
        if not c:
            del out[m]
            return
    out[m] = c if type(c) is int else _rational(c)


def _poly_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _poly_add_term(out, _mono_mul(m1, m2), c1 * c2)
    return out


def _poly_pow(p, n):
    result = {(): 1}
    while n > 0:
        if n & 1:
            result = _poly_mul(result, p)
        n >>= 1
        if n:
            p = _poly_mul(p, p)
    return result


def _atom_poly(a):
    return {((_atom_id(a), 1),): 1}


def _fold_app(name, arg):
    """Literal constant folding only; no identities between functions."""
    if isinstance(arg, Rat):
        q = arg.q
        if name == "sin" and q == 0:
            return ZERO
        if name == "cos" and q == 0:
            return ONE
        if name == "exp" and q == 0:
            return ONE
        if name == "ln":
            if q == 1:
                return ZERO
            if q <= 0:
                raise ExprError(f"ln of non-positive constant {q}")
        if name == "sqrt":
            if q < 0:
                raise ExprError(f"sqrt of negative constant {q}")
            if q == 0:
                return ZERO
            rn = math.isqrt(q.numerator)
            rd = math.isqrt(q.denominator)
            if rn * rn == q.numerator and rd * rd == q.denominator:
                return Rat(Fraction(rn, rd))
    return App(name, arg)


def _poly(e):
    p = e.__dict__.get("_poly")
    if p is not None:
        return p
    if isinstance(e, Rat):
        return {} if e.q == 0 else {(): _rational(e.q)}
    if isinstance(e, (Par, Jet, Coeff)):
        return _atom_poly(e)
    if isinstance(e, App):
        arg = normalize(e.arg)
        if arg is e.arg and not isinstance(arg, Rat):
            return _atom_poly(e)  # nothing to fold, e is canonical
        folded = _fold_app(e.fn, arg)
        if isinstance(folded, Rat):
            return _poly(folded)
        return _atom_poly(folded)
    if isinstance(e, Sum):
        out = {}
        for t in e.terms:
            for m, c in _poly(t).items():
                _poly_add_term(out, m, c)
        return out
    if isinstance(e, Prod):
        out = None
        for f in e.factors:
            q = _poly(f)
            out = q if out is None else _poly_mul(out, q)
        return {(): 1} if out is None else out
    if isinstance(e, Pow):
        if e.n == 0:
            return {(): 1}
        p = _poly(e.base)
        if e.n > 0:
            return _poly_pow(p, e.n)
        if not p:
            raise ExprError("negative power of zero")
        if len(p) == 1:
            ((mono, coeff),) = p.items()
            # an int to a negative power would be a float
            coeff = _rational(Fraction(coeff) ** e.n)
            scaled = tuple((a, k * e.n) for a, k in mono)
            if not any(k > 0 and isinstance(_ATOMS[a], Sum)
                       for a, k in scaled):
                # scaling exponents by a constant keeps the id order
                return {scaled: coeff}
            # a sum atom raised to a positive power again is expanded
            out = {(): coeff}
            for a, k in scaled:
                out = _poly_mul(out, _poly_pow(_poly(_ATOMS[a]), k)
                                if k > 0 and isinstance(_ATOMS[a], Sum)
                                else {((a, k),): 1})
            return out
        return {((_atom_id(_rebuild(p)), e.n),): 1}
    raise ExprError(f"unexpected node {e!r}")


def _term_expr(factors, coeff):
    """The node of coeff times factors, given as _in_skey_order gives
    them."""
    nodes = [_ATOMS[i] if n == 1 else Pow(_ATOMS[i], n)
             for _, n, i in factors]
    if not nodes:
        return Rat(coeff)
    if coeff != 1:
        nodes = [Rat(coeff)] + nodes
    if len(nodes) == 1:
        return nodes[0]
    return Prod(tuple(nodes))


def _rebuild(p):
    """Canonical node of a polynomial.  A Sum, Prod or Pow node keeps the
    polynomial it was built from, in the order a fresh expansion of the
    node gives, and _poly returns it instead of expanding the node again.
    A Sum builds its terms only when something reads them (Sum.__getattr__):
    most normal forms are only ever read as polynomials."""
    if not p:
        return ZERO
    terms = sorted([(_in_skey_order(m), m) for m in p])
    if len(terms) == 1:
        node = _term_expr(terms[0][0], p[terms[0][1]])
    else:
        node = object.__new__(Sum)
        node.__dict__["_pending"] = terms
    if isinstance(node, (Sum, Prod, Pow)):
        node.__dict__["_poly"] = {m: p[m] for _, m in terms}
    return node


def normalize(e) -> Expr:
    """Normal form: idempotent and semantics-preserving, so identical
    normal forms are equal functions, but equal functions can differ: a
    numerator factor shared with an opaque negative-power base, as r - t
    with (t - r)^(-2), is never cancelled.  A node that is already a
    normal form is returned as it is."""
    e = _as_expr(e)
    if "_poly" in e.__dict__:
        return e
    return _rebuild(_poly(e))


def equivalent(e1, e2) -> bool:
    return normalize(e1) == normalize(e2)


# ---------------------------------------------------------------------------
# differentiation


# for the atom a = f(u), f'(u) as a node
_OUTER = {"sin": lambda a: App("cos", a.arg),
          "cos": lambda a: -App("sin", a.arg),
          "exp": lambda a: a,
          "ln": lambda a: Pow(a.arg, -1),
          "sqrt": lambda a: Prod((Rat(Fraction(1, 2)), Pow(a, -1)))}


def _diff_atom(a, tag, slot, memo):
    """The polynomial of the derivative of an atom.  slot: 'all' for d/dt
    including delayed coefficients (chain rule with d(t-r)/dt = 1), 't' /
    'tr' for the explicit partials used by the prolonged operator.  A
    function's outer factor is built only when its argument's derivative
    is not zero."""
    if isinstance(a, Jet):
        return {} if a.tag != tag or slot == "tr" else {(): 1}
    if isinstance(a, Coeff):
        if tag != "t" or slot == ("t" if a.delayed else "tr"):
            return {}
        if a.order >= _MAX_COEFF_ORDER:
            raise ExprError(
                f"differentiating {a.name} beyond order {_MAX_COEFF_ORDER}"
            )
        return _atom_poly(Coeff(a.name, a.delayed, a.order + 1))
    if isinstance(a, App):
        da = _diff_poly(_poly(a.arg), tag, slot, memo)
        if not da:
            return {}
        return _poly_mul(_poly(_OUTER[a.fn](a)), da)
    if isinstance(a, Sum):  # an opaque base
        return _diff_poly(_poly(a), tag, slot, memo)
    return {}


def _diff_poly(p, tag, slot, memo):
    """The derivative of a polynomial, by the product rule over the (atom
    id, exponent) factors of each monomial.  memo maps an atom id to its
    derivative, so each is computed once per call, and an atom whose
    derivative is zero builds no term."""
    out = {}
    for m, c in p.items():
        for k, (i, n) in enumerate(m):
            d = memo.get(i)
            if d is None:
                d = memo[i] = _diff_atom(_ATOMS[i], tag, slot, memo)
            if not d:
                continue
            rest = (m[:k] + m[k + 1:] if n == 1
                    else m[:k] + ((i, n - 1),) + m[k + 1:])
            for m2, c2 in d.items():
                _poly_add_term(out, _mono_mul(rest, m2), c * n * c2)
    return out


def diff(e, v) -> Expr:
    """Partial derivative of the normal form of e with respect to a jet
    coordinate, as a normal form; an e that is not a normal form gives
    diff(normalize(e), v).  Jet coordinates are mutually independent;
    differentiating by t raises the order of coefficient functions of both
    t and t-r."""
    if not isinstance(v, Jet):
        raise ExprError("differentiation variable must be a jet coordinate")
    return _rebuild(_diff_poly(_poly(_as_expr(e)), v.tag, "all", {}))


def diff_explicit(e, slot) -> Expr:
    """Partial derivative of the normal form of e with respect to the
    explicit t (slot 't') or the explicit delayed time (slot 'tr').  Bare t
    inside elementary-function arguments is attributed to the t slot;
    delayed time dependence must enter through coefficient functions of
    t-r."""
    if slot not in ("t", "tr"):
        raise ExprError("slot must be 't' or 'tr'")
    return _rebuild(_diff_poly(_poly(_as_expr(e)), "t", slot, {}))


# ---------------------------------------------------------------------------
# delay shift and substitution


def is_delayed(a) -> bool:
    """Whether a leaf is a delayed symbol: x(t-r), x'(t-r), x''(t-r), a
    coefficient function of t-r, or the delay r itself."""
    if isinstance(a, Jet):
        return a.tag in ("xr", "x1r", "x2r")
    if isinstance(a, Coeff):
        return a.delayed
    return isinstance(a, Par) and a.name == "r"


def _rewrite(e, repl, done):
    """The normal form e with repl(a) put in for each leaf a (Par, Jet or
    Coeff) it holds.  A function's argument and an opaque base are
    rewritten the same way, so repl is handed leaves only.  Each (atom,
    exponent) factor is rewritten and expanded at most once per call (done
    maps it to its polynomial, or to None when it is unchanged), a monomial
    no rule changes is copied, and only changed factors are multiplied in:
    with exact coefficients and monomials merged by id, this is the
    polynomial normalize gives for e rebuilt with repl at its leaves.  When
    no factor changes, e itself is returned."""
    out = {}
    changed_any = False
    for m, c in _poly(e).items():
        kept, changed = [], []
        for f in m:
            if f not in done:
                a = _ATOMS[f[0]]
                if isinstance(a, App):
                    b = App(a.fn, _rewrite(a.arg, repl, done))
                elif isinstance(a, Sum):
                    b = _rewrite(a, repl, done)
                else:
                    b = repl(a)
                done[f] = None if b == a else _poly(
                    b if f[1] == 1 else Pow(b, f[1]))
            p = done[f]
            if p is None:
                kept.append(f)
            else:
                changed.append(p)
        if not changed:
            _poly_add_term(out, m, c)
            continue
        changed_any = True
        term = {tuple(kept): c}
        for p in changed:
            term = _poly_mul(term, p)
        for m2, c2 in term.items():
            _poly_add_term(out, m2, c2)
    return _rebuild(out) if changed_any else e


_SHIFTED = {T: T - R, X: XR, X1: X1R, X2: X2R}


def _shift_leaf(a):
    if is_delayed(a):
        raise ExprError("expression already contains delayed symbols; "
                        "double shift is out of model")
    if isinstance(a, Coeff):
        return Coeff(a.name, True, a.order)
    return _SHIFTED.get(a, a)


def shift(e) -> Expr:
    """Delay shift of the normal form of e: t -> t-r, x -> x(t-r),
    x' -> x'(t-r), x'' -> x''(t-r), f(t) -> f(t-r).  A delayed symbol
    (is_delayed) raises: double delays are out of model.  The rules act on
    the atoms of normalize(e), so an e that is not a normal form gives
    shift(normalize(e))."""
    return _rewrite(normalize(e), _shift_leaf, {})


def substitute(e, bindings) -> Expr:
    """Simultaneous substitution into the normal form of e.

    Keys may be jet coordinates, parameters, or coefficient functions.  A
    key f(t) with no primes acts functionally: f'(t), f(t-r), f''(t-r), ...
    are rewritten to the correspondingly differentiated and shifted
    replacement (which must hold no delayed symbol).  Keys with primes or a
    delayed argument match that exact atom only.  The bindings act on the
    atoms of normalize(e), so an e that is not a normal form gives
    substitute(normalize(e), bindings): (2*c1)^(-1) with c1 -> c2 + t is
    1/2*(c2 + t)^(-1), not (2*c2 + 2*t)^(-1).
    """
    exact = {}
    fn_rules = {}
    for k, v in bindings.items():
        v = _as_expr(v)
        if isinstance(k, Coeff) and not k.delayed and k.order == 0:
            if any(map(is_delayed, atoms(v))):
                raise ExprError(
                    f"functional replacement for {k.name} must be delay-free")
            fn_rules[k.name] = v
        elif isinstance(k, (Jet, Par, Coeff)):
            exact[k] = v
        else:
            raise ExprError(f"unsupported substitution key {k!r}")

    def repl(leaf):
        if leaf in exact:
            return exact[leaf]
        if isinstance(leaf, Coeff) and leaf.name in fn_rules:
            out = fn_rules[leaf.name]
            for _ in range(leaf.order):
                out = diff(out, T)
            return shift(out) if leaf.delayed else out
        return leaf

    return _rewrite(normalize(e), repl, {})


# ---------------------------------------------------------------------------
# collection


def _mentions_jet(e, tags):
    if isinstance(e, Jet):
        return e.tag in tags
    return any(_mentions_jet(k, tags) for k in _operands(e))


def collect(e, jets) -> dict:
    """Coefficients of the monomials in the given jet coordinates.

    Returns {monomial expression: coefficient expression}; the constant
    monomial 1 is always present.  Raises on non-polynomial dependence
    (negative powers or occurrence inside function arguments).
    """
    tags = {j.tag for j in jets}
    groups = {}
    for mono, coeff in _poly(_as_expr(e)).items():
        var_part = []
        rest = []
        for i, n in mono:
            a = _ATOMS[i]
            if isinstance(a, Jet) and a.tag in tags:
                if n < 0:
                    raise ExprError(
                        f"non-polynomial dependence on {a.tag}: power {n}"
                    )
                var_part.append((i, n))
            else:
                if _mentions_jet(a, tags):
                    raise ExprError(
                        "non-polynomial dependence: collected variable "
                        f"occurs inside {render(a)}"
                    )
                rest.append((i, n))
        groups.setdefault(tuple(var_part), {})[tuple(rest)] = coeff
    out = {}
    for key, p in groups.items():
        out[_term_expr(_in_skey_order(key), 1) if key else ONE] = _rebuild(p)
    out.setdefault(ONE, ZERO)
    return out


# ---------------------------------------------------------------------------
# numeric evaluation


def _coeff_value(fn_table, name, order, tval):
    if fn_table is None or name not in fn_table:
        raise EvalError(f"no numeric binding for coefficient function {name}")
    return fn_table[name].sample(tval, order)


def eval_numeric(e, env, fn_table=None) -> float:
    """Evaluate at a point through compile_numeric.  env maps symbol names
    ('t', 'x', 'x1r', 'c1', 'r', ...) to floats; fn_table maps
    coefficient-function names to functions of t, each anything that
    answers sample(ts, order) with the order-th derivative over an array
    of times (a CoeffDescriptor, a Trajectory, an OmegaSolution).  An
    unbound name, an order its function does not supply, or a point the
    expression has no value at, raises EvalError."""
    f = compile_numeric(e)
    try:
        v = float(f({k: float(v) for k, v in env.items()}, fn_table))
    except KeyError as err:
        raise EvalError(f"unbound symbol {err.args[0]}") from None
    if math.isnan(v):
        raise EvalError(f"{render(_as_expr(e))} cannot be evaluated at "
                        f"{env}")
    return v


def compile_numeric(e):
    """Compile to a closure f(env, fn_table) over floats or numpy arrays.

    env values are arrays or floats, and fn_table maps each coefficient
    name to a function of t that answers sample(ts, order) over them (see
    eval_numeric); the result broadcasts against them.  Each element gets
    the value the math library gives at that point (numpy's sin, cos and
    sqrt agree with it here): sums are rounded as math.fsum rounds them,
    and exp, ln and integer powers are evaluated per element with the math
    functions.  A domain or range error (sqrt or ln of a bad value, 0^-n,
    overflow) sets that element to NaN, so np.isnan of the result is the
    per-point mask of failed evaluations.

    A tuple or list of expressions compiles to one program whose closure
    gives the list of their values; each distinct node of the group, a
    coefficient leaf included, is evaluated once per call, and so is the
    delayed time t - r that the delayed leaves read.
    """
    if isinstance(e, (tuple, list)):
        return _compile([_as_expr(x) for x in e])
    program = _compile([_as_expr(e)])
    return lambda env, fns: program(env, fns)[0]


def check_evaluated(what, ts, values):
    """Raise ExprError at the first time where an array evaluation gave
    NaN, the mark compile_numeric leaves on a failed point; values is one
    row, or a sequence of rows, with one column per time."""
    bad = np.isnan(np.atleast_2d(values)).any(axis=0)
    if bad.any():
        raise ExprError(f"{what} cannot be evaluated at t = {ts[bad][0]}")


def _elementwise(fn, a, *args):
    """fn(element, *args) for each element with the math library, the loop
    running in C (map into np.fromiter); an element whose call raises a
    domain or range error becomes NaN.  A float gives a float."""
    if isinstance(a, float):
        try:
            return fn(float(a), *args)
        except (ArithmeticError, ValueError):
            return math.nan
    a = np.asarray(a, float)
    flat = a.ravel().tolist()
    try:
        out = np.fromiter(map(fn, flat, *map(itertools.repeat, args)), float,
                          len(flat))
    except (ArithmeticError, ValueError):
        out = []
        for v in flat:
            try:
                out.append(fn(v, *args))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
    return np.array(out, float).reshape(a.shape)


def _fsum_array(values):
    """Elementwise math.fsum of a list of arrays and floats.

    A two-term sum rounds once, so plain addition is already exact-rounded.
    Longer sums accumulate the error-free TwoSum residuals; where that
    cannot certify the rounding of the total (the rare element lying too
    near a rounding boundary, or at a power of two), math.fsum redoes it.
    Floats alone go to math.fsum directly; a total that is not finite is
    left to the array steps, which mark it as they mark it in an array.
    """
    if len(values) == 2:
        return values[0] + values[1]
    if all(isinstance(v, float) for v in values):
        try:
            total = math.fsum(values)
        except (OverflowError, ValueError):  # inf - inf, or an overflow
            total = math.inf
        if math.isfinite(total):
            return total
    s = values[0]
    err = 0.0
    mag = 0.0
    for v in values[1:]:
        t = s + v
        bv = t - s
        e = (s - (t - bv)) + (v - bv)
        err = err + e
        mag = mag + np.abs(e)
        s = t
    r = np.array(s + err, float)
    bz = r - s
    z = (s - (r - bz)) + (err - bz)
    bound = len(values) * 2.220446049250313e-16 * mag
    # with every residual zero the running sum was exact all along; below
    # a power of two the gap halves, so those totals are always redone
    sure = (np.abs(z) + bound < np.spacing(np.abs(r)) / 2) | np.equal(mag, 0)
    doubtful = ((~sure & np.isfinite(r))
                | (np.abs(np.frexp(r)[0]) == 0.5))
    if doubtful.any():
        flat = r.reshape(-1)
        cols = [np.broadcast_to(v, r.shape).reshape(-1) for v in values]
        for i in np.flatnonzero(doubtful):
            flat[i] = math.fsum(float(c[i]) for c in cols)
    return r


# the step a delayed coefficient reads its time from
_DELAYED_T = object()


def _compile(exprs):
    """One program for a group of expressions: their distinct nodes in
    post-order, each a step computing its value from the values of the
    steps before it.  A coefficient's operand is its time: the step of t,
    or the step forming t - r."""
    index, steps = {}, []

    def slot(node):
        i = index.get(node)
        if i is None:
            if node is _DELAYED_T:
                op = _delayed_time
            else:
                kids = ((_DELAYED_T if node.delayed else T,)
                        if isinstance(node, Coeff) else _operands(node))
                op = _step(node, [slot(k) for k in kids])
            i = index[node] = len(steps)
            steps.append(op)
        return i

    outs = [slot(e) for e in exprs]

    def program(env, fns):
        v = []
        for op in steps:
            v.append(op(v, env, fns))
        return [v[i] for i in outs]

    return program


def _delayed_time(v, env, fns):
    return env["t"] - env["r"]


def _step(e, k):
    """Node e as a function of (values of the earlier steps, env,
    fn_table); k lists the steps of its operands."""
    if isinstance(e, Rat):
        c = float(e.q)
        return lambda v, env, fns: c
    if isinstance(e, (Par, Jet)):
        name = e.name if isinstance(e, Par) else e.tag
        return lambda v, env, fns: env[name]
    if isinstance(e, Coeff):
        name, order = e.name, e.order
        return lambda v, env, fns: _coeff_value(fns, name, order, v[k[0]])
    if isinstance(e, Sum):
        return lambda v, env, fns: _fsum_array([v[i] for i in k])
    if isinstance(e, Prod):
        return lambda v, env, fns: functools.reduce(
            operator.mul, [v[i] for i in k], 1.0)
    if isinstance(e, Pow) and e.n == 0:
        # nan ** 0 is 1.0; keep the mark of a failed base
        return lambda v, env, fns: np.where(np.isnan(v[k[0]]), math.nan, 1.0)
    if isinstance(e, Pow):
        n = float(e.n)
        return lambda v, env, fns: _elementwise(math.pow, v[k[0]], n)
    if isinstance(e, App):
        g = _ARRAY_FNS[e.fn]
        return lambda v, env, fns: g(v[k[0]])
    raise ExprError(f"unexpected node {e!r}")


def _sqrt_array(a):
    return np.sqrt(np.where(np.less(a, 0.0), math.nan, a))


# numpy's sqrt is correctly rounded and its sin and cos match the C
# library here; its SIMD exp, log and power differ from it in the last bit
# for a few per cent of inputs, so those run per element
_ARRAY_FNS = {"sin": np.sin, "cos": np.cos, "sqrt": _sqrt_array,
              "exp": functools.partial(_elementwise, math.exp),
              "ln": functools.partial(_elementwise, math.log)}


# ---------------------------------------------------------------------------
# atoms present in an expression


def nodes(e):
    """Every node of the expression, each as often as the tree holds it."""
    stack = [_as_expr(e)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_operands(node))


def atoms(e):
    """Set of leaf symbols (Par, Jet, Coeff) appearing in the expression."""
    return {n for n in nodes(e) if isinstance(n, (Par, Jet, Coeff))}


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<primes>'+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup),
                           m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self):
        terms = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                t = self.term()
                terms.append(t if val == "+" else -t)
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                break
        return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.unary()
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            n = self.exponent()
            self.expect_op(")")
            return n
        sign = 1
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or "." in val:
            raise ParseError("exponent must be an integer", pos)
        self.advance()
        return sign * int(val)

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Rat(Fraction(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            return self.ident(val, pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def ident(self, name, pos):
        primes = 0
        kind, val, _ = self.peek()
        if kind == "primes":
            primes = len(val)
            self.advance()

        if name == "x" and primes:
            if primes > 2:
                raise ParseError("at most two primes on x", pos)
            return X1 if primes == 1 else X2
        if primes == 0 and name in _JET_INDEX:
            return Jet(name)
        if primes == 0 and re.fullmatch(r"c\d+", name):
            return Par(name)
        if primes == 0 and name == "r":
            return R
        if name in _FN_INDEX:
            if primes:
                raise ParseError(f"primes not allowed on {name}", pos)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return App(name, arg)

        kind, val, _ = self.peek()
        if not (kind == "op" and val == "("):
            raise ParseError(f"unknown identifier {name!r}", pos)
        if primes > _MAX_COEFF_ORDER:
            raise ParseError(
                f"derivative order {primes} exceeds {_MAX_COEFF_ORDER}", pos)
        self.advance()
        kind, val, apos = self.advance()
        if kind != "ident" or val != "t":
            raise ParseError(
                f"argument of {name} must be t or t-r", apos)
        delayed = False
        kind, val, apos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            kind, val, apos = self.advance()
            if kind != "ident" or val != "r":
                raise ParseError(
                    f"argument of {name} must be t or t-r", apos)
            delayed = True
        self.expect_op(")")
        return Coeff(name, delayed, primes)


def parse(text) -> Expr:
    """Parse the expression grammar.  Raises ParseError with a position on
    syntax errors and unknown identifiers."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering


def _needs_parens_in_product(e):
    return isinstance(e, Sum) or (isinstance(e, Rat) and e.q < 0)


def render(e) -> str:
    """Printable form; parse(render(e)) equals e up to normal form."""
    e = _as_expr(e)
    if isinstance(e, Rat):
        return str(e.q)
    if isinstance(e, Par):
        return e.name
    if isinstance(e, Jet):
        return e.tag
    if isinstance(e, Coeff):
        arg = "t-r" if e.delayed else "t"
        return f"{e.name}{chr(39) * e.order}({arg})"
    if isinstance(e, App):
        return f"{e.fn}({render(e.arg)})"
    if isinstance(e, Pow):
        b = render(e.base)
        if not isinstance(e.base, (Par, Jet, Coeff, App)):
            b = f"({b})"
        return f"{b}^{e.n}" if e.n >= 0 else f"{b}^({e.n})"
    if isinstance(e, Prod):
        parts = []
        for f in e.factors:
            s = render(f)
            if _needs_parens_in_product(f) and parts:
                s = f"({s})"
            elif isinstance(f, Sum):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Sum):
        out = render(e.terms[0])
        for t in e.terms[1:]:
            s = render(t)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out
    raise ExprError(f"unexpected node {e!r}")
