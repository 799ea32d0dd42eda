"""Independent oracles: results of the exact kernel checked in sympy, on
the scenarios."""

import functools

import pytest

from ndelie.detsys import determine, reduce_ansatz
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.suite import build_scenarios
from ndelie.symexpr import App, Coeff, Jet, Par, Pow, Prod, Rat, Sum, fn

sympy = pytest.importorskip("sympy")

t, r = sympy.symbols("t r")
_FUNCS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
          "ln": sympy.log, "sqrt": sympy.sqrt}


def to_sympy(e, funcs=None):
    """The kernel expression e as a sympy expression, node by node: a
    coefficient function of t - r is a sympy function of t - r, and its
    derivative order is taken in t.  funcs maps a function's name to a
    sympy expression in t that stands for it."""
    funcs = funcs or {}
    convert = functools.partial(to_sympy, funcs=funcs)
    if isinstance(e, Rat):
        return sympy.Rational(e.q.numerator, e.q.denominator)
    if isinstance(e, Par):
        return sympy.Symbol(e.name)
    if isinstance(e, Jet):
        return sympy.Symbol(e.tag)
    if isinstance(e, Coeff) and e.name in funcs:
        f = sympy.diff(funcs[e.name], t, e.order)
        return f.subs(t, t - r) if e.delayed else f
    if isinstance(e, Coeff):
        f = sympy.Function(e.name)(t - r if e.delayed else t)
        return f.diff(t, e.order) if e.order else f
    if isinstance(e, Sum):
        return sympy.Add(*map(convert, e.terms))
    if isinstance(e, Prod):
        return sympy.Mul(*map(convert, e.factors))
    if isinstance(e, Pow):
        return convert(e.base) ** e.n
    if isinstance(e, App):
        return _FUNCS[e.fn](convert(e.arg))
    raise TypeError(f"no sympy form for {e!r}")


def _specs():
    specs = {"generic": NdeSpec.make(
        b=CD.closed(fn("b")), c=CD.closed(fn("c")), d=CD.closed(fn("d")),
        k=CD.closed(fn("k")), r=1.0)}
    specs.update((sc.name, sc.spec) for sc in build_scenarios())
    for b in ("1", "2", "2 + cos(4*t)/10", "t"):
        specs[f"b={b}"] = NdeSpec.make(b=b, c=1, d=1, k=1, r=1.0)
    return specs


SPECS = _specs()


@pytest.mark.parametrize("name", list(SPECS))
def test_each_first_integral_differentiates_to_its_row(name):
    spec = SPECS[name]
    sys1 = reduce_ansatz(determine(spec))
    integrated = [eq for eq in sys1.equations if eq.integrated is not None]
    # the velocity row always integrates, the delayed-velocity row
    # whenever b is not zero
    assert sorted(eq.catalog_id for eq in integrated) == \
        ["E-x1"] + (["E-x1r"] if not spec.b.is_zero else [])
    for eq in integrated:
        gap = sympy.diff(to_sympy(eq.integrated), t) - to_sympy(eq.residual)
        assert sympy.simplify(gap) == 0, eq.catalog_id
