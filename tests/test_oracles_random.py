"""Independent oracles on random input drawn by hypothesis: the exact
kernel's operations, the prolongation coefficients and the compatibility
formulas checked in sympy, specs through their JSON text, and the group
law of the flow of random affine generators."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ndelie.classify import (
    Generator, compat_c_from_b, compat_c_from_d_pure_delay, compat_d_from_b,
    compat_d_from_b_pure_delay,
)
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.flowverify import axiom_errors
from ndelie.prolong import InfinitesimalAnsatz, prolong_first, prolong_second
from ndelie.symexpr import (
    App, ExprError, Jet, ONE, Par, Pow, Prod, Rat, Sum, T, X, X1, X2, diff,
    fn, normalize, shift, substitute,
)

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    HealthCheck, example, given, reject, settings,
)
from hypothesis import strategies as st  # noqa: E402
from test_oracles import r, t, to_sympy  # noqa: E402
from ndelie.suite import TOL_AXIOM  # noqa: E402

# ---------------------------------------------------------------------------
# the kernel's operations on random expressions

_RATS = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Rat)
# no delayed symbol, so shift applies, and every coefficient function is
# of order at most 1, so one diff stays inside the kernel's orders
_PLAIN = st.one_of(_RATS, st.sampled_from(
    [T, X, X1, X2, Par("p"), fn("f"), fn("f", order=1), fn("g")]))
_DELAYED = st.sampled_from([fn("f", delayed=True),
                            fn("f", delayed=True, order=1), Jet("xr")])


def _trees(leaves):
    def grow(kids):
        terms = st.lists(kids, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            terms.map(Sum), terms.map(Prod),
            st.tuples(kids, st.sampled_from([-1, 2, 3])).map(
                lambda p: Pow(*p)),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), kids).map(
                lambda p: App(*p)))

    return st.recursive(leaves, grow, max_leaves=6)


PLAIN = _trees(_PLAIN)
ANY = _trees(st.one_of(_PLAIN, _DELAYED))


def _leaves(e):
    if isinstance(e, (Sum, Prod)):
        return [a for k in (e.terms if isinstance(e, Sum) else e.factors)
                for a in _leaves(k)]
    if isinstance(e, (Pow, App)):
        return _leaves(e.base if isinstance(e, Pow) else e.arg)
    return [e]


# a replacement for f(t) with no jet but t: the kernel shifts a delayed
# f's jets along with t, where the oracle shifts t alone
REPLACEMENTS = PLAIN.filter(lambda g: not any(
    isinstance(a, Jet) and a != T for a in _leaves(g)))
ORACLE = settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
xr, x1r, x2r = sympy.symbols("xr x1r x2r")


def _kernel(op, *args):
    # a drawn expression the kernel rejects (a zero to a negative power)
    # is no example
    try:
        return op(*args)
    except ExprError:
        reject()


def same(kernel, oracle):
    """The kernel's result equals the oracle's expression in sympy."""
    gap = sympy.expand(to_sympy(kernel) - oracle)
    assert gap == 0 or sympy.simplify(gap) == 0


@ORACLE
@given(ANY)
def test_normalize_keeps_the_value(e):
    same(_kernel(normalize, e), to_sympy(e))


@ORACLE
@given(ANY)
def test_diff_by_t_is_the_total_derivative(e):
    # jet coordinates are independent of t; coefficient functions of t
    # and of t - r are not
    same(_kernel(diff, e, T), sympy.diff(to_sympy(e), t))


@ORACLE
@given(PLAIN)
def test_shift_delays_t_and_the_jets(e):
    want = to_sympy(e).subs(
        {t: t - r, sympy.Symbol("x"): xr, sympy.Symbol("x1"): x1r,
         sympy.Symbol("x2"): x2r}, simultaneous=True)
    same(_kernel(shift, e), want)


@ORACLE
@given(ANY, REPLACEMENTS, PLAIN)
def test_substitute_replaces_a_function_and_a_parameter(e, g, p):
    # f(t) := g acts on f's derivatives and on f(t - r); the parameter p
    # is replaced as it stands, and not inside g or in p's own value
    q_ = sympy.Symbol("q_")
    par = sympy.Symbol("p")
    want = to_sympy(e, {"f": to_sympy(g).subs(par, q_)}).subs(
        par, to_sympy(p)).subs(q_, par)
    same(_kernel(substitute, e, {fn("f"): g, Par("p"): p}), want)


# ---------------------------------------------------------------------------
# random specs through their JSON text

_CLOSED = _trees(st.one_of(_RATS, st.just(T)))
_TABLES = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
    st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))


def _table(pair):
    steps, values = pair
    return CD.from_table(np.cumsum(steps) - 1.0, values)


DESCRIPTORS = st.one_of(
    st.just(CD.zero()),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).map(CD.const),
    _CLOSED.map(lambda e: _kernel(CD.closed, e)),
    _TABLES.map(_table))


# one spec with each of the four descriptor kinds, whatever the draws
@ORACLE
@given(st.fixed_dictionaries({name: DESCRIPTORS for name in "abcdkh"}),
       st.floats(0.05, 10.0), st.floats(-5.0, 5.0))
@example({"a": CD.zero(), "b": CD.const(Fraction(-2, 3)),
          "c": CD.closed(App("sin", T)),
          "d": CD.from_table([-0.5, 0.25, 1.0], [1.0, -2.0, 3.0]),
          "k": CD.zero(), "h": CD.zero()}, 1.0, 0.0)
def test_a_spec_survives_its_json_text(coeffs, delay, t0):
    spec = NdeSpec.make(r=delay, t0=t0, **coeffs)
    back = NdeSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert back.to_json() == spec.to_json()
    assert (back.r, back.t0) == (spec.r, spec.t0)
    ts = np.linspace(-1.0, 1.0, 7)
    for name, desc in spec.descriptors().items():
        other = getattr(back, name)
        assert other.kind == desc.kind and other.expr == desc.expr
        if desc.kind == "numeric":
            for order in range(4):
                assert other.sample(ts, order).tobytes() == \
                    desc.sample(ts, order).tobytes()


# ---------------------------------------------------------------------------
# the prolongation coefficients as total derivatives (Olver, GTM 107, §2.3)

# omega and upsilon live on (t, x), with coefficient functions of order at
# most 1 so the second prolongation's two diffs stay inside the kernel
PAIR_PARTS = _trees(st.one_of(_RATS, st.sampled_from(
    [T, X, fn("f"), fn("f", order=1), fn("g")])))
x, x1, x2 = sympy.symbols("x x1 x2")


def total(e):
    """D_t of a sympy expression in t, x and x'."""
    return sympy.diff(e, t) + x1 * sympy.diff(e, x) + x2 * sympy.diff(e, x1)


@ORACLE
@given(PAIR_PARTS, PAIR_PARTS)
def test_first_prolongation_is_d_t_upsilon_minus_x1_d_t_omega(w, u):
    want = total(to_sympy(u)) - x1 * total(to_sympy(w))
    same(_kernel(prolong_first, InfinitesimalAnsatz(w, u)), want)


@ORACLE
@given(PAIR_PARTS, PAIR_PARTS)
def test_second_prolongation_is_d_t_of_the_first_minus_x2_d_t_omega(w, u):
    first = total(to_sympy(u)) - x1 * total(to_sympy(w))
    want = total(first) - x2 * total(to_sympy(w))
    same(_kernel(prolong_second, InfinitesimalAnsatz(w, u)), want)


# ---------------------------------------------------------------------------
# the compatibility formulas substituted into their constraints, for any
# function b or d of t and random free constants

CONSTANTS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
# the function is generic, so only the constants vary between draws
FORMULAS = settings(ORACLE, max_examples=15)
b_t, d_t = sympy.Function("b")(t), sympy.Function("d")(t)


def vanishes(e):
    return sympy.cancel(e) == 0 or sympy.simplify(e) == 0


def c_constraint(w, c):
    """w''' + 4 c w' + 2 c' w, the third-order c-constraint."""
    return w.diff(t, 3) + 4 * c * w.diff(t) + 2 * c.diff(t) * w


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


@FORMULAS
@given(CONSTANTS)
def test_c_from_b_solves_the_c_constraint_along_one_over_b(c6):
    c = to_sympy(compat_c_from_b(fn("b"), c6))
    assert vanishes(c_constraint(1 / b_t, c))


@FORMULAS
@given(CONSTANTS, CONSTANTS)
def test_d_from_b_solves_the_delayed_position_constraint(c2, c5):
    # c2 w''' + 2 d' w + 4 d w' + b w'' with w = 1/b
    d, w = to_sympy(compat_d_from_b(fn("b"), c2, c5)), 1 / b_t
    assert vanishes(rational(c2) * w.diff(t, 3) + 2 * d.diff(t) * w
                    + 4 * d * w.diff(t) + b_t * w.diff(t, 2))


@FORMULAS
@given(CONSTANTS)
def test_d_from_b_pure_delay_solves_its_constraint(c32):
    # 2 d' w + 4 d w' + b w'' with w = 1/b: the same row with k = 0
    d, w = to_sympy(compat_d_from_b_pure_delay(fn("b"), c32)), 1 / b_t
    assert vanishes(2 * d.diff(t) * w + 4 * d * w.diff(t)
                    + b_t * w.diff(t, 2))


@FORMULAS
@given(CONSTANTS)
def test_c_from_d_pure_delay_solves_the_c_constraint_along_its_omega(c31):
    # along omega = 1/sqrt(d) the first integral w w'' - w'^2/2 + 2 c w^2
    # is the constant c31
    c = to_sympy(compat_c_from_d_pure_delay(fn("d"), c31))
    w = 1 / sympy.sqrt(d_t)
    assert vanishes(c_constraint(w, c))
    energy = w * w.diff(t, 2) - w.diff(t) ** 2 / 2 + 2 * c * w ** 2
    assert vanishes(energy - rational(c31))


# ---------------------------------------------------------------------------
# the group law of the flow of an affine generator omega = beta(t),
# upsilon = gamma(t) x + rho(t): exp(0 v) is the identity, exp(-d v) undoes
# exp(d v), and exp(d2 v) exp(d1 v) = exp((d1 + d2) v) (Olver, GTM 107,
# §1.3), up to the RK4 error of the flow

# closed forms in t with bounded derivatives, so the flow's RK4 error stays
# far below TOL_AXIOM over the deltas drawn
_SMOOTH = [ONE, T, App("sin", T), App("cos", T), App("exp", -T),
           App("sin", Rat(2) * T)]
_SMOOTH_FORMS = st.lists(
    st.tuples(st.fractions(min_value=-1, max_value=1, max_denominator=4),
              st.sampled_from(_SMOOTH)),
    min_size=1, max_size=3).map(
    lambda terms: normalize(Sum(tuple(Rat(c) * f for c, f in terms))))
_POINTS = st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(-2.0, 2.0)),
                   min_size=1, max_size=4)
# the scenarios' deltas: d1 up to 0.25 and d2 up to half of that
_D1, _D2 = st.floats(0.05, 0.25), st.floats(0.025, 0.125)


@ORACLE
@given(_SMOOTH_FORMS, _SMOOTH_FORMS, _SMOOTH_FORMS, _POINTS, _D1, _D2)
def test_the_flow_of_an_affine_generator_keeps_the_group_law(
        beta, gamma, rho, points, d1, d2):
    gen = Generator("drawn", "closed", omega=beta,
                    upsilon=normalize(gamma * X + rho))
    ident, inv, clo = axiom_errors(gen, points, d1, d2,
                                   NdeSpec.make(c=1, r=1.0))
    assert ident <= 1e-12
    assert inv < TOL_AXIOM and clo < TOL_AXIOM
