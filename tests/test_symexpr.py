import dataclasses
import functools
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from ndelie.equation import CoeffDescriptor
from ndelie.prolong import InfinitesimalAnsatz
from ndelie.symexpr import (
    App, Coeff, EvalError, Expr, ExprError, Jet, ONE, Par, ParseError, Pow,
    Prod, Rat, Sum, T, X, X1, X1R, X2, X2R, XR, ZERO, _ATOMS as _ATOM_OF,
    _operands, _poly, atoms, collect, compile_numeric, diff, diff_explicit,
    equivalent, eval_numeric, fn, is_delayed, normalize, num, parse, render,
    shift, substitute,
)


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_product_power_delayed():
    e = parse("x1^2 * b(t-r)")
    assert equivalent(e, Prod((Pow(X1, 2), Coeff("b", True, 0))))


def test_parse_elementary():
    assert parse("sin(t)") == App("sin", T)


def test_parse_primes_on_x():
    e = parse("x'' + k(t)*x2r")
    assert equivalent(e, X2 + fn("k") * X2R)


def test_parse_coeff_primes():
    assert parse("b''(t-r)") == Coeff("b", True, 2)


def test_parse_parameters():
    assert parse("c12") == Par("c12")
    assert normalize(parse("1/2 * x")) == Prod((Rat(Fraction(1, 2)), X))


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + * 2")
    assert err.value.pos == 5


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("x1 + foo")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ParseError):
        parse("t^1.5")


def test_parse_rejects_bad_coeff_argument():
    with pytest.raises(ParseError):
        parse("b(x)")


@pytest.mark.parametrize("text", [
    "x1^2*b(t-r)", "sin(t)", "gamma''(t-r) + 1/2*c1",
    "(t+x)^2 - x^2", "b(t)^(-2)*x1r^3", "2*t - sqrt(t)",
])
def test_parse_render_round_trip(text):
    e = parse(text)
    assert equivalent(parse(render(e)), e)
    canon = normalize(e)
    assert normalize(parse(render(canon))) == canon


# ---------------------------------------------------------------------------
# normalization


def test_normalize_expands_square():
    e = parse("(t+x)^2 - t^2 - 2*t*x - x^2")
    assert normalize(e) == ZERO


def test_normalize_merges_like_terms():
    assert normalize(parse("2*x1 + 3*x1")) == normalize(parse("5*x1"))


def test_normalize_orders_names_that_differ_in_leading_zeros():
    # c01 and c1 share their natural key; the name breaks the tie, not
    # which of them the kernel met first
    assert normalize(parse("c1*c01 - c01*c1")) == ZERO
    assert render(normalize(parse("c1*c01 + x*c01 + c1*x"))) == \
        "c01*c1 + c01*x + c1*x"


def test_normalize_annihilates_zero_factor():
    assert normalize(fn("beta") * 0) == ZERO


def test_normalize_constant_folding():
    assert normalize(App("sin", num(0))) == ZERO
    assert normalize(App("cos", num(0))) == num(1)
    assert normalize(App("exp", num(0))) == num(1)
    assert normalize(App("ln", num(1))) == ZERO
    assert normalize(App("sqrt", num(Fraction(9, 4)))) == num(Fraction(3, 2))


def test_normalize_keeps_irrational_sqrt():
    e = normalize(App("sqrt", num(2)))
    assert e == App("sqrt", num(2))


def test_normalize_merges_powers():
    assert normalize(fn("b") * fn("b") ** -1) == num(1)
    e = (T + 1) ** -1 * (T + 1) ** -1
    assert normalize(e) == normalize((T + 1) ** -2)


def test_normalize_no_trig_identities():
    e = parse("sin(t)^2 + cos(t)^2 - 1")
    assert normalize(e) != ZERO


def test_division_by_zero_rejected():
    with pytest.raises(ExprError):
        normalize(Pow(ZERO, -1))
    with pytest.raises(ExprError):
        X / 0


# ---------------------------------------------------------------------------
# differentiation


def test_diff_polynomial():
    assert diff(parse("t^2"), T) == normalize(2 * T)


def test_diff_ansatz_by_x():
    e = parse("gamma(t)*x + rho(t)")
    assert diff(e, X) == fn("gamma")


def test_diff_jet_product():
    assert diff(X1 * X2, X1) == X2


def test_diff_jets_independent():
    assert diff(X, T) == ZERO
    assert diff(XR, X) == ZERO


def test_diff_coeff_chain_rule():
    assert diff(fn("b"), T) == fn("b", order=1)
    assert diff(fn("b", delayed=True), T) == fn("b", delayed=True, order=1)


def test_diff_explicit_slots():
    e = fn("b") * X1R + fn("d", delayed=True) * XR
    assert diff_explicit(e, "t") == normalize(fn("b", order=1) * X1R)
    assert diff_explicit(e, "tr") == normalize(
        fn("d", delayed=True, order=1) * XR)


def test_diff_order_cap():
    with pytest.raises(ExprError):
        diff(fn("b", order=3), T)


def test_diff_elementary():
    assert diff(App("sin", T), T) == App("cos", T)
    assert equivalent(diff(App("ln", T), T), Pow(T, -1))
    assert equivalent(diff(App("sqrt", T), T),
                      num(Fraction(1, 2)) * Pow(App("sqrt", T), -1))


# ---------------------------------------------------------------------------
# shift


def test_shift_examples():
    assert equivalent(shift(App("sin", T)), App("sin", T - Par("r")))
    assert equivalent(
        shift(parse("gamma(t)*x + rho(t)")),
        fn("gamma", delayed=True) * XR + fn("rho", delayed=True))
    assert equivalent(shift(X1 ** 2), X1R ** 2)


def test_shift_rejects_double_delay():
    with pytest.raises(ExprError):
        shift(XR)
    with pytest.raises(ExprError):
        shift(fn("b", delayed=True))
    with pytest.raises(ExprError):
        shift(shift(App("sin", T)))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_solved_form():
    e = X2 + fn("k") * X2R
    assert substitute(e, {X2: -(fn("k") * X2R)}) == ZERO


def test_substitute_functional_rule():
    half = num(Fraction(1, 2))
    rule = {fn("gamma"): half * (fn("beta", order=1) + Par("c1"))}
    assert substitute(fn("gamma"), rule) == normalize(
        half * fn("beta", order=1) + half * Par("c1"))
    # primes and delays propagate through the functional rule
    assert substitute(fn("gamma", order=1), rule) == normalize(
        half * fn("beta", order=2))
    assert substitute(fn("gamma", delayed=True, order=1), rule) == normalize(
        half * fn("beta", delayed=True, order=2))


def test_substitute_exact_atom_key():
    rule = {fn("rho", order=2): -fn("rho", delayed=True, order=2)}
    e = fn("rho", order=2) + fn("rho", delayed=True, order=2)
    assert substitute(e, rule) == ZERO
    # the delayed atom is untouched by the exact key
    assert substitute(fn("rho", delayed=True, order=2), rule) == \
        fn("rho", delayed=True, order=2)


def test_substitute_parameter():
    assert substitute(Par("c1") * X, {Par("c1"): num(2)}) == normalize(2 * X)


# ---------------------------------------------------------------------------
# collect


def test_collect_split_example():
    e = fn("k") * fn("w") * X1R ** 3 + fn("beta") * X1
    got = collect(e, {X1, X1R})
    assert got[normalize(X1R ** 3)] == normalize(fn("k") * fn("w"))
    assert got[X1] == fn("beta")
    assert got[num(1)] == ZERO


def test_collect_zero():
    assert collect(ZERO, {X1}) == {num(1): ZERO}


def test_collect_binomial():
    got = collect((X1 + 1) ** 2, {X1})
    assert got[normalize(X1 ** 2)] == num(1)
    assert got[X1] == num(2)
    assert got[num(1)] == num(1)


def test_collect_rejects_nonpolynomial():
    with pytest.raises(ExprError):
        collect(App("sin", X1), {X1})
    with pytest.raises(ExprError):
        collect(Pow(X1, -1), {X1})


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert eval_numeric(App("sin", T), {"t": 0.0}) == 0.0
    half = num(Fraction(1, 2))
    e = half * (fn("beta", order=1) + Par("c1")) * X
    v = eval_numeric(e, {"t": 0.0, "c1": 2.0, "x": 3.0},
                     {"beta": CoeffDescriptor.numeric(lambda t: 7.0,
                                                      lambda t: 0.0)})
    assert v == pytest.approx(3.0)
    assert eval_numeric(2 * T, {"t": 1.5}) == pytest.approx(3.0)


def test_eval_unbound():
    with pytest.raises(EvalError):
        eval_numeric(X, {"t": 0.0})
    with pytest.raises(EvalError):
        eval_numeric(fn("b"), {"t": 0.0})


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_numeric(App("ln", T), {"t": -1.0})
    with pytest.raises(EvalError):
        eval_numeric(App("sqrt", T), {"t": -1.0})
    with pytest.raises(EvalError):
        eval_numeric(Pow(T, -1), {"t": 0.0})


def test_eval_overflow_raises_eval_error():
    with pytest.raises(EvalError):
        eval_numeric(parse("exp(t)"), {"t": 1000.0})
    with pytest.raises(EvalError):
        eval_numeric(parse("t^400"), {"t": 10.0})
    assert eval_numeric(parse("exp(t)"), {"t": 1.0}) == math.exp(1.0)
    assert type(eval_numeric(parse("2/3 + t"), {"t": 1.0})) is float


def test_eval_delayed_coeff_needs_r():
    tbl = {"b": CoeffDescriptor.numeric(np.sin)}
    assert eval_numeric(fn("b", delayed=True), {"t": 2.0, "r": 0.5},
                        tbl) == pytest.approx(math.sin(1.5))
    with pytest.raises(EvalError):
        eval_numeric(fn("b", delayed=True), {"t": 2.0}, tbl)


def test_compile_matches_eval():
    e = normalize(parse("sin(t)*x1 + b(t-r)^2 - c1/2"))
    env = {"t": 1.3, "x1": -0.7, "r": 0.4, "c1": 3.0}
    tbl = {"b": CoeffDescriptor.numeric(np.cos)}
    assert compile_numeric(e)(env, tbl) == pytest.approx(
        eval_numeric(e, env, tbl), rel=1e-14)


def test_atoms():
    got = atoms(parse("sin(t)*x1 + b(t-r) - c1"))
    assert fn("b", delayed=True) in got
    assert Par("c1") in got
    assert X1 in got and T in got


# ---------------------------------------------------------------------------
# property tests


_ATOMS = st.sampled_from([
    T, X, X1, Par("c1"), Par("c2"), fn("b"), fn("k"), fn("b", order=1),
    Rat(Fraction(2)), Rat(Fraction(-1, 2)), Rat(Fraction(3)),
])


def _exprs(max_depth=6, fns=("sin", "cos", "exp"), leaves=12):
    return st.recursive(
        _ATOMS,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: Sum(p)),
            st.tuples(children, children, children).map(lambda p: Sum(p)),
            st.tuples(children, children).map(lambda p: Prod(p)),
            st.tuples(children, st.integers(-2, 3)).map(
                lambda p: Pow(p[0], p[1])),
            st.tuples(st.sampled_from(fns), children).map(
                lambda p: App(p[0], p[1])),
        ),
        max_leaves=leaves,
    )


def _try_normalize(e):
    try:
        return normalize(e)
    except ExprError:
        return None


@settings(max_examples=80, deadline=None)
@given(_exprs())
def test_normalize_idempotent(e):
    n1 = _try_normalize(e)
    assume(n1 is not None)
    assert normalize(n1) == n1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_exprs())
def test_diff_commutes_with_shift(e):
    canon = _try_normalize(e)
    assume(canon is not None)
    try:
        lhs = shift(diff(canon, T))
        rhs = diff(shift(canon), T)
    except ExprError:
        assume(False)
    assert lhs == rhs


# shift(diff(e, t)) holds -(t - r)^(-1) cos(...) where diff(shift(e), t)
# holds (r - t)(t - r)^(-2) cos(...): equal functions (the sampled zero
# test of their difference reads 3.9e-14), different normal forms
@pytest.mark.xfail(strict=True, reason=(
    "normalize does not cancel a numerator factor shared with an opaque "
    "negative-power base: (r - t)(t - r)^(-2) stays unreduced"))
def test_diff_commutes_with_shift_through_a_reciprocal_of_t():
    e = normalize(Prod((T, App("sin", Pow(T, -1)))))
    assert shift(diff(e, T)) == diff(shift(e), T)


@settings(max_examples=80, deadline=None)
@given(_exprs())
@example(Pow(Pow(Sum((T, X)), -1), -2))
def test_collect_is_a_partition(e):
    canon = _try_normalize(e)
    assume(canon is not None)
    try:
        parts = collect(canon, {X, X1})
    except ExprError:
        assume(False)
    total = ZERO
    for mono, coeff in parts.items():
        total = total + mono * coeff
    assert normalize(total) == canon


def _input_sensitivity(e, env, tbl, value, ulps=4):
    """First-order bound on how far e's value moves when each input moves
    by ulps units in the last place: the sum over the inputs of the larger
    change of the two directions."""
    total = 0.0
    for name in env:
        worst = 0.0
        for toward in (-math.inf, math.inf):
            moved = dict(env)
            for _ in range(ulps):
                moved[name] = math.nextafter(moved[name], toward)
            worst = max(worst, abs(eval_numeric(e, moved, tbl) - value))
        total += worst
    return total


@settings(max_examples=80, deadline=None)
@given(_exprs(), st.integers(0, 10 ** 6))
# exp amplifies the last-bit difference of (t x)^-2 and t^-2 x^-2: the
# two values differ by 7.3e-11, and 4 ulps of t and x move it by 5.1e-10
@example(App("sin", App("exp", Pow(Prod((T, X)), -2))), 1050)
def test_eval_normalize_consistent(e, seed_int):
    import random

    rng = random.Random(seed_int)
    canon = _try_normalize(e)
    assume(canon is not None)
    env = {name: rng.uniform(-2.0, 2.0)
           for name in ("t", "x", "x1", "c1", "c2", "r")}
    scale = rng.uniform(0.5, 1.5)
    tbl = _numeric(_tables(scale, math))
    try:
        raw = eval_numeric(e, env, tbl)
        canon_val = eval_numeric(canon, env, tbl)
        # the normal form rounds its intermediates differently, by a few
        # ulps of the inputs at most
        sensitivity = _input_sensitivity(e, env, tbl, raw)
    except EvalError:
        assume(False)
    assume(abs(raw) < 1e12)
    assert abs(raw - canon_val) <= sensitivity + 1e-12 * max(
        1.0, abs(raw), abs(canon_val))


@settings(max_examples=80, deadline=None)
@given(_exprs(), _exprs(), st.sampled_from([T, X, X1]))
def test_product_rule(e1, e2, v):
    n1, n2 = _try_normalize(e1), _try_normalize(e2)
    assume(n1 is not None and n2 is not None)
    try:
        lhs = diff(n1 * n2, v)
        rhs = normalize(diff(n1, v) * n2 + n1 * diff(n2, v))
    except ExprError:
        assume(False)
    assert lhs == rhs


def test_normalize_expands_a_sum_raised_back_to_a_positive_power():
    got = normalize(parse("((t + x)^(-1))^(-2)"))
    assert got == normalize(parse("t^2 + 2*t*x + x^2"))
    assert got == normalize(parse("(t + x)^2"))
    assert normalize(parse("(t*(t + x)^(-2))^(-1)")) == normalize(
        parse("t^(-1)*x^2 + 2*x + t"))


# ---------------------------------------------------------------------------
# the numeric compiler over arrays, against a scalar reference


def _scalar_eval(e, env, tbl):
    """e at one point with the math library, a term or factor at a time;
    a domain error raises EvalError, an overflow the math error."""
    if isinstance(e, Rat):
        return float(e.q)
    if isinstance(e, Par):
        return env[e.name]
    if isinstance(e, Jet):
        return env[e.tag]
    if isinstance(e, Coeff):
        t = env["t"] - env["r"] if e.delayed else env["t"]
        return tbl[e.name][e.order](t)
    if isinstance(e, Sum):
        return math.fsum(_scalar_eval(x, env, tbl) for x in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= _scalar_eval(f, env, tbl)
        return out
    if isinstance(e, Pow):
        b = _scalar_eval(e.base, env, tbl)
        if b == 0.0 and e.n < 0:
            raise EvalError("zero raised to a negative power")
        return b ** e.n
    a = _scalar_eval(e.arg, env, tbl)
    if (e.fn == "ln" and a <= 0.0) or (e.fn == "sqrt" and a < 0.0):
        raise EvalError(f"{e.fn} of {a}")
    return getattr(math, "log" if e.fn == "ln" else e.fn)(a)


def _numeric(tables):
    """The lists of callables of a table as numeric descriptors."""
    return {name: CoeffDescriptor.numeric(*fns)
            for name, fns in tables.items()}


def _tables(scale, lib):
    return {
        "b": [lambda t: lib.sin(scale * t) + 2.0,
              lambda t: scale * lib.cos(scale * t),
              lambda t: -scale * scale * lib.sin(scale * t)],
        "k": [lambda t: lib.exp(0.3 * t),
              lambda t: 0.3 * lib.exp(0.3 * t),
              lambda t: 0.09 * lib.exp(0.3 * t)],
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_exprs(fns=("sin", "cos", "exp", "ln", "sqrt")),
       st.integers(0, 10 ** 6), st.booleans())
# k is read through np.exp on one side and math.exp on the other, and
# cos(k)^-1 near its pole amplifies that last-bit gap to 1.05e-13 at t =
# 1.46; 4 ulps of t move the value by 2.1e-13
@example(App("sin", Pow(App("cos", fn("k")), -1)), 9122, False)
def test_compile_array_matches_scalar(e, seed_int, canonical):
    if canonical:
        e = _try_normalize(e)
        assume(e is not None)
    rng = np.random.default_rng(seed_int)
    names = ("t", "x", "x1", "c1", "c2")
    env = {name: rng.uniform(-2.0, 2.0, 12) for name in names}
    env["r"] = 0.4
    scale = float(rng.uniform(0.5, 1.5))
    got = compile_numeric(e)(env, _numeric(_tables(scale, np)))
    got = np.broadcast_to(got, (12,))
    for i in range(12):
        point = {name: float(env[name][i]) for name in names}
        point["r"] = 0.4
        try:
            want = _scalar_eval(e, point, _tables(scale, math))
        except (EvalError, ArithmeticError, ValueError):
            assert math.isnan(got[i])
            continue
        if not abs(want) < 1e12:
            continue
        gap, bound = abs(got[i] - want), 1e-13 * max(1.0, abs(want))
        if gap > bound:
            # the two libraries round differently, by a few ulps of the
            # inputs at most
            bound += _input_sensitivity(e, point,
                                        _numeric(_tables(scale, math)), want)
        assert gap <= bound


@settings(max_examples=80, deadline=None)
@given(_exprs(fns=("sin", "cos", "exp", "ln", "sqrt")),
       st.integers(0, 10 ** 6), st.booleans())
@example(Sum((Prod((Pow(X, 3), Pow(X, 3))), T, X1)), 1, False)
def test_compiled_closure_gives_a_point_its_array_value(e, seed_int,
                                                         canonical):
    # float operands take short cuts through the sum and the per-element
    # functions; each point must still get its element of the array, NaN
    # and infinity included
    if canonical:
        e = _try_normalize(e)
        assume(e is not None)
    rng = np.random.default_rng(seed_int)
    names = ("t", "x", "x1", "c1", "c2")
    env = {name: rng.uniform(-2.0, 2.0, 8)
           * 10.0 ** rng.choice([0, 1, 2, 60], 8) for name in names}
    env["r"] = 0.4
    tbl = {name: CoeffDescriptor.numeric(lambda t: np.sin(t) + 2.0, np.cos,
                                         lambda t: -np.sin(t))
           for name in ("b", "k")}
    f = compile_numeric(e)
    with np.errstate(all="ignore"):
        got = np.broadcast_to(f(env, tbl), (8,))
        for i in range(8):
            point = {name: float(env[name][i]) for name in names}
            point["r"] = 0.4
            one = float(f(point, tbl))
            assert one == got[i] or (math.isnan(one) and math.isnan(got[i]))


def test_compile_array_masks_domain_errors():
    t = np.array([-1.0, 0.0, 2.0])
    assert np.isnan(compile_numeric(parse("sqrt(t)"))({"t": t},
                                                       None)).tolist() \
        == [True, False, False]
    assert np.isnan(compile_numeric(parse("ln(t)"))({"t": t}, None)).tolist() \
        == [True, True, False]
    got = compile_numeric(Pow(T, -1))({"t": t}, None)
    assert np.isnan(got).tolist() == [False, True, False]
    assert got[2] == 0.5
    # a constant expression broadcasts
    assert compile_numeric(parse("2/3"))({"t": t}, None) == 2 / 3


# ---------------------------------------------------------------------------
# one program for a group of expressions


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_exprs(fns=("sin", "cos", "exp", "ln", "sqrt")),
                          st.booleans()), min_size=1, max_size=4),
       st.integers(0, 10 ** 6))
def test_group_gives_each_expression_its_own_closure_value(pairs, seed_int):
    exprs = []
    for e, canonical in pairs:
        exprs.append(_try_normalize(e) if canonical else e)
    assume(all(e is not None for e in exprs))
    exprs.append(exprs[0])  # a repeated member shares all of its nodes
    rng = np.random.default_rng(seed_int)
    names = ("t", "x", "x1", "c1", "c2")
    env = {name: rng.uniform(-2.0, 2.0, 8)
           * 10.0 ** rng.choice([0, 1, 2, 60], 8) for name in names}
    env["r"] = 0.4
    tbl = {name: CoeffDescriptor.numeric(lambda t: np.sin(t) + 2.0, np.cos,
                                         lambda t: -np.sin(t))
           for name in ("b", "k")}
    with np.errstate(all="ignore"):
        group = compile_numeric(tuple(exprs))(env, tbl)
        assert len(group) == len(exprs)
        for e, got in zip(exprs, group):
            want = np.broadcast_to(compile_numeric(e)(env, tbl), (8,))
            got = np.broadcast_to(got, (8,))
            mask = np.isnan(want)
            assert np.isnan(got).tolist() == mask.tolist()
            assert (got[~mask] == want[~mask]).all()


def test_group_fetches_a_shared_coefficient_once_per_call():
    calls = []

    def b(t):
        calls.append(t)
        return np.sin(t) + 2.0

    exprs = [parse("b(t)^(-2)"), parse("t*b(t) + 1"), parse("sin(b(t))"),
             fn("b")]
    program = compile_numeric(exprs)
    t = np.linspace(0.0, 1.0, 5)
    table = {"b": CoeffDescriptor.numeric(b)}
    for n in (1, 2):
        got = program({"t": t}, table)
        assert len(calls) == n
    for e, value in zip(exprs, got):
        assert (value == compile_numeric(e)({"t": t}, table)).all()


# ---------------------------------------------------------------------------
# the math library's loop in C, bit for bit against the Python loop


def _elementwise_reference(fn_, a):
    """The loop _elementwise ran before: a list comprehension, with an
    element whose call raises set to NaN."""
    if isinstance(a, float):
        try:
            return fn_(float(a))
        except (ArithmeticError, ValueError):
            return math.nan
    a = np.asarray(a, float)
    out = []
    for v in a.ravel().tolist():
        try:
            out.append(fn_(v))
        except (ArithmeticError, ValueError):
            out.append(math.nan)
    return np.array(out, float).reshape(a.shape)


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1e-310, 1e-160, -1e-160, 1e154, -1e154, 1e308,
                     -1.7976931348623157e308, math.nan, math.inf,
                     -math.inf, 1.0, -1.0]),
    st.floats(-1e3, 1e3))


def _same_bits(got, want):
    mask = np.isnan(want)
    assert np.isnan(got).tolist() == mask.tolist()
    assert (got[~mask] == want[~mask]).all()
    assert got[~mask].tobytes() == want[~mask].tobytes()  # signed zeros


@settings(max_examples=150, deadline=None)
@given(st.lists(_EDGE_FLOATS, min_size=1, max_size=40),
       st.integers(-8, 8).filter(bool))
def test_elementwise_pow_matches_the_python_loop(values, n):
    from ndelie.symexpr import _elementwise

    a = np.array(values, float)
    got = _elementwise(math.pow, a, float(n))
    _same_bits(got, _elementwise_reference(functools.partial(pow, exp=n),
                                           a))
    for v, element in zip(values, got.tolist()):
        one = _elementwise(math.pow, float(v), float(n))
        assert type(one) is float
        assert math.isnan(one) and math.isnan(element) or \
            np.float64(one).tobytes() == np.float64(element).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(_EDGE_FLOATS, min_size=1, max_size=40),
       st.sampled_from([math.exp, math.log]))
def test_elementwise_exp_and_log_match_the_python_loop(values, fn_):
    from ndelie.symexpr import _elementwise

    a = np.array(values, float).reshape(-1, 1)
    _same_bits(_elementwise(fn_, a), _elementwise_reference(fn_, a))


# ---------------------------------------------------------------------------
# a normal form keeps its expansion


def _fresh(e):
    """The same tree built anew, so nothing of it carries a cache."""
    if isinstance(e, Sum):
        return Sum(tuple(_fresh(t) for t in e.terms))
    if isinstance(e, Prod):
        return Prod(tuple(_fresh(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_fresh(e.base), e.n)
    if isinstance(e, App):
        return App(e.fn, _fresh(e.arg))
    return e


def _expansion(e):
    return list(_poly(e).items())


def _reuse(n):
    """Put a normal form through the kernel the way the callers do."""
    for e in (n + n, n * n, n - n, Pow(n, 2), Pow(n, -1), n * X1 + T,
              Sum((n, Prod((n, X)), Rat(Fraction(-3))))):
        try:
            normalize(e)
        except ExprError:
            pass
    for op in (lambda: diff(n, T), lambda: diff(n, X),
               lambda: collect(n, {X, X1}), lambda: shift(n),
               lambda: substitute(n, {X: T + 1, fn("b"): App("sin", T)}),
               lambda: compile_numeric(n)):
        try:
            op()
        except ExprError:
            pass


@settings(max_examples=80, deadline=None)
@given(_exprs())
@example(Pow(Pow(Sum((T, X)), -1), -2))
@example(Sum((Pow(Sum((T, X)), -1), T)))
def test_normal_form_keeps_its_expansion(e):
    n = _try_normalize(e)
    assume(n is not None)
    fresh = _expansion(_fresh(n))
    # the same monomials and coefficients in the same order, as the
    # expansion of the raw expression gives them too
    assert _expansion(n) == fresh
    assert _poly(_fresh(e)) == dict(fresh)
    if isinstance(n, (Sum, Prod, Pow)):
        assert normalize(n) is n
    for _ in range(3):
        _reuse(n)
    assert _expansion(n) == fresh
    assert normalize(_fresh(n)) == n


@settings(max_examples=40, deadline=None)
@given(_exprs())
def test_node_hash_is_the_dataclass_hash(e):
    n = _try_normalize(e)
    assume(n is not None)
    nodes = [n]
    while nodes:
        node = nodes.pop()
        fields = tuple(getattr(node, f.name)
                       for f in dataclasses.fields(node))
        assert hash(node) == hash(fields) == hash(_fresh(node))
        nodes.extend(f for f in fields if isinstance(f, Expr))
        nodes.extend(f for t in fields if isinstance(t, tuple) for f in t)


def _child(script, *args):
    """The JSON that script prints, run in a fresh interpreter on the
    package under test."""
    import ndelie

    src = os.path.dirname(os.path.dirname(ndelie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _private_keys(e):
    """The _-prefixed keys of every node of e."""
    keys, nodes = [], [e]
    while nodes:
        node = nodes.pop()
        keys += [k for k in node.__dict__ if k.startswith("_")]
        nodes.extend(_operands(node))
    return keys


def _atom_ids(n):
    return {render(_ATOM_OF[i]): i for m in _poly(n) for i, _ in m}


_PICKLE_CHILD = """
import json, pickle, sys
from ndelie.symexpr import _ATOMS, Par, Sum, _poly, normalize, parse, render
# a thousand other atoms first, so the same atoms get other ids here
normalize(Sum(tuple(Par(f"c{i}") for i in range(1000, 2000))))
n = normalize(parse(sys.argv[1]))
hash(n)
ids = {render(_ATOMS[i]): i for m in _poly(n) for i, _ in m}
print(json.dumps({"pickle": pickle.dumps(n).hex(), "ids": ids}))
"""


def test_pickled_node_drops_its_caches():
    text = "(b(t) + t)^(-1) * x + sin(t)^2"
    n = normalize(parse(text))
    hash(n)
    copy = pickle.loads(pickle.dumps(n))
    assert not _private_keys(copy)
    assert copy == n and hash(copy) == hash(n)
    assert normalize(copy) == n
    # pickled where the same atoms have other ids
    child = _child(_PICKLE_CHILD, text)
    assert child["ids"].keys() == _atom_ids(n).keys()
    assert child["ids"] != _atom_ids(n)
    copy = pickle.loads(bytes.fromhex(child["pickle"]))
    assert not _private_keys(copy)
    assert copy == n and hash(copy) == hash(n)
    assert normalize(copy) == n


# ---------------------------------------------------------------------------
# a normal form does not depend on the order the kernel meets its atoms


_ORDER_CHILD = """
import json, sys
from ndelie.detsys import generic_ansatz, invariance_residual
from ndelie.suite import build_scenarios
from ndelie.symexpr import _ATOMS, _poly, normalize, parse, render

TEXTS = ("x + t - c01*c1", "c2*x1 - c1*b(t)*x^2 + 3/2",
         "sin(t)*k(t-r) + x2r*cos(x) - 1/3*x1r",
         "(b'(t) + t)^(-1)*x1r + exp(c1*t)^2 - (x + b(t))^(-2)",
         "t*x*c1 + k(t)*c2 - x1^3 + sqrt(t + c3)")


def parsed(text):
    return lambda: [parse(text)]


def scenario(name):
    # the determine input of the scenario: its coefficients and the
    # invariance residual of the generic ansatz
    def exprs():
        spec = next(sc.spec for sc in build_scenarios() if sc.name == name)
        return [getattr(spec, f).expr for f in "abcdkh"] + [
            invariance_residual(spec, generic_ansatz())]
    return exprs


jobs = ([(t, parsed(t)) for t in TEXTS[:2]]
        + [(name, scenario(name)) for name in ("C5", "C11", "C12")]
        + [(t, parsed(t)) for t in TEXTS[2:]])
if sys.argv[1] == "backward":
    jobs.reverse()
out = {}
for label, exprs in jobs:
    forms = []
    for e in exprs():
        n = normalize(e)
        monos = [sorted([render(_ATOMS[i]), k] for i, k in m)
                 for m in _poly(n)]
        forms.append([render(n), monos])
    out[label] = forms
ids = {render(a): i for i, a in enumerate(_ATOMS)}
print(json.dumps({"forms": out, "ids": ids}))
"""


def test_normal_form_does_not_depend_on_the_order_atoms_are_met():
    forward = _child(_ORDER_CHILD, "forward")
    backward = _child(_ORDER_CHILD, "backward")
    assert len(forward["forms"]) == 8
    # the same renders, and the same monomials in the same order
    assert forward["forms"] == backward["forms"]
    # the two interpreters met the atoms in other orders
    ids = [forward["ids"], backward["ids"]]
    assert ids[0].keys() == ids[1].keys()
    before = [{(a, b) for a in i for b in i if i[a] < i[b]} for i in ids]
    assert before[0] != before[1]


# ---------------------------------------------------------------------------
# coefficients are exact


@settings(max_examples=80, deadline=None)
@given(_exprs())
@example(Pow(Prod((Rat(Fraction(2)), X)), -3))
@example(Pow(Prod((Rat(Fraction(-3)), T, X)), -2))
@example(Pow(Prod((Rat(Fraction(-1)), X)), -3))
def test_no_float_enters_a_polynomial(e):
    n = _try_normalize(e)
    assume(n is not None)
    # an int where integral, a Fraction otherwise
    for c in _poly(n).values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


# ---------------------------------------------------------------------------
# substitute and shift rewrite a normal form one factor at a time


_KEYS = [T, X, X1, Par("c1"), Par("c2"), fn("b"), fn("b", order=1), fn("k")]


def _bindings():
    return st.dictionaries(st.sampled_from(_KEYS), _exprs(leaves=4),
                           min_size=1, max_size=3)


def _shifted_leaf(a):
    if a == T:
        return T - Par("r")
    if isinstance(a, Jet):
        return {X: XR, X1: X1R, X2: X2R}[a]
    return fn(a.name, True, a.order) if isinstance(a, Coeff) else a


def _outcome(op, e):
    try:
        return op(e)
    except ExprError:
        return ExprError


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_exprs(), _bindings())
def test_rewriting_equals_the_tree_walk_it_replaces(e, bindings):
    n = _try_normalize(e)
    assume(n is not None)

    def tree_walk(e, leaf):
        """e rebuilt node by node with leaf applied to each Par, Jet and
        Coeff node: the tree substitute and shift normalized whole."""
        if isinstance(e, (Par, Jet, Coeff)):
            return leaf(e)
        if isinstance(e, Pow):
            return Pow(tree_walk(e.base, leaf), e.n)
        if isinstance(e, App):
            return App(e.fn, tree_walk(e.arg, leaf))
        if isinstance(e, (Sum, Prod)):
            return type(e)(tuple(tree_walk(k, leaf) for k in _operands(e)))
        return e

    def bound_leaf(a):
        if a in bindings:
            return bindings[a]
        if isinstance(a, Coeff) and fn(a.name) in bindings:
            v = bindings[fn(a.name)]
            for _ in range(a.order):
                v = diff(v, T)
            return v
        return a

    for op, leaf in ((lambda x: substitute(x, bindings), bound_leaf),
                     (shift, _shifted_leaf)):
        want = _outcome(lambda x: normalize(tree_walk(x, leaf)), n)
        got = _outcome(op, n)
        if want is ExprError or got is ExprError:
            assert got is want
            continue
        assert got == want and render(got) == render(want)
        assert list(_poly(got)) == list(_poly(want))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_exprs(), _bindings())
@example(Pow(Prod((Rat(Fraction(2)), Par("c1"))), -1),
         {Par("c1"): Sum((Par("c2"), T))})
@example(Pow(Prod((Rat(Fraction(2)), T)), -1), {X: X1})
def test_rewriting_acts_on_the_normal_form(e, bindings):
    n = _try_normalize(e)
    assume(n is not None)
    for op in (lambda x: substitute(x, bindings), shift):
        assert _outcome(op, e) == _outcome(op, n)


def test_a_zero_derivative_builds_nothing():
    # atoms no other test meets, so each new one would get a new id
    e = normalize(App("sin", num(Fraction(7, 13)) * T)
                  * App("exp", T / 11))
    known = len(_ATOM_OF)
    assert diff(e, X) == ZERO
    assert diff_explicit(e, "tr") == ZERO
    assert len(_ATOM_OF) == known


# diff walks the normal form's polynomial too


_F3 = fn("f", order=3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_exprs(fns=("sin", "cos", "exp", "ln", "sqrt")))
@example(Sum((_F3, Prod((Rat(Fraction(-1)), _F3)))))
@example(Prod((fn("b", order=3), X)))
@example(Sum((Prod((fn("b"), X1R)), Prod((fn("d", delayed=True), XR)),
              App("sqrt", Pow(Sum((T, fn("d", delayed=True))), -1)))))
def test_diff_equals_the_product_rule_tree_it_replaces(e):
    n = _try_normalize(e)
    assume(n is not None)

    def diff_raw(e, tag, slot):
        """The product-rule tree diff and diff_explicit normalized whole:
        slot 'all' for d/dt, 't' and 'tr' for the explicit partials."""
        if isinstance(e, (Rat, Par)):
            return ZERO
        if isinstance(e, Jet):
            if tag == "t" and slot == "tr":
                return ZERO
            return ONE if e.tag == tag else ZERO
        if isinstance(e, Coeff):
            if tag != "t" or (slot == "t" and e.delayed) or \
                    (slot == "tr" and not e.delayed):
                return ZERO
            if e.order >= 3:
                raise ExprError(f"differentiating {e.name} beyond order 3")
            return Coeff(e.name, e.delayed, e.order + 1)
        if isinstance(e, Sum):
            terms = [d for d in (diff_raw(k, tag, slot) for k in e.terms)
                     if d is not ZERO]
            return Sum(tuple(terms)) if terms else ZERO
        if isinstance(e, Prod):
            terms = []
            for i, f in enumerate(e.factors):
                df = diff_raw(f, tag, slot)
                if df is not ZERO:
                    terms.append(
                        Prod(e.factors[:i] + (df,) + e.factors[i + 1:]))
            return Sum(tuple(terms)) if terms else ZERO
        if isinstance(e, Pow):
            db = diff_raw(e.base, tag, slot)
            if db is ZERO:
                return ZERO
            return Prod((Rat(Fraction(e.n)), Pow(e.base, e.n - 1), db))
        da = diff_raw(e.arg, tag, slot)
        if da is ZERO:
            return ZERO
        outer = {"sin": App("cos", e.arg), "cos": -App("sin", e.arg),
                 "exp": App("exp", e.arg), "ln": Pow(e.arg, -1),
                 "sqrt": num(Fraction(1, 2)) * Pow(App("sqrt", e.arg), -1)}
        return Prod((outer[e.fn], da))

    ops = [(functools.partial(diff, v=v), v.tag, "all")
           for v in (T, X, XR, X1, X1R, X2, X2R)]
    ops += [(functools.partial(diff_explicit, slot=s), "t", s)
            for s in ("t", "tr")]
    for op, tag, slot in ops:
        want = _outcome(lambda x: normalize(diff_raw(x, tag, slot)), n)
        got = _outcome(op, n)
        if want is ExprError or got is ExprError:
            assert got is want
        else:
            assert got == want and render(got) == render(want)
            assert list(_poly(got)) == list(_poly(want))
        # an input that is not a normal form gives its normal form's
        # derivative: f'''(t) - f'''(t) is 0, so its derivative is 0
        assert _outcome(op, e) == got


# one rule for what is delayed: shift, a functional binding and an ansatz
# all refuse the same leaves


@pytest.mark.parametrize("leaf", [XR, X1R, X2R, fn("f", delayed=True),
                                  Par("r")], ids=render)
def test_every_reader_refuses_a_delayed_leaf(leaf):
    assert is_delayed(leaf)
    e = normalize(T * leaf + X)
    with pytest.raises(ExprError, match="delayed"):
        shift(e)
    with pytest.raises(ExprError, match="delay-free"):
        substitute(fn("g", order=1) * X, {fn("g"): e})
    with pytest.raises(ExprError, match="delayed"):
        InfinitesimalAnsatz(e, X)
    with pytest.raises(ExprError, match="delayed"):
        InfinitesimalAnsatz(T, e)


def test_a_coefficient_named_r_is_not_delayed():
    # r(t) is a coefficient function of t, not the delay r
    r_of_t = fn("r")
    assert not is_delayed(r_of_t)
    assert shift(r_of_t) == fn("r", delayed=True)
    assert substitute(fn("g"), {fn("g"): r_of_t}) == r_of_t
    a = InfinitesimalAnsatz(r_of_t, r_of_t * X)
    assert a.omega == r_of_t
