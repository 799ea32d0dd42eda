import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndelie.equation import CoeffDescriptor as CD, NdeSpec, Spline
from ndelie.symexpr import (
    App, Coeff, ExprError, Rat, T, ZERO, diff, fn, normalize, num, parse,
)


def _round_trip(spec):
    return NdeSpec.from_json(json.loads(json.dumps(spec.to_json())))


def test_every_descriptor_kind_round_trips():
    spec = NdeSpec.make(
        a=CD.from_table([0.0, 0.5, 1.0, 1.5, 2.0], [1.0, 1.5, 0.5, 2.0, 1.0]),
        b=CD.const(3), c="2 + cos(4*t)/10", d=CD.const("1/4"),
        k=None, h="sin(t)", r=math.pi / 2, t0=0.25)
    kinds = {name: d.kind for name, d in spec.descriptors().items()}
    assert sorted(set(kinds.values())) == ["closed", "const", "numeric",
                                           "zero"]
    back = _round_trip(spec)
    assert back.to_json() == spec.to_json()
    assert (back.r, back.t0) == (spec.r, spec.t0)
    for name, desc in spec.descriptors().items():
        for t in (0.3, 1.1, 1.7):
            for order in range(4):
                assert back.descriptors()[name].eval(t, order) == \
                    desc.eval(t, order)


def test_callable_numeric_descriptor_refuses_json():
    spec = NdeSpec.make(c=CD.numeric(np.cos, lambda t: -np.sin(t)))
    with pytest.raises(ExprError):
        spec.to_json()


def test_closed_descriptor_derives_on_first_use():
    from ndelie.symexpr import T, compile_numeric, diff, parse

    desc = CD.closed("t^2*sin(t) + cos(3*t)")
    t = 0.7
    assert desc.eval(t) == compile_numeric(desc.expr)({"t": t}, None)
    # order 0 builds no derivative at all
    assert len(desc._derivs) == 1
    assert set(desc._closures) == {0}
    d2 = diff(diff(desc.expr, T), T)
    assert desc.eval(t, 2) == compile_numeric(d2)({"t": t}, None)
    assert len(desc._derivs) == 3
    assert desc._derivs[2] == d2
    assert list(desc.sample([t], 1)) == [desc.eval(t, 1)]
    assert set(desc._closures) == {0, 1, 2}
    assert desc == CD.closed(parse("t^2*sin(t) + cos(3*t)"))


@pytest.mark.parametrize("desc", [
    CD.zero(), CD.const(3), CD.closed("t^2"),
    CD.numeric(np.sin, np.cos, lambda t: -np.sin(t),
               lambda t: -np.cos(t))])
def test_descriptor_rejects_order_outside_0_to_3(desc):
    for order in (-1, 4):
        with pytest.raises(ExprError):
            desc.eval(1.5, order)
        with pytest.raises(ExprError):
            desc.sample([1.5], order)
    assert desc.eval(1.5, 3) == desc.sample([1.5], 3)[0]


TABLE = [[0.0, 1.0], [0.5, 1.5], [1.0, 0.5], [1.5, 2.0]]
TABLE_DESC = CD.from_table([p[0] for p in TABLE], [p[1] for p in TABLE])

# (descriptor, kind, const_value(), symbolic("b"), to_json()); is_zero and
# is_const follow from the kind
PUBLIC_VIEWS = [
    # the four JSON kinds
    (CD.from_json({"kind": "zero"}), "zero", Fraction(0), ZERO,
     {"kind": "zero"}),
    (CD.from_json({"kind": "const", "value": "3/4"}), "const",
     Fraction(3, 4), Rat(Fraction(3, 4)), {"kind": "const", "value": "3/4"}),
    (CD.from_json({"kind": "closed", "expr": "t^2 + 1"}), "closed", None,
     parse("1 + t^2"), {"kind": "closed", "expr": "1 + t^2"}),
    (CD.from_json({"kind": "numeric-table", "samples": TABLE}), "numeric",
     None, Coeff("b"), {"kind": "numeric-table", "samples": TABLE}),
    # what NdeSpec.make turns each accepted value into
    (None, "zero", Fraction(0), ZERO, {"kind": "zero"}),
    (0, "zero", Fraction(0), ZERO, {"kind": "zero"}),
    (2, "const", Fraction(2), Rat(Fraction(2)),
     {"kind": "const", "value": "2"}),
    (Fraction(-1, 3), "const", Fraction(-1, 3), Rat(Fraction(-1, 3)),
     {"kind": "const", "value": "-1/3"}),
    ("sin(t)", "closed", None, parse("sin(t)"),
     {"kind": "closed", "expr": "sin(t)"}),
    ("6/4", "const", Fraction(3, 2), Rat(Fraction(3, 2)),
     {"kind": "const", "value": "3/2"}),
    (parse("exp(-t)/2"), "closed", None, parse("exp(-t)/2"),
     {"kind": "closed", "expr": "1/2*exp(-1*t)"}),
    (TABLE_DESC, "numeric", None, Coeff("b"),
     {"kind": "numeric-table", "samples": TABLE}),
]


@pytest.mark.parametrize("given,kind,value,sym,obj", PUBLIC_VIEWS)
def test_descriptor_public_view(given, kind, value, sym, obj):
    desc = NdeSpec.make(b=given).b
    if isinstance(given, CD):
        assert desc is given
    assert desc.kind == kind
    assert desc.is_zero == (kind == "zero")
    assert desc.is_const == (kind in ("zero", "const"))
    assert desc.const_value() == value
    assert desc.symbolic("b") == sym
    assert desc.to_json() == obj
    assert CD.from_json(obj).to_json() == obj


# -- the spline against scipy's CubicSpline, the reference it copies -------


def _reference(x, y, der, q):
    """scipy's not-a-knot spline through one column, at order der."""
    spline = pytest.importorskip("scipy.interpolate").CubicSpline(x, y)
    return (spline.derivative(der) if der else spline)(q)


def _queries(x, rng):
    # inside the knots, on them, up to one unit outside, and NaN
    return np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 40), x,
                           [np.nan]])


@settings(max_examples=150, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40),
       columns=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
# a wide gap after two narrow ones makes the elimination swap rows
@example(gaps=[1.0, 1.0, 100.0, 1.0, 1.0], columns=2, seed=0)
# glibc's pow squares the first gap one ulp away from gap * gap
@example(gaps=[9.76582045230678, 1.0, 2.0, 1.5], columns=1, seed=1)
def test_spline_matches_scipy_bit_for_bit(gaps, columns, seed):
    pytest.importorskip("scipy")
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(len(x), columns)) * 10.0 ** rng.uniform(-3, 3)
    q = _queries(x, rng)
    spline = Spline(x, y, "table")
    for der in range(4):
        got = spline(q, der)
        assert got.shape == (len(q), columns)
        for j in range(columns):
            np.testing.assert_array_equal(got[:, j],
                                          _reference(x, y[:, j], der, q))


def test_two_and_three_sample_splines_against_scipy():
    # two samples give the straight line, bit for bit; for three, scipy
    # solves the parabola's 3 x 3 system with a dense LAPACK solver whose
    # rounding differs from the tridiagonal elimination, so the values
    # agree to 1e-12 of the largest value of orders 0-2 (2.5e-13 seen)
    pytest.importorskip("scipy")
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = np.cumsum(rng.uniform(0.1, 2.0, 3))
        y = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        q = _queries(x, rng)
        two = Spline(x[:2], y[:2], "table")
        three = Spline(x, y, "table")
        want = [_reference(x, y, der, q) for der in range(4)]
        scale = max(np.nanmax(np.abs(w)) for w in want[:3])
        for der in range(4):
            np.testing.assert_array_equal(two(q, der),
                                          _reference(x[:2], y[:2], der, q))
            got = three(q, der)
            assert np.array_equal(np.isnan(got), np.isnan(want[der]))
            assert np.nanmax(np.abs(got - want[der])) <= 1e-12 * scale


def test_table_descriptor_reads_its_spline():
    desc = CD.from_table([0.0, 0.4, 1.0, 1.3], [1.0, -0.5, 2.0, 0.25])
    spline = Spline([0.0, 0.4, 1.0, 1.3], [1.0, -0.5, 2.0, 0.25], "table")
    q = np.array([-0.5, 0.0, 0.7, 1.3, 2.0])
    for der in range(4):
        np.testing.assert_array_equal(desc.sample(q, der), spline(q, der))
        assert desc.eval(0.7, der) == float(spline(0.7, der))


# -- a numeric descriptor answers an array with one call, bit for bit ------


def _same_bits(got, want):
    """Equal arrays, NaN where NaN and every other value to the bit, the
    sign of zero included."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_table_descriptor_samples_its_spline_bit_for_bit(gaps, seed):
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(seed)
    y = rng.normal(size=len(x)) * 10.0 ** rng.uniform(-3, 3)
    q = _queries(x, rng)
    desc, spline = CD.from_table(x, y), Spline(x, y, "table")
    for order in range(4):
        got = desc.sample(q, order)
        _same_bits(got, spline(q, order))
        # each time alone reads the value the array gave it
        _same_bits([desc.sample(float(t), order) for t in q], got)


def test_bound_descriptors_sample_what_they_eval():
    # the diff chain of exp(-A/2) s(t-r)/s(t), with A a numeric table and s
    # a closed coefficient read at the delay point
    grid = np.linspace(-1.0, 5.0, 121)
    table = {"A": CD.from_table(grid, np.sin(grid) + grid ** 2 / 10),
             "s": CD.closed(parse("2 + cos(t)"))}
    chain = [normalize(App("exp", num(Fraction(-1, 2)) * fn("A"))
                       * fn("s", delayed=True) * fn("s") ** -1)]
    for _ in range(3):
        chain.append(diff(chain[-1], T))
    desc = CD.bound(chain, table, 0.75)
    ts = np.linspace(-0.25, 4.0, 61)
    assert desc.kind == "numeric" and len(desc.fns) == 4
    for order in range(4):
        got = desc.sample(ts, order)
        assert np.isfinite(got).all()
        _same_bits(got, [desc.eval(t, order) for t in ts])
