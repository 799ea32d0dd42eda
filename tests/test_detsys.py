import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ndelie.detsys import (
    SPLIT_JETS, ZERO_POINTS, ZERO_SEED, ZERO_TOL, ZeroResult,
    _instance_family,
    apply_delay_equalities, canonical_constraints, determine,
    first_integral, generic_ansatz, invariance_residual, is_zero,
    reduce_ansatz, reduced_ansatz, split,
)
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.prolong import InfinitesimalAnsatz
from ndelie.suite import build_scenarios
from ndelie.symexpr import (
    App, Coeff, EvalError, Par, T, X, X1, X1R, X2R, XR, ZERO, atoms,
    compile_numeric, diff, equivalent, eval_numeric, fn, normalize, num,
    parse, shift,
)

from golden_forms import GOLDEN, beta_to_omega


def generic_spec():
    return NdeSpec.make(b=CD.closed(fn("b")), c=CD.closed(fn("c")),
                        d=CD.closed(fn("d")), k=CD.closed(fn("k")), r=1.0)


# ---------------------------------------------------------------------------
# residual generation


def test_residual_requires_reduced_form():
    spec = NdeSpec.make(a=1, k=1, r=1.0)
    with pytest.raises(Exception):
        invariance_residual(spec, reduced_ansatz())


def test_cubic_delayed_velocity_row():
    sys0 = determine(generic_spec())
    row = sys0.find(X1R ** 3)
    w_xx = diff(diff(generic_ansatz().omega, X), X)
    assert equivalent(row.residual, -(fn("k") * shift(w_xx)))


def test_neutral_sin_residual():
    # b = c = d = 0, k = 1 with upsilon = sin t
    spec = NdeSpec.make(k=1, r=1.0)
    a = InfinitesimalAnsatz(ZERO, App("sin", T))
    res = invariance_residual(spec, a)
    assert equivalent(res, -App("sin", T) - App("sin", T - Par("r")))
    # vanishes when the delay is pi
    vals = [eval_numeric(res, {"t": t, "r": math.pi})
            for t in np.linspace(0.0, 6.0, 13)]
    assert max(abs(v) for v in vals) < 1e-12


def test_zero_ansatz_residual():
    spec = generic_spec()
    assert invariance_residual(spec, InfinitesimalAnsatz(ZERO, ZERO)) == ZERO


# ---------------------------------------------------------------------------
# split and reduce


def test_split_zero_residual():
    sys0 = split(ZERO, generic_spec())
    assert sys0.nontrivial() == []
    assert sys0.functional_constraints == ["omega(t,x) = omega(t-r, x(t-r))"]


def test_reduced_system_matches_catalog():
    sys1 = reduce_ansatz(determine(generic_spec()))
    for monomial, cid in ((X, "E-x"), (X1, "E-x1"), (num(1), "E-1"),
                          (X2R, "E-x2r"), (XR, "E-xr"), (X1R, "E-x1r")):
        row = sys1.find(monomial)
        assert row.catalog_id == cid
        assert row.residual == GOLDEN[cid]


def test_reduced_system_integrations():
    sys1 = reduce_ansatz(determine(generic_spec()))
    # the velocity row integrates to twice its golden first integral
    assert sys1.find(X1).integrated == normalize(2 * GOLDEN["E-x1-int"])
    assert sys1.find(X1R).integrated == GOLDEN["E-x1r-int"]


def test_reduced_system_delay_constraints():
    sys1 = reduce_ansatz(determine(generic_spec()))
    labels = sys1.functional_constraints
    assert "beta(t) = beta(t-r)" in labels
    assert "gamma(t) = gamma(t-r)" in labels


def test_canonical_constraints_forms():
    sys2 = canonical_constraints(reduce_ansatz(determine(generic_spec())))
    got = {eq.catalog_id: eq.residual for eq in sys2.equations}
    assert got["E-omega-c"] == GOLDEN["E-omega-c"]
    assert got["E-omega-d"] == GOLDEN["E-omega-d"]
    # the omega pinning is the delayed-velocity first integral renamed
    assert got["E-omega-b"] == GOLDEN["E-omega-b"] \
        == beta_to_omega(GOLDEN["E-x1r-int"])
    assert got["E-x2r"] == beta_to_omega(GOLDEN["E-x2r"])
    assert got["E-1"] == GOLDEN["E-1"]
    # the upsilon record is the integrated velocity row renamed
    assert got["E-upsilon"] == GOLDEN["E-upsilon"] \
        == beta_to_omega(GOLDEN["E-x1-int"])


def _omega_d_row(spec):
    sys2 = canonical_constraints(reduce_ansatz(determine(spec)))
    (row,) = [eq for eq in sys2.equations if eq.catalog_id == "E-omega-d"]
    return row.to_json()


@pytest.mark.parametrize("spec, residual, note", [
    # a value for k leaves no k to substitute, and so no note
    (NdeSpec.make(b=2, c=1, k=2, r=1.0),
     "2*omega''(t) + 2*omega'''(t)", None),
    (NdeSpec.make(b=1, c=1, r=1.0), "omega''(t)", None),
    # a table k enters as the function k(t), which the row replaces by c2
    (NdeSpec.make(b=1, c=1, d=1, k=CD.from_table(
        np.linspace(0.0, 3.0, 31), 1 + np.linspace(0.0, 3.0, 31) / 10),
        r=1.0),
     "c2*omega'''(t) + 4*omega'(t) + omega''(t)",
     "k constant (= c2) substituted"),
], ids=["C3-k-2", "C11-k-0", "table-k"])
def test_omega_d_row_notes_only_a_substitution_it_made(spec, residual,
                                                       note):
    row = _omega_d_row(spec)
    assert row["residual"] == residual
    assert row.get("note") == note


def test_nonconstant_k_forces_beta_zero():
    # with k(t) = t the branch row is beta(t) alone, so beta must vanish
    spec = NdeSpec.make(b=1, c=1, d=1, k=CD.closed(T), r=1.0)
    sys1 = reduce_ansatz(determine(spec))
    row = sys1.find(X2R)
    assert equivalent(row.residual, fn("beta"))


def test_apply_delay_equalities():
    e = fn("beta", delayed=True, order=1) - fn("beta", order=1)
    assert apply_delay_equalities(e, ("beta",)) == ZERO


# ---------------------------------------------------------------------------
# first integrals


def test_linear_antiderivative():
    e = normalize(2 * fn("gamma", order=1) - fn("beta", order=2))
    anti = first_integral(e)
    assert equivalent(anti, 2 * fn("gamma") - fn("beta", order=1))


def test_product_antiderivative():
    e = normalize(fn("b") * fn("beta", order=1)
                  + fn("b", order=1) * fn("beta"))
    anti = first_integral(e)
    assert equivalent(anti, fn("b") * fn("beta"))


def test_product_antiderivative_rejects_mismatch():
    e = normalize(fn("b") * fn("beta", order=1)
                  + 2 * fn("b", order=1) * fn("beta"))
    assert first_integral(e) is None


@pytest.mark.parametrize("row", [
    ZERO,
    fn("beta"),  # an underived unknown alone lowers to nothing
    fn("beta", order=1) + fn("b"),  # a term without an unknown
    fn("beta", order=1) * fn("gamma"),  # a term with two
    fn("beta", order=1) ** 2,
    fn("beta", order=1) + fn("beta"),
], ids=["zero", "underived", "no-unknown", "two-unknowns", "square",
        "no-antiderivative"])
def test_first_integral_refuses_a_row_outside_its_rule(row):
    assert first_integral(row) is None


@pytest.mark.parametrize("b", ["1", "2", "2 + cos(4*t)/10", "t"])
def test_delayed_velocity_row_integrates_for_a_closed_b(b):
    # the row b beta' + b' beta integrates to b beta - c3 whatever the
    # form of b, and pins omega through b omega - c3
    spec = NdeSpec.make(b=b, c=1, d=1, k=1, r=1.0)
    sys1 = reduce_ansatz(determine(spec))
    row = sys1.find(X1R)
    assert (row.integrated, row.constant_introduced) == (
        normalize(parse(b) * fn("beta") - Par("c3")), "c3")
    sys2 = canonical_constraints(sys1)
    (pin,) = [eq for eq in sys2.equations if eq.catalog_id == "E-omega-b"]
    assert pin.residual == normalize(parse(b) * fn("omega") - Par("c3"))
    assert [a for a in sys2.assumptions if a.startswith("b: nonzero (")]


def test_a_zero_b_leaves_the_delayed_velocity_row_unintegrated():
    sys1 = reduce_ansatz(determine(NdeSpec.make(c=1, d=1, k=1, r=1.0)))
    assert sys1.find(X1R).residual == ZERO
    assert sys1.find(X1R).integrated is None
    sys2 = canonical_constraints(sys1)
    assert "E-omega-b" not in [eq.catalog_id for eq in sys2.equations]
    assert not [a for a in sys2.assumptions if a.startswith("b: ")]


def test_omega_quadratic_first_integral():
    # the delayed-position constraint multiplied by omega integrates to
    # c2 w w'' - (c2/2) w'^2 + 2 d w^2 + c3 w'
    w = fn("omega")
    w1, w2, w3 = (fn("omega", order=i) for i in (1, 2, 3))
    c2, c3 = Par("c2"), Par("c3")
    d = fn("d")
    derivative_form = normalize(
        c2 * w * w3 + 2 * w ** 2 * fn("d", order=1) + 4 * w * w1 * d
        + c3 * w2)
    candidate = normalize(
        c2 * w * w2 - Fraction(1, 2) * c2 * w1 ** 2 + 2 * d * w ** 2
        + c3 * w1)
    assert diff(candidate, T) == derivative_form


def test_omega_c_first_integral():
    # omega times the c-constraint integrates to w w'' - w'^2/2 + 2 c w^2
    w = fn("omega")
    w1, w2, w3 = (fn("omega", order=i) for i in (1, 2, 3))
    c = fn("c")
    derivative_form = normalize(
        w * w3 + 4 * c * w * w1 + 2 * fn("c", order=1) * w ** 2)
    candidate = normalize(
        w * w2 - Fraction(1, 2) * w1 ** 2 + 2 * c * w ** 2)
    assert diff(candidate, T) == derivative_form


# ---------------------------------------------------------------------------
# zero test


def test_is_zero_symbolic():
    assert is_zero(ZERO).mode == "symbolic"
    assert is_zero(ZERO)


def test_is_zero_sampled_identity():
    res = is_zero(parse("sin(t)^2 + cos(t)^2 - 1"))
    assert res and res.mode == "sampled"


def test_is_zero_draws_varying_instances():
    # an unbound function is drawn neither constant nor zero
    assert not is_zero(parse("beta(t)*k'(t)"))


def test_is_zero_delay_equal_instances():
    # a drawn instance is not delay-equal
    e = fn("beta", delayed=True) - fn("beta")
    assert not is_zero(e)


# ---------------------------------------------------------------------------
# splitting soundness oracle: reconstruction equals the unsplit residual


def _instance(rng):
    def trig(a0, a1, w):
        return CD.numeric(
            lambda t: a0 + a1 * np.sin(w * t),
            lambda t: a1 * w * np.cos(w * t),
            lambda t: -a1 * w * w * np.sin(w * t),
            lambda t: -a1 * w ** 3 * np.cos(w * t))

    table = {}
    for name in ("b", "c", "d", "k", "beta", "gamma", "rho",
                 "alpha", "alpha2", "gamma2"):
        table[name] = trig(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                           rng.uniform(0.4, 1.6))
    return table


def test_splitting_soundness_sampled():
    spec = generic_spec()
    ansatz = generic_ansatz()
    residual = invariance_residual(spec, ansatz)
    sys0 = split(residual, spec)
    res_fn = compile_numeric(residual)
    rows = [(compile_numeric(eq.monomial), compile_numeric(eq.residual))
            for eq in sys0.equations]

    rng = np.random.RandomState(7)
    jets = ("x", "xr", "x1", "x1r", "x2", "x2r")
    worst = 0.0
    for _ in range(25):
        table = _instance(rng)
        for _ in range(25):
            env = {"t": rng.uniform(0.1, 4.0), "r": rng.uniform(0.5, 2.0)}
            for j in jets:
                env[j] = rng.uniform(-2.0, 2.0)
            direct = res_fn(env, table)
            recon = math.fsum(m(env, table) * c(env, table)
                              for m, c in rows)
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(direct - recon) / scale)
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# completeness: the classical system makes the residual vanish


def test_reduced_system_is_complete():
    """With the affine pair, the delay equalities, and every split row
    imposed through closed-form instances, the sampled residual vanishes
    to roundoff."""
    spec = generic_spec()
    residual = invariance_residual(spec, reduced_ansatz())
    r = 1.0
    kconst = Fraction(13, 10)
    c1v, c3v, c5v, c6v = 0.8, Fraction(7, 10), Fraction(1), Fraction(1)

    # b periodic in r and nonvanishing, so beta = c3/b is delay-equal
    two_pi = 2 * math.pi
    b_table = CD.numeric(
        lambda t: 2.0 + 0.3 * np.sin(two_pi * t),
        lambda t: 0.3 * two_pi * np.cos(two_pi * t),
        lambda t: -0.3 * two_pi ** 2 * np.sin(two_pi * t),
        lambda t: -0.3 * two_pi ** 3 * np.cos(two_pi * t))

    b = fn("b")
    b1, b2 = fn("b", order=1), fn("b", order=2)
    half = num(Fraction(1, 2))
    beta_expr = normalize(num(c3v) * b ** -1)
    gamma_expr = normalize(half * (diff(beta_expr, T) + Par("c1")))
    # closed forms satisfying the third-order and delayed-position rows
    c_expr = normalize(half * (b2 * b ** -1
                               - num(Fraction(3, 2)) * b1 ** 2 * b ** -2
                               + half * num(c6v) * b ** 2))
    d_expr = normalize(half * (num(c5v) * b ** 2 + b1
                               + num(kconst) * (b2 * b ** -1
                               - num(Fraction(3, 2)) * b1 ** 2 * b ** -2)))

    def chain(expr, orders=2):
        exprs = [expr]
        for _ in range(orders):
            exprs.append(diff(exprs[-1], T))
        compiled = [compile_numeric(e) for e in exprs]
        return CD.numeric(
            *[lambda t, f=f: f({"t": t, "c1": c1v}, {"b": b_table})
              for f in compiled])

    table = {
        "b": b_table,
        "k": CD.numeric(lambda t: float(kconst), *[lambda t: 0.0] * 3),
        "beta": chain(beta_expr, 3),
        "gamma": chain(gamma_expr, 2),
        "rho": CD.zero(),
        "c": chain(c_expr, 1),
        "d": chain(d_expr, 1),
    }
    res_fn = compile_numeric(residual)
    rng = np.random.RandomState(3)
    worst = 0.0
    for _ in range(40):
        env = {"t": rng.uniform(0.1, 4.0), "r": r, "c1": c1v}
        for j in ("x", "xr", "x1", "x1r", "x2r"):
            env[j] = rng.uniform(-2.0, 2.0)
        worst = max(worst, abs(res_fn(env, table)))
    assert worst < 1e-9


def _points_without_value(e):
    """The count of points without a value in the EvalError of is_zero on
    e, which it raises when fewer than half of the points evaluate."""
    with pytest.raises(EvalError,
                       match="of 64 sample points had no value") as err:
        is_zero(e)
    return int(str(err.value).split()[0])


def test_is_zero_needs_half_of_the_points():
    # sqrt(t - 7/2) is defined only for t > 3.5, a few of the points in
    # [0.1, 4]; the values there are far under the tolerance, but the
    # residual was not measured, so the test raises instead of passing
    few = _points_without_value(parse("sqrt(t - 7/2)/1000000000000"))
    assert 32 < few < 64
    assert _points_without_value(parse("sqrt(t - 5)")) == 64
    most = is_zero(parse("sqrt(t - 1/2)/1000000000000"))
    assert most.ok and 0 < most.skipped < 32


def test_is_zero_raises_the_error_of_a_coefficient_that_cannot_answer():
    # k supplies only its values, so the compiled residual raises on k',
    # and the error that names the orders k supplies reaches the caller
    # instead of counting as a point without a value
    e = parse("beta(t)*k'(t)")
    table = {"k": CD.numeric(lambda t: t)}
    for test in (is_zero, _pointwise_is_zero):
        with pytest.raises(EvalError,
                           match=r"numeric descriptor supplies orders 0\.\.0"):
            test(e, table)


def test_is_zero_marks_an_overflow_as_skipped():
    # exp(t^12) overflows for t above about 1.8, at most of the points in
    # [0.1, 4]; those count as skipped, and with so many the test raises
    e = parse("exp(t^12)*sin(t)^2 + exp(t^12)*cos(t)^2 - exp(t^12)")
    assert 2 * _points_without_value(e) > 64


def _pointwise_is_zero(e, fn_table=None, params=None):
    """is_zero with its points drawn and evaluated one at a time: the
    reference of the single draw and single evaluation."""
    canon = normalize(e)
    if canon == ZERO:
        return ZeroResult(True, "symbolic")
    rng = np.random.RandomState(ZERO_SEED)
    params = dict(params or {})
    r = float(params.get("r", rng.uniform(0.5, 2.0)))
    table = dict(fn_table or {})
    for atom in atoms(canon):
        if isinstance(atom, Coeff) and atom.name not in table:
            table[atom.name] = _instance_family(rng)
    jet_names = [j.tag for j in SPLIT_JETS] + ["x2"]
    par_names = sorted({a.name for a in atoms(canon)
                        if isinstance(a, Par) and a.name != "r"
                        and a.name not in params})
    f = compile_numeric(canon)
    worst, skipped, evaluated = 0.0, 0, 0
    for _ in range(ZERO_POINTS):
        env = {"r": r, "t": rng.uniform(0.1, 4.0)}
        for name in jet_names + par_names:
            env[name] = rng.uniform(-2.0, 2.0)
        env.update(params)
        v = float(f(env, table))
        if math.isnan(v):
            skipped += 1
            continue
        evaluated += 1
        worst = max(worst, abs(v))
    if 2 * evaluated < ZERO_POINTS:
        raise EvalError(
            f"{skipped} of {ZERO_POINTS} sample points had no value")
    return ZeroResult(worst < ZERO_TOL, "sampled", worst, skipped)


def test_is_zero_matches_the_pointwise_loop_on_every_scenario(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return is_zero(*args, **kwargs)

    classify_module = importlib.import_module("ndelie.classify")
    monkeypatch.setattr(classify_module, "is_zero", recording)
    for sc in build_scenarios():
        classify_module.classify(sc.spec)
    sampled = 0
    for args, kwargs in calls:
        got = is_zero(*args, **kwargs)
        assert got == _pointwise_is_zero(*args, **kwargs)
        sampled += got.mode == "sampled"
    assert len(calls) >= 14 and sampled > 0


@pytest.mark.parametrize("e", [
    fn("beta", delayed=True) - fn("beta"),
    parse("beta(t)*k'(t)"),
], ids=["generic", "two-functions"])
def test_is_zero_matches_the_pointwise_loop_on_every_family(e):
    # no coefficient is bound, so each one is drawn from its instance family
    got = is_zero(e)
    assert got.mode == "sampled"
    assert got == _pointwise_is_zero(e)
