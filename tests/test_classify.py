import hashlib
import json
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndelie.classify import (
    ClassificationResult, CoeffDescriptor as CD, Generator, NdeSpec,
    _validate_closed, classify, compat_c_from_b,
    compat_c_from_d_pure_delay, compat_d_from_b, compat_d_from_b_pure_delay,
    OMEGA_POINTS_PER_UNIT, compatibility_c, omega_ode_solve,
    solve_omega_two_sided,
)
from ndelie.ndesolve import rk4_step
from ndelie.symexpr import (
    App, ExprError, Pow, T, X, ZERO, diff, eval_numeric, fn, normalize, num,
    parse,
)


def diff_n(e, order):
    for _ in range(order):
        e = diff(e, T)
    return e


# ---------------------------------------------------------------------------
# compatibility formulas are exact solutions of the omega-form constraints


def test_compat_c_from_b_is_exact():
    b = fn("b")
    c = compat_c_from_b(b, c6=Fraction(3, 7))
    w = normalize(Pow(b, -1))
    w1, w3 = diff_n(w, 1), diff_n(w, 3)
    assert normalize(w3 + 4 * c * w1 + 2 * diff_n(c, 1) * w) == ZERO


def test_compat_d_from_b_is_exact():
    b = fn("b")
    k = Fraction(13, 10)
    d = compat_d_from_b(b, k, c5=Fraction(2, 3))
    w = normalize(Pow(b, -1))
    w1, w2, w3 = (diff_n(w, o) for o in (1, 2, 3))
    assert normalize(num(k) * w3 + 2 * diff_n(d, 1) * w + 4 * d * w1
                     + b * w2) == ZERO


def test_compat_d_pure_delay_is_exact():
    b = fn("b")
    d = compat_d_from_b_pure_delay(b, c32=Fraction(5, 2))
    w = normalize(Pow(b, -1))
    w1, w2 = diff_n(w, 1), diff_n(w, 2)
    assert normalize(2 * diff_n(d, 1) * w + 4 * d * w1 + b * w2) == ZERO


def test_compat_c_pure_delay_keeps_energy_constant():
    # sqrt stays opaque symbolically, so this identity is checked by
    # sampling: w w'' - w'^2/2 + 2 c w^2 = c31 for w = 1/sqrt(d)
    d = fn("d")
    c = compat_c_from_d_pure_delay(d, c31=2)
    w = normalize(Pow(App("sqrt", d), -1))
    energy = normalize(w * diff_n(w, 2) - num(Fraction(1, 2))
                       * diff_n(w, 1) ** 2 + 2 * c * w ** 2 - 2)
    tbl = {"d": CD.numeric(lambda t: 2 + np.sin(t), lambda t: np.cos(t),
                           lambda t: -np.sin(t), lambda t: -np.cos(t))}
    worst = max(abs(eval_numeric(energy, {"t": t}, tbl))
                for t in np.linspace(0.2, 5.0, 23))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# omega equation solver


def test_line_solves_two_term_equation():
    # w = c14 t + c15 has w'' = 0 and solves w w''' + w'' = 0 exactly
    c14, c15 = 0.7, 1.3
    grid = np.linspace(0.0, 3.0, 301)
    (sol,) = omega_ode_solve("b-branch", {"c2": 1.0},
                             [(c15, c14, 0.0)], grid)
    ts = np.linspace(0.0, 3.0, 50)
    worst = np.max(np.abs(sol.sample(ts) - (c14 * ts + c15)))
    assert worst < 1e-10


@pytest.mark.parametrize("dname,chain", [
    ("one", CD.numeric(lambda t: 1.0, lambda t: 0.0)),
    ("exp", CD.numeric(np.exp, np.exp)),
    ("sin", CD.numeric(np.sin, np.cos)),
    ("square", CD.numeric(lambda t: t * t, lambda t: 2 * t)),
])
def test_energy_form_conserves_first_integral(dname, chain):
    grid = np.linspace(0.0, 2.0, 4001)
    (sol,) = omega_ode_solve("d-energy", {"c2": 1.0, "d": chain},
                             [(1.0, 0.3, -0.2)], grid)
    assert sol.conservation_drift(1.0) < 1e-8


def test_c_energy_trivial_case():
    grid = np.linspace(0.0, 2.0, 201)
    # w''' + 4 c w' + 2 c' w = 0 is the d-energy equation with d = c and
    # c2 = 1; with c = 0 the constant stays put
    chain = CD.numeric(lambda t: 0.0, lambda t: 0.0)
    (sol,) = omega_ode_solve("d-energy", {"c2": 1.0, "d": chain},
                             [(1.0, 0.0, 0.0)], grid)
    assert max(abs(sol.w - 1.0)) < 1e-14


def test_truncation_on_zero_crossing():
    # w w''' + w'' = 0 with data driving w through zero
    grid = np.linspace(0.0, 10.0, 2001)
    (sol,) = omega_ode_solve("b-branch", {"c2": 1.0},
                             [(0.5, -1.0, 0.1)], grid)
    assert sol.truncated
    assert sol.ts[-1] < 10.0


def test_omega_under_the_threshold_truncates_at_once():
    # w w''' + w'' = 0 holds w = 1e-13 put, but |w| < 1e-12 makes the third
    # derivative NaN, so the solution stops at its first node
    (sol,) = omega_ode_solve("b-branch", {"c2": 1.0}, [(1e-13, 0.0, 0.0)],
                             np.linspace(0.0, 1.0, 11))
    assert sol.truncated
    assert sol.ts.tolist() == [0.0] and np.isnan(sol.w3[0])


@pytest.mark.parametrize("case", ["b-branch", "d-energy"])
@pytest.mark.parametrize("c2", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_omega_equation_rejects_a_c2_it_cannot_divide_by(case, c2):
    # the equation divides by c2: a zero one would give NaN arrays with no
    # flag
    d = CD.numeric(lambda t: 1.0, lambda t: 0.0)
    with pytest.raises(ExprError, match="c2"):
        omega_ode_solve(case, {"c2": c2, "d": d}, [(1.0, 0.0, 0.0)],
                        np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("case, params, key", [
    ("b-branch", {}, "c2"), ("d-energy", {"d": CD.zero()}, "c2"),
    ("d-energy", {"c2": 1.0}, "d"),
], ids=["b-branch-c2", "d-energy-c2", "d-energy-d"])
def test_omega_equation_names_a_missing_parameter(case, params, key):
    with pytest.raises(ExprError, match=f"{case} omega equation needs "
                                        f"'{key}'"):
        omega_ode_solve(case, params, [(1.0, 0.0, 0.0)],
                        np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("init, w3", [
    ((0.5, 0.0, 1.0), -math.inf), ((0.5, 0.0, -1.0), math.inf),
    ((-0.5, 0.0, 1.0), math.inf), ((0.5, 0.0, 0.0), math.nan),
])
def test_an_underflowing_divisor_divides_as_ieee_floats(init, w3):
    # c2 w underflows to a signed zero: w''' is an infinity or NaN, as in
    # IEEE division, and the solution truncates at its first node
    (sol,) = omega_ode_solve("b-branch", {"c2": 5e-324}, [init],
                             np.linspace(0.0, 1.0, 11))
    assert sol.truncated
    assert sol.ts.tolist() == [0.0]
    assert np.array_equal(sol.w3, [w3], equal_nan=True)


def test_two_sided_solution_covers_backward_range():
    (sol,) = solve_omega_two_sided("d-energy",
                                   {"c2": 1.0,
                                    "d": CD.numeric(lambda t: 0.0,
                                                    lambda t: 0.0)},
                                   [(1.0, 0.0, 0.0)], 0.0, -2.0, 3.0)
    assert sol.sample([-1.5, 2.5]) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_energy_form_converges_at_fourth_order():
    # each halving of the step divides the change of w by about 2^4; a
    # stage reading the coefficients of the wrong time drops the order
    d = CD.closed(parse("2 + sin(t)"))
    sols = [omega_ode_solve("d-energy", {"c2": 1.5, "d": d},
                            [(1.0, 0.0, 0.0)],
                            np.linspace(0.0, 3.0, n + 1))[0]
            for n in (100, 200, 400, 800)]
    gaps = [np.max(np.abs(a.w - b.w[::2])) for a, b in zip(sols, sols[1:])]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 12 < coarse / fine < 20


# ---------------------------------------------------------------------------
# compatibility_c dispatch


def test_compatibility_c_free_for_zero_omega():
    spec = NdeSpec.make(d=1, k=1, r=1.0)
    assert compatibility_c(spec, ZERO) == "free"


def test_compatibility_c_const_omega():
    spec = NdeSpec.make(b=2, c=Fraction(3, 4), d=1, k=1, r=1.0)
    out = compatibility_c(spec, num(1))
    assert out.is_const and out.const_value() == Fraction(3, 4)
    varying = NdeSpec.make(b=2, c="sin(t)", d=1, k=1, r=1.0)
    with pytest.raises(ExprError):
        compatibility_c(varying, num(1))


def test_compatibility_c_numeric_matches_independent_quadrature():
    # omega from the energy form with d = e^t; c from our solver against
    # a finer independent integration of the same linear equation
    spec = NdeSpec.make(d="exp(t)", k=1, r=1.0)
    chain = CD.numeric(np.exp, np.exp)
    (sol,) = solve_omega_two_sided("d-energy", {"c2": 1.0, "d": chain},
                                   [(1.0, 0.0, 0.0)], 0.0, -0.5, 3.5)
    grid = np.linspace(0.0, 3.0, 601)
    desc = compatibility_c(spec, sol, c_t0=0.5, grid=grid)

    # oracle: RK1000-step reference via scipy on the same ODE
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        w0, w1, w3 = (float(sol.sample(t, o)) for o in (0, 1, 3))
        return [-(w3 + 4 * y[0] * w1) / (2 * w0)]

    ref = solve_ivp(rhs, (0.0, 3.0), [0.5], rtol=1e-11, atol=1e-12,
                    dense_output=True)
    for t in np.linspace(0.1, 2.9, 10):
        assert abs(desc.eval(t) - float(ref.sol(t)[0])) < 1e-6


def test_compatibility_c_numeric_converges_at_fourth_order():
    # omega = 1/b as a numeric descriptor takes the numeric route; its c
    # is compat_c_from_b's, and each halving of the step divides the error
    # by about 2^4
    b = parse("2 + cos(4*t)/10")
    w = CD.closed(normalize(Pow(b, -1)))
    omega = CD.numeric(*(lambda t, o=o: w.sample(t, o) for o in range(4)))
    exact = CD.closed(compat_c_from_b(b))
    spec = NdeSpec.make(b=CD.closed(b), c=exact, r=1.0)
    errors = []
    for n in (100, 200, 400):
        grid = np.linspace(0.0, 3.0, n + 1)
        got = compatibility_c(spec, omega, c_t0=exact.eval(0.0), grid=grid)
        values = np.array([v for _, v in got.samples])
        errors.append(np.max(np.abs(values - exact.sample(grid))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12 < coarse / fine < 20


# ---------------------------------------------------------------------------
# dispatch


def test_constant_numeric_table_classifies_as_its_constant():
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    table = classify(NdeSpec.make(b=1, c=CD.from_table(ts, [0.25] * 7),
                                  k=1, r=1.0))
    exact = classify(NdeSpec.make(b=1, c=Fraction(1, 4), k=1, r=1.0))
    assert table.case_id == exact.case_id == "C4"
    assert table.predicate_trace == exact.predicate_trace
    assert [(g.label, g.status) for g in table.generators] == \
        [(g.label, g.status) for g in exact.generators]
    assert len(table.admitted) == 3


@pytest.mark.parametrize("spec", [
    NdeSpec.make(c=1, d=Fraction(1, 2), k=1, r=1.0),
    # a numeric coefficient reaches the sampled test through the table
    NdeSpec.make(c=CD.from_table([0.0, 1.0, 2.0, 3.0, 4.0],
                                 [1.0, 1.2, 0.9, 1.1, 1.0]),
                 d=1, k=1, r=1.0),
], ids=["closed", "numeric-c"])
def test_validate_closed_demotes_a_generator_off_the_equation(spec):
    # t x d/dx scales x(t) and x(t-r) by different factors, so the delayed
    # terms leave a residual; x d/dx, linearity, stays admitted
    wrong = Generator("t x d/dx", "closed", omega=ZERO,
                      upsilon=normalize(T * X))
    right = Generator("x d/dx", "closed", omega=ZERO, upsilon=X)
    result = ClassificationResult(case_id="C9", generators=[wrong, right])
    for gen in (wrong, right):
        _validate_closed(spec, gen, result)
    assert wrong.status == "candidate" and right.status == "admitted"
    assert len(result.warnings) == 1
    warning = result.warnings[0]
    assert warning.startswith("t x d/dx: invariance residual not zero (max ")
    assert warning.endswith(", sampled)")
    assert wrong.warnings == [warning[len("t x d/dx: "):]]
    assert right.note == "[invariance zero: symbolic]"


def test_validate_closed_demotes_a_generator_it_cannot_evaluate():
    # a delayed omega has no shift to the delay point, so forming the
    # invariance residual itself raises
    spec = NdeSpec.make(b=1, c=1, k=1, r=1.0)
    gen = Generator("b(t-r) d/dt", "closed", omega=fn("b", delayed=True),
                    upsilon=ZERO)
    result = ClassificationResult(case_id="C3", generators=[gen])
    _validate_closed(spec, gen, result)
    assert gen.status == "candidate"
    assert gen.warnings == ["validation failed to evaluate: omega must not "
                            "contain delayed symbols"]
    assert result.warnings == ["b(t-r) d/dt: " + gen.warnings[0]]


def _zero(t):
    return 0.0 * np.asarray(t)


def _zero_before(cut):
    return lambda t: np.where(np.asarray(t) < cut, 0.0, np.nan)


@pytest.mark.parametrize("b1, warnings", [
    (None, ["validation failed to evaluate: numeric descriptor supplies "
            "orders 0..0"]),
    (_zero_before(2.0), ["validation failed to evaluate: 38 of 64 sample "
                         "points had no value"]),
    (_zero_before(3.0), []),
], ids=["no-b-prime", "b-prime-to-2", "b-prime-to-3"])
def test_validate_closed_says_when_too_few_points_evaluated(b1, warnings):
    # d/dt reads b'.  A numeric b with no b' cannot answer, and the
    # demotion names the orders it supplies.  Where b' has no value the
    # sampled test skips the point; with fewer than half of the points
    # left the residual was not measured, and the demotion says so instead
    # of reporting a residual; with more than half left d/dt is admitted
    # as for b = 0
    b = CD.numeric(_zero) if b1 is None else CD.numeric(_zero, b1)
    res = classify(NdeSpec.make(b=b, c=1, d=1, k=1, r=1.0))
    assert res.case_id == "C9"
    (gen,) = [g for g in res.generators if g.label == "d/dt"]
    assert gen.warnings == warnings
    assert gen.status == ("candidate" if warnings else "admitted")


PHI = "Phi d/dt + (x/2) Phi' d/dx"
ROOT_D = "(1/sqrt(d)) d/dt - (d'/(4 d^(3/2))) x d/dx"
C_CONSTRAINT = "c(t) incompatible with the third-order constraint"
D_POSITIVE = "d must stay positive for 1/sqrt(d)"
C_FORM = "required c(t) form not met"
B_FORMS = "required c(t), d(t) forms not met"
ONE_NODE = ("c-constraint failed to evaluate: an omega of one node has no "
            "dense output")


# near misses of the classes: each report carries a demotion or warning
# that the clean equations of the scenarios and the batch never reach.
# The demoted generator's warnings are given as prefixes, in order; every
# other generator stays admitted.
NEAR_MISSES = [
    (NdeSpec.make(k=1, c="1 + t/5", r=1.0), "C9", None,
     ["c(t) varies: no time translation admitted"]),
    (NdeSpec.make(b="1/(1 - t)", c=1, k=2, r=1.0), "C3", PHI,
     ["omega crossed zero; solution truncated", C_CONSTRAINT]),
    # w = 1/b is under 1e-12, where the b-branch has no third derivative:
    # the omega stops at its first node
    (NdeSpec.make(b=10 ** 13, c=1, k=2, r=1.0), "C3", PHI,
     ["omega crossed zero; solution truncated", ONE_NODE]),
    (NdeSpec.make(b="2 + sin(t)/5", c=1, k=2, r=1.0), "C3", PHI,
     ["b is not compatible with the two-term omega equation (max "
      "|w b - 1| = ", "delay compatibility violated: ", C_CONSTRAINT]),
    (NdeSpec.make(c="1 + t/5", d=2, k=1, r=1.0), "C5", PHI,
     [C_CONSTRAINT]),
    # at c2 = 1e-300 the energy form overflows within the first step
    (NdeSpec.make(c=1, d="2 + sin(t)", k=Fraction(1, 10 ** 300), r=1.0),
     "C5", PHI, ["omega overflowed; solution truncated", ONE_NODE]),
    (NdeSpec.make(c=1, d="cos(t)", r=1.0), "C12", ROOT_D,
     [D_POSITIVE, C_FORM]),
    (NdeSpec.make(c="t", d="5/4 + sin(4*t)/4", r=math.pi / 2), "C12",
     ROOT_D, [C_FORM]),
    # d with no positive value, or with a zero on the fit's grid
    (NdeSpec.make(c=1, d=-1, r=1.0), "C12", ROOT_D, [D_POSITIVE]),
    (NdeSpec.make(c=1, d="1 - t", r=1.0), "C12", ROOT_D,
     [D_POSITIVE, C_FORM]),
    (NdeSpec.make(b=1, c="1 + t/5", d=1, r=1.0), "C10",
     "(1/b) d/dt + (x/2)(1/b)' d/dx", [B_FORMS]),
    (NdeSpec.make(b="1 + t/5", c=1, r=1.0), "C11", "d/dt",
     ["time translation needs constant b and c"]),
    (NdeSpec.make(b=1, c="1 + t/5", r=1.0), "C11", "d/dt",
     ["time translation needs constant b and c"]),
]
NEAR_MISS_IDS = ["c9-varying-c", "c3-omega-crosses-zero", "c3-omega-at-once",
                 "c3-b-off-omega", "c5-varying-c", "c5-omega-overflows",
                 "c12-d-changes-sign", "c12-c-off-form",
                 "c12-negative-d", "c12-d-vanishes", "c10-varying-c",
                 "c11-varying-b", "c11-varying-c"]


@pytest.mark.parametrize("spec, case, label, warnings", NEAR_MISSES,
                         ids=NEAR_MISS_IDS)
def test_near_miss_reports_its_demotion(spec, case, label, warnings):
    res = classify(spec)
    assert res.case_id == case
    demoted = [g for g in res.generators if g.status != "admitted"]
    if label is None:
        assert demoted == [] and res.warnings == warnings
        assert "d/dt" not in [g.label for g in res.generators]
        return
    (gen,) = demoted
    assert gen.label == label
    assert len(gen.warnings) == len(warnings)
    for got, want in zip(gen.warnings, warnings):
        assert got.startswith(want)
    assert res.warnings == [f"{label}: {w}" for w in gen.warnings]
    if case == "C5":
        # an omega of one node has no first integral to drift, and says so
        one_node = len(gen.omega_numeric.ts) == 1
        drift = res.compatibility["first-integral drift"]
        assert (drift == "none (omega of one node)") == one_node


# C2 and C9 demote with a reason of their own, reported under each
# generator's label.  Without these checks _validate_closed would demote
# the same generators as "invariance residual not zero"
@pytest.mark.parametrize("spec, case, labels, reason", [
    (NdeSpec.make(b=1, c="1 + t/5", d=1, k=1, r=1.0), "C2",
     ["(1/b) d/dt + (x/2)(1/b)' d/dx"], B_FORMS),
    (NdeSpec.make(c=2, d=1, k=1, r=math.pi), "C9",
     ["sin(2t/sqrt(k)) d/dt + ...", "cos(2t/sqrt(k)) d/dt + ..."],
     "requires c = 1/k (max deviation 1.00e+00)"),
    # with b = 1 any constant c fits its family, so only d demotes
    (NdeSpec.make(b=1, c=1, d="1 + t/5", k=1, r=1.0), "C2",
     ["(1/b) d/dt + (x/2)(1/b)' d/dx"], B_FORMS),
], ids=["c2-c-off-form", "c9-c-not-one-over-k", "c2-d-off-form"])
def test_near_miss_demotes_with_a_warning_of_its_own(spec, case, labels,
                                                     reason):
    res = classify(spec)
    assert res.case_id == case
    demoted = [g for g in res.generators if g.status != "admitted"]
    assert [g.label for g in demoted] == labels
    assert [g.warnings for g in demoted] == [[reason]] * len(labels)
    assert res.warnings == [f"{label}: {reason}" for label in labels]


def _numeric_one(t):
    return np.ones(np.shape(t))


@pytest.mark.parametrize("make, case", [
    (lambda c: NdeSpec.make(b=2, c=c, k=2, r=1.0), "C3"),
    (lambda c: NdeSpec.make(c=c, d=2, k=1, r=1.0), "C5"),
], ids=["c3", "c5"])
def test_a_c_constraint_it_cannot_evaluate_demotes_with_the_error(make,
                                                                  case):
    # c = 1 fits the third-order constraint along either omega; a numeric
    # c that supplies c but not c' leaves the constraint unevaluated, and
    # the demotion says so instead of calling c incompatible
    res = classify(make(CD.numeric(_numeric_one)))
    assert res.case_id == case
    (gen,) = [g for g in res.generators if g.status != "admitted"]
    assert gen.warnings == ["c-constraint failed to evaluate: numeric "
                            "descriptor supplies orders 0..0"]
    assert res.warnings == [f"{gen.label}: {gen.warnings[0]}"]
    # with c' supplied the same omega is admitted
    res = classify(make(CD.numeric(_numeric_one, np.zeros_like)))
    assert res.case_id == case and res.warnings == []
    assert all(g.status == "admitted" for g in res.generators)


B_GEN = "(1/b) d/dt + (x/2)(1/b)' d/dx"
FIT = "compatibility fit"


@pytest.mark.parametrize("make, case, label, check, orders", [
    (lambda f: NdeSpec.make(b=f, c=1, d=1, k=1, r=1.0), "C2", B_GEN, FIT, 2),
    (lambda f: NdeSpec.make(b=f, c=1, d=1, r=1.0), "C10", B_GEN, FIT, 2),
    (lambda f: NdeSpec.make(c=2, d=f, r=1.0), "C12", ROOT_D, FIT, 2),
    (lambda f: NdeSpec.make(c=2, d=f, r=1.0), "C12", ROOT_D, "validation",
     3),
], ids=["c2-no-b-second", "c10-no-b-second", "c12-no-d-second",
        "c12-no-d-third"])
def test_a_coefficient_a_check_cannot_read_demotes_with_the_error(
        make, case, label, check, orders):
    # a constant 1 given numerically with only its first orders: the
    # compatibility fits of C2 and C10 read b'', C12's reads d'', and the
    # invariance test of 1/sqrt(d) reads d'''.  The one generator that
    # check is on is demoted with the descriptor's own message, and the
    # classification goes on
    fns = [_numeric_one] + [np.zeros_like] * 3
    res = classify(make(CD.numeric(*fns[:orders])))
    assert res.case_id == case
    (gen,) = [g for g in res.generators if g.status != "admitted"]
    assert gen.label == label
    assert gen.warnings == [f"{check} failed to evaluate: numeric "
                            f"descriptor supplies orders 0..{orders - 1}"]
    assert res.warnings == [f"{label}: {gen.warnings[0]}"]
    # a fit that cannot be evaluated fits no constant
    assert res.compatibility["c"].endswith(
        "= nan" if check == FIT else "= 4")
    # with every order supplied the same generator is admitted
    res = classify(make(CD.numeric(*fns)))
    assert res.case_id == case and res.warnings == []
    assert all(g.status == "admitted" for g in res.generators)


def test_classify_requires_reduced_form():
    with pytest.raises(ExprError):
        classify(NdeSpec.make(a=1, k=1, r=1.0))
    with pytest.raises(ExprError):
        classify(NdeSpec.make(h=1, k=1, r=1.0))


def test_case_c1_nonconstant_k():
    res = classify(NdeSpec.make(b=1, c=1, d=1, k=CD.closed(T), r=1.0))
    assert res.case_id == "C1"
    assert [g.label for g in res.admitted] == ["x d/dx", "rho(t) d/dx"]


def test_case_c2_constant_coefficients():
    res = classify(NdeSpec.make(b=1, c=Fraction(1, 4), d=Fraction(1, 2),
                                k=1, r=1.0))
    assert res.case_id == "C2"
    assert len(res.admitted) == 3
    assert not res.warnings


def test_case_c3_constant_b():
    res = classify(NdeSpec.make(b=2, c=1, k=2, r=1.0))
    assert res.case_id == "C3"
    labels = {g.label for g in res.admitted}
    assert any("Phi" in lab for lab in labels)


@pytest.mark.parametrize("t0, b0", [(0.0, "0"), (1e-160, "1e-160")],
                         ids=["zero", "tiny"])
def test_c3_refuses_a_b_at_t0_it_cannot_invert(t0, b0):
    # omega starts from w = 1/b at t0: a zero b(t0) divides by zero, and a
    # tiny one overflows w^2
    with pytest.raises(ExprError, match=rf"1/b at t0, but b\(t0\) = {b0}$"):
        classify(NdeSpec.make(b="t", c=1, k=2, r=1.0, t0=t0))


def test_case_c4():
    res = classify(NdeSpec.make(b=1, c=Fraction(1, 4), k=1, r=1.0))
    assert res.case_id == "C4"
    assert {g.label for g in res.admitted} == {
        "d/dt", "(x/2) d/dx", "rho(t) d/dx"}


def test_case_c5_constant_d():
    res = classify(NdeSpec.make(c=1, d=2, k=1, r=1.0))
    assert res.case_id == "C5"
    assert len(res.admitted) == 3


def test_case_c8_with_d_equal_to_t():
    # d = t is the power family's m = 1, which no Pow node spells
    res = classify(NdeSpec.make(c="t", d="t", k=1, r=1.0, t0=0.5))
    assert res.case_id == "C8"
    assert [g.status for g in res.generators if g.kind == "numeric"] \
        == ["candidate"] * 3


def test_numeric_coefficient_that_is_constant_zero_counts_as_zero():
    # a numeric b that reads 0 everywhere classifies as the closed b = 0
    # does, not as the constant 0.0, which would send it to C2
    def z(t):
        return 0.0 * np.asarray(t)

    got = classify(NdeSpec.make(b=CD.numeric(z, z, z, z), c=1, d=1, k=1,
                                r=1.0))
    want = classify(NdeSpec.make(c=1, d=1, k=1, r=1.0))
    assert got.case_id == want.case_id == "C9"
    assert got.predicate_trace == want.predicate_trace
    assert [g.status for g in got.generators] \
        == [g.status for g in want.generators]


def test_cases_c6_c7_c8_demote_aperiodic_omega():
    for dexpr, cid in (("exp(t)", "C6"), ("sin(t)", "C7"), ("t^2", "C8")):
        spec = NdeSpec.make(c=dexpr, d=dexpr, k=1, r=1.0, t0=0.5)
        res = classify(spec)
        assert res.case_id == cid
        numeric = [g for g in res.generators if g.kind == "numeric"]
        assert len(numeric) == 3
        assert all(g.status == "candidate" for g in numeric)
        admitted = {g.label for g in res.admitted}
        assert admitted == {"(x/2) d/dx", "rho(t) d/dx"}


def test_case_c9_with_matching_delay():
    spec = NdeSpec.make(c=1, d=1, k=1, r=math.pi)
    res = classify(spec)
    assert res.case_id == "C9"
    assert len(res.admitted) == 5
    assert not res.warnings


@pytest.mark.parametrize("b", [{"kind": "const", "value": "0"},
                               {"kind": "const", "value": "0", "name": "c5"}])
def test_constant_zero_b_is_zero_whatever_its_json_carries(b):
    one = {"kind": "const", "value": "1"}
    spec = NdeSpec.from_json({"b": b, "c": one, "d": one, "k": one,
                              "r": math.pi})
    assert spec.b.is_zero
    res = classify(spec)
    assert res.case_id == "C9" and not res.degenerate
    assert res.to_json() == classify(
        NdeSpec.make(c=1, d=1, k=1, r=math.pi)).to_json()


def test_case_c9_wrong_c_demotes_trig_pair():
    spec = NdeSpec.make(c=2, d=1, k=1, r=math.pi)
    res = classify(spec)
    assert res.case_id == "C9"
    assert len(res.admitted) == 3


def test_case_c9_degenerate_pure_neutral():
    res = classify(NdeSpec.make(k=1, r=math.pi))
    assert res.case_id == "C9" and res.degenerate
    assert {g.label for g in res.admitted} == {
        "d/dt", "x d/dx", "rho(t) d/dx"}


def test_case_c10():
    res = classify(NdeSpec.make(b=1, c=Fraction(1, 2), d=1, r=1.0))
    assert res.case_id == "C10"
    assert len(res.admitted) == 3


def test_case_c11():
    res = classify(NdeSpec.make(b=1, c=1, r=1.0))
    assert res.case_id == "C11"
    assert {g.label for g in res.admitted} == {
        "d/dt", "x d/dx", "rho(t) d/dx"}


def test_case_c12_constant_d_is_example_2():
    res = classify(NdeSpec.make(c=-1, d=1, r=1.0))
    assert res.case_id == "C12"
    assert len(res.admitted) == 3
    gen_t = res.generators[0]
    # with constant d the tied scaling part vanishes: pure time translation
    assert gen_t.omega == num(1)


@pytest.mark.parametrize("g0, slope", [(0.25, 0.0), (5 / 12, 1 / 6)],
                         ids=["constant", "varying"])
def test_case_c12_numeric_d(g0, slope):
    # d = exp(g0 + slope t) as a numeric descriptor of orders 0..3; the
    # sampled invariance test of 1/sqrt(d) reads d to order 3, and a d that
    # is not r-periodic demotes that generator alone
    d = CD.numeric(*(lambda t, o=o: slope ** o * np.exp(g0 + slope * t)
                     for o in range(4)))
    res = classify(NdeSpec.make(c=2, d=d, r=1.0))
    assert res.case_id == "C12"
    assert [g.label for g in res.admitted][-2:] == ["(x/2) d/dx",
                                                    "rho(t) d/dx"]
    assert (res.generators[0].status == "admitted") == (slope == 0)


def test_case_c12_periodic_d():
    # d periodic with the delay keeps the time-like direction admitted
    r = 2 * math.pi
    d_expr = parse("5/4 + sin(t)/4")
    c_expr = compat_c_from_d_pure_delay(d_expr, c31=2)
    spec = NdeSpec.make(c=CD.closed(c_expr), d=CD.closed(d_expr), r=r)
    res = classify(spec)
    assert res.case_id == "C12"
    assert len(res.admitted) == 3
    assert not res.warnings


def test_out_of_taxonomy():
    res = classify(NdeSpec.make(c=1, r=1.0))
    assert res.out_of_taxonomy
    assert res.generators == []


# ---------------------------------------------------------------------------
# partition property: every kind combination lands in exactly one bucket


_KINDS = st.sampled_from(["zero", "one", "const", "closed"])


def _descriptor(kind, expr_pool):
    if kind == "zero":
        return CD.zero()
    if kind == "one":
        return CD.const(1)
    if kind == "const":
        return CD.const(Fraction(3, 2))
    return CD.closed(expr_pool)


@settings(max_examples=60, deadline=None)
@given(_KINDS, _KINDS, _KINDS, _KINDS,
       st.sampled_from(["t", "exp(t)", "sin(t)", "t^2", "2 + sin(t)"]))
def test_case_partition(bk, ck, dk, kk, expr_text):
    spec = NdeSpec.make(
        b=_descriptor(bk, expr_text), c=_descriptor(ck, expr_text),
        d=_descriptor(dk, expr_text), k=_descriptor(kk, expr_text),
        r=1.0, t0=0.25)
    res = classify(spec)
    cases = {f"C{i}" for i in range(1, 13)}
    if res.case_id is None:
        assert spec.b.is_zero and spec.d.is_zero and spec.k.is_zero
    else:
        assert res.case_id in cases


# ---------------------------------------------------------------------------
# the three C6-C8 directions advance as one state


@pytest.mark.parametrize("name", ["C6", "C7", "C8"])
def test_batched_omega_directions_equal_single_solves(name):
    spec = _scenario_spec(name)
    res = classify(spec)
    got = [g.omega_numeric for g in res.generators
           if g.omega_numeric is not None]
    k_val = float(spec.k.const_value())
    assert len(got) == 3
    for sol, init in zip(got, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                               (0.0, 0.0, 1.0))):
        (want,) = solve_omega_two_sided(
            "d-energy", {"c2": k_val, "d": spec.d}, [init], spec.t0,
            spec.t0 - 2.5 * spec.r, spec.t0 + 3.5 * spec.r)
        assert sol.truncated == want.truncated
        for field in ("ts", "w", "w1", "w2", "w3", "conserved"):
            assert np.array_equal(getattr(sol, field),
                                  getattr(want, field)), field
            assert getattr(sol, field).flags.c_contiguous



def _pointwise_energy_solve(c2, d, init, grid):
    """The d-energy omega equation with d and d' read through eval at each
    RK4 stage and node: the reference of the solver's sampled
    coefficients."""
    def f(t, y):
        w, w1, w2 = y
        return np.array([w1, w2,
                         -(2.0 * d.eval(t, 1) * w + 4.0 * d.eval(t) * w1)
                         / c2])

    ys = [np.array(init, float)]
    for i in range(len(grid) - 1):
        h = grid[i + 1] - grid[i]
        times = (grid[i], grid[i] + h / 2, grid[i] + h)
        ys.append(rk4_step(lambda s, y: f(times[s], y), ys[-1], h))
    w, w1, w2 = np.array(ys).T
    w3 = np.array([f(t, y)[2] for t, y in zip(grid, ys)])
    d0 = np.array([d.eval(t) for t in grid])
    return w, w1, w2, w3, c2 * w * w2 - c2 / 2.0 * w1 ** 2 + 2.0 * w ** 2 * d0


# numeric-omega specs with other k, r, t0 or d than the scenarios', from
# the digest's fixed list (tools/report_digest.py, extra_specs)
OMEGA_SPECS = {
    "C6-k2": dict(c="exp(t)/2", d="exp(t)", k=2, r=0.5, t0=0.25),
    "C8-t3": dict(c="t^3", d="t^3", k=1, r=1.0, t0=0.5),
    "C7-k3/2": dict(c="sin(t)", d="sin(t)", k=Fraction(3, 2), r=0.75,
                    t0=-0.5),
    "C3-k1/3": dict(b="2 + t/4", c=1, k=Fraction(1, 3), r=0.5, t0=0.5),
}


def _scenario_spec(name):
    """The named built-in scenario's spec, or one of OMEGA_SPECS."""
    from ndelie.suite import build_scenarios

    if name in OMEGA_SPECS:
        return NdeSpec.make(**OMEGA_SPECS[name])
    return {sc.name: sc for sc in build_scenarios()}[name].spec


@pytest.mark.parametrize("name", ["C5", "C6", "C7", "C8", "C6-k2", "C8-t3",
                                  "C7-k3/2"])
def test_sampled_omega_coefficients_equal_pointwise_reads(name):
    spec = _scenario_spec(name)
    k_val = float(spec.k.const_value())
    res = classify(spec)
    sols = [g.omega_numeric for g in res.generators
            if g.omega_numeric is not None]
    inits = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)][:len(sols)]
    grid = sols[0].ts
    n_b = int(np.flatnonzero(grid == spec.t0)[0])
    for ts in (grid[n_b:], grid[n_b::-1]):
        for init in inits:
            (got,) = omega_ode_solve("d-energy",
                                     {"c2": k_val, "d": spec.d},
                                     [init], ts)
            want = _pointwise_energy_solve(k_val, spec.d, init, ts)
            assert np.array_equal(got.ts, ts)
            for field, arr in zip(("w", "w1", "w2", "w3", "conserved"),
                                  want):
                assert np.array_equal(getattr(got, field), arr), field


# ---------------------------------------------------------------------------
# both sides of a two-sided solve advance as one state

def _pointwise_b_branch_solve(c2, init, grid):
    """The b-branch omega equation one step at a time, its third
    derivative NaN once |w| < 1e-12, stopping before the first step that
    gives a NaN or takes w through zero: the reference of the solver's
    truncation.  Returns the times reached, the arrays and the flag."""
    def f(s, y):
        w, w1, w2 = y
        return np.array([w1, w2,
                         np.nan if abs(w) < 1e-12 else -w2 / (c2 * w)])

    ys = [np.array(init, float)]
    truncated = False
    for i in range(len(grid) - 1):
        y = rk4_step(f, ys[-1], grid[i + 1] - grid[i])
        if np.isnan(y).any() or y[0] * ys[-1][0] <= 0.0:
            truncated = True
            break
        ys.append(y)
    w, w1, w2 = np.array(ys).T
    w3 = np.array([f(0, y)[2] for y in ys])
    return grid[:len(ys)], (w, w1, w2, w3, None), truncated


def _two_sided_reference(side, grid, t0):
    """side(ts) solved forward and backward from t0 on their own, joined
    as solve_omega_two_sided documents it: the forward side, flagged, when
    either side truncates; else the backward side reversed, then the
    forward one.  Also returns the two sides' flags."""
    n_b = int(np.flatnonzero(grid == t0)[0])
    (f_ts, fwd, f_cut), (_, bwd, b_cut) = side(grid[n_b:]), \
        side(grid[n_b::-1])
    if f_cut or b_cut:
        return f_ts, fwd, (f_cut, b_cut)
    return grid, [None if f is None else np.concatenate((b[::-1][:-1], f))
                  for b, f in zip(bwd, fwd)], (False, False)


def _assert_solution_equals(sol, ts, arrays, truncated):
    assert sol.truncated == truncated
    assert np.array_equal(sol.ts, ts)
    for field, arr in zip(("w", "w1", "w2", "w3", "conserved"), arrays):
        got = getattr(sol, field)
        if arr is None:
            assert got is None, field
        else:
            assert np.array_equal(got, arr, equal_nan=True), field


@pytest.mark.parametrize("name, count", [("C5", 1), ("C7", 3)])
def test_two_sided_energy_solve_equals_its_sides_apart(name, count):
    spec = _scenario_spec(name)
    k_val = float(spec.k.const_value())
    sols = [g.omega_numeric for g in classify(spec).generators
            if g.omega_numeric is not None]
    assert len(sols) == count
    for sol, init in zip(sols, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.0, 0.0, 1.0))):
        ts, want, _ = _two_sided_reference(
            lambda g: (g, _pointwise_energy_solve(k_val, spec.d, init, g),
                       False), sols[0].ts, spec.t0)
        _assert_solution_equals(sol, ts, want, False)


@pytest.mark.parametrize("name", ["C3", "C3-k1/3"])
def test_two_sided_b_branch_solve_equals_its_sides_apart(name):
    spec = _scenario_spec(name)
    k_val = float(spec.k.const_value())
    (sol,) = [g.omega_numeric for g in classify(spec).generators
              if g.omega_numeric is not None]
    # the initial data is the row at t0, stored as given
    n_b = int(np.flatnonzero(sol.ts == spec.t0)[0])
    init = (sol.w[n_b], sol.w1[n_b], sol.w2[n_b])
    ts, want, cuts = _two_sided_reference(
        lambda g: _pointwise_b_branch_solve(k_val, init, g), sol.ts,
        spec.t0)
    assert cuts == (False, False)
    _assert_solution_equals(sol, ts, want, False)


def _two_sided_grid(t0, lo, hi):
    step = 1.0 / OMEGA_POINTS_PER_UNIT
    n_b = max(int(math.ceil((t0 - lo) / step)), 1)
    n_f = max(int(math.ceil((hi - t0) / step)), 1)
    return t0 + step * np.arange(-n_b, n_f + 1)


@pytest.mark.parametrize("init, cuts, nodes, end", [
    ((1.0, -1.0, 0.0), (True, False), 200, 1.495),
    ((1.0, 1.0, 0.0), (False, True), 701, 4.0),
    ((1.0, -0.5, -3.0), (True, True), 166, 1.325),
    ((2.0, -0.5, 0.2), (False, False), 1201, 4.0),
], ids=["forward-truncates", "backward-truncates", "both-truncate",
        "none-truncates"])
def test_b_branch_truncation_keeps_the_forward_side(init, cuts, nodes, end):
    # c2 = 1/2 and t0 = 0.5 on [-2, 4]: whichever side truncates, the
    # result is the forward side, flagged
    (sol,) = solve_omega_two_sided("b-branch", {"c2": 0.5}, [init], 0.5,
                                   -2.0, 4.0)
    ts, want, got_cuts = _two_sided_reference(
        lambda g: _pointwise_b_branch_solve(0.5, init, g),
        _two_sided_grid(0.5, -2.0, 4.0), 0.5)
    assert got_cuts == cuts
    assert len(sol.ts) == nodes
    assert sol.ts[-1] == pytest.approx(end, abs=1e-12)
    _assert_solution_equals(sol, ts, want, any(cuts))


@pytest.mark.parametrize("case, params, rows, cuts", [
    ("b-branch", {"c2": 0.5},
     [(2.0, -0.5, 0.2), (1.0, 1.0, 0.0), (1.0, -1.0, 0.0)],
     [False, False, True]),
    # d = 1 leaves w = 1 put, and any w' overflows at c2 = 1e-300
    ("d-energy", {"c2": 1e-300, "d": CD.numeric(lambda t: 1.0,
                                                 lambda t: 0.0)},
     [(1.0, 0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.0, 0.0)],
     [False, True, False]),
], ids=["b-branch", "d-energy"])
def test_each_datum_gives_its_solve_alone(case, params, rows, cuts):
    # a datum that truncates stops alone: the others keep the whole grid
    grid = np.linspace(0.5, 4.0, 701)
    alone = [omega_ode_solve(case, params, [row], grid)[0] for row in rows]
    assert [s.truncated for s in alone] == cuts
    for sol, cut in zip(alone, cuts):
        assert (len(sol.ts) < len(grid)) == cut
    for picked in ([0, 1], [2, 0, 1], [1, 2]):
        sols = omega_ode_solve(case, params, [rows[i] for i in picked], grid)
        assert len(sols) == len(picked)
        for got, i in zip(sols, picked):
            _assert_solution_equals(
                got, alone[i].ts,
                [getattr(alone[i], field)
                 for field in ("w", "w1", "w2", "w3", "conserved")],
                cuts[i])


def test_energy_solve_that_overflows_comes_back_flagged():
    # c2 = 1e-300 drives w'' past the largest float within the first step:
    # the solve stops at its first node, flagged, its drift finite, and no
    # numpy warning escapes
    d = CD.numeric(lambda t: 1.0, lambda t: 0.0)
    params = {"c2": 1e-300, "d": d}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (one,) = omega_ode_solve("d-energy", params, [(1.0, 0.5, 0.0)],
                                 np.linspace(0.0, 1.0, 11))
        (two,) = solve_omega_two_sided("d-energy", params, [(1.0, 0.5, 0.0)],
                                       0.0, -1.0, 1.0)
        drifts = [sol.conservation_drift(1e-300) for sol in (one, two)]
    for sol in (one, two):
        assert sol.truncated
        assert sol.ts.tolist() == [0.0] and sol.w.tolist() == [1.0]
    assert all(math.isfinite(v) for v in drifts)


@pytest.mark.parametrize("case", ["b-branch", "d-energy"])
def test_finite_values_whose_sum_overflows_do_not_truncate(case):
    # w = 1.7e308 and w' = 2e307 are finite, though w + w' is not: the
    # stop rule tests each value on its own
    d = CD.numeric(lambda t: 0.0, lambda t: 0.0)
    (sol,) = omega_ode_solve(case, {"c2": 1.0, "d": d},
                             [(1.7e308, 2e307, 0.0)],
                             np.linspace(0.0, 0.1, 11))
    assert not sol.truncated and len(sol.ts) == 11


OMEGA_DIGESTS = pathlib.Path(__file__).parent / "data" / "omega_digests.json"


def _sha256(a):
    return None if a is None else hashlib.sha256(
        np.ascontiguousarray(a).tobytes()).hexdigest()


def omega_digests():
    """The sha256 of every array of each numeric omega that classify gives
    the C3 and C5-C8 scenarios, and its flag, by scenario and generator.
    tests/data/omega_digests.json holds them as the solver that stepped
    numpy arrays gave them, written by json.dumps(..., indent=1,
    sort_keys=True)."""
    from ndelie.suite import build_scenarios

    scenarios = {sc.name: sc for sc in build_scenarios()}
    out = {}
    for name in ("C3", "C5", "C6", "C7", "C8"):
        for g in classify(scenarios[name].spec).generators:
            sol = g.omega_numeric
            if sol is None:
                continue
            entry = {field: _sha256(getattr(sol, field))
                     for field in ("ts", "w", "w1", "w2", "w3", "conserved")}
            entry["truncated"] = sol.truncated
            out.setdefault(name, {})[g.label] = entry
    return out


def test_numeric_omegas_keep_their_bytes():
    # the bit-for-bit references above step through the solver's own
    # rk4_step, so a change to its arithmetic moves both sides; these
    # digests do not move with it
    assert omega_digests() == json.loads(OMEGA_DIGESTS.read_text())


@pytest.mark.parametrize("spec", [
    NdeSpec.make(c=1, d="ln(t)", r=1.0),
    NdeSpec.make(b="sqrt(t-1)", d=1, k=1, r=1.0),
    NdeSpec.make(b="ln(t)", c=1, d=1, k=1, r=1.0),
], ids=["C12-ln-d", "C2-sqrt-b", "C2-ln-b"])
def test_coefficient_without_value_on_the_grid_stops_classification(spec):
    # each array check meets a NaN, where a scalar read raised; none may
    # pass it through a comparison
    with pytest.raises(ExprError):
        classify(spec)
