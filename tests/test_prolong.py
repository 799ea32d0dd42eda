from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndelie.prolong import (
    InfinitesimalAnsatz, apply_operator, prolong_delayed, prolong_first,
    prolong_second, solved_rhs, total_derivative,
)
from ndelie.symexpr import (
    App, ExprError, Par, T, X, X1, X1R, X2, X2R, XR, ZERO, diff,
    diff_explicit, equivalent, fn, normalize, num, shift, substitute,
)


def ansatz(w, u):
    return InfinitesimalAnsatz(normalize(w), normalize(u))


BETA_GAMMA_RHO = ansatz(fn("beta"), fn("gamma") * X + fn("rho"))


def test_ansatz_rejects_jet_dependence():
    with pytest.raises(ExprError):
        InfinitesimalAnsatz(X1, ZERO)
    with pytest.raises(ExprError):
        InfinitesimalAnsatz(ZERO, fn("b", delayed=True))


# ---------------------------------------------------------------------------
# total derivative


def test_total_derivative_of_x():
    assert total_derivative(X) == X1


def test_total_derivative_of_ansatz():
    got = total_derivative(fn("gamma") * X + fn("rho"))
    want = fn("gamma", order=1) * X + fn("rho", order=1) + fn("gamma") * X1
    assert equivalent(got, want)


def test_total_derivative_product():
    assert equivalent(total_derivative(T * X1), X1 + T * X2)


def test_total_derivative_rejects_x2():
    with pytest.raises(ExprError):
        total_derivative(X2)


# ---------------------------------------------------------------------------
# prolongation coefficients


def test_prolong_first_translation_scaling():
    assert prolong_first(ansatz(T, X)) == ZERO


def test_prolong_first_time_dependent():
    assert prolong_first(ansatz(ZERO, App("sin", T))) == App("cos", T)


def test_prolong_first_linear_ansatz():
    got = prolong_first(BETA_GAMMA_RHO)
    want = (fn("gamma", order=1) * X + fn("rho", order=1)
            + (fn("gamma") - fn("beta", order=1)) * X1)
    assert equivalent(got, want)


def test_prolong_second_sin():
    assert equivalent(prolong_second(ansatz(ZERO, App("sin", T))),
                      -App("sin", T))


def test_prolong_second_scaling():
    assert equivalent(prolong_second(ansatz(T, X)), -X2)


def test_prolong_second_linear_ansatz():
    got = prolong_second(BETA_GAMMA_RHO)
    want = (fn("gamma", order=2) * X + fn("rho", order=2)
            + (2 * fn("gamma", order=1) - fn("beta", order=2)) * X1
            + (fn("gamma") - 2 * fn("beta", order=1)) * X2)
    assert equivalent(got, want)


def test_prolong_delayed_components():
    p = prolong_delayed(ansatz(ZERO, App("sin", T)))
    assert equivalent(p.ups_tt_r, -App("sin", T - Par("r")))

    p = prolong_delayed(BETA_GAMMA_RHO)
    want = (fn("gamma", True, 1) * XR + fn("rho", True, 1)
            + (fn("gamma", True) - fn("beta", True, 1)) * X1R)
    assert equivalent(p.ups_t_r, want)

    p = prolong_delayed(ansatz(T, X))
    assert equivalent(p.omega_r, T - Par("r"))


# ---------------------------------------------------------------------------
# solved form


def test_solved_rhs():
    eq = normalize(X2 + fn("k") * X2R)
    assert equivalent(solved_rhs(eq), -(fn("k") * X2R))


def test_solved_rhs_scales_constant_lead():
    eq = normalize(2 * X2 + X)
    assert equivalent(solved_rhs(eq), num(Fraction(-1, 2)) * X)


def test_solved_rhs_rejects_functional_lead():
    with pytest.raises(ExprError):
        solved_rhs(normalize(fn("k") * X2 + X))
    with pytest.raises(ExprError):
        solved_rhs(normalize(X2 ** 2 + X))


# ---------------------------------------------------------------------------
# extended operator


def linear_delta(b, c, d, k):
    return normalize(X2 + b * X1R + c * X + d * XR + k * X2R)


def test_apply_operator_neutral_sin():
    # x'' + x''(t-r) = 0 with upsilon = sin t: the residual vanishes
    # exactly when sin(t-r) = -sin t, which is the r = pi case
    eq = linear_delta(ZERO, ZERO, ZERO, num(1))
    got = apply_operator(ansatz(ZERO, App("sin", T)), eq)
    assert equivalent(got, -App("sin", T) - App("sin", T - Par("r")))


def test_apply_operator_linearity_symmetry():
    eq = linear_delta(fn("b"), fn("c"), fn("d"), fn("k"))
    assert apply_operator(ansatz(ZERO, X), eq) == ZERO


def test_apply_operator_scaling_on_trivial_equation():
    assert apply_operator(ansatz(T, ZERO), X2) == ZERO


def test_apply_operator_solution_slot():
    # upsilon = rho(t) reproduces the homogeneous equation acting on rho
    eq = linear_delta(fn("b"), fn("c"), fn("d"), fn("k"))
    got = apply_operator(ansatz(ZERO, fn("rho")), eq)
    want = (fn("rho", order=2) + fn("b") * fn("rho", True, 1)
            + fn("c") * fn("rho") + fn("d") * fn("rho", True)
            + fn("k") * fn("rho", True, 2))
    assert equivalent(got, want)
    # substituting the defining relation of rho kills the residual
    relation = {fn("rho", order=2): normalize(
        -(fn("b") * fn("rho", True, 1) + fn("c") * fn("rho")
          + fn("d") * fn("rho", True) + fn("k") * fn("rho", True, 2)))}
    assert substitute(got, relation) == ZERO


# ---------------------------------------------------------------------------
# properties


_COEFFS = st.sampled_from([
    ZERO, num(1), num(-2), num(Fraction(1, 2)), fn("beta"), fn("gamma"),
    fn("rho"), fn("beta", order=1),
])


def _poly_ansatz(draw_coeff):
    # polynomial in (t, x) of degree <= 3 with the drawn coefficients
    monos = [num(1), T, X, T * X, T ** 2, X ** 2, X ** 3]

    @st.composite
    def build(draw):
        total = ZERO
        for m in monos:
            total = total + draw(draw_coeff) * m
        return normalize(total)

    return build()


@settings(max_examples=40, deadline=None)
@given(_poly_ansatz(_COEFFS), _poly_ansatz(_COEFFS))
def test_expansion_identity(w, u):
    a = InfinitesimalAnsatz(w, u)
    lhs = prolong_second(a)
    rhs = normalize(total_derivative(prolong_first(a))
                    - X2 * total_derivative(w))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(_poly_ansatz(_COEFFS), _poly_ansatz(_COEFFS))
def test_delay_naturality(w, u):
    a = InfinitesimalAnsatz(w, u)
    p = prolong_delayed(a)
    assert p.omega_r == shift(w)
    assert p.upsilon_r == shift(u)
    assert p.ups_t_r == shift(prolong_first(a))
    assert p.ups_tt_r == shift(prolong_second(a))


_EQ_COEFFS = st.sampled_from([
    ZERO, num(1), num(-1), num(Fraction(3, 2)), fn("b"), fn("c"), fn("d"),
    fn("k"),
])


@settings(max_examples=40, deadline=None)
@given(_poly_ansatz(_COEFFS), _EQ_COEFFS, _EQ_COEFFS, _EQ_COEFFS, _EQ_COEFFS,
       _poly_ansatz(_COEFFS))
def test_invariance_condition_equivalence(w, b, c, d, k, u):
    """apply_operator equals (second-prolongation expansion with x''
    eliminated) minus (the operator side), both built from first
    principles."""
    a = InfinitesimalAnsatz(w, u)
    eq = linear_delta(b, c, d, k)
    F = solved_rhs(eq)

    u_tt = diff(diff(u, T), T)
    u_tx = diff(diff(u, T), X)
    u_xx = diff(diff(u, X), X)
    w_tt = diff(diff(w, T), T)
    w_tx = diff(diff(w, T), X)
    w_xx = diff(diff(w, X), X)
    rhs_expansion = (
        u_tt + (2 * u_tx - w_tt) * X1 + (u_xx - 2 * w_tx) * X1 ** 2
        - w_xx * X1 ** 3 + (diff(u, X) - 2 * diff(w, T)) * X2
        - 3 * diff(w, X) * X1 * X2)

    ups_t = normalize(
        diff(u, T) + (diff(u, X) - diff(w, T)) * X1 - diff(w, X) * X1 ** 2)
    lhs_operator = (
        w * diff_explicit(F, "t") + u * diff(F, X)
        + shift(w) * diff_explicit(F, "tr") + shift(u) * diff(F, XR)
        + ups_t * diff(F, X1) + shift(ups_t) * diff(F, X1R)
        + shift(normalize(rhs_expansion)) * diff(F, X2R))

    want = substitute(normalize(rhs_expansion - lhs_operator), {X2: F})
    assert apply_operator(a, eq) == want


@settings(max_examples=30, deadline=None)
@given(_poly_ansatz(_COEFFS), _poly_ansatz(_COEFFS), _poly_ansatz(_COEFFS),
       _poly_ansatz(_COEFFS))
def test_operator_linear_in_ansatz(w1, u1, w2, u2):
    eq = linear_delta(fn("b"), fn("c"), fn("d"), fn("k"))
    a1 = InfinitesimalAnsatz(w1, u1)
    a2 = InfinitesimalAnsatz(w2, u2)
    a12 = InfinitesimalAnsatz(normalize(w1 + w2), normalize(u1 + u2))
    lhs = apply_operator(a12, eq)
    rhs = normalize(apply_operator(a1, eq) + apply_operator(a2, eq))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the shared operator against the operator built from scratch


def _reference_apply_operator(a, eq):
    """apply_operator as it was before F and its partials were shared:
    every call re-derives them, normalises the whole residual and then
    eliminates x''."""
    F = solved_rhs(eq)
    p = prolong_delayed(a)
    operator_terms = (
        a.omega * diff_explicit(F, "t")
        + a.upsilon * diff(F, X)
        + p.omega_r * diff_explicit(F, "tr")
        + p.upsilon_r * diff(F, XR)
        + p.ups_t * diff(F, X1)
        + p.ups_t_r * diff(F, X1R)
        + p.ups_tt_r * diff(F, X2R)
    )
    residual = normalize(p.ups_tt - operator_terms)
    return substitute(residual, {X2: F})


def _scenario_ansatzes():
    from ndelie.classify import classify
    from ndelie.detsys import generic_ansatz, reduced_ansatz, reduced_equation
    from ndelie.suite import build_scenarios

    for sc in build_scenarios():
        ansatzes = [("generic", generic_ansatz()),
                    ("reduced", reduced_ansatz())]
        ansatzes += [(g.label, InfinitesimalAnsatz(g.omega, g.upsilon))
                     for g in classify(sc.spec).generators
                     if g.omega is not None]
        for label, a in ansatzes:
            yield sc.name, label, a, reduced_equation(sc.spec)


def test_shared_operator_matches_reference_on_every_scenario():
    seen = set()
    for name, label, a, delta in _scenario_ansatzes():
        seen.add(name)
        got = apply_operator(a, delta)
        assert got == _reference_apply_operator(a, delta), (name, label)
    assert len(seen) == 14


def test_shared_operator_follows_the_equation():
    # the partials are kept for the latest equation only; switching back
    # and forth must never reuse those of the other one
    a = ansatz(fn("beta"), fn("gamma") * X + fn("rho"))
    eq1 = linear_delta(fn("b"), fn("c"), ZERO, fn("k"))
    eq2 = linear_delta(ZERO, App("sin", T), fn("d"), num(1))
    for eq in (eq1, eq2, eq1, eq2):
        assert apply_operator(a, eq) == _reference_apply_operator(a, eq)


# ---------------------------------------------------------------------------
# each generator is prolonged once per process


def test_kept_prolongation_equals_a_fresh_one():
    # the generic and the reduced ansatz and every closed generator of the
    # taxonomy; the second call of each is answered from the cache
    for name, label, a, _ in _scenario_ansatzes():
        prolong_delayed(a)
        assert prolong_delayed(a) == prolong_delayed.__wrapped__(a), \
            (name, label)


def test_an_equal_ansatz_is_a_cache_hit():
    prolong_delayed.cache_clear()
    first = prolong_delayed(BETA_GAMMA_RHO)
    again = ansatz(fn("beta"), fn("gamma") * X + fn("rho"))
    assert again == BETA_GAMMA_RHO and again is not BETA_GAMMA_RHO
    assert prolong_delayed(again) is first
    info = prolong_delayed.cache_info()
    assert (info.hits, info.misses) == (1, 1)
