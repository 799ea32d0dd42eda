import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ndelie import flowverify
from ndelie.classify import Generator, OmegaSolution, classify
from ndelie.detsys import invariance_residual, reduced_ansatz
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.flowverify import (
    TOL_FIN, TOL_INF, _affine_chains, axiom_errors, check_generator,
    closure_error, finite_check, flow, identity_error, infinitesimal_check,
    inverse_error, prolonged_flow, transform_solution,
)
from ndelie.ndesolve import integrate
from ndelie.suite import build_scenarios
from ndelie.symexpr import (
    App, EvalError, ExprError, Pow, T, X, ZERO, compile_numeric, fn,
    normalize, num, parse,
)


def example1():
    spec = NdeSpec.make(k=1, r=math.pi)
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    rho = integrate(spec, "sin(t)", 3 * math.pi, 64)
    return spec, traj, rho


SPEC1, TRAJ1, RHO1 = example1()
GEN_T = Generator("d/dt", "closed", omega=num(1), upsilon=ZERO)
GEN_SCALE = Generator("x d/dx", "closed", omega=ZERO, upsilon=X)
GEN_RHO = Generator("rho d/dx", "parametric", omega=ZERO, upsilon=fn("rho"))
GEN_T_RHO = Generator("d/dt + rho d/dx", "parametric", omega=num(1),
                      upsilon=fn("rho"))
GEN_BOGUS = Generator("t x d/dx", "closed", omega=ZERO,
                      upsilon=normalize(T * X))
POINTS = [(0.5, 0.3), (2.0, -1.0), (4.0, 0.8), (7.0, 0.1)]
JETS = [(0.1 * i, 1.0 + 0.05 * i, -0.3, 0.2 * i) for i in range(40)]


# ---------------------------------------------------------------------------
# flows


def test_flow_identity_at_zero():
    assert identity_error(GEN_SCALE, POINTS, SPEC1) <= 1e-12


def test_flow_scaling_closed_form():
    moved = flow(GEN_SCALE, POINTS, 0.7, SPEC1, substeps=64)
    for (t, x), m in zip(POINTS, moved):
        assert m[0] == pytest.approx(t, abs=1e-12)
        assert m[1] == pytest.approx(x * math.exp(0.7), rel=1e-10)


def test_flow_group_axioms():
    for gen in (GEN_T, GEN_SCALE):
        assert identity_error(gen, POINTS, SPEC1) <= 1e-12
        assert inverse_error(gen, POINTS, 0.4, SPEC1) < 1e-7
        assert closure_error(gen, POINTS, 0.3, 0.4, SPEC1) < 1e-7


def test_flow_marks_escaping_points():
    # dx/d(delta) = exp(x) escapes to infinity in finite group time
    gen = Generator("exp(x) d/dx", "closed", omega=ZERO,
                    upsilon=App("exp", X))
    moved = flow(gen, [(0.0, 0.0), (0.0, -5.0)], 2.0, SPEC1, substeps=64)
    assert moved[0] is None
    assert moved[1] is not None


def test_printed_example_group_closure_and_generator():
    """The printed finite transformations of the pure-neutral example form
    a genuine one-parameter group, but their generator carries an extra
    cosine solution slot: the flow matches after that correction."""
    c1 = c38 = 1.0

    def printed(t, x, delta):
        tb = t + c38 * delta
        xb = (2 / c1) * (math.exp(c1 * delta / 2) * (c1 * x / 2
                                                     + math.sin(t))
                         - math.sin(t + c38 * delta))
        return tb, xb

    # closure of the printed map itself
    t, x, d = 0.7, 0.4, 0.3
    t1, x1 = printed(t, x, d)
    assert printed(t1, x1, d) == pytest.approx(printed(t, x, 2 * d),
                                               abs=1e-12)

    corrected = Generator(
        "group generator of the printed map", "closed", omega=num(1),
        upsilon=normalize(X / 2 + App("sin", T) - 2 * App("cos", T)))
    for delta in (-1.0, -0.5, 0.1, 0.5, 1.0):
        moved = flow(corrected, POINTS, delta, SPEC1, substeps=64)
        worst = max(
            max(abs(m[0] - printed(p[0], p[1], delta)[0]),
                abs(m[1] - printed(p[0], p[1], delta)[1]))
            for m, p in zip(moved, POINTS))
        assert worst < 1e-8

    # the literally stated pair is not the generator of the printed map
    stated = Generator("stated pair", "closed", omega=num(1),
                       upsilon=normalize(X / 2 + App("sin", T)))
    moved = flow(stated, POINTS, 0.5, SPEC1, substeps=64)
    worst = max(abs(m[1] - printed(p[0], p[1], 0.5)[1])
                for m, p in zip(moved, POINTS))
    assert worst > 1e-2


# ---------------------------------------------------------------------------
# transformed solutions


def test_transform_solution_scaling():
    curve = transform_solution(TRAJ1, GEN_SCALE, 0.5, SPEC1)
    ts = np.linspace(0.5, 8.0, 30)
    assert curve.sample(ts, 0) == pytest.approx(math.exp(0.5) * np.sin(ts),
                                                abs=1e-6)


def test_transform_solution_rho_slot():
    # x -> x + delta sin t stays a solution; with x = sin t the image is
    # 1.5 sin t
    curve = transform_solution(TRAJ1, GEN_RHO, 0.5, SPEC1, rho=RHO1)
    ts = np.linspace(0.5, 8.0, 30)
    assert curve.sample(ts, 0) == pytest.approx(1.5 * np.sin(ts), abs=1e-6)


def test_transform_solution_time_translation():
    curve = transform_solution(TRAJ1, GEN_T, 0.4, SPEC1)
    ts = np.linspace(1.0, 8.0, 30)
    assert curve.sample(ts, 0) == pytest.approx(np.sin(ts - 0.4), abs=1e-6)


def test_transformed_curve_csv_matches_value_queries(tmp_path):
    curve = transform_solution(TRAJ1, GEN_T, 0.4, SPEC1)
    out = tmp_path / "curve.csv"
    curve.to_csv(out, points=257)
    want = "t,x,xprime,xsecond\n"
    # one scalar read per time and order
    for t in np.linspace(curve.t_lo, curve.t_hi, 257):
        want += "{:.12g},{:.12g},{:.12g},{:.12g}\n".format(
            t, *(float(curve.sample(t, der)) for der in range(3)))
    assert out.read_text() == want


def test_transform_solution_identity():
    curve = transform_solution(TRAJ1, GEN_SCALE, 0.0, SPEC1)
    ts = np.linspace(0.0, 8.0, 20)
    assert curve.sample(ts, 0) == pytest.approx(TRAJ1.sample(ts, 0),
                                                abs=1e-9)


# ---------------------------------------------------------------------------
# invariance checks


def test_infinitesimal_check_example_generators():
    samples = np.linspace(0.4, 2.8 * math.pi, 40)
    assert infinitesimal_check(TRAJ1, GEN_T, SPEC1, samples) < 1e-6
    assert infinitesimal_check(TRAJ1, GEN_SCALE, SPEC1, samples) < 1e-6
    assert infinitesimal_check(TRAJ1, GEN_RHO, SPEC1, samples,
                               rho=RHO1) < 1e-6


def test_infinitesimal_check_negative_control():
    samples = np.linspace(0.4, 2.8 * math.pi, 40)
    assert infinitesimal_check(TRAJ1, GEN_BOGUS, SPEC1, samples) > 1e-2


def test_infinitesimal_check_second_example():
    spec = NdeSpec.make(c=-1, d=1, r=1.0)
    traj = integrate(spec, "sin(t) + 2", 4.0, 64)
    samples = np.linspace(1.2, 3.8, 30)
    assert infinitesimal_check(traj, GEN_SCALE, spec, samples) < 1e-6


def _scalar_infinitesimal_check(traj, gen, spec, samples, rho=None):
    """Point-by-point invariance residual, each chain and the residual
    called at one time at a time: the reference for the array check."""
    beta, gamma, rho_chain = _affine_chains(gen, spec, rho)
    table = spec.fn_table()
    table.update({"beta": beta, "gamma": gamma, "rho": rho_chain})
    res = compile_numeric(invariance_residual(spec, reduced_ansatz()))
    worst = 0.0
    for t in samples:
        td = t - spec.r
        env = {"t": t, "r": spec.r,
               "x": traj.value(t, 0), "xr": traj.value(td, 0),
               "x1": traj.value(t, 1), "x1r": traj.value(td, 1),
               "x2r": traj.value(td, 2)}
        worst = max(worst, abs(float(res(env, table))))
    return worst


def test_infinitesimal_check_reproduces_the_scalar_loop():
    samples = np.linspace(0.4, 2.8 * math.pi, 40)
    for gen in (GEN_T, GEN_SCALE, GEN_RHO, GEN_BOGUS):
        assert infinitesimal_check(TRAJ1, gen, SPEC1, samples, RHO1) == \
            _scalar_infinitesimal_check(TRAJ1, gen, SPEC1, samples, RHO1)
    spec = NdeSpec.make(c=1, d=2, k=1, r=1.0)
    traj = integrate(spec, "sin(t) + 2", 3.0, 32)
    samples = np.linspace(1.1, 2.9, 30)
    for gen in classify(spec).admitted:
        assert infinitesimal_check(traj, gen, spec, samples) == \
            _scalar_infinitesimal_check(traj, gen, spec, samples)


def test_infinitesimal_check_raises_before_the_span():
    # t = -0.5 lies in the history, but its delayed point does not
    with pytest.raises(ExprError):
        infinitesimal_check(TRAJ1, GEN_SCALE, SPEC1, [1.0, -0.5])


def test_no_sample_times_fail_the_invariance_checks():
    # a maximum over no times would pass any bound
    spec = NdeSpec.make(c=1, d=1, k=1, r=1.0)
    traj = integrate(spec, "sin(t) + 2", 3.0, 32)
    with pytest.raises(ExprError, match="no sample times"):
        infinitesimal_check(traj, GEN_T, spec, [])
    with pytest.raises(ExprError, match="no sample times"):
        check_generator(traj, GEN_T, spec, [], [0.25], None, TOL_INF,
                        TOL_FIN)


def test_infinitesimal_check_follows_a_changed_coefficient():
    spec = NdeSpec.make(c="2 + sin(t)", k=1, r=math.pi)
    samples = np.linspace(0.4, 2.8 * math.pi, 20)
    first = infinitesimal_check(TRAJ1, GEN_T, spec, samples)
    spec.c = CD.closed("2 + cos(t)")
    fresh = NdeSpec.make(c="2 + cos(t)", k=1, r=math.pi)
    again = infinitesimal_check(TRAJ1, GEN_T, spec, samples)
    assert again == infinitesimal_check(TRAJ1, GEN_T, fresh, samples)
    assert again != first


def _first_segment_reads(curve, ts, der):
    """Each time read alone from the first segment that holds it: NaN
    outside the curve and between segments."""
    want = []
    for t in ts:
        hit = [seg for seg in curve.segments
               if seg[0] - 1e-9 <= t <= seg[1] + 1e-9
               and curve.t_lo - 1e-9 <= t <= curve.t_hi + 1e-9]
        want.append(float(hit[0][2](t)[der]) if hit else math.nan)
    return np.array(want)


def test_transformed_curve_sample_reads_the_first_holding_segment():
    curve = transform_solution(TRAJ1, GEN_T, 0.4, SPEC1)
    ts = np.concatenate([np.linspace(curve.t_lo, curve.t_hi, 97),
                         curve.boundaries,
                         [curve.t_lo - 1.0, curve.t_hi + 1.0]])
    for der in range(3):
        np.testing.assert_array_equal(curve.sample(ts, der),
                                      _first_segment_reads(curve, ts, der))
    assert math.isnan(curve.sample(curve.t_hi + 1.0))


def test_transformed_curve_jets_match_sample_bit_for_bit():
    # C2's 1/b moves t, so the image's segments meet at moved breaking
    # points, where two segments hold a time; dropping the middle segment
    # leaves times between segments
    sc = next(sc for sc in build_scenarios() if sc.name == "C2")
    spec = sc.spec
    traj = integrate(spec, sc.theta, spec.t0 + 3 * spec.r, 64)
    gen = next(g for g in classify(spec).admitted if "1/b" in g.label)
    full = transform_solution(traj, gen, 0.5, spec)
    lo, hi, _ = full.segments[1]
    gapped = dataclasses.replace(
        full, segments=[full.segments[0], *full.segments[2:]])
    for curve in (full, gapped):
        ts = np.concatenate([np.linspace(curve.t_lo, curve.t_hi, 97),
                             curve.boundaries, np.linspace(lo, hi, 9),
                             [curve.t_lo - 1.0, curve.t_hi + 1.0]])
        jets = curve.jets(ts)
        assert jets.shape == (3, len(ts))
        for der in range(3):
            want = _first_segment_reads(curve, ts, der)
            assert jets[der].tobytes() == want.tobytes(), der
            assert curve.sample(ts, der).tobytes() == want.tobytes(), der
    inside = (ts > lo + 1e-6) & (ts < hi - 1e-6)
    assert inside.sum() >= 9 and np.isnan(gapped.jets(ts)[:, inside]).all()
    assert not np.isnan(full.jets(ts)[:, inside]).any()


def test_transformed_curve_sample_raises_on_an_order_it_does_not_hold():
    curve = transform_solution(TRAJ1, GEN_T, 0.4, SPEC1)
    for der in (-1, 3):
        with pytest.raises(EvalError, match="not stored"):
            curve.sample([1.0, 2.0], der)


def test_finite_check_passes_for_symmetries():
    rep = finite_check(TRAJ1, GEN_T, SPEC1, [0.25, -0.25, 0.5])
    assert rep < 1e-5
    rep = finite_check(TRAJ1, GEN_SCALE, SPEC1, [1.0])
    assert rep < 1e-5


def test_finite_check_negative_control():
    rep = finite_check(TRAJ1, GEN_BOGUS, SPEC1, [0.2])
    assert rep > 1e-2


def test_finite_check_rho_generator():
    rep = finite_check(TRAJ1, GEN_RHO, SPEC1, [0.25], rho=RHO1)
    assert rep < 1e-5


def test_classified_generators_verify_end_to_end():
    res = classify(SPEC1)
    samples = np.linspace(0.4, 2.8 * math.pi, 30)
    for gen in res.admitted:
        assert infinitesimal_check(TRAJ1, gen, SPEC1, samples,
                                   rho=RHO1) < 1e-6
        rep = finite_check(TRAJ1, gen, SPEC1, [0.25], rho=RHO1)
        assert rep < 1e-4


# ---------------------------------------------------------------------------
# array flows


def test_omega_solution_sample_matches_value():
    spec = NdeSpec.make(c=1, d=2, k=1, r=1.0)
    sol = next(g.omega_numeric for g in classify(spec).admitted
               if g.kind == "numeric")
    grid = np.concatenate([sol.ts, (sol.ts[:-1] + sol.ts[1:]) / 2])
    for der in range(4):
        want = [float(sol.sample(float(t), der)) for t in grid]
        assert sol.sample(grid, der).tolist() == want
    outside = sol.sample([sol.ts[0] - 0.1, sol.ts[-1] + 0.1])
    assert np.isnan(outside).all()


def test_prolonged_flow_domain_exit_is_per_jet():
    # d/dt + rho d/dx carries a jet near the span end past the end of the
    # rho trajectory; only that jet fails
    jets = [(1.0, 0.2, 0.1, -0.3), (3 * math.pi - 0.1, 0.5, 0.0, 0.1),
            (5.0, -0.4, 0.3, 0.2)]
    batch = prolonged_flow(GEN_T_RHO, jets, 0.25, SPEC1, RHO1, substeps=24)
    assert batch[1] is None
    for i in (0, 2):
        alone = prolonged_flow(GEN_T_RHO, [jets[i]], 0.25, SPEC1, RHO1,
                               substeps=24)
        assert batch[i] == alone[0]


def _float_breaking_points(traj):
    # reference: t0, t0 + r, ... by repeated float addition
    out, t = [], traj.t0
    while t <= traj.t_end + 1e-12:
        out.append(t)
        t += traj.r
    return out


def _float_cuts(traj, ts, step):
    # reference: each float breaking point rounded back to a sample index
    cuts = set()
    for bp in _float_breaking_points(traj):
        idx = int(round((bp - ts[0]) / step))
        if 0 < idx < len(ts) - 1 and abs(ts[idx] - bp) < 1e-9:
            cuts.add(idx)
    return sorted(cuts)


@pytest.mark.parametrize("r", [1.0, math.pi, math.pi / 2],
                         ids=["1", "pi", "pi-2"])
def test_breaking_points_are_the_nodes_float_steps_reach(r):
    # the breaking points as node indices give the times, the curve cuts
    # and the interior samples that walking t0 + n r in floats gave
    for n in (16, 24, 64):
        for delays in (1, 2, 3, 5):
            spec = NdeSpec.make(c=1, d=Fraction(1, 2), k=Fraction(1, 2),
                                r=r, t0=0.5)
            traj = integrate(spec, "cos(t)", 0.5 + delays * r, n)
            want = _float_breaking_points(traj)
            assert len(traj.breaking_points()) == len(want) == delays + 1
            np.testing.assert_allclose(traj.breaking_points(), want,
                                       rtol=0, atol=1e-12)
            # the identity flow keeps every sample time, so the curve's
            # boundaries are the sample times at its cuts
            step = traj.hstep / flowverify.FINE
            ts = (traj.t0 - traj.r) + step * np.arange(
                int(round((traj.t_end - (traj.t0 - traj.r)) / step)) + 1)
            curve = transform_solution(traj, GEN_T, 0.0, spec)
            cuts = [0] + _float_cuts(traj, ts, step) + [len(ts) - 1]
            assert curve.boundaries.tolist() == ts[cuts].tolist()
            keep = (traj.ts >= traj.t0 + traj.hstep) \
                & (traj.ts <= traj.t_end - traj.hstep)
            for bp in want:
                keep &= (np.abs(traj.ts - bp) >= 1.5 * traj.hstep) \
                    & (np.abs(traj.ts - r - bp) >= 1.5 * traj.hstep)
            out = traj.ts[keep].tolist()
            assert flowverify.interior_samples(traj, spec) == out[::max(
                len(out) // flowverify.INTERIOR_SAMPLES, 1)]


# at r = 1.5 and t0 = 0.1 some of transform_solution's cut times land an
# ulp past their nodes, where a read that compares times turns right-hand
@pytest.mark.parametrize("r, t0, steps", [(1.0, 0.0, 16), (1.5, 0.1, 64)])
def test_left_hand_jets_ride_in_the_main_batch(monkeypatch, r, t0, steps):
    spec = NdeSpec.make(c=1, d=2, k=1, r=r, t0=t0)
    traj = integrate(spec, "sin(t) + 2", t0 + 3 * r, steps)
    gen = Generator("d/dt + x d/dx", "closed", omega=num(1), upsilon=X)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return prolonged_flow(*args, **kwargs)

    monkeypatch.setattr(flowverify, "prolonged_flow", counting)
    curve = transform_solution(traj, gen, 0.25, spec)
    monkeypatch.undo()
    assert len(calls) == 1
    step = traj.hstep / 2
    checked = 0
    for m, bp in enumerate(traj.breaking_points()[:-1]):
        # the interval that ends at node m n holds the left-hand x''; below
        # t0 that is the initial function's
        left = (bp, traj.value(bp, 0), traj.value(bp, 1),
                traj.jets([bp], [m * steps - 1])[2, 0])
        moved = prolonged_flow(gen, [left], 0.25, spec, substeps=24)[0]
        # the segment that closes at the image of the cut ends on the
        # separately transported left-hand jet
        seg = next(s for s in curve.segments
                   if abs(s[1] - moved[0]) < step / 4)
        for i in (1, 2, 3):
            assert float(seg[2](seg[1])[i - 1]) == pytest.approx(
                moved[i], rel=1e-12, abs=1e-12)
        checked += 1
    assert checked == 3


def test_rho_chain_refuses_third_derivative():
    # a Trajectory stores x, x' and x'' only
    table = {"rho": RHO1}
    second = compile_numeric(fn("rho", order=2))
    third = compile_numeric(fn("rho", order=3))
    for t in (1.0, np.array(1.0), np.array([1.0, 1.5])):
        second({"t": t}, table)
        with pytest.raises(EvalError):
            third({"t": t}, table)


def _scalar_prolonged_flow(gen, jets, delta, spec, rho, substeps):
    """Jet-by-jet RK4, each chain called at one time at a time: the
    reference the array flow must reproduce."""
    beta, gamma, rho_chain = _affine_chains(gen, spec, rho)
    h = delta / substeps

    def vel(y):
        t, x, x1, x2 = y
        b0, b1, b2 = (beta.sample(t, o) for o in range(3))
        g0, g1, g2 = (gamma.sample(t, o) for o in range(3))
        return np.array([
            b0, g0 * x + rho_chain.sample(t, 0),
            g1 * x + rho_chain.sample(t, 1) + (g0 - b1) * x1,
            g2 * x + rho_chain.sample(t, 2) + (2 * g1 - b2) * x1
            + (g0 - 2 * b1) * x2])

    out = []
    for jet in jets:
        y = np.array(jet, float)
        for _ in range(substeps):
            k1 = vel(y)
            k2 = vel(y + h / 2 * k1)
            k3 = vel(y + h / 2 * k2)
            k4 = vel(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(tuple(y.tolist()))
    return out


def test_prolonged_flow_reproduces_the_scalar_loop():
    # the (1/b) generator of the delay-periodic classes: integer powers of
    # a sum and sums of three and more terms in its derivative chains
    b = "2 + cos(4*t)/10"
    gen = Generator("(1/b) d/dt", "closed",
                    omega=normalize(parse(f"({b})^(-1)")),
                    upsilon=normalize(parse(f"x*sin(4*t)/5*({b})^(-2)")))
    got = prolonged_flow(gen, JETS, 0.25, SPEC1, substeps=12)
    assert got == _scalar_prolonged_flow(gen, JETS, 0.25, SPEC1, None, 12)
    got = prolonged_flow(GEN_T_RHO, JETS, 0.25, SPEC1, RHO1, substeps=12)
    assert got == _scalar_prolonged_flow(GEN_T_RHO, JETS, 0.25, SPEC1, RHO1,
                                         12)


@pytest.mark.parametrize("b", [
    CD.closed("2 + cos(t)"),
    CD.from_table([0.0, 1.0, 2.0, 3.0, 4.0], [2.0, 2.5, 1.5, 2.0, 3.0])])
def test_flow_reads_equation_coefficients_as_arrays(b):
    spec = NdeSpec.make(b=b, k=1, r=1.0)
    gen = Generator("b d/dt", "closed", omega=fn("b"), upsilon=X)
    points = [(0.5, 1.0), (1.5, -2.0), (2.5, 0.5)]
    h = 0.3 / 8
    for (t, x), got in zip(points, flow(gen, points, 0.3, spec,
                                        substeps=8)):
        for _ in range(8):
            k1t, k1x = b.eval(t), x
            k2t, k2x = b.eval(t + h / 2 * k1t), x + h / 2 * k1x
            k3t, k3x = b.eval(t + h / 2 * k2t), x + h / 2 * k2x
            k4t, k4x = b.eval(t + h * k3t), x + h * k3x
            t += h / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
            x += h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        assert got == (t, x)


# ---------------------------------------------------------------------------
# group axioms in batched flows, each row with its own step

# the suite's delta and one like the benchmark's, drawn from [0.2, 0.3]
AXIOM_DELTAS = (0.25, 0.237113)


@functools.lru_cache(maxsize=1)
def _suite_axiom_cases():
    """(scenario name, generator, spec, rho, axiom points) for every
    admitted non-numeric generator of the 14 scenarios, as run_scenario
    sees them."""
    cases = []
    for sc in build_scenarios():
        spec = sc.spec
        t_end = spec.t0 + sc.delays * spec.r
        traj = integrate(spec, sc.theta, t_end, 64)
        rho = integrate(spec, sc.rho_seed, t_end, 64)
        samples = flowverify.interior_samples(traj, spec)
        points = [(float(t), traj.value(float(t), 0)) for t in samples[:4]]
        cases += [(sc.name, gen, spec, rho, points)
                  for gen in classify(spec).generators
                  if gen.status == "admitted" and gen.kind != "numeric"]
    return cases


def _three_call_axioms(gen, points, d1, d2, spec, rho):
    """The group axioms as three checks of single-delta flows: identity
    (one substep at 0), inverse (by d1, then by -d1) and closure (by d1
    then d2, against d1 + d2)."""
    def moved(pts, delta, substeps=flowverify.SUBSTEPS):
        out = flow(gen, pts, delta, spec, rho, substeps)
        assert all(m is not None for m in out)
        return out

    def gap(a, b):
        return float(np.max(np.abs(np.subtract(a, b))))

    fwd = moved(points, d1)
    return (gap(moved(points, 0.0, 1), points),
            gap(moved(fwd, -d1), points),
            gap(moved(fwd, d2), moved(points, d1 + d2)))


@pytest.mark.parametrize("delta", AXIOM_DELTAS)
def test_a_flow_with_one_delta_per_row_equals_single_delta_flows(delta):
    assert len(_suite_axiom_cases()) == 38
    deltas = (delta, -delta, delta / 2, delta + delta / 2)
    for name, gen, spec, rho, points in _suite_axiom_cases():
        rows = [p for _ in deltas for p in points]
        per_row = [d for d in deltas for _ in points]
        want = [m for d in deltas for m in flow(gen, points, d, spec, rho)]
        assert flow(gen, rows, per_row, spec, rho) == want, (name, gen.label)


@pytest.mark.parametrize("delta", AXIOM_DELTAS)
def test_axiom_errors_equal_three_single_delta_checks(delta):
    for name, gen, spec, rho, points in _suite_axiom_cases():
        want = _three_call_axioms(gen, points, delta, delta / 2, spec, rho)
        assert axiom_errors(gen, points, delta, delta / 2, spec, rho) == \
            want, (name, gen.label)
    # the one-axiom views read the same numbers
    assert identity_error(gen, points, spec, rho) == want[0]
    assert inverse_error(gen, points, delta, spec, rho) == want[1]
    assert closure_error(gen, points, delta, delta / 2, spec, rho) == want[2]


# ---------------------------------------------------------------------------
# failures are reported, never skipped

GEN_SQRT = Generator("sqrt(t) d/dt", "closed", omega=App("sqrt", T),
                     upsilon=ZERO)
# sqrt(t) has no value at t = -1, so the first row leaves the domain
SQRT_POINTS = [(-1.0, 0.5), (1.0, 0.3), (2.0, -0.2)]


def test_identity_error_names_the_point_that_left_the_domain():
    with pytest.raises(ExprError, match=r"\(-1\.0, 0\.5\) by 0\.0"):
        axiom_errors(GEN_SQRT, SQRT_POINTS, 0.0, 0.0, SPEC1)


# the identity flow runs first, so the row that cannot start is named with
# the identity's delta 0
def test_inverse_error_keeps_rows_aligned():
    # dropping the failed row paired (1, .) with (-1, .) and gave 2.0
    with pytest.raises(ExprError, match=r"\(-1\.0, 0\.5\) by 0\.0"):
        axiom_errors(GEN_SQRT, SQRT_POINTS, 0.25, 0.0, SPEC1)


def test_closure_error_keeps_rows_aligned():
    with pytest.raises(ExprError, match=r"\(-1\.0, 0\.5\) by 0\.0"):
        axiom_errors(GEN_SQRT, SQRT_POINTS, 0.25, 0.125, SPEC1)


def test_a_domain_exit_names_the_delta_of_its_own_row():
    # d/dt + sqrt(1 - t) d/dx moves t by delta and has no value
    # past t = 1: from t = 0.7 the flow by 0.25 stays inside and the flow
    # by 0.25 + 0.125 leaves, in the second half of the first batch
    gen = Generator("d/dt + sqrt(1 - t) d/dx", "closed", omega=num(1),
                    upsilon=App("sqrt", normalize(1 - T)))
    with pytest.raises(ExprError, match=r"^flow from \(0\.7, 0\.3\) by "
                       r"0\.375 left"):
        axiom_errors(gen, [(0.0, 0.1), (0.7, 0.3)], 0.25, 0.125, SPEC1)


def test_finite_check_fails_when_one_delta_fails():
    # on the unit right-shift class the flow of this pair by 5.0 leaves the
    # numeric domain; a tiny delta alone gives a small residual
    sc = {sc.name: sc for sc in build_scenarios()}["C9"]
    spec = sc.spec
    traj = integrate(spec, sc.theta, spec.t0 + 3 * spec.r, 64)
    bogus = Generator("t^2 d/dt + t x d/dx", "closed",
                      omega=normalize(T * T), upsilon=normalize(T * X))
    assert finite_check(traj, bogus, spec, [1e-9]) < 1e-6
    with pytest.raises(ExprError):
        transform_solution(traj, bogus, 5.0, spec)
    assert finite_check(traj, bogus, spec, [1e-9, 5.0]) is None
    assert finite_check(traj, bogus, spec, []) is None


def test_a_generator_with_no_field_is_refused():
    # a negative constant d has no real 1/sqrt(d): C12 demotes its first
    # generator with neither omega nor upsilon, which read as the zero
    # field passed both checks with residuals 0.0 and 2.0e-10
    spec = NdeSpec.make(c=1, d=-1, r=1.0)
    gen = classify(spec).generators[0]
    assert gen.omega is None and gen.upsilon is None
    traj = integrate(spec, "1 + sin(t)/2", 3.0, 64)
    samples = flowverify.interior_samples(traj, spec)
    with pytest.raises(ExprError, match=re.escape(repr(gen.label))):
        check_generator(traj, gen, spec, samples, [0.25], None, TOL_INF,
                        TOL_FIN)
    with pytest.raises(ExprError, match=re.escape(repr(gen.label))):
        flow(gen, POINTS, 0.25, spec)


def _cut(traj, nodes):
    """The trajectory up to and including its node of that index."""
    keep = slice(nodes + 1)
    return dataclasses.replace(traj, ts=traj.ts[keep], xs=traj.xs[keep],
                               x1s=traj.x1s[keep], x2s=traj.x2s[keep],
                               x2l=traj.x2l[keep])


def test_an_image_segment_of_fewer_than_three_points_is_skipped():
    # ending one step past the breaking point 2 pi leaves a last segment
    # FINE = 2 source steps long, too short for a spline
    traj = _cut(TRAJ1, 2 * 64 + 1)
    curve = transform_solution(traj, GEN_SCALE, 0.5, SPEC1)
    assert len(curve.boundaries) == 5 and len(curve.segments) == 3
    assert curve.segments[-1][1] == pytest.approx(2 * math.pi, abs=1e-12)
    assert curve.t_hi == pytest.approx(traj.t_end, abs=1e-12)
    tail = np.linspace(2 * math.pi + 0.01, traj.t_end, 5)
    assert np.isnan(curve.sample(tail)).all()
    assert float(curve.sample(6.0)) == pytest.approx(
        math.exp(0.5) * math.sin(6.0), abs=1e-6)


def test_a_delta_with_no_admissible_sample_fails_the_finite_check():
    # one step past t0 every candidate time of the image lies within half
    # a step of a segment boundary, so the delta has an image but no sample
    traj = _cut(TRAJ1, 1)
    curves = []
    assert finite_check(traj, GEN_SCALE, SPEC1, [0.5], curves=curves) is None
    assert isinstance(curves[0], flowverify.TransformedCurve)


def test_breaking_point_images_are_curve_boundaries():
    """finite_check excludes samples near the curve's segment boundaries;
    they are the flow images of the breaking points on every scenario."""
    checked = 0
    for sc in build_scenarios():
        spec = sc.spec
        t_end = spec.t0 + sc.delays * spec.r
        traj = integrate(spec, sc.theta, t_end, 64)
        rho = integrate(spec, sc.rho_seed, t_end, 64)
        points = [(t, traj.value(t, 0)) for t in traj.breaking_points()]
        for gen in classify(spec).admitted:
            curve = transform_solution(traj, gen, 0.25, spec, rho)
            for img in flow(gen, points, 0.25, spec, rho, substeps=24):
                if img is None:
                    continue
                assert np.min(np.abs(curve.boundaries - img[0])) <= 1e-12, \
                    (sc.name, gen.label, img)
                checked += 1
    assert checked > 100


class Recording:
    """A function of t that lists the orders it is asked for, and each
    query as its order and the bytes of its times."""

    def __init__(self, fn):
        self.fn, self.asked, self.queries = fn, [], []

    def sample(self, ts, order):
        self.asked.append(order)
        self.queries.append((order, np.asarray(ts, float).tobytes()))
        return self.fn.sample(ts, order)


def test_prolonged_flow_asks_a_trajectory_rho_for_orders_up_to_two():
    # the nine chains of one program read rho, rho' and rho'' only; a
    # Trajectory has no third derivative to give
    rho = Recording(RHO1)
    moved = prolonged_flow(GEN_T_RHO, [(1.0, 0.2, 0.1, -0.3)], 0.25, SPEC1,
                           rho, substeps=4)
    assert moved[0] is not None
    assert sorted(set(rho.asked)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# a flow reads each function of t once per distinct set of times

@pytest.mark.parametrize("gen", [GEN_RHO, GEN_T_RHO], ids=lambda g: g.label)
@pytest.mark.parametrize("delta", [-0.3, 0.5])
def test_rho_flows_reproduce_the_scalar_loop(gen, delta):
    # the flow of (t, x) is the first two rows of the prolonged flow, whose
    # t and x do not read x' and x''
    want = _scalar_prolonged_flow(gen, JETS, delta, SPEC1, RHO1, 12)
    assert prolonged_flow(gen, JETS, delta, SPEC1, RHO1, substeps=12) == want
    points = [jet[:2] for jet in JETS]
    assert flow(gen, points, delta, SPEC1, RHO1, substeps=12) == [
        m[:2] for m in want]


def test_a_flow_asks_each_order_once_per_distinct_set_of_times():
    # rho(t) d/dx leaves t fixed, so all 4 x 4 RK4 stages read rho at the
    # same times.  d/dt + rho d/dx moves t: the second and third stage of
    # a step both read at t + h/2, and each step starts at the times the
    # last stage of the step before read, so it reads 1 + 4 x 2 sets
    for gen, reads in ((GEN_RHO, 1), (GEN_T_RHO, 9)):
        rho = Recording(RHO1)
        prolonged_flow(gen, JETS, 0.25, SPEC1, rho, substeps=4)
        assert sorted(rho.asked) == sorted([0, 1, 2] * reads)
        assert len(set(rho.queries)) == 3 * reads
        rho = Recording(RHO1)
        flow(gen, [jet[:2] for jet in JETS], 0.25, SPEC1, rho, substeps=4)
        assert rho.asked == [0] * reads
        assert len(set(rho.queries)) == reads


class SignOfT:
    """A function of t whose value tells -0.0 from 0.0."""

    def sample(self, ts, order):
        return np.copysign(1.0 + order, ts)


def test_a_repeated_query_is_compared_bit_for_bit():
    rec = Recording(SignOfT())
    entry = flowverify._LastAnswer(rec)
    assert entry.sample(np.array([0.0, 1.0]), 0).tolist() == [1.0, 1.0]
    assert entry.sample(np.array([0.0, 1.0]), 0).tolist() == [1.0, 1.0]
    assert entry.sample(np.array([-0.0, 1.0]), 0).tolist() == [-1.0, 1.0]
    assert entry.sample(np.array([-0.0, 1.0]), 1).tolist() == [-2.0, 2.0]
    assert entry.sample(np.array([-0.0, 1.0]), 0).tolist() == [-1.0, 1.0]
    assert rec.asked == [0, 0, 1]


def test_a_reused_answer_is_read_only():
    entry = flowverify._LastAnswer(RHO1)
    ts = np.array([1.0, 2.0])
    first = entry.sample(ts, 1)
    for value in (first, entry.sample(ts, 1)):
        with pytest.raises(ValueError):
            value[0] = 0.0
    assert entry.sample(ts, 1).tolist() == RHO1.sample(ts, 1).tolist()


def _hand_written_numeric_chains(sol):
    """beta = Phi and gamma = Phi'/2 of a numeric omega as numeric
    descriptors, with no solution slot: the form the flows used before a
    numeric omega entered the compiled chains."""
    beta = CD.numeric(*[lambda t, o=o: sol.sample(t, o) for o in range(4)])
    gamma = CD.numeric(*[lambda t, o=o: 0.5 * sol.sample(t, o + 1)
                         for o in range(3)])
    return beta, gamma, CD.zero()


# the omegas of C3 and C5 are constant on their scenarios; the three
# directions of C7, demoted as they are, carry the Phi' and Phi'' terms
@pytest.mark.parametrize("name", ["C3", "C5", "C7"])
def test_numeric_omega_chains_match_the_hand_written_formulas(name):
    sc = {sc.name: sc for sc in build_scenarios()}[name]
    spec = sc.spec
    t_end = spec.t0 + sc.delays * spec.r
    traj = integrate(spec, sc.theta, t_end, 32)
    rho = integrate(spec, sc.rho_seed, t_end, 32)
    samples = np.asarray(flowverify.interior_samples(traj, spec))
    points = [(t, traj.value(t, 0)) for t in samples]
    jets = np.column_stack([samples] + [traj.sample(samples, o)
                                        for o in range(3)])
    gens = [g for g in classify(spec).generators if g.kind == "numeric"]
    assert len(gens) == (3 if name == "C7" else 1)
    for gen in gens:
        _check_numeric_chains(gen, spec, traj, rho, samples, points, jets)


def _check_numeric_chains(gen, spec, traj, rho, samples, points, jets):
    sol = gen.omega_numeric
    beta, gamma, rho_chain = _hand_written_numeric_chains(sol)

    def pair(_, y):
        out = np.empty_like(y)
        out[:, 0] = sol.sample(y[:, 0], 0)
        out[:, 1] = 0.5 * sol.sample(y[:, 0], 1) * y[:, 1]
        return out

    def prolonged(_, y):
        t, x, x1, x2 = y.T
        b0, b1, b2 = (beta.sample(t, o) for o in range(3))
        g0, g1, g2 = (gamma.sample(t, o) for o in range(3))
        return np.column_stack([
            b0, g0 * x, g1 * x + (g0 - b1) * x1,
            g2 * x + (2 * g1 - b2) * x1 + (g0 - 2 * b1) * x2])

    for delta in (0.25, -0.3):
        assert flow(gen, points, delta, spec, rho) == flowverify._rk4(
            pair, np.array(points), delta, flowverify.SUBSTEPS)
        assert prolonged_flow(gen, jets, delta, spec, rho) == \
            flowverify._rk4(prolonged, jets, delta, flowverify.SUBSTEPS)

    table = spec.fn_table()
    table.update({"beta": beta, "gamma": gamma, "rho": rho_chain})
    residual = compile_numeric(invariance_residual(spec, reduced_ansatz()))
    td = samples - spec.r
    env = {"t": samples, "r": spec.r,
           "x": traj.sample(samples, 0), "xr": traj.sample(td, 0),
           "x1": traj.sample(samples, 1), "x1r": traj.sample(td, 1),
           "x2r": traj.sample(td, 2)}
    want = float(np.max(np.abs(np.broadcast_to(residual(env, table),
                                               samples.shape))))
    assert infinitesimal_check(traj, gen, spec, samples, rho) == want


def test_a_varying_numeric_omega_passes_both_checks():
    # the admitted numeric omegas of the suite are constant, so its reports
    # cannot tell a wrong Phi' term in upsilon; C2's closed omega 1/b
    # varies, and on a grid as a numeric generator it must pass too
    sc = {sc.name: sc for sc in build_scenarios()}["C2"]
    spec = sc.spec
    t_end = spec.t0 + sc.delays * spec.r
    traj = integrate(spec, sc.theta, t_end, 64)
    rho = integrate(spec, sc.rho_seed, t_end, 64)
    samples = flowverify.interior_samples(traj, spec)
    w = CD.closed(normalize(Pow(spec.b.expr, -1)))
    step = 1 / 800
    grid = spec.t0 + step * np.arange(-math.ceil(2.5 * spec.r / step),
                                      math.ceil(3.5 * spec.r / step) + 1)
    sol = OmegaSolution(grid, *(np.array(w.sample(grid, o))
                                for o in range(4)))
    gen = Generator("Phi d/dt + (x/2) Phi' d/dx", "numeric",
                    omega_numeric=sol)
    report = check_generator(traj, gen, spec, samples, [0.25], rho,
                             TOL_INF, TOL_FIN)
    assert report["pass"]
