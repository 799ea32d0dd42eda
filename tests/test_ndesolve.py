import hashlib
import importlib
import importlib.util
import json
import math
import pathlib
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ndelie.classify import classify, compat_c_from_b, compat_d_from_b
from ndelie.equation import CoeffDescriptor, NdeSpec
from ndelie.ndesolve import _hermite, integrate, residual
from ndelie.symexpr import ExprError, parse


def example1_spec():
    # x'' + x''(t - pi) = 0
    return NdeSpec.make(k=1, r=math.pi, t0=0.0)


def example2_spec():
    # x'' - x + x(t - r) = 0
    return NdeSpec.make(c=-1, d=1, r=1.0, t0=0.0)


def test_example1_reproduces_sine():
    spec = example1_spec()
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    ts = np.linspace(0.0, 3 * math.pi, 400)
    err = max(abs(traj.value(t, 0) - math.sin(t)) for t in ts)
    assert err < 1e-6


def test_constant_solution():
    traj = integrate(example2_spec(), "5", 4.0, 64)
    ts = np.linspace(0.0, 4.0, 100)
    assert max(abs(traj.value(t, 0) - 5.0) for t in ts) < 1e-10


def test_plain_ode_convergence():
    # no delay terms: x'' + x = 0 integrated through the same machinery
    spec = NdeSpec.make(c=1, r=1.0, t0=0.0)
    errs = []
    for n in (32, 64):
        traj = integrate(spec, "sin(t)", 4.0, n)
        ts = np.linspace(0.1, 4.0, 200)
        errs.append(max(abs(traj.value(t, 0) - math.sin(t)) for t in ts))
    assert errs[0] < 1e-6
    assert 12 <= errs[0] / errs[1] <= 20


def test_neutral_convergence_order():
    spec = example1_spec()
    ts = np.linspace(0.0, 3 * math.pi, 400)
    errs = []
    for n in (32, 64, 128):
        traj = integrate(spec, "sin(t)", 3 * math.pi, n)
        errs.append(max(abs(traj.value(t, 0) - math.sin(t)) for t in ts))
    assert 12 <= errs[0] / errs[1] <= 20
    assert 12 <= errs[1] / errs[2] <= 20


def test_convergence_order_with_varying_coefficients():
    # a manufactured solution: every coefficient varies with t and h is
    # chosen so that x = sin t solves the equation from theta = sin t
    co = dict(a="1/2 + sin(t)/4", b="cos(t)/3", c="1 + cos(2*t)/4",
              d="sin(t)/3", k="(1 + cos(t))/4")
    h = ("-sin(t) + ({a})*cos(t) + ({b})*cos(t - 1) + ({c})*sin(t)"
         " + ({d} - ({k}))*sin(t - 1)").format(**co)
    spec = NdeSpec.make(h=h, r=1.0, t0=0.0, **co)
    errs = []
    for n in (32, 64, 128):
        traj = integrate(spec, "sin(t)", 4.0, n)
        errs.append(max(np.max(np.abs(traj.xs - np.sin(traj.ts))),
                        np.max(np.abs(traj.x1s - np.cos(traj.ts)))))
    assert errs[0] < 1e-6
    assert 12 <= errs[0] / errs[1] <= 20
    assert 12 <= errs[1] / errs[2] <= 20


def test_history_consistency():
    traj = integrate(example1_spec(), "sin(t)", 2 * math.pi, 32)
    for t in np.linspace(-math.pi, 0.0, 40):
        assert traj.value(t, 0) == pytest.approx(math.sin(t), abs=1e-14)
        assert traj.value(t, 1) == pytest.approx(math.cos(t), abs=1e-14)
        assert traj.value(t, 2) == pytest.approx(-math.sin(t), abs=1e-14)


def test_node_values_exact():
    traj = integrate(example1_spec(), "sin(t)", 2 * math.pi, 32)
    for i in (0, 5, 17, len(traj.ts) - 1):
        t = float(traj.ts[i])
        assert traj.value(t, 0) == pytest.approx(traj.xs[i], abs=1e-15)
        assert traj.value(t, 1) == pytest.approx(traj.x1s[i], abs=1e-15)
        assert traj.value(t, 2) == pytest.approx(traj.x2s[i], abs=1e-13)


def test_linear_superposition():
    spec = example2_spec()
    t_end = 4.0
    t1 = integrate(spec, "sin(t)", t_end, 32)
    t2 = integrate(spec, "1 + t", t_end, 32)
    t12 = integrate(spec, "sin(t) + 1 + t", t_end, 32)
    for t in np.linspace(0.0, t_end, 60):
        combined = t1.value(t, 0) + t2.value(t, 0)
        assert abs(combined - t12.value(t, 0)) < 1e-8


def test_residual_small_on_solution():
    spec = example1_spec()
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    samples = np.linspace(0.3, 3 * math.pi, 97)
    assert residual(traj, spec, samples) < 1e-5


def test_residual_detects_corruption():
    spec = example2_spec()
    traj = integrate(spec, "sin(t)", 4.0, 64)
    traj.xs *= 1.01
    samples = np.linspace(0.3, 4.0, 50)
    assert residual(traj, spec, samples) > 1e-3


def test_residual_bound_scales_with_step():
    spec = example1_spec()
    for n in (32, 64):
        traj = integrate(spec, "sin(t)", 2 * math.pi, n)
        h = spec.r / n
        samples = np.linspace(0.3, 2 * math.pi, 50)
        assert residual(traj, spec, samples) < 100 * h ** 4


def test_integrate_validations():
    spec = example1_spec()
    with pytest.raises(ExprError):
        integrate(spec, "sin(t)", 1.5, 64)  # not a whole number of delays
    with pytest.raises(ExprError):
        integrate(spec, "sin(t)", 3 * math.pi, 8)  # too few steps
    with pytest.raises(ExprError, match="16.9"):
        integrate(spec, "sin(t)", 3 * math.pi, 16.9)  # not a whole number
    with pytest.raises(ExprError, match="nan"):
        integrate(spec, "sin(t)", 3 * math.pi, math.nan)


def test_initial_function_must_differentiate():
    f = CoeffDescriptor.closed("sin(t) + t^2")
    assert f.eval(0.5, 2) == pytest.approx(-math.sin(0.5) + 2.0)


def test_rho_slot():
    spec = example1_spec()
    rho = integrate(spec, "sin(t)", 2 * math.pi, 32)
    assert abs(rho.value(1.0, 0) - math.sin(1.0)) < 1e-6
    # a rho slot is bound only after classify, which refuses h != 0
    with pytest.raises(ExprError, match="reduced form"):
        classify(NdeSpec.make(k=1, h=1, r=1.0))


def test_zero_seed_gives_zero_rho():
    spec = example1_spec()
    rho = integrate(spec, "0", 2 * math.pi, 32)
    assert max(abs(rho.value(t, 0)) for t in np.linspace(0, 6, 30)) == 0.0


def test_query_outside_span():
    traj = integrate(example1_spec(), "sin(t)", 2 * math.pi, 32)
    with pytest.raises(ExprError):
        traj.value(-10.0, 0)
    with pytest.raises(ExprError):
        traj.value(100.0, 0)


def test_csv_export(tmp_path):
    traj = integrate(example1_spec(), "sin(t)", 2 * math.pi, 16)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,xprime,xsecond"
    assert len(lines) == len(traj.ts) + 1


def _rows_by_value(curve, ts):
    """The CSV written one scalar value query per cell."""
    out = "t,x,xprime,xsecond\n"
    for t in ts:
        out += (f"{float(t):.12g},{curve.value(t, 0):.12g},"
                f"{curve.value(t, 1):.12g},{curve.value(t, 2):.12g}\n")
    return out


def test_csv_export_matches_value_queries(tmp_path):
    # the neutral run has jumps of x'' at its breaking points, where the
    # right-hand value is the one written
    traj = _neutral_run()
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    assert out.read_text() == _rows_by_value(traj, traj.ts)
    ts = np.linspace(traj.t0 - traj.r, traj.t_end, 333)
    traj.to_csv(out, ts)
    assert out.read_text() == _rows_by_value(traj, ts)
    with pytest.raises(ExprError):
        traj.to_csv(out, [traj.t_end + 1.0])


# ---------------------------------------------------------------------------
# array queries


def _neutral_run():
    # the neutral term makes x'' jump at every breaking point t0 + n r
    spec = NdeSpec.make(c=1, d=2, k=1, r=1.0, t0=0.5)
    return integrate(spec, "sin(t) + 2", 3.5, 16)


def _interval_value(ts, h, xs, x1s, x2s, x2l, i, t, der):
    """Cubic Hermite on interval i, with the left-hand acceleration as the
    closing slope where the interval ends at a breaking point."""
    s = (t - ts[i]) / h
    if der == 0:
        return _hermite(xs[i], xs[i + 1], x1s[i], x1s[i + 1], s, h, 0)
    return _hermite(x1s[i], x1s[i + 1], x2s[i], x2l[i + 1], s, h, der - 1)


def _scalar_value(traj, t, der):
    """Point lookup written out as a scalar loop: the reference for the
    array query."""
    t0 = traj.t0
    if t < t0 or (t == t0 and der < 2):
        return traj.theta.eval(t, der)
    i = min(max(math.floor((t - t0) / traj.hstep + 1e-9), 0),
            len(traj.ts) - 2)
    return _interval_value(traj.ts, traj.hstep, traj.xs, traj.x1s,
                           traj.x2s, traj.x2l, i, t, der)


def _scalar_integrate(spec, theta, t_end, n):
    """Method of steps written out stage by stage, each delayed value read
    by a scalar lookup capped at the last completed interval: the
    reference the integrator must reproduce bit for bit."""
    theta = CoeffDescriptor.closed(theta)
    r, t0 = spec.r, spec.t0
    h = r / n
    total = round((t_end - t0) / r) * n
    ts = t0 + h * np.arange(total + 1)
    xs, x1s, x2s, x2l = np.zeros((4, total + 1))
    xs[0], x1s[0] = theta.eval(t0, 0), theta.eval(t0, 1)
    x2l[0] = theta.eval(t0, 2)
    co = [getattr(spec, name).eval for name in "habcdk"]

    def solved(t, x, xr, x1, x1r, x2r):
        hv, a, b, c, d, k = (f(t) for f in co)
        return hv - a * x1 - b * x1r - c * x - d * xr - k * x2r

    def hist(t, der, cap):
        if t < t0 or cap < 0 or (t == t0 and der < 2):
            return theta.eval(t, der)
        if t == t0:
            return x2s[0]
        i = min(max(int((t - t0) / h + 1e-9), 0), cap)
        return _interval_value(ts, h, xs, x1s, x2s, x2l, i, t, der)

    def accel(t, x, x1, cap):
        return solved(t, x, hist(t - r, 0, cap), x1, hist(t - r, 1, cap),
                      hist(t - r, 2, cap))

    x2s[0] = accel(t0, xs[0], x1s[0], -1)
    for i in range(total):
        t, cap, x, v = ts[i], i - n, xs[i], x1s[i]
        k1x, k1v = v, accel(t, x, v, cap)
        k2x, k2v = v + h / 2 * k1v, accel(t + h / 2, x + h / 2 * k1x,
                                          v + h / 2 * k1v, cap)
        k3x, k3v = v + h / 2 * k2v, accel(t + h / 2, x + h / 2 * k2x,
                                          v + h / 2 * k2v, cap)
        k4x, k4v = v + h * k3v, accel(t + h, x + h * k3x, v + h * k3v, cap)
        xs[i + 1] = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        x1s[i + 1] = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if (i + 1) % n == 0:
            jd = i + 1 - n
            x2l[i + 1] = solved(ts[i + 1], xs[i + 1], xs[jd], x1s[i + 1],
                                x1s[jd], x2l[jd])
        x2s[i + 1] = accel(ts[i + 1], xs[i + 1], x1s[i + 1], i + 1 - n)
        if (i + 1) % n:
            x2l[i + 1] = x2s[i + 1]
    return xs, x1s, x2s, x2l


def _c2_spec():
    # a delay-periodic b with c and d from its compatibility formulas
    b = parse("2 + cos(4*t)/7")
    k = Fraction(3, 4)
    return NdeSpec.make(b=b, c=compat_c_from_b(b, c6=1),
                        d=compat_d_from_b(b, k, c5=Fraction(3, 2)), k=k,
                        r=math.pi / 2)


@pytest.mark.parametrize("spec, theta, delays, n", [
    (NdeSpec.make(c=1, d=2, k=1, r=1.0, t0=0.5), "sin(t) + 2", 3, 16),
    (NdeSpec.make(a="1/2", b="cos(t)/3", c="1 + t/5", d=Fraction(1, 3),
                  k=Fraction(1, 4), h="sin(t)", r=0.75, t0=0.2),
     "1 + t/2 + cos(2*t)", 3, 20),
    (NdeSpec.make(k=1, r=math.pi), "sin(t)", 2, 64),
    (NdeSpec.make(c="t^2", d="t^2", k=1, r=1.0, t0=0.5),
     "1/2 + sin(3*t/2) - cos(t)/4", 4, 32),
    (_c2_spec(), "-1/4 + sin(t) + cos(t)/2", 3, 32),
])
def test_integrate_reproduces_the_scalar_loop(spec, theta, delays, n):
    traj = integrate(spec, theta, spec.t0 + delays * spec.r, n)
    xs, x1s, x2s, x2l = _scalar_integrate(spec, theta,
                                          spec.t0 + delays * spec.r, n)
    assert traj.xs.tolist() == xs.tolist()
    assert traj.x1s.tolist() == x1s.tolist()
    assert traj.x2s.tolist() == x2s.tolist()
    assert traj.x2l.tolist() == x2l.tolist()


def test_sample_matches_value_bit_for_bit():
    traj = _neutral_run()
    nodes = traj.ts
    grid = np.concatenate([
        [traj.t0 - traj.r, traj.t0 - traj.r / 3, traj.t0],
        nodes, (nodes[:-1] + nodes[1:]) / 2, traj.breaking_points(),
        [traj.t_end]])
    for der in (0, 1, 2):
        got = traj.sample(grid, der)
        want = [_scalar_value(traj, float(t), der) for t in grid]
        assert got.tolist() == want, der
        assert [traj.value(float(t), der) for t in grid] == want


def _jets_grid(traj):
    """The grid of test_sample_matches_value_bit_for_bit, and times outside
    the span and NaN."""
    nodes = traj.ts
    return np.concatenate([
        [traj.t0 - traj.r, traj.t0 - traj.r / 3, traj.t0],
        nodes, (nodes[:-1] + nodes[1:]) / 2, traj.breaking_points(),
        [traj.t_end, traj.t0 - traj.r - 0.1, traj.t_end + 0.1, math.nan]])


def test_jets_match_sample_bit_for_bit():
    traj = _neutral_run()
    grid = _jets_grid(traj)
    jets = traj.jets(grid)
    assert jets.shape == (3, len(grid))
    for der in (0, 1, 2):
        assert jets[der].tobytes() == traj.sample(grid, der).tobytes(), der
        want = [_scalar_value(traj, float(t), der) for t in grid[:-3]]
        assert jets[der, :-3].tobytes() == np.array(want).tobytes(), der
        assert np.isnan(jets[der, -3:]).all()
    assert traj.jets(grid.reshape(-1, 1)).shape == (3, len(grid), 1)


def test_capped_jets_read_the_capped_interval_or_the_initial_function():
    # a negative cap reads the initial function; a cap below the query's
    # interval extends the capped interval's Hermite pieces; a cap at or
    # above it changes nothing
    traj = _neutral_run()
    n = traj.steps_per_delay
    ts = np.array([traj.t0 + 0.3, traj.t0 + 1.05, traj.t0 + 1.05,
                   traj.t0 + 2.4, traj.t0 + 2.4, traj.t0 + 1.0,
                   traj.t0, traj.t0 + 1.5])
    cap = np.array([-1, -1, n - 1, 2 * n, n + 3, n - 1, -1, 10 * n])
    jets = traj.jets(ts, cap)
    for der in (0, 1, 2):
        want = []
        for t, c in zip(ts.tolist(), cap.tolist()):
            i = math.floor((t - traj.t0) / traj.hstep + 1e-9)
            if c < 0:
                want.append(float(traj.theta.sample(np.array([t]), der)[0]))
            elif c < i:
                want.append(_interval_value(traj.ts, traj.hstep, traj.xs,
                                            traj.x1s, traj.x2s, traj.x2l,
                                            c, t, der))
            else:
                want.append(_scalar_value(traj, t, der))
        assert jets[der].tobytes() == np.array(want).tobytes(), der
        uncapped = cap >= np.floor((ts - traj.t0) / traj.hstep + 1e-9)
        assert (jets[der, uncapped].tobytes()
                == traj.sample(ts[uncapped], der).tobytes())


def test_sample_marks_queries_outside_the_span():
    traj = _neutral_run()
    got = traj.sample([traj.t0 - traj.r - 0.1, 1.0, traj.t_end + 0.1], 1)
    assert np.isnan(got[0]) and np.isnan(got[2])
    assert got[1] == traj.value(1.0, 1)
    with pytest.raises(ExprError):
        traj.sample([1.0], 3)


def test_residual_raises_past_the_span():
    spec = example1_spec()
    traj = integrate(spec, "sin(t)", 2 * math.pi, 32)
    with pytest.raises(ExprError):
        spec.residual(traj, [1.0, 2 * math.pi + 0.5])
    with pytest.raises(ExprError):
        residual(traj, spec, [1.0, 2 * math.pi + 0.5])


def test_residual_at_t_end_reads_both_accelerations_from_the_left():
    # k = t carries the jump of x'' at t0 to every breaking point, t_end
    # among them; there x''(t_end) and x''(t_end - r) are both left-hand,
    # as at an interior breaking point both are right-hand
    spec = NdeSpec.make(b=1, c=1, d=1, k="t", r=1.0, t0=0.5)
    traj = integrate(spec, "sin(t) + 2", 2.5, 64)
    assert traj.x2s[-65] != traj.x2l[-65]
    assert residual(traj, spec, [2.5]) < 1e-12
    assert residual(traj, spec, [1.5]) < 1e-12


def test_residual_raises_on_no_samples():
    # a maximum over no times would pass any bound
    spec = example1_spec()
    traj = integrate(spec, "sin(t)", 2 * math.pi, 32)
    with pytest.raises(ExprError, match="no sample times"):
        residual(traj, spec, [])


def test_integrate_raises_where_history_or_coefficients_fail():
    # sqrt(t + 1) is defined at t0 = 0 but not on all of [-pi, 0]
    with pytest.raises(ExprError):
        integrate(example1_spec(), "sqrt(t + 1)", 2 * math.pi, 32)
    with pytest.raises(ExprError):
        integrate(NdeSpec.make(c="sqrt(t - 1)", k=1, r=1.0), "sin(t)", 2.0,
                  32)


TRAJECTORY_DIGESTS = (pathlib.Path(__file__).parent / "data"
                      / "trajectory_digests.json")


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, float).tobytes()).hexdigest()


def _trajectory_entry(traj, spec, samples):
    entry = {field: _sha256(getattr(traj, field))
             for field in ("ts", "xs", "x1s", "x2s", "x2l")}
    entry["residual"] = _sha256(spec.residual(traj, samples))
    return entry


def _long_integrate_block():
    """The first block of the long-integrate benchmark's seed-1 inputs, as
    bench/workloads.py builds them: every kind once, 16 delays at 128
    steps per delay."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench"
    loader = importlib.util.spec_from_file_location(
        "bench_workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    # its dataclasses look their module up by name
    sys.modules[loader.name] = workloads
    loader.loader.exec_module(workloads)
    nd = SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                            for m in ("symexpr", "equation", "classify")})
    items, _, per_block = workloads.long_inputs(1, nd, "full")
    return items[:per_block]


def trajectory_digests():
    """The sha256 of every array of each scenario's integration and rho
    slot at 64 steps per delay, and of the first long-integrate block's
    integrations, with the equation residual over each one's samples.
    tests/data/trajectory_digests.json holds them as the integrator that
    stepped through rk4_step gave them, written by json.dumps(...,
    indent=1, sort_keys=True)."""
    from ndelie.suite import build_scenarios

    out = {"scenarios": {}, "long-integrate seed 1": {}}
    for sc in build_scenarios():
        t_end = sc.spec.t0 + sc.delays * sc.spec.r
        entry = {}
        for name, traj in (
                ("integrate", integrate(sc.spec, sc.theta, t_end, 64)),
                ("rho", integrate(sc.spec, sc.rho_seed, t_end, 64))):
            # every node past t0 and every midpoint between nodes
            samples = np.concatenate([traj.ts[1:],
                                      (traj.ts[:-1] + traj.ts[1:]) / 2])
            entry[name] = _trajectory_entry(traj, sc.spec, samples)
        out["scenarios"][sc.name] = entry
    for i, item in enumerate(_long_integrate_block()):
        p = item.payload
        traj = integrate(p["spec"], p["theta"], p["t_end"], p["steps"])
        out["long-integrate seed 1"][f"{i} {item.expected['kind']}"] = \
            _trajectory_entry(traj, p["spec"], np.concatenate(p["chunks"]))
    return out


def test_trajectories_keep_their_bytes():
    # the scalar reference above reads the package's own _hermite, so a
    # change to the dense output moves both sides; these digests do not
    assert trajectory_digests() == json.loads(TRAJECTORY_DIGESTS.read_text())
