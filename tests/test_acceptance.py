"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see the lines on success).

Criterion 3 carries a documented defect: the printed closed-form group of
the pure-neutral worked example does not solve the Lie system of its
stated infinitesimal pair (the printed map is a genuine one-parameter
group, but of the pair with an extra cosine solution slot).  The check
against the literally stated pair is kept, faithfully, as a strict
expected failure; the corrected-generator check passes at the stated
tolerance.
"""

import argparse
import math
import pathlib
import time

import numpy as np
import pytest

from ndelie.classify import Generator, classify, omega_ode_solve
from ndelie.cli import _emit
from ndelie.detsys import (
    determine, generic_ansatz, invariance_residual, is_zero, reduce_ansatz,
    split,
)
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.flowverify import flow, infinitesimal_check
from ndelie.ndesolve import integrate
from ndelie.prolong import InfinitesimalAnsatz
from ndelie.suite import run_suite
from ndelie.symexpr import (
    App, T, X, ZERO, _fsum_array, compile_numeric, fn, normalize, num,
    render, substitute,
)

from golden_forms import GOLDEN


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def example1():
    spec = NdeSpec.make(k=1, r=math.pi)
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    rho = integrate(spec, "sin(t)", 3 * math.pi, 64)
    return spec, traj, rho


@pytest.fixture(scope="module")
def suite_results():
    return {r.name: r for r in run_suite()}


def test_criterion_1_example1_reproduction(example1):
    spec, traj, _ = example1
    start = time.time()
    fresh = integrate(spec, "sin(t)", 3 * math.pi, 64)
    elapsed = time.time() - start
    ts = np.linspace(0.0, 3 * math.pi, 500)
    err = max(abs(fresh.value(t, 0) - math.sin(t)) for t in ts)
    report(1, err < 1e-6 and elapsed < 1.0,
           f"max error {err:.2e}, runtime {elapsed * 1000:.0f} ms")


def test_criterion_2_example1_generators(example1):
    spec, traj, rho = example1
    # symbolic zeros of the invariance residual
    res_t = invariance_residual(spec, InfinitesimalAnsatz(num(1), ZERO))
    res_x = invariance_residual(spec, InfinitesimalAnsatz(ZERO, X))
    res_rho = invariance_residual(spec, InfinitesimalAnsatz(ZERO, fn("rho")))
    rho_rule = {fn("rho", order=2): normalize(-fn("rho", True, 2))}
    sym_ok = (res_t == ZERO and res_x == ZERO
              and substitute(res_rho, rho_rule) == ZERO)
    # the concrete sine binding is a trigonometric identity at r = pi,
    # certified by sampling
    res_sin = invariance_residual(
        spec, InfinitesimalAnsatz(ZERO, App("sin", T)))
    zr = is_zero(res_sin, params={"r": math.pi})
    sampled_ok = zr.ok and zr.mode == "sampled"
    # numeric infinitesimal residual along the solution
    samples = np.linspace(0.4, 2.8 * math.pi, 40)
    gens = [Generator("d/dt", "closed", omega=num(1), upsilon=ZERO),
            Generator("x d/dx", "closed", omega=ZERO, upsilon=X),
            Generator("sin t d/dx", "parametric", omega=ZERO,
                      upsilon=fn("rho"))]
    infs = [infinitesimal_check(traj, g, spec, samples, rho=rho)
            for g in gens]
    report(2, sym_ok and sampled_ok and max(infs) < 1e-6,
           f"symbolic zeros {sym_ok}, sampled zero at r=pi {sampled_ok}, "
           f"max numeric residual {max(infs):.2e}")


def _printed_group(t, x, delta, c1=1.0, c38=1.0):
    tb = t + c38 * delta
    xb = (2 / c1) * (math.exp(c1 * delta / 2) * (c1 * x / 2 + math.sin(t))
                     - math.sin(t + c38 * delta))
    return tb, xb


POINTS_3 = [(0.0, 0.0), (0.7, 0.4), (2.0, -1.0), (5.0, 0.6)]


@pytest.mark.xfail(
    strict=True,
    reason="documented defect: the printed finite transformations do not "
           "solve the Lie system of the stated pair (omega, upsilon) = "
           "(c38, c1 x/2 + sin t); their generator carries an extra "
           "-(2 c38/c1) cos t term. See the corrected-generator check.")
def test_criterion_3_closed_form_group_as_stated(example1):
    spec, _, _ = example1
    stated = Generator("stated pair", "closed", omega=num(1),
                       upsilon=normalize(X / 2 + App("sin", T)))
    worst = 0.0
    for delta in (-1.0, -0.5, 0.1, 0.5, 1.0):
        moved = flow(stated, POINTS_3, delta, spec, substeps=64)
        worst = max(worst, max(
            max(abs(m[0] - _printed_group(p[0], p[1], delta)[0]),
                abs(m[1] - _printed_group(p[0], p[1], delta)[1]))
            for m, p in zip(moved, POINTS_3)))
    report("3 (as stated)", worst < 1e-8, f"max deviation {worst:.2e}")


def test_criterion_3_closed_form_group_corrected(example1):
    spec, _, _ = example1
    # group law of the printed map itself
    t, x, d = 0.7, 0.4, 0.3
    t1, x1 = _printed_group(t, x, d)
    t2, x2 = _printed_group(t1, x1, d)
    td, xd = _printed_group(t, x, 2 * d)
    law = max(abs(t2 - td), abs(x2 - xd))
    corrected = Generator(
        "corrected pair", "closed", omega=num(1),
        upsilon=normalize(X / 2 + App("sin", T) - 2 * App("cos", T)))
    worst = 0.0
    for delta in (-1.0, -0.5, 0.1, 0.5, 1.0):
        moved = flow(corrected, POINTS_3, delta, spec, substeps=64)
        worst = max(worst, max(
            max(abs(m[0] - _printed_group(p[0], p[1], delta)[0]),
                abs(m[1] - _printed_group(p[0], p[1], delta)[1]))
            for m, p in zip(moved, POINTS_3)))
    report("3 (corrected)", worst < 1e-8 and law < 1e-12,
           f"flow deviation {worst:.2e}, group law {law:.1e}")


def test_criterion_4_determining_system_fidelity():
    gen = NdeSpec.make(b=CD.closed(fn("b")), c=CD.closed(fn("c")),
                       d=CD.closed(fn("d")), k=CD.closed(fn("k")), r=1.0)
    sys1 = reduce_ansatz(determine(gen))
    from ndelie.symexpr import X1, X1R, X2R

    # each row and the exact golden form it must equal; the velocity row
    # integrates to twice its golden first integral
    rows = {
        "E-x": (sys1.find(X).residual, GOLDEN["E-x"]),
        "E-x1-int": (sys1.find(X1).integrated,
                     normalize(2 * GOLDEN["E-x1-int"])),
        "E-1": (sys1.find(num(1)).residual, GOLDEN["E-1"]),
        "E-x2r": (sys1.find(X2R).residual, GOLDEN["E-x2r"]),
        "E-x1r": (sys1.find(X1R).residual, GOLDEN["E-x1r"]),
    }
    # a matching row prints its id, any other its rendered form
    checks = {cid: cid if got == form else render(got)
              for cid, (got, form) in rows.items()}
    ok = all(got == want for want, got in checks.items())
    report(4, ok, ", ".join(f"{w}: {g}" for w, g in checks.items()))


def test_criterion_5_splitting_oracle():
    spec = NdeSpec.make(b=CD.closed(fn("b")), c=CD.closed(fn("c")),
                        d=CD.closed(fn("d")), k=CD.closed(fn("k")), r=1.0)
    ansatz = generic_ansatz()
    residual = invariance_residual(spec, ansatz)
    rows = [(compile_numeric(eq.monomial), compile_numeric(eq.residual))
            for eq in split(residual, spec).equations]
    res_fn = compile_numeric(residual)

    rng = np.random.RandomState(42)

    def trig(a0, a1, w):
        return CD.numeric(lambda t: a0 + a1 * np.sin(w * t),
                          lambda t: a1 * w * np.cos(w * t),
                          lambda t: -a1 * w * w * np.sin(w * t),
                          lambda t: -a1 * w ** 3 * np.cos(w * t))

    names = ("b", "c", "d", "k", "beta", "gamma", "rho", "alpha",
             "alpha2", "gamma2")
    # each point draws t, r and the six jets in this order, as uniform
    # draws them: low + (high - low) * a draw from [0, 1)
    slots = ("t", "r", "x", "xr", "x1", "x1r", "x2", "x2r")
    low = np.array([0.1, 0.5] + [-2.0] * 6)
    high = np.array([4.0, 2.0] + [2.0] * 6)
    worst = 0.0
    for i in range(100):
        table = {nm: trig(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1),
                          rng.uniform(0.4, 1.6)) for nm in names}
        if i == 0:
            scalar = np.random.RandomState()
            scalar.set_state(rng.get_state())
            scalar_points = [[scalar.uniform(lo, hi)
                              for lo, hi in zip(low, high)]
                             for _ in range(100)]
        # the table's 100 points, one row each, evaluated in one call
        points = low + (high - low) * rng.random_sample((100, 8))
        if i == 0:
            assert points.tolist() == scalar_points
        env = dict(zip(slots, points.T))
        direct = res_fn(env, table)
        # each point's row sum rounded as math.fsum rounds it
        recon = _fsum_array([m(env, table) * c(env, table)
                             for m, c in rows])
        worst = max(worst, float(np.max(
            np.abs(direct - recon) / np.maximum(1.0, np.abs(direct)))))
    report(5, worst < 1e-10, f"worst relative mismatch {worst:.2e}")


def test_criterion_6_classification_soundness(suite_results):
    failures = []
    for name in [f"C{i}" for i in range(1, 13)]:
        r = suite_results[name]
        if not r.case_ok:
            failures.append(f"{name}: wrong case {r.case}")
        for g in r.generators:
            if not g["pass"]:
                failures.append(f"{name}/{g['label']}: "
                                f"fin={g.get('finite_residual')}")
    report(6, not failures, "; ".join(failures) or
           "all admitted generators verified at 1e-4, N=64, delta=0.25")


def test_criterion_7_varying_neutral_branch():
    spec = NdeSpec.make(b=1, c=1, d=1, k="t", r=1.0)
    sys1 = reduce_ansatz(determine(spec))
    from ndelie.symexpr import X2R, equivalent

    row = sys1.find(X2R)
    beta_forced = equivalent(row.residual, fn("beta"))
    res = classify(spec)
    labels = [g.label for g in res.admitted]
    ok = beta_forced and res.case_id == "C1" and \
        labels == ["x d/dx", "rho(t) d/dx"]
    report(7, ok, f"branch row forces beta: {beta_forced}, "
                  f"group: {labels}")


def test_criterion_8_first_integral_conservation():
    chains = {
        "1": CD.numeric(lambda t: 1.0, lambda t: 0.0),
        "exp(t)": CD.numeric(np.exp, np.exp),
        "sin(t)": CD.numeric(np.sin, np.cos),
        "t^2": CD.numeric(lambda t: t * t, lambda t: 2.0 * t),
    }
    drifts = {}
    for name, chain in chains.items():
        grid = np.linspace(0.0, 2.0, 4001)
        (sol,) = omega_ode_solve(1.0, chain, [(1.0, 0.3, -0.2)], grid)
        drifts[name] = sol.conservation_drift(1.0)
    ok = all(v < 1e-8 for v in drifts.values())
    report(8, ok, ", ".join(f"d={k}: {v:.1e}" for k, v in drifts.items()))


def test_criterion_9_integrator_order():
    spec = NdeSpec.make(k=1, r=math.pi)
    ts = np.linspace(0.0, 3 * math.pi, 400)
    errs = {}
    for n in (32, 64, 128):
        traj = integrate(spec, "sin(t)", 3 * math.pi, n)
        errs[n] = max(abs(traj.value(t, 0) - math.sin(t)) for t in ts)
    r1 = errs[32] / errs[64]
    r2 = errs[64] / errs[128]
    ok = 12 <= r1 <= 20 and 12 <= r2 <= 20
    report(9, ok, f"ratios {r1:.1f}, {r2:.1f}")


def test_suite_report_keeps_its_bytes(suite_results, capsys):
    # the report paper-suite --json prints at the default settings; a
    # change of any bit of any residual shows here
    results = list(suite_results.values())
    payload = {"scenarios": [r.to_json() for r in results],
               "pass": all(r.ok for r in results)}
    capsys.readouterr()
    _emit(payload, argparse.Namespace(out=None), "paper_suite.json")
    want = pathlib.Path(__file__).parent / "data" / "paper_suite.json"
    assert capsys.readouterr().out.encode() == want.read_bytes()


def test_criterion_10_group_axioms(suite_results):
    worst_ident, worst_other = 0.0, 0.0
    count = 0
    for r in suite_results.values():
        for g in r.generators:
            if "axiom_identity" not in g:
                continue
            count += 1
            worst_ident = max(worst_ident, g["axiom_identity"])
            worst_other = max(worst_other, g["axiom_inverse"],
                              g["axiom_closure"])
    ok = count > 0 and worst_ident <= 1e-12 and worst_other < 1e-7
    report(10, ok, f"{count} closed generators, identity "
                   f"{worst_ident:.1e}, inverse/closure {worst_other:.1e}")
