"""The traced benchmark run (`bench/run.py --trace 1`) rebinds every function
it times by name and binds the arguments its counters read by name.  A
traced integrate, prolonged flow, classification and scenario here make a
rename or removal that breaks it fail the test suite."""

import importlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the modules the benchmark worker loads
MODULES = ("symexpr", "prolong", "equation", "detsys", "classify",
           "ndesolve", "flowverify", "suite")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


def test_traced_integrate_and_prolonged_flow():
    nd = SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                            for m in MODULES})
    integrate = nd.ndesolve.integrate
    tracer = _tracer()
    tracer.install(nd)
    try:
        assert nd.ndesolve.integrate is not integrate
        tracer.paused = False
        spec = nd.equation.NdeSpec.make(k=1, r=math.pi)
        traj = nd.ndesolve.integrate(spec, "sin(t)", 2 * math.pi, 16)
        gen = nd.classify.Generator("d/dt", "closed",
                                    omega=nd.symexpr.num(1),
                                    upsilon=nd.symexpr.ZERO)
        jets = [(t, traj.value(t, 0), traj.value(t, 1), traj.value(t, 2))
                for t in (1.0, 2.0, 3.0)]
        moved = nd.flowverify.prolonged_flow(gen, jets, 0.25, spec,
                                             substeps=4)
        tracer.paused = True
    finally:
        tracer.uninstall()
    assert nd.ndesolve.integrate is integrate
    assert all(m is not None for m in moved)
    totals = tracer.totals()
    assert totals["ndesolve.integrate.calls"] == 1
    assert totals["ndesolve.integrate.steps"] == 32
    assert totals["ndesolve.integrate.rhs_evals"] == 1 + 5 * 32 + 2
    assert totals["flowverify.prolonged_flow.calls"] == 1
    assert totals["flowverify.prolonged_flow.jet_substeps"] == 12
    assert totals["flowverify.prolonged_flow.domain_exits"] == 0


def test_traced_classification():
    nd = SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                            for m in MODULES})
    scenarios = {sc.name: sc.spec for sc in nd.suite.build_scenarios()}
    tracer = _tracer()
    tracer.install(nd)
    calls = {}
    coeff_evals = {}
    try:
        for name in ("C7", "C2"):
            before = tracer.totals().get("classify.omega_ode_solve.calls", 0)
            evals_before = tracer.totals().get("equation.coeff_evals", 0)
            tracer.paused = False
            spec = scenarios[name]
            detsys = nd.detsys
            system = detsys.canonical_constraints(
                detsys.reduce_ansatz(detsys.determine(spec)))
            res = nd.classify.classify(spec)
            tracer.paused = True
            assert system.equations and res.case_id == name
            calls[name] = (tracer.totals()
                           .get("classify.omega_ode_solve.calls", 0) - before)
            coeff_evals[name] = (tracer.totals()
                                 .get("equation.coeff_evals", 0)
                                 - evals_before)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    # the three C7 directions share one solve per side, forward and
    # backward; C2 has no numeric omega
    assert calls == {"C7": 2, "C2": 0}
    # the omega solves and the checks read coefficients as arrays, not
    # point by point through CoeffDescriptor.eval
    assert all(n <= 20 for n in coeff_evals.values()), coeff_evals
    assert totals["symexpr.compile_numeric.compiled"] > 0
    for name in ("symexpr.normalize", "prolong.apply_operator",
                 "detsys.determine", "detsys.reduce", "classify.classify"):
        assert totals[f"{name}.calls"] > 0, name
    # every closed generator of both runs went through a zero test, and the
    # counters of the zero test still read its result
    assert totals["detsys.is_zero.calls"] >= 5
    assert totals["detsys.is_zero.sampled"] <= totals["detsys.is_zero.calls"]
    assert totals["detsys.is_zero.skipped_points"] == 0


def test_traced_scenario_runs_the_verification_pipeline():
    nd = SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                            for m in MODULES})
    tracer = _tracer()
    tracer.install(nd)
    try:
        tracer.paused = False
        c4 = {sc.name: sc for sc in nd.suite.build_scenarios()}["C4"]
        result = nd.suite.run_scenario(c4)
        tracer.paused = True
    finally:
        tracer.uninstall()
    assert result.ok
    totals = tracer.totals()
    for name in ("finite_check", "infinitesimal_check", "transform_solution",
                 "prolonged_flow"):
        assert totals.get(f"flowverify.{name}.calls", 0) > 0, name
    # the group axioms of each admitted closed generator of C4 (d/dt,
    # (x/2) d/dx, rho d/dx) take three flows of its 4 axiom points: the
    # identity (one substep), the points by d1 and d1 + d2 (8 rows), and
    # their images back by -d1 and on by d2 (8 rows)
    closed = [g for g in result.generators if g["kind"] != "numeric"]
    assert len(closed) == 3
    assert totals["flowverify.flow.calls"] == 3 * len(closed)
    assert totals["flowverify.flow.jet_substeps"] == len(closed) * (
        4 * 1 + 8 * 24 + 8 * 24)
    assert totals["flowverify.flow.domain_exits"] == 0
    # the tracer binds the one-axiom views by name
    for name in ("identity_error", "inverse_error", "closure_error"):
        assert callable(getattr(nd.flowverify, name)), name
