"""Seeded inputs, the calls each item makes, and the output checks for the
three benchmark workloads.

Every input is built from ``random.Random(seed)`` before timing starts; the
package only ever sees the generated specs, initial functions and sample
points.  Each item carries what its output must be, taken from how it was
built, and a check turns an output into ``(ok, margins, note)``, where
margins maps a kind of accuracy check to its margin ``log10(tolerance /
residual)``; residuals below double precision epsilon count as epsilon, so
a margin is always finite.

The package is called through its module attributes at call time
(``detsys.determine(...)``, never a name bound at import), so the traced run
sees the wrappers it installs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

EPS = 2.220446049250313e-16
HALF_PI = math.pi / 2

# paper-suite: the thresholds run_scenario applies (its defaults)
TOL_INF = 1e-6
TOL_FIN = 1e-4
# classify-batch: bound on the drift of the monitored first integral of a
# numeric omega, relative to the magnitude of its terms; 1e-6 is the
# tolerance the classifier applies to its own numeric-omega checks
TOL_DRIFT = 1e-6
# long-integrate: bound on |residual| / (sum of |terms|), per delay interval.
# RK4 with Hermite dense output at 128 steps per delay stays near 1e-6 on
# every class generated here (C8 is the worst); the bound leaves a margin of
# about two decades.
TOL_REL = 1e-4

# Input sizes: "full" for measured runs, "tiny" for the smoke test.  A run
# checks its deadline only between blocks (every kind once, or one pass over
# the scenarios), so every run sees the same mix whatever the seed.
SIZES = {
    "full": {"suite_only": None, "classify_blocks": 30, "long_blocks": 12,
             "long_delays": 16, "long_steps": 128, "long_samples": 2048},
    "tiny": {"suite_only": ("C4", "C6"), "classify_blocks": 1,
             "long_blocks": 1, "long_delays": 2, "long_steps": 64,
             "long_samples": 64},
}


def margin(tol, residual):
    return math.log10(tol / max(abs(residual), EPS))


def digest(obj):
    """Stable hash of a JSON-able description of the generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Item:
    key: str            # canonical text of the input, for repeat counting
    payload: dict       # what the call receives
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# equation generator shared by classify-batch and long-integrate


def _q(rng, lo, hi, den=8):
    """Rational in [lo, hi] on the grid 1/den, drawn from rng."""
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _q_except(rng, lo, hi, bad, den=8):
    while True:
        v = _q(rng, lo, hi, den)
        if v not in bad:
            return v


def _wave(rng, base_lo, base_hi):
    """Delay-periodic closed form base + amp*cos(4t) (or sin), period pi/2."""
    base = _q(rng, base_lo, base_hi)
    amp = Fraction(1, rng.randint(5, 20))
    trig = rng.choice(("cos", "sin"))
    return f"{base} + {amp}*{trig}(4*t)"


# class id, degenerate flag, number of demoted candidates.  C6-C9 are fixed
# by their class definition (special d family, or d = 1 with a matching
# delay), so their members repeat exactly; the others draw constants.
KINDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C9-deg",
         "C10", "C11", "C12")


def make_spec(kind, rng, nd):
    """One reduced equation (a = h = 0) of the named kind, with its expected
    (case, degenerate, candidates)."""
    NdeSpec = nd.equation.NdeSpec
    CD = nd.equation.CoeffDescriptor
    cl = nd.classify
    parse = nd.symexpr.parse
    if kind == "C1":
        k = f"{_q(rng, 1, 2)} + {_q(rng, 1 / 8, 1 / 2)}*t"
        spec = NdeSpec.make(b=_q(rng, 1 / 2, 2), c=_q(rng, 1 / 2, 2),
                            d=_q(rng, 1 / 2, 2), k=k, r=1.0, t0=0.5)
        return spec, ("C1", False, 0)
    if kind in ("C2", "C10"):
        b = parse(_wave(rng, 3 / 2, 5 / 2))
        c = cl.compat_c_from_b(b, c6=_q(rng, 1 / 2, 2))
        if kind == "C2":
            k = _q_except(rng, 1 / 2, 2, {Fraction(0)})
            d = cl.compat_d_from_b(b, k, c5=_q(rng, 1 / 2, 2))
            spec = NdeSpec.make(b=CD.closed(b), c=CD.closed(c),
                                d=CD.closed(d), k=k, r=HALF_PI)
        else:
            d = cl.compat_d_from_b_pure_delay(b, c32=_q(rng, 1 / 2, 2))
            spec = NdeSpec.make(b=CD.closed(b), c=CD.closed(c),
                                d=CD.closed(d), r=HALF_PI)
        return spec, (kind, False, 0)
    if kind == "C3":
        k = _q_except(rng, 1 / 2, 2, {Fraction(1)})
        spec = NdeSpec.make(b=_q(rng, 1 / 2, 2), c=_q(rng, 1 / 2, 2), k=k,
                            r=1.0)
        return spec, ("C3", False, 0)
    if kind == "C4":
        spec = NdeSpec.make(b=_q(rng, 1 / 2, 2), c=_q(rng, 1 / 8, 1), k=1,
                            r=1.0)
        return spec, ("C4", False, 0)
    if kind == "C5":
        spec = NdeSpec.make(c=_q(rng, 1 / 2, 2),
                            d=_q_except(rng, 1 / 2, 2, {Fraction(1)}),
                            k=_q(rng, 1 / 2, 3 / 2), r=1.0)
        return spec, ("C5", False, 0)
    if kind == "C6":
        return NdeSpec.make(c="exp(t)", d="exp(t)", k=1, r=1.0), \
            ("C6", False, 3)
    if kind == "C7":
        return NdeSpec.make(c="sin(t)", d="sin(t)", k=1, r=1.0), \
            ("C7", False, 3)
    if kind == "C8":
        return NdeSpec.make(c="t^2", d="t^2", k=1, r=1.0, t0=0.5), \
            ("C8", False, 3)
    if kind == "C9":
        return NdeSpec.make(c=1, d=1, k=1, r=math.pi), ("C9", False, 0)
    if kind == "C9-deg":
        spec = NdeSpec.make(c=_q(rng, 0, 2), k=_q(rng, 1 / 2, 3 / 2),
                            r=float(_q(rng, 1 / 2, 2)))
        return spec, ("C9", True, 0)
    if kind == "C11":
        spec = NdeSpec.make(b=_q(rng, 1 / 2, 2), c=_q(rng, 1 / 2, 2), r=1.0)
        return spec, ("C11", False, 0)
    if kind == "C12":
        d = parse(_wave(rng, 1, 2))
        c = cl.compat_c_from_d_pure_delay(d, c31=_q(rng, 1 / 2, 2))
        spec = NdeSpec.make(c=CD.closed(c), d=CD.closed(d), r=HALF_PI)
        return spec, ("C12", False, 0)
    raise ValueError(f"unknown equation kind {kind!r}")


def spec_key(spec):
    return json.dumps(spec.to_json(), sort_keys=True)


def _blocks(rng, kinds, count):
    """count blocks, each holding every kind once in a seeded order, so any
    prefix of the batch keeps the class mix even."""
    out = []
    for _ in range(count):
        block = list(kinds)
        rng.shuffle(block)
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# paper-suite


def paper_suite_inputs(seed, nd, size):
    """One pass over the built-in scenarios in a seeded order, with the group
    parameter delta drawn from [0.2, 0.3]."""
    rng = random.Random(seed)
    only = SIZES[size]["suite_only"]
    scenarios = [sc for sc in nd.suite.build_scenarios()
                 if only is None or sc.name in only]
    rng.shuffle(scenarios)
    delta = round(rng.uniform(0.2, 0.3), 6)
    items = [Item(key=f"{sc.name}@{delta}",
                  payload={"scenario": sc, "delta": delta},
                  expected={"name": sc.name})
             for sc in scenarios]
    return items, {"order": [it.expected["name"] for it in items],
                   "delta": delta}, len(items)


def run_paper_suite(nd, payload):
    return nd.suite.run_scenario(payload["scenario"],
                                 delta=payload["delta"])


def verdict(result):
    """The verdict-bearing fields of a ScenarioResult; residual floats and
    warning texts (which quote residuals) are left out."""
    return {
        "case": result.case,
        "degenerate": result.degenerate,
        "case_ok": result.case_ok,
        "generators": [[g["label"], g["kind"], g["status"], g["pass"]]
                       for g in result.generators],
        "candidates": [[g["label"], g["kind"], g["status"]]
                       for g in result.candidates],
        "pass": result.ok,
    }


def check_paper_suite(item, result, reference):
    want = reference[item.expected["name"]]
    got = verdict(result)
    if got != want:
        return False, {}, f"verdict differs: {got} != {want}"
    margins = {"inf_margin_dec": [], "fin_margin_dec": []}
    for g in result.generators:
        margins["inf_margin_dec"].append(
            margin(TOL_INF, g["infinitesimal_residual"]))
        margins["fin_margin_dec"].append(
            margin(TOL_FIN, g["finite_residual"]))
    return True, {k: min(v) for k, v in margins.items() if v}, ""


# ---------------------------------------------------------------------------
# classify-batch


def classify_inputs(seed, nd, size):
    rng = random.Random(seed)
    items = []
    for kind in _blocks(rng, KINDS, SIZES[size]["classify_blocks"]):
        spec, (case, degenerate, candidates) = make_spec(kind, rng, nd)
        items.append(Item(key=spec_key(spec), payload={"spec": spec},
                          expected={"kind": kind, "case": case,
                                    "degenerate": degenerate,
                                    "candidates": candidates}))
    return items, [it.key for it in items], len(KINDS)


def run_classify(nd, payload):
    spec = payload["spec"]
    detsys = nd.detsys
    system = detsys.canonical_constraints(
        detsys.reduce_ansatz(detsys.determine(spec)))
    return system, nd.classify.classify(spec)


def check_classify(item, output, _reference):
    system, res = output
    want = item.expected
    demoted = sum(1 for g in res.generators if g.status != "admitted")
    got = (res.case_id, res.degenerate, demoted)
    if got != (want["case"], want["degenerate"], want["candidates"]):
        return False, {}, (f"{want['kind']}: got {got}, want "
                           f"{(want['case'], want['degenerate'], want['candidates'])}")
    if not system.equations:
        return False, {}, f"{want['kind']}: empty determining system"
    drifts = [_integral_drift(g.omega_numeric, item.payload["spec"])
              for g in res.generators if g.omega_numeric is not None
              and g.omega_numeric.conserved is not None]
    if not drifts:
        return True, {}, ""
    return True, {"drift_margin_dec": min(margin(TOL_DRIFT, v)
                                          for v in drifts)}, ""


def _integral_drift(sol, spec):
    """Drift of the d-energy integral c2 w w'' - c2 w'^2/2 + 2 d w^2 over
    the grid, relative to the largest sum of its terms' magnitudes (the
    integral itself can vanish, so it is no scale)."""
    c2 = float(spec.k.const_value())
    q = np.asarray(sol.conserved)
    ww2 = c2 * sol.w * sol.w2
    w1sq = c2 / 2 * sol.w1 ** 2
    terms = np.abs(ww2) + np.abs(w1sq) + np.abs(q - ww2 + w1sq)
    return float(np.max(np.abs(q - q[0])) / np.max(terms))


# ---------------------------------------------------------------------------
# long-integrate

# equations whose coefficients stay bounded over 16 delays; exp(t)
# coefficients (C6) make the fixed-step method unstable on that span, and
# the constant-d families repeat C5 and C9 with nothing new to integrate
LONG_KINDS = ("C1", "C2", "C3", "C4", "C5", "C7", "C8", "C9", "C9-deg",
              "C10", "C11", "C12")


def _theta(rng):
    """Seeded analytic initial function."""
    a, b = _q(rng, -1, 1), _q(rng, 1 / 4, 3 / 2)
    w = _q(rng, 1 / 2, 2)
    return f"{a} + {b}*sin({w}*t) + {_q(rng, -1, 1)}*cos(t)"


def long_inputs(seed, nd, size):
    rng = random.Random(seed)
    sz = SIZES[size]
    delays = sz["long_delays"]
    items = []
    for kind in _blocks(rng, LONG_KINDS, sz["long_blocks"]):
        spec, _ = make_spec(kind, rng, nd)
        theta = _theta(rng)
        t_end = spec.t0 + delays * spec.r
        # sample points strictly inside each delay interval, grouped by
        # interval so every residual is judged against its own scale
        per = sz["long_samples"] // delays
        chunks = []
        for j in range(delays):
            lo = spec.t0 + j * spec.r
            chunks.append(sorted(lo + spec.r * rng.uniform(0.001, 0.999)
                                 for _ in range(per)))
        items.append(Item(
            key=spec_key(spec) + theta,
            payload={"spec": spec, "theta": theta, "t_end": t_end,
                     "steps": sz["long_steps"], "chunks": chunks},
            expected={"kind": kind}))
    desc = [[it.key, it.payload["t_end"], it.payload["chunks"]]
            for it in items]
    return items, desc, len(LONG_KINDS)


def run_long(nd, payload):
    nd = nd.ndesolve
    spec = payload["spec"]
    traj = nd.integrate(spec, payload["theta"], payload["t_end"],
                        payload["steps"])
    return traj, [nd.residual(traj, spec, chunk)
                  for chunk in payload["chunks"]]


def _term_scale(traj, spec, ts):
    worst = 0.0
    for t in ts:
        td = t - spec.r
        worst = max(worst,
                    abs(traj.value(t, 2))
                    + abs(spec.b.eval(t) * traj.value(td, 1))
                    + abs(spec.c.eval(t) * traj.value(t, 0))
                    + abs(spec.d.eval(t) * traj.value(td, 0))
                    + abs(spec.k.eval(t) * traj.value(td, 2)))
    return worst


def check_long(item, output, _reference):
    traj, residuals = output
    spec = item.payload["spec"]
    worst = 0.0
    for chunk, res in zip(item.payload["chunks"], residuals):
        scale = _term_scale(traj, spec, chunk)
        if not (math.isfinite(res) and math.isfinite(scale) and scale > 0):
            return False, {}, f"{item.expected['kind']}: non-finite values"
        worst = max(worst, res / scale)
    if worst > TOL_REL:
        return False, {}, (f"{item.expected['kind']}: relative residual "
                           f"{worst:.2e} above {TOL_REL:g}")
    return True, {"int_margin_dec": margin(TOL_REL, worst)}, ""


WORKLOADS = {
    "paper-suite": (paper_suite_inputs, run_paper_suite, check_paper_suite),
    "classify-batch": (classify_inputs, run_classify, check_classify),
    "long-integrate": (long_inputs, run_long, check_long),
}
