"""Built-in verification scenarios: one concrete equation per taxonomy
case plus the two worked examples.

Free constants are pinned to one; the delay is one except for the
trigonometric instances, which need the delay to match a period (pi for
the pure-neutral example and the constant-d trigonometric class, pi/2 for
the variable-coefficient classes built on frequency-four waves).  Variable
coefficients are delay-periodic by construction so the emitted time-like
generators are honestly admitted; the three special right-shift families
keep their numeric omega directions as candidates because no solution of
the third-order equation is delay-periodic there, and the demotion is part
of the expected result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import (
    classify, compat_c_from_b, compat_c_from_d_pure_delay, compat_d_from_b,
    compat_d_from_b_pure_delay,
)
from .equation import CoeffDescriptor as CD, NdeSpec
from .flowverify import (
    TOL_FIN, TOL_INF, axiom_errors, check_generator, interior_samples,
)
from .ndesolve import integrate
from .symexpr import parse

HALF_PI = math.pi / 2
TOL_AXIOM = 1e-7  # bound on the inverse and closure errors of a flow


@dataclass
class Scenario:
    name: str
    description: str
    spec: NdeSpec
    theta: str
    rho_seed: str
    delays: int = 3
    expected_case: str = ""
    expected_degenerate: bool = False
    expected_candidates: int = 0


def _periodic_b():
    # period pi/2, matching the delay of the variable-coefficient cases
    return parse("2 + cos(4*t)/10")


def build_scenarios():
    b = _periodic_b()
    d_c12 = parse("5/4 + sin(4*t)/4")
    return [
        Scenario(
            "C1", "varying neutral coefficient",
            NdeSpec.make(b=1, c=1, d=1, k="t", r=1.0, t0=0.5),
            theta="sin(t) + 2", rho_seed="1 + t/8", expected_case="C1"),
        Scenario(
            "C2", "full equation, delay-periodic b",
            NdeSpec.make(b=CD.closed(b),
                         c=CD.closed(compat_c_from_b(b, c6=1)),
                         d=CD.closed(compat_d_from_b(b, Fraction(1), c5=1)),
                         k=1, r=HALF_PI),
            theta="sin(t) + 2", rho_seed="1", expected_case="C2"),
        Scenario(
            "C3", "no right shift, constant b",
            NdeSpec.make(b=2, c=1, k=2, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C3"),
        Scenario(
            "C4", "unit neutral constant, constant b and c",
            NdeSpec.make(b=1, c=Fraction(1, 4), k=1, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C4"),
        Scenario(
            "C5", "right shift with generic constant coefficient",
            NdeSpec.make(c=1, d=2, k=1, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C5"),
        Scenario(
            "C6", "exponential right shift",
            NdeSpec.make(c="exp(t)", d="exp(t)", k=1, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", delays=2,
            expected_case="C6", expected_candidates=3),
        Scenario(
            "C7", "sine right shift",
            NdeSpec.make(c="sin(t)", d="sin(t)", k=1, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C7",
            expected_candidates=3),
        Scenario(
            "C8", "power right shift",
            NdeSpec.make(c="t^2", d="t^2", k=1, r=1.0, t0=0.5),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C8",
            expected_candidates=3),
        Scenario(
            "C9", "unit right shift with matching delay",
            NdeSpec.make(c=1, d=1, k=1, r=math.pi),
            theta="sin(t)", rho_seed="sin(3*t)", expected_case="C9"),
        Scenario(
            "C10", "pure delay, delay-periodic b",
            NdeSpec.make(b=CD.closed(b),
                         c=CD.closed(compat_c_from_b(b, c6=1)),
                         d=CD.closed(compat_d_from_b_pure_delay(b, c32=1)),
                         r=HALF_PI),
            theta="sin(t) + 2", rho_seed="1", expected_case="C10"),
        Scenario(
            "C11", "pure delay in the velocity only",
            NdeSpec.make(b=1, c=1, r=1.0),
            theta="sin(t) + 2", rho_seed="sin(t)", expected_case="C11"),
        Scenario(
            "C12", "pure delay, delay-periodic d",
            NdeSpec.make(c=CD.closed(compat_c_from_d_pure_delay(d_c12,
                                                                c31=2)),
                         d=CD.closed(d_c12), r=HALF_PI),
            theta="sin(t) + 2", rho_seed="1", expected_case="C12"),
        Scenario(
            "EX1", "pure neutral coupling with delay pi",
            NdeSpec.make(k=1, r=math.pi),
            theta="sin(t)", rho_seed="sin(t)", expected_case="C9",
            expected_degenerate=True),
        Scenario(
            "EX2", "integro-differential reduction",
            NdeSpec.make(c=-1, d=1, r=1.0),
            theta="sin(t) + 2", rho_seed="1", delays=4,
            expected_case="C12"),
    ]


@dataclass
class ScenarioResult:
    name: str
    case: str
    degenerate: bool
    case_ok: bool
    generators: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    ok: bool = False

    def to_json(self):
        return {
            "name": self.name,
            "case": self.case,
            "degenerate": self.degenerate,
            "case_ok": self.case_ok,
            "generators": self.generators,
            "candidates": self.candidates,
            "warnings": self.warnings,
            "pass": self.ok,
        }


def run_scenario(sc: Scenario, steps=64, delta=0.25) -> ScenarioResult:
    """Classify the scenario equation, integrate it, and push every
    admitted generator through both invariance checks and the group
    axioms."""
    res = classify(sc.spec)
    out = ScenarioResult(
        name=sc.name, case=res.case_id or "out-of-taxonomy",
        degenerate=res.degenerate,
        case_ok=(res.case_id == sc.expected_case
                 and res.degenerate == sc.expected_degenerate))
    out.warnings.extend(res.warnings)

    t_end = sc.spec.t0 + sc.delays * sc.spec.r
    traj = integrate(sc.spec, sc.theta, t_end, steps)
    rho = integrate(sc.spec, sc.rho_seed, t_end, steps)
    samples = interior_samples(traj, sc.spec)

    all_ok = out.case_ok
    axiom_points = list(zip(samples[:4], traj.sample(samples[:4]).tolist()))
    for gen in res.generators:
        entry = {"label": gen.label, "kind": gen.kind, "status": gen.status}
        if gen.status != "admitted":
            entry["warnings"] = list(gen.warnings)
            out.candidates.append(entry)
            continue
        entry.update(check_generator(traj, gen, sc.spec, samples, [delta],
                                     rho, TOL_INF, TOL_FIN))
        if gen.kind != "numeric":
            ident, inv, clo = axiom_errors(gen, axiom_points, delta,
                                           delta / 2, sc.spec, rho)
            entry["axiom_identity"] = ident
            entry["axiom_inverse"] = inv
            entry["axiom_closure"] = clo
            entry["pass"] = entry["pass"] and ident <= 1e-12 \
                and inv < TOL_AXIOM and clo < TOL_AXIOM
        all_ok = all_ok and entry["pass"]
        out.generators.append(entry)
    if len(out.candidates) != sc.expected_candidates:
        all_ok = False
        out.warnings.append(
            f"expected {sc.expected_candidates} demoted candidates, "
            f"found {len(out.candidates)}")
    out.ok = all_ok
    return out


def run_suite(only=None, steps=64, delta=0.25):
    """All scenarios, optionally restricted, run one after another;
    results ordered by name."""
    scenarios = build_scenarios()
    if only:
        scenarios = [sc for sc in scenarios if sc.name == only]
        if not scenarios:
            raise KeyError(f"no scenario named {only!r}")
    results = [run_scenario(sc, steps=steps, delta=delta)
               for sc in scenarios]
    return sorted(results, key=lambda r: (len(r.name), r.name))
