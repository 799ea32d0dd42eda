"""The finite check as an oracle for the classifier, over every spec that
``tools/report_digest.py`` reads: a generator the classifier admits must
map a solution to a solution, and one it demotes must not.

For each spec it integrates theta = 1 + sin(t)/2 and the rho seed cos t over
three delays at 64 steps each, then runs ``check_generator`` on every
generator ``classify`` gives, with delta 0.25 and the scenarios'
tolerances.  ``oracle_rows`` and ``contradicts`` are also what
``tests/test_finite_oracle.py`` runs on its fixed subset.  Run it on the
``src/`` next to this script with

    python3 tools/oracle_sweep.py

It prints one tab-separated line per generator,

    <seed> <index> <kind> <label> <status> <verdict> <finite residual>

where the verdict is check_generator's pass or fail, or error with the
ExprError that left the generator without a report (no field, or a flow
that leaves the numeric domain on the span) appended.  A line that
contradicts the classifier ends in CONTRADICTION.  An admitted generator
that fails is checked again at 128 and 256 steps per delay, and its line
gives the three finite residuals; it ends in RESOLUTION instead when each
doubling cuts the residual at least 8 times and the last one is under
TOL_FIN: a fourth-order method's error on a grid too coarse for the curve,
not a wrong admission.  A spec with no solution on the span prints one line
with the verdict no-solution and the reason.  The exit status is 1 when any
line contradicts the classifier.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    # the src/ next to this script, and report_digest.py beside it
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
from ndelie.classify import classify  # noqa: E402
from ndelie.flowverify import (  # noqa: E402
    TOL_FIN, TOL_INF, check_generator, interior_samples,
)
from ndelie.ndesolve import integrate  # noqa: E402
from ndelie.symexpr import ExprError  # noqa: E402

THETA, RHO_SEED, DELAYS, STEPS, DELTA = "1 + sin(t)/2", "cos(t)", 3, 64, 0.25
FINER = (128, 256)


def oracle_rows(spec, steps=STEPS):
    """(generator, report) for each generator classify gives the spec:
    check_generator's report on one integrated solution, or the ExprError
    that left the generator without one.  A spec with no solution on the
    span raises ExprError."""
    t_end = spec.t0 + DELAYS * spec.r
    traj = integrate(spec, THETA, t_end, steps)
    rho = integrate(spec, RHO_SEED, t_end, steps)
    samples = interior_samples(traj, spec)
    rows = []
    for gen in classify(spec).generators:
        try:
            rep = check_generator(traj, gen, spec, samples, [DELTA], rho,
                                  TOL_INF, TOL_FIN)
        except ExprError as err:
            rep = err
        rows.append((gen, rep))
    return rows


def contradicts(gen, rep) -> bool:
    """An admitted generator without a passing report, or a demoted one
    with a finite residual under TOL_FIN.  A demotion is judged by the
    finite residual alone, which no part of the determining system's kernel
    computes."""
    if gen.status == "admitted":
        return isinstance(rep, ExprError) or not rep["pass"]
    fin = None if isinstance(rep, ExprError) else rep["finite_residual"]
    return fin is not None and fin < TOL_FIN


def resolution(fins) -> bool:
    """Whether finite residuals at STEPS and then at each of FINER show a
    grid too coarse, not a wrong admission: each doubling cuts the residual
    at least 8 times, and the last one is under TOL_FIN."""
    if None in fins:
        return False
    return fins[-1] < TOL_FIN and all(a >= 8 * b
                                      for a, b in zip(fins, fins[1:]))


def finer_residuals(spec, k):
    """The finite residual of generator k of spec at each of FINER."""
    reps = [oracle_rows(spec, steps)[k][1] for steps in FINER]
    return [None if isinstance(rep, ExprError) else rep["finite_residual"]
            for rep in reps]


def main():
    import report_digest

    bad = 0
    nd = report_digest.worker.load_package()
    for seed, i, kind, spec in report_digest.inputs(nd):
        head = [str(seed), str(i), kind]
        try:
            rows = oracle_rows(spec)
        except ExprError as err:
            print("\t".join(head + ["-", "-", "no-solution", "-", str(err)]))
            continue
        for k, (gen, rep) in enumerate(rows):
            if isinstance(rep, ExprError):
                tail = ["error", "-", str(rep)]
            else:
                fin = rep["finite_residual"]
                tail = ["pass" if rep["pass"] else "fail",
                        "-" if fin is None else f"{fin:.3g}"]
            if contradicts(gen, rep):
                fins = None
                if gen.status == "admitted" and not isinstance(rep, ExprError):
                    fins = [rep["finite_residual"]] + finer_residuals(spec, k)
                    tail.append("/".join("-" if f is None else f"{f:.3g}"
                                         for f in fins) + " at "
                                + "/".join(map(str, (STEPS, *FINER))))
                if fins and resolution(fins):
                    tail.append("RESOLUTION")
                else:
                    bad += 1
                    tail.append("CONTRADICTION")
            print("\t".join(head + [gen.label, gen.status] + tail))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
