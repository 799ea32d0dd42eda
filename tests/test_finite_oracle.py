"""A semantic oracle for the classifier: a generator it admits maps a
solution to a solution, and one it demotes does not.

The classifier validates a closed generator with the same `prolong` and
`apply_operator` that built the determining system, so an error the two
share would pass that check.  The finite check reaches its answer by a
route of its own: it integrates a solution, moves its jets by the
transport formulas `flowverify.prolonged_flow` writes out, resplines the
image and reads the equation residual."""

import importlib.util
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from ndelie.classify import (
    compat_c_from_b, compat_c_from_d_pure_delay, compat_d_from_b,
    compat_d_from_b_pure_delay,
)
from ndelie.equation import CoeffDescriptor as CD, NdeSpec
from ndelie.suite import HALF_PI
from ndelie.symexpr import ExprError, parse

from test_classify import NEAR_MISS_IDS, NEAR_MISSES


def _sweep():
    """tools/oracle_sweep.py, whose per-spec check this test runs."""
    path = Path(__file__).resolve().parents[1] / "tools" / "oracle_sweep.py"
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SWEEP = _sweep()


def _seed_1_specs():
    """The first equation of each kind in the benchmark's classify-batch
    inputs of seed 1, written out."""
    b2, b10 = parse("17/8 + sin(4*t)/7"), parse("17/8 + cos(4*t)/13")
    d12 = parse("13/8 + cos(4*t)/17")
    return {
        "C1": NdeSpec.make(b=F(5, 8), c=1, d=F(7, 8), k="13/8 + t/2", r=1.0,
                           t0=0.5),
        "C2": NdeSpec.make(
            b=CD.closed(b2), c=CD.closed(compat_c_from_b(b2, c6=F(5, 8))),
            d=CD.closed(compat_d_from_b(b2, 2, c5=F(11, 8))), k=2,
            r=HALF_PI),
        "C3": NdeSpec.make(b=1, c=F(1, 2), k=F(5, 4), r=1.0),
        "C4": NdeSpec.make(b=2, c=1, k=1, r=1.0),
        "C5": NdeSpec.make(c=1, d=F(7, 8), k=F(7, 8), r=1.0),
        "C6": NdeSpec.make(c="exp(t)", d="exp(t)", k=1, r=1.0),
        "C7": NdeSpec.make(c="sin(t)", d="sin(t)", k=1, r=1.0),
        "C8": NdeSpec.make(c="t^2", d="t^2", k=1, r=1.0, t0=0.5),
        "C9": NdeSpec.make(c=1, d=1, k=1, r=math.pi),
        "C9-deg": NdeSpec.make(c=F(1, 4), k=F(9, 8), r=7 / 8),
        "C10": NdeSpec.make(
            b=CD.closed(b10), c=CD.closed(compat_c_from_b(b10, c6=F(3, 2))),
            d=CD.closed(compat_d_from_b_pure_delay(b10, c32=F(7, 8))),
            r=HALF_PI),
        "C11": NdeSpec.make(b=2, c=F(13, 8), r=1.0),
        "C12": NdeSpec.make(
            c=CD.closed(compat_c_from_d_pure_delay(d12, c31=F(5, 8))),
            d=CD.closed(d12), r=HALF_PI),
    }


# near misses with no solution for the check to map: b = 1/(1 - t) has a
# pole at t = 1 inside the three delays, and b = 10^13 grows the solution
# to about 10^26 there, where an absolute tolerance reads nothing
NO_SOLUTION = {"c3-omega-crosses-zero", "c3-omega-at-once"}
SPECS = {**_seed_1_specs(),
         **{name: spec for name, (spec, *_) in zip(NEAR_MISS_IDS, NEAR_MISSES)
            if name not in NO_SOLUTION}}
# the demoted generators with a flow on the span, each of which the finite
# check must fail: the three numeric directions of each special-d class,
# and the one off-form generator of these near misses.  The others have no
# field (d <= 0 everywhere), an omega of one node, or a square root of a
# d that changes sign.
FLOWING_DEMOTIONS = {"C6": 3, "C7": 3, "C8": 3, "c3-b-off-omega": 1,
                     "c5-varying-c": 1, "c12-c-off-form": 1,
                     "c10-varying-c": 1, "c11-varying-b": 1,
                     "c11-varying-c": 1}


@pytest.mark.parametrize("name", list(SPECS))
def test_admitted_generators_map_solutions_to_solutions(name):
    rows = SWEEP.oracle_rows(SPECS[name])
    assert not [(gen.label, rep) for gen, rep in rows
                if SWEEP.contradicts(gen, rep)]
    # the demoted generators with a field and a flow on the span
    flowing = [gen.label for gen, rep in rows if gen.status != "admitted"
               and not isinstance(rep, ExprError)]
    assert len(flowing) == FLOWING_DEMOTIONS.get(name, 0)


@pytest.mark.parametrize("fins, resolved", [
    # C8-k1/2's (x/2) d/dx at 64, 128 and 256 steps per delay
    ([3.57e-4, 3.74e-5, 2.05e-6], True),
    ([3.57e-4, 5.0e-5, 2.05e-6], False),   # the first doubling cuts 7.1x
    ([8.0e-3, 9.0e-4, 1.1e-4], False),     # ends above TOL_FIN
    ([3.57e-4, None, 2.05e-6], False),     # no report at 128 steps
])
def test_a_failing_admission_is_a_resolution_limit_only_if_it_converges(
        fins, resolved):
    assert SWEEP.resolution(fins) is resolved
