import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ndelie.cli import main
from ndelie.equation import CoeffDescriptor, NdeSpec
from ndelie.suite import build_scenarios, run_scenario, run_suite
from ndelie.symexpr import ExprError

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def ex1_spec(tmp_path):
    path = tmp_path / "ex1.json"
    NdeSpec.make(k=1, r=math.pi).save(path)
    return str(path)


@pytest.fixture
def ode_spec(tmp_path):
    path = tmp_path / "ode.json"
    NdeSpec.make(c=1, r=1.0).save(path)
    return str(path)


@pytest.fixture
def c1_spec(tmp_path):
    path = tmp_path / "c1.json"
    NdeSpec.make(b=1, c=1, d=1, k="t", r=1.0).save(path)
    return str(path)


@pytest.fixture
def free_constant_spec(tmp_path):
    # b = c1 + t holds a constant no file or option binds
    path = tmp_path / "free.json"
    one = {"kind": "const", "value": "1"}
    path.write_text(json.dumps({"b": {"kind": "closed", "expr": "c1 + t"},
                                "c": one, "k": one, "r": 1.0}))
    return str(path)


def test_classify_exit_codes(ex1_spec, ode_spec, capsys):
    assert main(["classify", "--spec", ex1_spec]) == 0
    out = capsys.readouterr().out
    assert "C9" in out and "d/dt" in out
    assert main(["classify", "--spec", ode_spec]) == 2


@pytest.mark.parametrize("command", ["classify", "determine", "verify"])
@pytest.mark.parametrize("coeff", ["a", "h"])
def test_an_unreduced_spec_names_the_substitutions(tmp_path, capsys,
                                                   command, coeff):
    path = tmp_path / "full.json"
    NdeSpec.make(c=1, d="1/4", r=1.0, **{coeff: "1/2"}).save(path)
    theta = ["--theta", "sin(t)"] if command == "verify" else []
    assert main([command, "--spec", str(path), *theta]) == 1
    err = capsys.readouterr().err
    assert "x = u exp(-int a/2), then shift u by a particular solution" in err


def test_classify_nonconstant_k(c1_spec, capsys):
    assert main(["classify", "--spec", c1_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "C1"
    assert len(payload["generators"]) == 2


def test_classify_malformed_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"r\": -1}")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", str(bad)])
    assert exc.value.code == 1


@pytest.mark.parametrize("samples,why", [
    ([[0.0, 1.0]], "needs at least 2 samples, got 1"),
    ([[0.0, 1.0], [1.0, 2.0], [1.0, 0.5], [2.0, 1.0]],
     "times are not strictly increasing"),
    ([[0.0, 1.0], [2.0, 2.0], [1.0, 0.5], [3.0, 1.0]],
     "times are not strictly increasing"),
    ([[0.0, 1.0], [1.0, math.nan], [2.0, 0.5], [3.0, 1.0]],
     "has a time or value that is not finite"),
    ([[0.0, 1.0], [math.inf, 2.0], [2.0, 0.5], [3.0, 1.0]],
     "has a time or value that is not finite"),
    ([[0.0, 1.0], [1.0], [2.0, 0.5], [3.0, 1.0]],
     "samples must be [t, value] pairs"),
])
def test_a_bad_numeric_table_is_refused_by_name(tmp_path, capsys, samples,
                                                why):
    # json writes and reads NaN and Infinity
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "b": {"kind": "const", "value": "1"},
        "c": {"kind": "numeric-table", "samples": samples}, "r": 1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        f"error: malformed spec file: coefficient c: numeric table {why}\n")


@pytest.mark.parametrize("spec,why", [
    ({"c": {"kind": "numeric-table"}, "r": 1.0},
     "coefficient c: numeric-table descriptor has no 'samples'"),
    ({"b": {"kind": "const"}, "r": 1.0},
     "coefficient b: const descriptor has no 'value'"),
    ({"d": {"kind": "closed"}, "r": 1.0},
     "coefficient d: closed descriptor has no 'expr'"),
    ({"c": {"kind": "const", "value": "1"}}, "the spec has no delay 'r'"),
    ({"c": "1", "r": 1.0},
     "coefficient c: a descriptor is a JSON object, not '1'"),
    # a misspelt key is refused, not read as a zero coefficient or t0 = 0
    ({"c": {"kind": "const", "value": "1"},
      "D": {"kind": "const", "value": "2"}, "r": 1.0},
     "unknown spec key 'D'"),
    ({"c": {"kind": "const", "value": "1"}, "r": 1.0, "tO": 0.5},
     "unknown spec key 'tO'"),
    ([{"r": 1.0}], "a spec is a JSON object, not [{'r': 1.0}]"),
])
def test_a_missing_spec_key_is_named(tmp_path, capsys, spec, why):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: malformed spec file: {why}\n"


@pytest.mark.parametrize("spec,why", [
    ({"r": None}, "'r' is not a number: None"),
    ({"r": 1.0, "t0": None}, "'t0' is not a number: None"),
    ({"c": {"kind": "numeric-table", "samples": [[0, None], [1, 2]]},
      "r": 1.0}, "coefficient c: numeric table value is not a number: None"),
    ({"c": {"kind": "numeric-table", "samples": None}, "r": 1.0},
     "coefficient c: numeric table samples must be [t, value] pairs"),
    ({"c": {"kind": "const", "value": None}, "r": 1.0},
     "coefficient c: Invalid literal for Fraction: 'None'"),
], ids=["r", "t0", "table-value", "table", "const-value"])
def test_a_spec_value_of_the_wrong_type_is_named(tmp_path, capsys, spec,
                                                 why):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: malformed spec file: {why}\n"


@pytest.mark.parametrize("spec,why", [
    ({"r": math.inf, "d": {"kind": "const", "value": "1"}},
     "the delay r must be positive and finite and t0 finite, not r = inf, "
     "t0 = 0.0"),
    ({"r": 1.0, "t0": math.nan, "d": {"kind": "const", "value": "1"}},
     "the delay r must be positive and finite and t0 finite, not r = 1.0, "
     "t0 = nan"),
    ({"r": True, "d": {"kind": "const", "value": "1"}},
     "'r' is not a number: True"),
    ({"r": 10 ** 400, "d": {"kind": "const", "value": "1"}},
     f"'r' is not a number: {10 ** 400}"),
    ({"c": {"kind": "const", "value": "1/0"}, "r": 1.0},
     "coefficient c: const value '1/0' divides by zero"),
    ({"c": {"kind": "const", "value": "1e400"}, "r": 1.0},
     "coefficient c: a constant coefficient must be a finite float"),
    ({"c": {"kind": "closed", "expr": "10^400"}, "r": 1.0},
     "coefficient c: a constant coefficient must be a finite float"),
], ids=["r-infinite", "t0-nan", "r-boolean", "r-huge-integer", "const-1/0",
        "const-1e400", "closed-10^400"])
def test_a_spec_number_that_is_not_finite_is_named(tmp_path, capsys, spec,
                                                   why):
    # json writes and reads NaN, Infinity, true and any integer; the first
    # three loaded before, and the last four ended in a traceback
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: malformed spec file: {why}\n"


@pytest.mark.parametrize("t0", [0.0, 1e-160], ids=["zero", "tiny"])
def test_c3_with_b_vanishing_at_t0_stops_with_an_error(tmp_path, capsys, t0):
    # b = t is zero at t0 = 0, and at t0 = 1e-160 its inverse squared
    # overflows
    path = tmp_path / "c3.json"
    NdeSpec.make(b="t", c=1, k=2, r=1.0, t0=t0).save(path)
    assert main(["classify", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: C3 needs 1/b at t0, but b(t0) = {t0:g}\n")


def test_a_missing_spec_file_is_named(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--spec", path])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: spec file {path!r} not found\n"


def test_classify_warnings_exit_code(tmp_path, capsys):
    # unit right shift whose c does not match 1/k: the trigonometric pair
    # is demoted with a warning
    path = tmp_path / "warn.json"
    NdeSpec.make(c=2, d=1, k=1, r=math.pi).save(path)
    assert main(["classify", "--spec", str(path)]) == 3
    assert "candidate" in capsys.readouterr().out


def test_determine_report(ex1_spec, capsys):
    assert main(["determine", "--spec", ex1_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    tags = {eq.get("catalog") for eq in payload["reduced"]["equations"]}
    # constant k makes the branch row trivial, so it is absent here
    assert {"E-x1", "E-1"} <= tags
    assert "E-x2r" not in tags


def test_determine_text_lists_the_reduced_rows(ex1_spec, capsys):
    assert main(["determine", "--spec", ex1_spec]) == 0
    out = capsys.readouterr().out
    report, rows = out.split("\n}\n")
    assert json.loads(report + "}")["reduced"]["equations"]
    assert rows == ("  [E-1       ] 1: rho''(t) + rho''(t-r) = 0\n"
                    "  [E-x       ] x: gamma''(t) = 0\n"
                    "  [E-x1      ] x1: -1*beta''(t) + 2*gamma'(t) = 0\n"
                    "  [E-xr      ] xr: gamma''(t) = 0\n")


def test_determine_varying_k_branch_row(c1_spec, capsys):
    assert main(["determine", "--spec", c1_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {eq.get("catalog"): eq for eq in
            payload["reduced"]["equations"]}
    # k = t leaves beta itself as the branch residual
    assert rows["E-x2r"]["residual"] == "beta(t)"


def test_determine_varying_k_note(c1_spec, capsys):
    assert main(["determine", "--spec", c1_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("forces the time part" in n for n in payload["notes"])


def test_determine_report_deterministic(ex1_spec, capsys):
    main(["determine", "--spec", ex1_spec, "--json"])
    first = capsys.readouterr().out
    main(["determine", "--spec", ex1_spec, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_integrate_writes_csv(ex1_spec, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["integrate", "--spec", ex1_spec, "--theta", "sin(t)",
                 "--T", "3*pi", "--steps", "64", "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,xprime,xsecond"
    text = capsys.readouterr().out
    assert "residual" in text


def test_integrate_reads_no_derivative_jump_as_its_residual(tmp_path,
                                                           capsys):
    # the neutral coefficient k = t carries the jump of x'' at t0 to every
    # breaking point.  t_end has no interval to its right, so x''(t_end)
    # is left-hand; a residual that paired it with the right-hand
    # x''(t_end - r) would print the jump, 1.7e+01
    path = tmp_path / "c1.json"
    NdeSpec.make(b=1, c=1, d=1, k="t", r=1.0, t0=0.5).save(path)
    assert main(["integrate", "--spec", str(path), "--theta", "sin(t) + 2",
                 "--T", "2.5", "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("max residual on [0.6, 2.5): ")
    assert float(line.rsplit(" ", 1)[1]) < 1e-5


def test_integrate_rejects_partial_delay(ex1_spec, capsys):
    code = main(["integrate", "--spec", ex1_spec, "--theta", "sin(t)",
                 "--T", "2.5"])
    assert code == 1


def test_verify_example1(ex1_spec, capsys):
    code = main(["verify", "--spec", ex1_spec, "--theta", "sin(t)",
                 "--rho-seed", "sin(t)", "--T", "3*pi", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]
    assert len(payload["reports"]) == 3
    for rep in payload["reports"]:
        assert rep["infinitesimal_residual"] < 1e-6
        assert rep["finite_residual"] < 1e-4


def _scenario(name):
    return next(sc for sc in build_scenarios() if sc.name == name)


def _table_b():
    # b as a numeric table, so the rows carry it as the function b(t)
    grid = np.linspace(0.0, 3.0, 41)
    return NdeSpec.make(b=CoeffDescriptor.from_table(
        grid, 2 + np.cos(4 * grid) / 10), c=1, d=1, k=1, r=1.0)


def test_verify_report_keeps_its_bytes(tmp_path, capsys):
    # verify --json on the first worked example, with its scenario's
    # initial function and rho seed; a change of any bit shows here
    sc = _scenario("EX1")
    sc.spec.save(tmp_path / "ex1.json")
    capsys.readouterr()
    assert main(["verify", "--spec", str(tmp_path / "ex1.json"),
                 "--theta", sc.theta, "--rho-seed", sc.rho_seed,
                 "--delta", "0.25", "-0.3", "0.5", "--json"]) == 0
    assert capsys.readouterr().out.encode() == \
        (DATA / "verify_ex1.json").read_bytes()


def test_verify_c2_report_and_curves_keep_their_bytes(tmp_path, capsys):
    # verify --json on the full equation, and the CSVs of its --curves:
    # C2's 1/b generator moves t, so its image is read across the
    # segments of a transformed curve, through the CSV writer
    sc = _scenario("C2")
    sc.spec.save(tmp_path / "c2.json")
    argv = ["verify", "--spec", str(tmp_path / "c2.json"), "--theta",
            sc.theta, "--rho-seed", sc.rho_seed,
            "--delta", "0.25", "-0.3", "0.5", "--json"]
    pin = json.loads((DATA / "verify_c2.json").read_text())
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(
        pin["report"], indent=2, sort_keys=True) + "\n"
    out = tmp_path / "out"
    assert main(argv + ["--curves", "--out", str(out)]) == 0
    assert {p.name: p.read_text()
            for p in out.glob("curve_*.csv")} == pin["curves"]


@pytest.mark.parametrize("spec, name", [
    (lambda: _scenario("C2").spec, "determine_c2.json"),
    (_table_b, "determine_table_b.json"),
    (lambda: _scenario("C11").spec, "determine_c11.json"),
    (lambda: _scenario("C12").spec, "determine_c12.json"),
    (lambda: _scenario("C5").spec, "determine_c5.json"),
], ids=["C2", "table-b", "C11", "C12", "C5"])
def test_determine_report_keeps_its_bytes(tmp_path, capsys, spec, name):
    spec().save(tmp_path / "spec.json")
    capsys.readouterr()
    assert main(["determine", "--spec", str(tmp_path / "spec.json"),
                 "--json"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name, code", [("C3", 0), ("C7", 3)])
def test_classify_report_keeps_its_bytes(tmp_path, capsys, name, code):
    # scenarios with numeric generators: the report names each omega's
    # grid ends, and C7's notes carry the first-integral drift of each
    # direction; C7's three directions are demoted, so it exits 3
    _scenario(name).spec.save(tmp_path / "spec.json")
    capsys.readouterr()
    assert main(["classify", "--spec", str(tmp_path / "spec.json"),
                 "--json"]) == code
    assert capsys.readouterr().out.encode() == \
        (DATA / f"classify_{name.lower()}.json").read_bytes()


def test_paper_suite_single(capsys):
    code = main(["paper-suite", "--only", "EX2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]
    assert payload["scenarios"][0]["name"] == "EX2"


def test_a_scenario_fails_on_a_wrong_candidate_count():
    # C4 demotes no candidate; a scenario expecting one fails with every
    # generator passing, and says why
    c4 = dataclasses.replace(_scenario("C4"), expected_candidates=1)
    res = run_scenario(c4)
    assert res.case_ok and res.candidates == []
    assert res.generators and all(g["pass"] for g in res.generators)
    assert not res.ok
    assert res.warnings[-1] == "expected 1 demoted candidates, found 0"


def test_paper_suite_text_gives_each_verdict(capsys):
    assert main(["paper-suite", "--only", "C4"]) == 0
    report, verdicts = capsys.readouterr().out.split("\n}\n")
    assert json.loads(report + "}")["pass"]
    assert verdicts == ("  C4    case=C4               pass\n"
                        "all scenarios pass\n")


def test_paper_suite_text_reports_a_failing_scenario(monkeypatch, capsys):
    # C4 expecting one demoted candidate fails its scenario
    from ndelie import suite

    def failing():
        return [dataclasses.replace(sc, expected_candidates=1)
                if sc.name == "C4" else sc for sc in build_scenarios()]

    monkeypatch.setattr(suite, "build_scenarios", failing)
    assert main(["paper-suite", "--only", "C4"]) == 3
    report, verdicts = capsys.readouterr().out.split("\n}\n")
    assert json.loads(report + "}")["pass"] is False
    assert verdicts == ("  C4    case=C4               FAIL\n"
                        "some scenarios FAILED\n")


def test_paper_suite_unknown_scenario(capsys):
    assert main(["paper-suite", "--only", "nope"]) == 1


def test_paper_suite_names_an_unknown_scenario(capsys):
    assert main(["paper-suite", "--only", "C99"]) == 1
    assert capsys.readouterr().err == "error: unknown scenario 'C99'\n"


def test_run_suite_refuses_an_unknown_scenario():
    with pytest.raises(ExprError, match="^unknown scenario 'C99'$"):
        run_suite(only="C99")


def test_classification_report_deterministic(ex1_spec, capsys):
    main(["classify", "--spec", ex1_spec, "--json"])
    first = capsys.readouterr().out
    main(["classify", "--spec", ex1_spec, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_numeric_arguments_are_arithmetic_only():
    import argparse

    from ndelie.cli import _num

    assert _num("3*pi/2") == 3 * math.pi / 2
    assert _num("-2**-1") == -0.5
    assert _num("2*e") == 2 * math.e
    for text in ("(1).__class__.__mro__[1].__subclasses__().__len__()",
                 "__import__('os')", "abs(-1)", "True", "9**9**9**9"):
        with pytest.raises(argparse.ArgumentTypeError):
            _num(text)


def test_verify_text_reports_a_failed_finite_check(tmp_path, capsys):
    # the numeric time-like generator of the generic right-shift class
    # cannot carry this curve by delta = 3
    path = tmp_path / "c5.json"
    NdeSpec.make(c=1, d=2, k=1, r=1.0).save(path)
    code = main(["verify", "--spec", str(path), "--theta", "sin(t)+2",
                 "--delta", "3"])
    assert code == 3
    out = capsys.readouterr().out
    assert json.loads(out[:out.rindex("}") + 1])["pass"] is False
    failed = [line for line in out.splitlines() if "fin=failed" in line]
    assert len(failed) == 1 and failed[0].endswith(" FAIL")


def test_verify_curves_name_a_first_delta_without_an_image(tmp_path,
                                                          capsys):
    # the curve file of a generator whose flow gives no image at the first
    # delta is replaced by the reason; the others are written
    path = tmp_path / "c5.json"
    NdeSpec.make(c=1, d=2, k=1, r=1.0).save(path)
    out = tmp_path / "out"
    code = main(["verify", "--spec", str(path), "--theta", "sin(t)+2",
                 "--delta", "3", "--json", "--curves", "--out", str(out)])
    assert code == 3
    payload = json.loads((out / "verification.json").read_text())
    csvs = {rep["generator"]: rep["curve_csv"]
            for rep in payload["reports"]}
    failed = [rep["generator"] for rep in payload["reports"]
              if rep["finite_residual"] is None]
    assert len(failed) == 1
    assert csvs.pop(failed[0]) == ("failed: flow left the numeric domain "
                                   "for some points")
    assert csvs and all(os.path.isfile(p) for p in csvs.values())


def test_classify_names_an_unbound_constant(free_constant_spec, capsys):
    assert main(["classify", "--spec", free_constant_spec]) == 1
    assert "error: unbound symbol c1" in capsys.readouterr().err


def test_integrate_names_an_unbound_constant(ex1_spec, tmp_path, capsys):
    code = main(["integrate", "--spec", ex1_spec, "--theta", "c2*t",
                 "--T", "2*pi", "--out", str(tmp_path)])
    assert code == 1
    assert "error: unbound symbol c2" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_determine_keeps_free_constants_symbolic(free_constant_spec,
                                                 capsys):
    assert main(["determine", "--spec", free_constant_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    residuals = [eq["residual"] for eq in payload["reduced"]["equations"]]
    assert any("c1*rho'(t-r)" in res for res in residuals)


def test_determine_names_its_constants_apart_from_the_spec(
        free_constant_spec, capsys):
    # the spec's c1 stays the coefficient's; the integration constant of
    # the velocity row takes the first name neither uses, and that of the
    # delayed-velocity row keeps c3, which the spec leaves free
    assert main(["determine", "--spec", free_constant_spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    velocity = [eq for eq in payload["reduced"]["equations"]
                if eq.get("constant")]
    assert [eq["constant"] for eq in velocity] == ["c4", "c3"]
    assert velocity[0]["integrated"] == "-1*c4 - 1*beta'(t) + 2*gamma(t)"
    assert velocity[1]["integrated"] == "c1*beta(t) - 1*c3 + beta(t)*t"
    (upsilon,) = [eq for eq in payload["canonical"]["equations"]
                  if eq.get("catalog") == "E-upsilon"]
    assert upsilon["note"] == "upsilon = ((omega_t + c4)/2) x + rho"
    assert upsilon["residual"] == "-1/2*c4 + gamma(t) - 1/2*omega'(t)"


def test_verify_curves_reuse_the_finite_check_image(ex1_spec, tmp_path,
                                                    monkeypatch, capsys):
    # the curve written for the first delta is the one the finite check
    # built: one transform per generator, and the CSV holds the same bytes
    # as a curve transformed anew
    from ndelie import flowverify
    from ndelie.classify import classify
    from ndelie.ndesolve import integrate

    real = flowverify.transform_solution
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    argv = ["verify", "--spec", ex1_spec, "--theta", "sin(t)", "--T",
            "3*pi", "--delta", "0.25"]
    assert main(argv + ["--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(flowverify, "transform_solution", counting)
    # and any binding of its own the CLI module may hold
    monkeypatch.setattr("ndelie.cli.transform_solution", counting,
                        raising=False)
    out = tmp_path / "out"
    assert main(argv + ["--json", "--curves", "--out", str(out)]) == 0
    assert len(calls) == 3
    payload = json.loads((out / "verification.json").read_text())
    paths = [rep.pop("curve_csv") for rep in payload["reports"]]
    assert payload == plain
    spec = NdeSpec.load(ex1_spec)
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    rho = integrate(spec, "sin(t)", 3 * math.pi, 64)
    for idx, gen in enumerate(classify(spec).admitted):
        assert paths[idx] == str(out / f"curve_{idx}.csv")
        ref = tmp_path / f"ref_{idx}.csv"
        real(traj, gen, 0.25, spec, rho=rho).to_csv(ref)
        assert (out / f"curve_{idx}.csv").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("given, t_end", [(["--T", "0"], 0.0),
                                          (["--T", "1"], 1.0),
                                          ([], 1.0)])
def test_verify_integrates_to_the_given_end_time(tmp_path, monkeypatch,
                                                 capsys, given, t_end):
    # an end time of 0 is a time, not a missing option: with t0 = -2 and
    # r = 1 it is two delays, where the default t0 + 3 r is three.  The
    # solution and the rho slot are both integrated to it
    from ndelie import cli

    path = tmp_path / "spec.json"
    NdeSpec.make(k=1, r=1.0, t0=-2.0).save(path)
    real, ends = cli.integrate, []

    def recording(spec, theta, end, steps):
        ends.append(end)
        return real(spec, theta, end, steps)

    monkeypatch.setattr(cli, "integrate", recording)
    main(["verify", "--spec", str(path), "--theta", "sin(t)", "--json"]
         + given)
    capsys.readouterr()
    assert ends == [t_end, t_end]


def test_integrate_reports_a_residual_that_cannot_be_evaluated(
        tmp_path, capsys):
    # b has a pole at t = 1/10, which no integration step lands on but the
    # first residual sample does
    path = tmp_path / "pole.json"
    NdeSpec.make(b="1/(t - 1/10)", c=1, r=1.0).save(path)
    code = main(["integrate", "--spec", str(path), "--theta", "sin(t)",
                 "--T", "3", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the equation residual cannot be evaluated at t = 0.1\n")


def test_library_example_matches_verify(ex1_spec, capsys):
    # the README's library example checks at the resolution verify uses
    from ndelie import classify, finite_check, integrate

    assert main(["verify", "--spec", ex1_spec, "--theta", "sin(t)",
                 "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    spec = NdeSpec.make(k=1, r=math.pi)
    traj = integrate(spec, "sin(t)", 3 * math.pi, 64)
    rho = integrate(spec, "sin(t)", 3 * math.pi, 64)
    admitted = classify(spec).admitted
    assert [rep["generator"] for rep in reports] == \
        [gen.label for gen in admitted]
    for rep, gen in zip(reports, admitted):
        assert finite_check(traj, gen, spec, [0.25], rho=rho) == \
            rep["finite_residual"]


NO_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")


sys.meta_path.insert(0, NoScipy())

import math

import numpy as np

from ndelie.classify import classify
from ndelie.cli import main
from ndelie.equation import CoeffDescriptor, NdeSpec
from ndelie.suite import build_scenarios, run_scenario

c2 = next(sc for sc in build_scenarios() if sc.name == "C2")
assert run_scenario(c2).ok
NdeSpec.make(k=1, r=math.pi).save(sys.argv[1] + "/ex1.json")
assert main(["verify", "--spec", sys.argv[1] + "/ex1.json", "--theta",
             "sin(t)", "--curves", "--out", sys.argv[1]]) == 0
grid = np.linspace(0.0, 3.0, 41)
table = NdeSpec.make(b=1, c=CoeffDescriptor.from_table(
    grid, 2 + np.cos(4 * grid) / 10), r=1.0)
assert classify(table).case_id
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""


def test_the_package_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: a suite scenario, the verify
    # command with its curves and a table classification all run with
    # every scipy import refused
    import ndelie

    src = os.path.dirname(os.path.dirname(ndelie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "curve_0.csv").exists()
