"""Command-line harness: subcommands, exit codes, report files, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stada import suites
from stada.cli import main
from stada.equations import EquationForm


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- eval ----------------------------------------------------------------


@pytest.mark.parametrize("expr,want", [
    ("e0 * e1", "e01"),
    ("e1 * e1", "-1"),
    ("star(e)", "e0123"),
    ("e0 ^ e1", "e01"),
    ("rev(e01)", "-e01"),
    ("2 e01 + 1/2", "1/2 + 2 e01"),
    ("(0+1i) e12 * (0+1i) e12", "1"),
    ("star(e) ^ e0", "0"),
    # a decimal literal is read as a rational on the exact backend
    ("0.5 * e0", "1/2 e0"),
])
def test_eval_expressions(expr, want, capsys):
    code, out, _ = run_cli(["eval", expr], capsys)
    assert code == 0
    assert out.strip() == want


def test_eval_basis_rendering(capsys):
    code, out, _ = run_cli(["eval", "e0 * e1", "--basis", "l"], capsys)
    assert code == 0
    assert out.strip() == "l01"


def test_eval_parse_error_is_usage(capsys):
    code, _, err = run_cli(["eval", "e0 @ e1"], capsys)
    assert code == 2
    assert "error" in err


# ---- verify --------------------------------------------------------------


def test_verify_small_suite(tmp_path, capsys):
    report_path = tmp_path / "hodge.json"
    code, out, _ = run_cli(["verify", "--suite", "hodge", "--seed", "7",
                            "--report", str(report_path)], capsys)
    assert code == 0
    assert "suite hodge" in out
    data = json.loads(report_path.read_text())
    assert data["summary"]["status"] == "pass"
    assert data["suite"] == "hodge"
    assert data["seed"] == 7
    for check in data["checks"]:
        assert {"id", "law", "status", "measured", "bound", "detail"} == set(check)


def test_verify_deterministic_for_fixed_seed(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(["verify", "--suite", "hodge", "--seed", "3",
                              "--report", str(p)], capsys)
        assert code == 0
    blobs = []
    for p in paths:
        data = json.loads(p.read_text())
        data.pop("environment")
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_verify_iterations(capsys):
    code, out, _ = run_cli(["verify", "--suite", "hodge", "--iterations", "3"], capsys)
    assert code == 0 and "suite hodge" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "hodge", "--iterations", "x"])
    assert exc.value.code == 2


def test_verify_unknown_suite_is_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,choices", [
    (["verify", "--suite", "nope"], suites.SUITE_NAMES),
    (["residual", "--form", "nope"], [f.value for f in EquationForm]),
], ids=["suite", "form"])
def test_an_unknown_choice_names_every_choice_in_one_line(argv, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"error: argument {argv[1]}: invalid choice: 'nope'")
    assert out.err.count("\n") == 1 and all(repr(c) in out.err for c in choices)


@pytest.mark.parametrize("command,choices", [
    ("verify", "{" + ",".join(suites.SUITE_NAMES) + "}"),
    ("residual", "{" + ",".join(f.value for f in EquationForm) + "}"),
])
def test_help_lists_the_choices(command, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and choices in capsys.readouterr().out


def test_verify_env_report_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STADA_REPORT_DIR", str(tmp_path))
    code, out, _ = run_cli(["verify", "--suite", "hodge"], capsys)
    assert code == 0
    assert (tmp_path / "verify_hodge_seed0.json").exists()


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("suite", ["spin", "equations"])
def test_verify_below_the_default_gives_a_full_report(suite, backend, tmp_path, capsys):
    # float constructions checked at a tolerance below their rounding used to abort the suite
    path = tmp_path / "r.json"
    code, _, err = run_cli(["verify", "--suite", suite, "--seed", "1", "--backend", backend,
                            "--tolerance", "1e-16", "--report", str(path)], capsys)
    assert (code, err) == (0, "")
    data = json.loads(path.read_text())
    assert data["tolerance"] == 1e-16
    want = suites.run_suite(suite, seed=1, backend=backend).checks
    assert [c["id"] for c in data["checks"]] == [c.id for c in want]
    assert data["summary"]["passed"] == data["summary"]["total"] == len(want)


def test_verify_tolerance_does_not_outlive_the_run(tmp_path, capsys):
    assert main(["verify", "--suite", "hodge", "--seed", "1", "--tolerance", "1e-3"]) == 0
    capsys.readouterr()
    after = suites.run_suite("hodge", seed=1).to_json_dict(with_environment=False)
    assert after["tolerance"] == 1e-12
    path = tmp_path / "fresh.json"
    subprocess.run([sys.executable, "-m", "stada", "verify", "--suite", "hodge", "--seed", "1",
                    "--report", str(path)], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    fresh = json.loads(path.read_text())
    fresh.pop("environment")
    assert json.dumps(after, indent=2, sort_keys=True) == json.dumps(fresh, indent=2,
                                                                     sort_keys=True)


# ---- residual --------------------------------------------------------------


def test_residual_plane_wave(capsys):
    code, out, _ = run_cli(["residual", "--form", "tde",
                            "--plane-wave", "m=1;p=1,0,0,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["max_norm"] <= 1e-12
    assert data["form"] == "tde"


@pytest.mark.parametrize("spec", ["m=0;p=1,1,0,0", "m=0;p=0,0,0,0", "m=2;p=2,0,0,0"])
def test_plane_wave_residual_takes_the_spec_mass(spec, capsys):
    # without --mass the residual is taken at the mass the wave solves for
    code, out, _ = run_cli(["residual", "--form", "ideal", "--plane-wave", spec], capsys)
    assert code == 0
    assert json.loads(out)["max_norm"] <= 1e-12


@pytest.mark.parametrize("spec,mass", [("m=1;p=1,0,0,0", "2"), ("m=2;p=2,0,0,0", "1")])
def test_an_explicit_mass_overrides_the_spec_mass(spec, mass, capsys):
    code, out, _ = run_cli(["residual", "--form", "ideal", "--plane-wave", spec,
                            "--mass", mass], capsys)
    assert code == 1
    assert json.loads(out)["max_norm"] > 0.5


def test_an_off_shell_spec_mass_is_still_refused(capsys):
    code, out, err = run_cli(["residual", "--form", "ideal", "--plane-wave",
                              "m=1;p=2,0,0,0", "--mass", "2"], capsys)
    assert (code, out) == (2, "")
    assert "off shell" in err


def test_reduction_keeps_the_unit_default_mass(capsys, monkeypatch):
    from stada import equations as eq

    masses = []
    sides = eq.reduction_sides

    def spy(kind, rho, pot, mass, gens):
        masses.append(mass)
        return sides(kind, rho, pot, mass, gens)

    monkeypatch.setattr(eq, "reduction_sides", spy)
    outputs = [run_cli(["residual", "--form", "ilk", "--reduce", "t-H"] + extra, capsys)
               for extra in ([], ["--mass", "1"], ["--mass", "0.3"])]
    assert masses == [1.0, 1.0, 0.3]
    assert outputs[0] == outputs[1]


def test_residual_zero_state(capsys):
    code, out, _ = run_cli(["residual", "--form", "dirac", "--state", "zero"],
                           capsys)
    assert code == 0
    assert json.loads(out)["max_norm"] == 0.0


def test_residual_zero_state_of_an_analytic_form(capsys):
    code, out, _ = run_cli(["residual", "--form", "tde", "--state", "zero"], capsys)
    data = json.loads(out)
    assert code == 0 and data["max_norm"] == 0.0 and data["verdict"] == "pass"


def test_residual_expression_state(capsys):
    # a constant even state is not a solution at m=1: the mass term survives
    code, out, _ = run_cli(["residual", "--form", "hde", "--state", "1"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["max_norm"] > 0.5


def test_residual_with_expression_state_and_potential(capsys):
    # (e + e0) exp(-i x0) solves the general-form equation at m = 1, A = 0
    code, out, _ = run_cli([
        "residual", "--form", "ilk",
        "--state", "e exp(i[-1,0,0,0]) + e0 exp(i[-1,0,0,0])",
        "--potential", "0 e1", "--mass", "1"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_residual_reduction(capsys):
    for kind in ("t-HI", "t-H", "t-e5"):
        code, out, _ = run_cli(["residual", "--form", "ilk", "--reduce", kind],
                               capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert any(kind in note for note in data["notes"])


@pytest.mark.parametrize("form", ["ilk", "tde"])
def test_residual_of_a_modulus_beyond_the_float_range_is_usage(form, capsys):
    # each coefficient is finite, but |1.5e308 + 1.5e308i| is not, and abs() raises
    code, out, err = run_cli(["residual", "--form", form,
                              "--state", "(1.5e308+1.5e308i) e0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("form,state,message", [
    ("tde", "(1.5e308+1.5e308i) e0", "state must be even"),
    ("hde", "(1.5e308+1.5e308i) e0", "state must be even"),
    ("tde", "(1.5e308+1.5e308i) e01", "state must be real"),
    ("ideal", "(1.5e308+1.5e308i) e0", "state leaves the left ideal"),
])
def test_domain_checks_refuse_a_state_whose_modulus_overflows(form, state, message, capsys):
    # max |state| is inf, so a bound proportional to it would admit any state;
    # the check measures the halved state instead
    code, out, err = run_cli(["residual", "--form", form, "--state", state], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["t-HI", "t-H", "t-e5"])
def test_residual_reduction_keeps_a_late_nan(kind, capsys, monkeypatch):
    # a NaN after a finite sample point must reach the gap, not be dropped by its
    # max; at m = 0.3 the two sides differ by rounding, so the gap is sampled
    from stada import equations as eq

    nan = float("nan")
    monkeypatch.setattr(eq, "sample_points",
                        lambda seed=0: [(0.1, 0.2, 0.3, 0.4), (nan, nan, nan, nan)])
    code, _, err = run_cli(["residual", "--form", "ilk", "--reduce", kind, "-m", "0.3"],
                           capsys)
    assert code == 2
    assert "not a finite number" in err


def test_residual_grid_state(tmp_path, capsys):
    import math

    from stada import equations as eq
    from stada import ideal
    from stada.grid import sample

    basis = ideal.canonical_basis()
    sol = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0, basis=basis)
    grid = sample(sol.state, 8, math.pi / 4)
    path = tmp_path / "state.json"
    grid.save(str(path))
    code, out, _ = run_cli(["residual", "--form", "tde", "--state", str(path),
                            "--tolerance", "0.2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["backend"] == "grid"
    assert data["grid"] == {"n": 8, "h": math.pi / 4}


@pytest.mark.parametrize("dump,message", [("ideal", "state must be even"),
                                           ("ilk-even", "state must be real")])
def test_loose_tolerance_keeps_the_even_real_domain(dump, message, tmp_path, capsys):
    # a grid residual needs a loose verdict tolerance; the domain check of the
    # exterior form must not loosen with it (these passed with max_norm 0.10
    # and 0.14 when the bound followed the verdict tolerance)
    import math

    from stada import equations as eq
    from stada import ideal
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.from_name(dump), (1.0, 0, 0, 0), 1.0,
                        basis=ideal.canonical_basis())
    path = tmp_path / "state.json"
    sample(sol.state, 8, math.pi / 4).save(str(path))
    code, out, err = run_cli(["residual", "--form", "tde", "--state", str(path),
                              "--tolerance", "0.2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0.01"], ["--tolerance", "0.2"]],
                         ids=["default", "0.01", "0.2"])
def test_every_tolerance_keeps_the_ideal_domain(tolerance, tmp_path, capsys):
    # the ilk-e5 plane wave leaves the left ideal; at 0.2 this passed with
    # max_norm 0.070 when the bound followed the verdict tolerance
    import math

    from stada import equations as eq
    from stada import ideal
    from stada.grid import sample

    sol = eq.plane_wave(EquationForm.ILK_E5, (1.0, 0, 0, 0), 1.0,
                        basis=ideal.canonical_basis())
    path = tmp_path / "state.json"
    sample(sol.state, 8, math.pi / 4).save(str(path))
    code, out, err = run_cli(["residual", "--form", "ideal", "--state", str(path),
                              *tolerance], capsys)
    assert (code, out) == (2, "")
    assert err == "error: state leaves the left ideal\n"


def test_residual_offshell_is_usage(capsys):
    code, _, err = run_cli(["residual", "--form", "tde",
                            "--plane-wave", "m=1;p=2,0,0,0"], capsys)
    assert code == 2
    assert "off shell" in err


def test_residual_requires_state(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--form", "tde"])
    assert exc.value.code == 2


def test_residual_random_generators(capsys):
    code, out, _ = run_cli(["residual", "--form", "tde",
                            "--plane-wave", "m=1;p=1,0,0,0",
                            "--generators", "random:5"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


TINY_WAVE = ["residual", "--form", "dirac", "-m", "1e-10", "--plane-wave"]


@pytest.mark.parametrize("which", [0, 1])
def test_residual_tiny_plane_wave_passes(which, capsys):
    # singular values below 1e-9 but above 1e-9 times the largest are not amplitudes
    code, out, err = run_cli(TINY_WAVE + [f"m=1e-10;p=1e-10,0,0,0;which={which}"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "pass"


def test_residual_tiny_plane_wave_has_two_amplitudes(capsys):
    code, out, err = run_cli(TINY_WAVE + ["m=1e-10;p=1e-10,0,0,0;which=2"], capsys)
    assert (code, out) == (2, "")
    assert "amplitude index 2 exceeds the solution space" in err


@pytest.mark.parametrize("tolerance", [None, "1e-6"])
@pytest.mark.parametrize("seed", range(1, 11))
def test_residual_reaches_a_verdict_on_every_random_basis(seed, tolerance, capsys):
    # the float copy of a valid exact basis is its rounding, so no float
    # construction check can abort the run (random:1..3 did at 1e-12, where
    # max |H| is up to 184.5)
    loose = ["--tolerance", tolerance] if tolerance else []
    for form in EquationForm:
        code, out, err = run_cli(["residual", "--form", form.value,
                                  "--plane-wave", "m=1;p=1,0,0,0",
                                  "--generators", f"random:{seed}", *loose], capsys)
        verdict = json.loads(out)["verdict"]
        assert err == "" and (code, verdict) in ((0, "pass"), (1, "fail")), form
        if tolerance:
            assert verdict == "pass", form


# ---- report -----------------------------------------------------------------


def test_report_summarizes(tmp_path, capsys):
    run_cli(["verify", "--suite", "hodge", "--report", str(tmp_path / "v.json")],
            capsys)
    run_cli(["residual", "--form", "tde", "--plane-wave", "m=1;p=1,0,0,0",
             "--report", str(tmp_path / "r.json")], capsys)
    code, out, _ = run_cli(["report", str(tmp_path / "v.json"),
                            str(tmp_path / "r.json")], capsys)
    assert code == 0
    assert "suite hodge pass" in out
    assert "form tde pass" in out


def test_report_without_files_is_usage(capsys, monkeypatch):
    monkeypatch.delenv("STADA_REPORT_DIR", raising=False)
    code, _, err = run_cli(["report"], capsys)
    assert code == 2


def test_report_of_a_missing_file_is_usage(tmp_path, capsys):
    code, out, err = run_cli(["report", str(tmp_path / "missing.json")], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "missing.json" in err, err


# ---- non-finite values and bad numbers ------------------------------------------


@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_residual_non_finite_mass_never_passes(mass, capsys):
    # a non-finite mass is malformed input: the parser rejects it, so no
    # report (with a NaN that JSON cannot carry) is ever printed
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--form", "ilk", "--state", "e0 exp(i[1,0,0,0])",
              "--mass", mass])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "hodge", "--tolerance", "-1"],
    ["verify", "--suite", "hodge", "--tolerance", "0"],
    ["verify", "--suite", "hodge", "--tolerance", "nan"],
    ["verify", "--suite", "hodge", "--tolerance", "inf"],
    ["verify", "--suite", "hodge", "--iterations", "-5"],
    ["verify", "--suite", "hodge", "--iterations", "0"],
    ["residual", "--form", "tde", "--plane-wave", "m=1;p=1,0,0,0", "--tolerance", "-1"],
    ["residual", "--form", "tde", "--plane-wave", "m=1;p=1,0,0,0", "--tolerance", "nan"],
    ["residual", "--form", "tde", "--plane-wave", "m=1;p=1,0,0,0", "--tolerance", "inf"],
])
def test_bad_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---- field expressions: one grammar, one parser ---------------------------------


@pytest.mark.parametrize("state", ["2 3", "e0 e1", "e0 -"])
def test_juxtaposed_terms_and_dangling_signs_are_usage_errors(state, capsys):
    code, out, err = run_cli(["residual", "--form", "ilk", "--state", state], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("bare,bladed", [
    ("2 exp(i[1,0,0,0])", "2 e exp(i[1,0,0,0])"),
    ("(1+2i) exp(i[1,0,0,0])", "(1+2i) e exp(i[1,0,0,0])"),
    ("exp(i[-1,0,0,0])", "e exp(i[-1,0,0,0])"),
])
def test_blade_less_wave_is_the_scalar_blade_wave(bare, bladed, capsys):
    runs = [run_cli(["residual", "--form", "ilk", "--state", s], capsys)
            for s in (bare, bladed)]
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)

    from stada.expr import parse_field

    assert parse_field(bare, "float").terms == parse_field(bladed, "float").terms
    assert parse_field(bare, "exact") == parse_field(bladed, "exact")


def test_only_the_expression_module_imports_re():
    # one scanner reads every text; a second one would start with `import re`
    import ast
    from pathlib import Path

    import stada

    importers = []
    for path in sorted(Path(stada.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "re" in names:
                importers.append(path.name)
    assert importers == ["expr.py"]


# ---- malformed residual options and JSON inputs -----------------------------------


PW = "m=1;p=1,0,0,0"


@pytest.mark.parametrize("extra", [
    ["--plane-wave", "m=1"],
    ["--plane-wave", "garbage"],
    ["--plane-wave", "p=1,0,0,0;sign=x"],
    ["--plane-wave", "p=1,0,0"],
    ["--plane-wave", "p=1,0,nan,0"],
    ["--plane-wave", "p=1,0,0,0;which=-1"],
    ["--plane-wave", "p=1e200,1e200,0,0;m=0"],
    ["--plane-wave", PW, "--generators", "random:x"],
    ["--plane-wave", "p=1,0,0,0;m=-1"],
    ["--plane-wave", "p=1,0,0,0;sign=2"],
])
def test_malformed_residual_options_are_usage_errors(extra, capsys):
    code, out, err = run_cli(["residual", "--form", "tde"] + extra, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["--form", "dirac", "--state", "GRID"],
    ["--form", "dirac", "--state", "e0"],
    ["--form", "tde", "--reduce", "t-H"],
], ids=["dirac-grid", "dirac-expression", "reduce-tde"])
def test_states_and_reductions_outside_the_form_are_usage_errors(argv, tmp_path, capsys):
    # the matrix form takes no grid or expression state; --reduce only the general form
    from stada.grid import GridField

    path = tmp_path / "state.json"
    GridField.zeros(2, 0.5).save(str(path))
    argv = [str(path) if a == "GRID" else a for a in argv]
    code, out, err = run_cli(["residual"] + argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("payload", [
    [[1, 0]],
    {"4": [1, 0]},
    {"10": [1, 0]},
    {"0": [1, 0, 0]},
    {"0": 1},
    {"0": ["x", "0"]},
    {"0": [None, 0]},
    {"0": [float("nan"), 0]},
])
def test_malformed_potential_file_is_usage_error(payload, tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["residual", "--form", "tde", "--plane-wave", PW,
                              "-A", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_potential_file_that_is_not_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text("{not json")
    code, out, err = run_cli(["residual", "--form", "tde", "--plane-wave", PW,
                              "-A", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_potential_file_gives_the_report_of_its_expression(tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"0": [0.2, 0], "1": [0.1, 0]}))
    runs = [run_cli(["residual", "--form", "tde", "--plane-wave", PW, "-A", pot], capsys)
            for pot in (str(path), "0.2 e0 + 0.1 e1")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and json.loads(runs[0][1])["max_norm"] == 0.44721359549995787


@pytest.mark.parametrize("payload", ['{"summary": 3}', '{"summary": [1]}', '"summary"'])
def test_malformed_report_is_usage_error(payload, tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(payload)
    code, out, err = run_cli(["report", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1, err


_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.text(max_size=4))
_plane_wave = st.one_of(
    st.text(max_size=30),
    st.lists(st.tuples(st.sampled_from(["m", "p", "sign", "which", "q", ""]),
                       st.one_of(_number,
                                 st.lists(_number, max_size=5).map(",".join)))
             .map("=".join), max_size=5).map(";".join))
_generators = st.one_of(
    st.just("canonical"),
    st.one_of(st.integers(-3, 12).map(str), st.text(max_size=4)).map("random:".__add__),
    st.text(max_size=10))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["dirac", "ideal", "hde", "tde", "ilk", "ilk-even", "ilk-e5"]),
       _plane_wave, _generators, _number)
def test_residual_option_fuzz(form, plane_wave, generators, mass):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["residual", f"--form={form}", f"--plane-wave={plane_wave}",
                         f"--generators={generators}", f"--mass={mass}"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


# ---- malformed grid dumps, numerals, nesting and overflowing norms ----------------


def _dump_json(payload):
    return lambda path: path.write_text(json.dumps(payload))


def _dump_npz(**arrays):
    def write(path):
        import numpy as np

        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return write


@pytest.mark.parametrize("name,write", [
    ("state.json", _dump_json({"n": 2})),
    ("state.json", _dump_json([1, 2])),
    ("state.json", _dump_json({"n": 2, "h": 0.5, "values": [[1]]})),
    ("state.json", lambda path: path.write_text(
        '{"n": 1, "h": 0.5, "values": [[[1e400, 0]' + ", [0, 0]" * 15 + "]]}")),
    ("state.json", _dump_json({"n": 0, "h": 0.5, "values": []})),
    ("state.json", _dump_json({"n": 1, "h": -0.5, "values": [[[0, 0]] * 16]})),
    ("state.npz", _dump_npz(n=2, h=0.5)),
    ("state.npz", _dump_npz(n=2, h=0.5, values=[[0.0]])),
    ("state.json", _dump_json({"n": 2, "h": 0.5, "values": [[[0, 0]] * 16] * 15})),
    ("state.npz", lambda path: path.write_bytes(b"not a zip archive")),
    ("state.json", lambda path: path.write_text("{not json")),
], ids=["no-h", "list", "short-site", "overflow", "n-zero", "h-negative",
        "npz-no-values", "npz-bad-shape", "one-site-short", "npz-not-zip", "json-not-json"])
def test_malformed_grid_dump_is_usage_error(name, write, tmp_path, capsys):
    path = tmp_path / name
    write(path)
    code, out, err = run_cli(["residual", "--form", "tde", "--state", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("option", ["--state", "-A"])
def test_unreadable_path_is_usage_error(option, tmp_path, capsys):
    argv = ["residual", "--form", "tde", option, str(tmp_path)]
    if option == "-A":
        argv += ["--plane-wave", PW]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["eval", "1e400", "--backend", "float"],
    ["eval", "(1+1e400i) e1", "--backend", "float"],
    ["eval", "1e99999999"],
    ["eval", "1e900 * 1e900 * 1e900 * 1e900 * 1e900"],
    ["eval", "(" * 201 + "1" + ")" * 201],
    ["eval", "(" * 250 + "1" + ")" * 250],
    ["eval", "--", "-" * 201 + "1"],
    ["residual", "--form", "tde", "--state", "1e400 e1"],
    ["residual", "--form", "tde", "--state", "e1 exp(i[1e400,0,0,0])"],
    ["residual", "--form", "tde", "--state", "e1 exp(i[1/0,0,0,0])"],
    ["residual", "--form", "tde", "--plane-wave", PW, "-A", "1e400 e1"],
])
def test_numeral_overflow_and_deep_nesting_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_nesting_up_to_the_cap_parses(capsys):
    from stada.expr import MAX_NESTING

    code, out, _ = run_cli(["eval", "(" * MAX_NESTING + "e1" + ")" * MAX_NESTING], capsys)
    assert (code, out.strip()) == (0, "e1")
    code, out, _ = run_cli(["eval", "--", "-" * MAX_NESTING + "e1"], capsys)
    assert (code, out.strip()) == (0, "e1")


@pytest.mark.parametrize("form", ["dirac", "tde"])
def test_huge_residual_norm_is_finite(form, capsys):
    # the residual is about (mass - 1) times a unit state, far beyond the
    # square root of the largest float
    code, out, _ = run_cli(["residual", "--form", form, "--plane-wave", PW,
                            "--mass", "1e300"], capsys)
    assert code == 1
    norm = json.loads(out)["max_norm"]
    assert 0.9e300 < norm < 2.1e300


def test_huge_grid_residual_norm_is_finite(tmp_path, capsys):
    import math

    from stada import equations as eq
    from stada import ideal
    from stada.grid import sample

    sol = eq.plane_wave(eq.EquationForm.TENSOR, (1.0, 0, 0, 0), 1.0,
                        basis=ideal.canonical_basis())
    grid = sample(sol.state, 4, math.pi / 2)
    path = tmp_path / "state.npz"
    grid.save(str(path))
    _, out, _ = run_cli(["residual", "--form", "tde", "--state", str(path),
                         "--mass", "3"], capsys)
    small = json.loads(out)["max_norm"]
    grid.scale(1e300).save(str(path))
    code, out, err = run_cli(["residual", "--form", "tde", "--state", str(path),
                              "--mass", "3"], capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["max_norm"] == pytest.approx(1e300 * small, rel=1e-12)


def test_norm_beyond_float_range_is_usage_error(capsys):
    code, out, err = run_cli(["residual", "--form", "tde", "--plane-wave", PW,
                              "--mass", "1e308"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


_numeral = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}e{}".format, st.integers(0, 9), st.integers(-400, 400)),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 3)))
_atom = st.one_of(
    _numeral,
    st.sampled_from(["e", "e0", "e13", "e0123", "l2", "e31", "e4", "(1+2i)", "(-i)"]),
    st.builds("({}{}i)".format, _numeral, st.sampled_from(["+", "-"])))
_expression = st.lists(
    st.one_of(_atom, st.sampled_from(["+", "-", "*", "^", "(", ")", "star(", "rev(", " "]),
              st.text(max_size=3)), max_size=12).map("".join)
_field_expression = st.lists(
    st.tuples(st.sampled_from(["", "+", "-"]), _atom,
              st.one_of(st.just(""), st.lists(_numeral, min_size=4, max_size=4)
                        .map(lambda p: f" exp(i[{','.join(p)}])"))).map("".join),
    max_size=3).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(_expression, st.sampled_from(["exact", "float"]))
def test_eval_fuzz(expression, backend):
    _run_main(["eval", f"--backend={backend}", "--", expression])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["ideal", "hde", "tde", "ilk", "ilk-even", "ilk-e5"]),
       st.one_of(_field_expression, st.text(max_size=20)))
def test_residual_state_expression_fuzz(form, state):
    _run_main(["residual", f"--form={form}", f"--state={state}"])
