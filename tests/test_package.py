"""The lazy `stada` package: every public name, what an import loads, and
what a command loads."""

import argparse
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stada
from stada import cli, equations, names, suites

# every public name of the package, by the module it was imported from when
# the package imported all of them eagerly
PUBLIC = {
    "errors": ["BackendMismatchError", "ConsistencyError", "ConvergenceError", "DomainError",
               "InvalidGeneratorError", "InvalidSpinError", "ParseError", "StadaError"],
    "scalars": ["DEFAULT_TOLERANCE", "EXACT", "FLOAT", "QQi"],
    "multivector": ["Multivector", "basis_vector", "clifford_product", "exterior_product",
                    "format_multivector", "hermitian_conjugate", "inverse", "l5",
                    "multivector_from_json", "multivector_to_json"],
    "exterior": ["ExteriorForm", "METRIC_G", "clifford_product_via_table", "com_bracket",
                 "hodge_star", "missing_case_audit"],
    "spin": ["LorentzMatrix", "SpinElement", "lorentz_of", "random_rational_spin",
             "random_spin", "recover_spin", "recover_spin_candidates", "recover_spin_pair",
             "sandwich", "sandwich_inverse", "spin_from_bivector"],
    "generators": ["SecondaryGenerators", "basis16_of", "canonical_generators",
                   "make_secondary", "secondary_violations", "transported_generators"],
    "ideal": ["Bispinor", "IdealBasis", "bispinor_from_ideal", "bispinor_to_json",
              "canonical_basis", "even_from_ideal", "gamma_of", "ideal_from_bispinor",
              "ideal_from_even", "idempotent_of", "matrix_to_json", "representation_change",
              "scalar_product"],
    "fields": ["AnalyticField", "Poly", "d", "delta", "laplace", "real_polynomial",
               "upsilon", "upsilon_gradient"],
    "grid": ["AliasingWarning", "GridField", "Stencil", "sample"],
    "equations": ["BispinorField", "CovarianceReport", "CurrentResult", "EquationForm",
                  "FieldConfig", "PlaneWaveSolution", "ResidualReport", "boosted_momentum",
                  "covariance_check", "current", "gauge_transform", "lagrangian",
                  "maxwell_residual", "plane_wave", "residual_dirac", "residual_hestenes",
                  "residual_ideal", "residual_ilk", "residual_ilk_e5", "residual_ilk_even",
                  "residual_tensor", "translate"],
    "expr": ["eval_expr"],
    "suites": ["RunReport", "SUITE_NAMES", "run_suite"],
}
SUBMODULES = sorted(set(PUBLIC) | {"cli", "kernel", "linalg", "names"})


def run_fresh(code: str):
    """The JSON a fresh interpreter prints after running `code`."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_public_name_is_the_object_of_its_module():
    wrong = [name for module, listed in PUBLIC.items() for name in listed
             if getattr(stada, name)
             is not getattr(importlib.import_module(f"stada.{module}"), name)]
    assert wrong == []


def test_all_lists_every_public_name_and_dir_every_submodule():
    public = {name for listed in PUBLIC.values() for name in listed}
    assert sorted(stada.__all__) == stada.__all__ and set(stada.__all__) == public
    assert public | set(SUBMODULES) <= set(dir(stada))
    assert "__main__" not in dir(stada)


def test_star_import_binds_all():
    namespace = {}
    exec("from stada import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == stada.__all__
    assert all(value is getattr(stada, name) for name, value in namespace.items())


def test_an_unknown_name_is_a_one_line_attribute_error():
    with pytest.raises(AttributeError) as exc:
        stada.no_such_name  # noqa: B018
    assert str(exc.value) == "module 'stada' has no attribute 'no_such_name'"
    assert not hasattr(stada, "__wrapped__")


def test_version_is_unchanged():
    assert stada.__version__ == "0.1.0"


def test_the_parser_names_are_the_engine_objects():
    assert equations.EquationForm is names.EquationForm is stada.EquationForm
    assert suites.SUITE_NAMES is names.SUITE_NAMES is stada.SUITE_NAMES
    # "all" runs every battery, in the order the parser lists them
    assert tuple(suites._SUITES) + ("all",) == names.SUITE_NAMES
    # one list of reduction kinds: the keys of the reduction table, and the
    # choices of `residual --reduce`
    assert tuple(equations._REDUCTIONS) == names.REDUCTION_KINDS
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    reduce_option = next(action for action in commands.choices["residual"]._actions
                         if action.dest == "reduce")
    assert reduce_option.choices is names.REDUCTION_KINDS


def test_each_submodule_resolves_before_anything_imports_it():
    loaded = run_fresh(f"""
        import json, sys
        seen = {{}}
        for name in {SUBMODULES!r}:
            for key in [k for k in sys.modules if k == "stada" or k.startswith("stada.")]:
                del sys.modules[key]
            import stada
            before = "stada." + name in sys.modules
            module = getattr(stada, name)
            seen[name] = [before, module is sys.modules["stada." + name], module.__name__]
        print(json.dumps(seen))
    """)
    assert loaded == {name: [False, True, f"stada.{name}"] for name in SUBMODULES}


def test_the_basis_probe_loads_only_the_algebra():
    loaded = run_fresh("""
        import json, sys
        import stada
        stada.canonical_basis()
        stada.canonical_basis("float")
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "stada")))
    """)
    assert loaded == ["stada", "stada.errors", "stada.generators", "stada.ideal",
                      "stada.kernel", "stada.multivector", "stada.scalars"]


def test_eval_loads_no_numpy_and_no_engine_beyond_the_algebra():
    got = run_fresh("""
        import contextlib, io, json, sys
        from stada.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["eval", "e0 * e1"])
        heavy = ["numpy", "stada.suites", "stada.equations", "stada.grid", "stada.fields"]
        print(json.dumps([code, out.getvalue(), [m for m in heavy if m in sys.modules]]))
    """)
    assert got == [0, "e01\n", []]


_NUMPY = "keeps numpy off the algebra and eval paths"
_CYCLE = "breaks an import cycle"
_COMMAND = "a per-command import in cli"
_FIELDS = "keeps the field engine off the eval path"

# every import inside a function of src/stada, as (module, function, what it
# imports), and why it is not at the top of its module
LATE_IMPORTS = {
    ("cli", "_cmd_verify", ".suites"): _COMMAND,
    ("cli", "_residual_basis", ".ideal"): _COMMAND,
    ("cli", "_residual_basis", "random"): _COMMAND,
    ("cli", "_residual_basis", ".generators"): _COMMAND,
    ("cli", "_cmd_residual", ".equations"): _COMMAND,
    ("cli", "_cmd_residual", ".fields"): _FIELDS,
    ("cli", "_load_state", ".equations"): _COMMAND,
    ("cli", "_load_state", ".fields"): _FIELDS,
    ("cli", "_load_state", ".grid"): _COMMAND,
    ("cli", "_reduction_report", "random"): _COMMAND,
    ("cli", "_reduction_report", ".equations"): _COMMAND,
    ("cli", "_reduction_report", ".fields"): _FIELDS,
    ("expr", "field", ".fields"): _FIELDS,
    ("generators", "basis16_of", ".linalg"): _NUMPY,
    ("generators", "transported_generators", ".spin"): _CYCLE + ": spin imports generators",
    ("generators", "random_generators", ".spin"): _CYCLE + ": spin imports generators",
    ("ideal", "representation_change", ".spin"): _NUMPY + ": spin imports linalg",
    ("ideal", "even_ideal_map_rank", ".linalg"): _NUMPY,
    ("kernel", "gather_tables", "numpy"): _NUMPY,
    ("kernel", "_int64_sums", "numpy"): _NUMPY,
    ("multivector", "inverse", ".linalg"): _NUMPY,
}


def _function_imports(path: Path) -> set:
    """(module, innermost function, imported module) for each import inside a
    function; `from . import x` counts as importing `.x`."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if function and isinstance(child, ast.Import):
                found.update((path.stem, function, a.name) for a in child.names)
            elif function and isinstance(child, ast.ImportFrom):
                prefix = "." * child.level
                found.update((path.stem, function, prefix + (child.module or a.name))
                             for a in child.names)
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_function_level_import_is_listed_with_a_reason():
    found = set()
    for path in sorted(Path(stada.__file__).parent.glob("*.py")):
        found |= _function_imports(path)
    assert found == set(LATE_IMPORTS)
    assert all(LATE_IMPORTS.values())


LOWER = ("scalars", "kernel", "multivector", "exterior", "generators", "spin", "linalg",
         "ideal", "names", "errors")
UPPER = {"fields", "grid", "equations", "suites", "expr", "cli"}


def _stada_imports(path: Path) -> set:
    """Every stada module a file imports, at module level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("stada."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("stada"):
                continue
            module = module.removeprefix("stada").lstrip(".")
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


def test_the_lower_layers_import_nothing_from_the_upper_ones():
    package = Path(stada.__file__).parent
    for name in LOWER:
        assert not _stada_imports(package / f"{name}.py") & UPPER, name


# parameters that no caller set to anything but their default, by module and
# name: each function now reads that constant itself, and none takes it back
REMOVED_PARAMETERS = {
    ("ideal", "tol"): ["scalar_product", "IdealBasis.contains", "bispinor_from_ideal",
                       "even_from_ideal"],
    ("multivector", "tol"): ["hermitian_conjugate", "Multivector.is_homogeneous",
                             "require_unit_square"],
    ("generators", "tol"): ["secondary_violations", "make_secondary", "basis16_of"],
    ("spin", "tol"): ["lorentz_of", "_normalize_to_spin"],
    ("equations", "seed"): ["current", "CurrentResult.divergence_max", "lagrangian",
                            "maxwell_residual", "covariance_check"],
    ("equations", "tolerance"): ["covariance_check"],
    ("suites", "backend"): ["_random_mv"],
}


@pytest.mark.parametrize("module, qualname, parameter",
                         [(module, qualname, parameter)
                          for (module, parameter), qualnames in REMOVED_PARAMETERS.items()
                          for qualname in qualnames])
def test_no_function_takes_a_parameter_that_no_caller_sets(module, qualname, parameter):
    target = importlib.import_module(f"stada.{module}")
    for name in qualname.split("."):
        target = getattr(target, name)
    assert parameter not in inspect.signature(target).parameters


def test_the_bispinor_has_no_uncalled_isclose():
    from stada.ideal import Bispinor

    assert not hasattr(Bispinor, "isclose")
