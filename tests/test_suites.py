"""The verification batteries as a library API."""

import ast
import contextlib
import json
import math
import random
from pathlib import Path

import pytest

from stada import spin, suites
from stada.errors import InvalidSpinError
from stada.multivector import (
    EVEN_MASKS,
    MASKS_OF_GRADE,
    Multivector,
    _draws,
    numerators,
    random_multivector,
)
from stada.scalars import EXACT, FLOAT, QQi


def test_every_suite_passes_quickly():
    for name in ("algebra", "hodge", "spin", "representation", "fields",
                 "equations"):
        report = suites.run_suite(name, seed=2, iterations=10)
        assert report.passed(), report.summary()


def test_equations_suite_float_backend():
    report = suites.run_suite("equations", seed=2, backend="float", iterations=10)
    assert report.passed(), report.summary()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites.run_suite("nonsense")


@pytest.mark.parametrize("iterations", [0, -2, True])
def test_a_case_count_that_is_not_a_positive_int_is_refused(iterations):
    # -2 ran "0 triples" and passed; 0 recorded 0 and ran the default count
    with pytest.raises(ValueError, match="iterations"):
        suites.run_suite("algebra", 1, iterations=iterations)


def test_report_serialization_is_deterministic():
    blobs = []
    for _ in range(2):
        report = suites.run_suite("hodge", seed=5)
        data = report.to_json_dict(with_environment=False)
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_summary_counts():
    report = suites.run_suite("hodge", seed=0)
    s = report.summary()
    assert s["total"] == len(report.checks)
    assert s["passed"] + s["failed"] == s["total"]
    assert s["status"] == "pass"
    for check in report.checks:
        assert check.measured <= check.bound


def test_oracle_blade_product_basics():
    # the independent oracle itself obeys the generator rules
    assert suites.oracle_blade_product(0b0001, 0b0001) == (1, 0)
    assert suites.oracle_blade_product(0b0010, 0b0010) == (-1, 0)
    assert suites.oracle_blade_product(0b0001, 0b0010) == (1, 0b0011)
    assert suites.oracle_blade_product(0b0010, 0b0001) == (-1, 0b0011)
    assert suites.oracle_blade_product(0b1111, 0b1111) == (-1, 0)


@pytest.mark.parametrize("name", ["algebra", "hodge", "representation"])
def test_seeded_report_matches_golden_file(name):
    # algebra and representation were recorded before the exact product
    # kernel landed, hodge before the one check runner; these suites hold
    # exact counts and at most one IEEE +/* value, so the bytes do not
    # depend on libm
    golden = Path(__file__).parent / "data" / f"{name}_seed1.json"
    report = suites.run_suite(name, seed=1)
    blob = json.dumps(report.to_json_dict(with_environment=False), sort_keys=True, indent=1)
    assert blob + "\n" == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("span", [1, 2, 3, 9, 64])
@pytest.mark.parametrize("count", [0, 1, 32])
def test_draws_reproduce_randint(span, count):
    # the seeded suites draw their exact cases through this loop: the same
    # values as randint, in order, and the generator left where randint leaves
    # it, so every later draw of a check is unchanged too
    for seed in ("1:algebra.associativity", 7):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, span, count) == [theirs.randint(-span, span)
                                             for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("span, masks, den", [(2, range(16), 1), (1, MASKS_OF_GRADE[2], 1),
                                              (64, range(16), 64)])
def test_random_multivectors_draw_as_randint_did(span, masks, den):
    ours, theirs = random.Random(11), random.Random(11)
    got = random_multivector(ours, span=span, masks=masks, den=den)
    want = Multivector.from_terms(
        [(m, QQi(theirs.randint(-span, span), theirs.randint(-span, span), den))
         for m in masks], EXACT)
    assert got == want
    real = random_multivector(ours, span=span, masks=EVEN_MASKS, real=True)
    assert real == Multivector.from_terms(
        [(m, QQi(theirs.randint(-span, span))) for m in EVEN_MASKS], EXACT)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("masks, real, den", [
    ((3, 3, 5, 0, 3), False, 1),    # a repeated blade adds, as from_terms adds
    ((3, 3, 5, 0, 3), True, 1),
    ((6, 9, 6), False, 12),         # sums over a denominator that then reduces
    (EVEN_MASKS, True, 4),
    ((), False, 1),
])
def test_random_multivector_equals_the_qqi_route(masks, real, den):
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = random_multivector(ours, span=2, masks=masks, den=den, real=real)
        want = Multivector.from_terms(
            [(m, QQi(theirs.randint(-2, 2), 0 if real else theirs.randint(-2, 2), den))
             for m in masks], EXACT)
        assert numerators(got) == numerators(want)
        assert got.coeffs == want.coeffs
        assert ours.getstate() == theirs.getstate()


def _spin_verdicts(monkeypatch) -> dict:
    """The verdicts of the spin suite at seed 1, up to its first error."""
    made = []
    real = suites.CheckResult
    monkeypatch.setattr(suites, "CheckResult",
                        lambda **fields: made.append(real(**fields)) or made[-1])
    with contextlib.suppress(InvalidSpinError):
        suites.run_suite("spin", seed=1, iterations=3)
    return {c.id: c for c in made}


def test_a_nan_time_component_is_not_orthochronous(monkeypatch):
    # min(1.0, nan) is 1.0, so a running minimum lets a NaN p00 through
    lorentz_of = spin.lorentz_of

    def nan_p00(s, *args, **kwargs):
        rows = lorentz_of(s, *args, **kwargs).rows
        return spin.LorentzMatrix(((math.nan, *rows[0][1:]), *rows[1:]))

    monkeypatch.setattr(spin, "lorentz_of", nan_p00)
    verdict = _spin_verdicts(monkeypatch)["spin.lorentz_orthochronous"]
    assert (verdict.status, verdict.measured, verdict.detail) == ("fail", 3.0, "min p00 = nan")


def test_orthochronous_detail_is_the_true_minimum():
    # p00 is cosh of the rapidity, above 1 for every random boost; a minimum
    # that starts from 1.0 would always read 1.0
    rng = suites._rng(1, "spin.lorentz")
    p00 = [float(spin.lorentz_of(spin.random_spin(rng)).rows[0][0]) for _ in range(100)]
    (verdict,) = [c for c in suites.run_suite("spin", seed=1).checks
                  if c.id == "spin.lorentz_orthochronous"]
    assert verdict.detail == f"min p00 = {min(p00)}"
    assert min(p00) > 1.0


def test_a_nan_product_is_not_in_the_group(monkeypatch):
    # nan > 1e-10 is False, so "violation if above the tolerance" lets NaN
    # through; a case is ok only when its deviation is <= the tolerance.
    # The later spin.homomorphism refuses the NaN element, so the verdict is
    # read from the results made before it.
    nan = Multivector.from_terms([(0, complex(math.nan))], FLOAT)
    monkeypatch.setattr(spin.SpinElement, "__mul__", lambda a, b: spin.SpinElement(nan, nan))
    assert _spin_verdicts(monkeypatch)["spin.group_closure"].status == "fail"


def test_one_runner_makes_every_verdict():
    # check bodies only yield their cases: _run_check alone builds a
    # CheckResult or compares with a bound, and no body keeps a tally
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def uses(tree, *names):
        return any(getattr(node, "id", None) in names or getattr(node, "attr", None) in names
                   for node in ast.walk(tree))

    builders = {name for name, fn in funcs.items() for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"}
    assert builders == {"_run_check"}
    judges = {name for name, fn in funcs.items() for node in ast.walk(fn)
              if isinstance(node, ast.Compare) and uses(node, "measured", "bound")}
    assert judges == {"_run_check"}
    tallies = [ast.unparse(node) for fn in funcs.values() for node in ast.walk(fn)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
               and ("bad" in node.id or "worst" in node.id)]
    assert tallies == []
    assert not any(isinstance(node, ast.BoolOp) and uses(node, "iterations")
                   for fn in funcs.values() if fn.name != "_run_check"
                   for node in ast.walk(fn))

    ids = []
    for name in suites.SUITE_NAMES[:-1]:
        for node in ast.walk(funcs[f"_suite_{name}"]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_check":
                check_id = node.args[1].value
                assert check_id.startswith(name + "."), check_id
                ids.append(check_id)
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)
