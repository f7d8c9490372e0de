"""The verification batteries as a library API."""

import json
from pathlib import Path

import pytest

from stada import suites


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


@pytest.mark.parametrize("name", ["algebra", "representation"])
def test_seeded_report_matches_golden_file(name):
    # recorded before the exact product kernel landed; these two suites hold
    # exact counts and one IEEE +/* value, so the bytes do not depend on libm
    golden = Path(__file__).parent / "data" / f"{name}_seed1.json"
    report = suites.run_suite(name, seed=1)
    blob = json.dumps(report.to_json_dict(with_environment=False), sort_keys=True, indent=1)
    assert blob + "\n" == golden.read_text(encoding="utf-8")
