"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py [workload ...]

For each workload (all by default) it checks that

- an untraced run is correct and prints every end-to-end metric, nonzero;
- two traced runs with one seed are correct, print every per-layer metric,
  and repeat the exact counts (QQi constructions, product calls per backend,
  gamma_of calls, stencil site updates) to the last digit;

and, once, that BENCHMARK.json names the metrics run.py prints and that a
directory holding only BENCHMARK.json and bench/ makes the run exit nonzero
without a result.  It takes a few minutes, most of it in verify_all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> dict:
    code, stdout = run(workload, trace)
    assert code == 0, f"{workload} trace={trace} exited {code}"
    got = json.loads(stdout.strip().splitlines()[-1])
    assert set(got) == {"correct", "attempted", "failed", "metrics"}, got.keys()
    assert got["correct"] and got["failed"] == 0, f"{workload} trace={trace}: {stdout}"
    want = PER_LAYER if trace else END_TO_END
    assert set(got["metrics"]) == set(want), set(want) ^ set(got["metrics"])
    for name, entry in got["metrics"].items():
        assert entry["unit"] == want[name], (name, entry)
        assert "absent" not in entry, (name, entry)
    return got["metrics"]


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER


def check_bare_directory() -> None:
    """Without src/ the run must fail fast and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, stdout = run(WORKLOAD_NAMES[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not stdout.strip(), (code, stdout)


def main(argv: list[str]) -> int:
    check_manifest()
    check_bare_directory()
    for workload in argv or WORKLOAD_NAMES:
        e2e = result(workload, 0)
        assert all(entry["value"] > 0 for entry in e2e.values()), e2e
        first = result(workload, 1)
        second = result(workload, 1)
        for name in EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (
                workload, name, first[name]["value"], second[name]["value"])
        counts = {name: first[name]["value"] for name in EXACT_COUNTS}
        print(f"{workload}: ok, counts repeat {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
