"""Run one stada benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload residual_stream --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs a fixed number of requests twice, untraced and then
traced, and reports the per-layer metrics; the spans are written to
``.bench_out/``.  Every output is checked against a known answer.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, with sample counts and a machine stamp.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify_all", "residual_stream", "lattice_n8", "lattice_n16")

END_TO_END = {
    "request_p50_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COUNT, SECONDS = "count", "s"
PER_LAYER = {
    "scalars.qqi_new": COUNT,
    "multivector.product_exact.calls": COUNT,
    "multivector.product_exact.self_s": SECONDS,
    "multivector.product_float.calls": COUNT,
    "multivector.product_float.self_s": SECONDS,
    "multivector.wedge.self_s": SECONDS,
    "multivector.inverse.self_s": SECONDS,
    "ideal.gamma_of.calls": COUNT,
    "ideal.gamma_of.self_s": SECONDS,
    "ideal.idempotent_of.self_s": SECONDS,
    "ideal.representation_change.self_s": SECONDS,
    "fields.d.self_s": SECONDS,
    "fields.delta.self_s": SECONDS,
    "fields.upsilon.self_s": SECONDS,
    "fields.upsilon_gradient.self_s": SECONDS,
    "fields.laplace.self_s": SECONDS,
    "fields.clifford.self_s": SECONDS,
    "fields.eval.calls": COUNT,
    "fields.eval.self_s": SECONDS,
    "grid.apply.calls": COUNT,
    "grid.apply.self_s": SECONDS,
    "grid.apply.site_updates": COUNT,
    "grid.compose.self_s": SECONDS,
    "grid.sample.self_s": SECONDS,
    "grid.pointwise.self_s": SECONDS,
    "equations.residual.calls": COUNT,
    "equations.residual.self_s": SECONDS,
    "equations.plane_wave.self_s": SECONDS,
    "equations.translate.self_s": SECONDS,
    "equations.gauge.self_s": SECONDS,
    "equations.current.self_s": SECONDS,
    "equations.hermitian_norm.calls": COUNT,
    "equations.hermitian_norm.self_s": SECONDS,
    "spin.lorentz_of.self_s": SECONDS,
    "spin.recover.self_s": SECONDS,
    "spin.sandwich.calls": COUNT,
    "generators.transport.self_s": SECONDS,
    "generators.basis16.self_s": SECONDS,
    "linalg.solve.self_s": SECONDS,
    "linalg.mat_mul.self_s": SECONDS,
    "exterior.hodge_star.self_s": SECONDS,
    "exterior.oracle_product.self_s": SECONDS,
    "suites.algebra_s": SECONDS,
    "suites.hodge_s": SECONDS,
    "suites.spin_s": SECONDS,
    "suites.representation_s": SECONDS,
    "suites.fields_s": SECONDS,
    "suites.equations_s": SECONDS,
    "suites.checks": COUNT,
    "cli.startup_s": SECONDS,
    "trace.overhead_ratio": "ratio",
}

SUITE_NAMES = ("algebra", "hodge", "spin", "representation", "fields", "equations")
# kept in Tracer.counts rather than derived from spans
TRACER_COUNTS = ("scalars.qqi_new", "grid.apply.site_updates")
# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("scalars.qqi_new", "multivector.product_exact.calls",
                "multivector.product_float.calls", "ideal.gamma_of.calls",
                "grid.apply.site_updates")

SETUP_REPEATS = 7
# calibrate.python_slice takes about this long on the reference machine (the
# 2-core Xeon of README.md); set-up time is reported at that speed
REFERENCE_SLICE_S = 0.004
CLI_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pinned_environment() -> dict:
    """Hash seed fixed, so traced counts repeat; BLAS/OpenMP threads capped at nproc."""
    threads = str(len(os.sched_getaffinity(0)))
    return {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))


def measure_setup() -> list[tuple[float, float]]:
    """(set-up seconds, calibration slice seconds) pairs from setup_probe.py."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SETUP_REPEATS)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return [tuple(pair) for pair in json.loads(proc.stdout)]


def measure_cli(out) -> list[float]:
    """Wall time of one `python -m stada eval "e0 * e1"`, run one at a time."""
    times = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "stada", "eval", "e0 * e1"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - start)
        out.expect(proc.returncode == 0 and proc.stdout.strip() == "e01",
                   f"cli eval gave {proc.returncode}: {proc.stdout.strip()!r}")
    return times


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_stamp(args, samples: int) -> dict:
    import numpy as np

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level"))
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(str(index / "size"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": {k: v for k, v in pinned_environment().items() if k.endswith("THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": samples,
    }


def tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def timed(workload, req, out, stada):
    """(seconds, result) of one request, or None if stada raised: a failed operation."""
    start = time.perf_counter()
    try:
        result = workload.run(req)
    except (stada.StadaError, ArithmeticError) as err:
        out.expect(False, f"request {req!r} raised {err!r}")
        return None
    return time.perf_counter() - start, result


def warm_up(workload, out, stada) -> None:
    for i in range(workload.warm_up_requests):
        req = workload.request(-1 - i)
        got = timed(workload, req, out, stada)
        if got is not None:
            workload.check(req, got[1], out)


def untraced(args, make, out, stada):
    from calibrate import Clock

    setup = measure_setup()
    workload = make(args.seed)
    warm_up(workload, out, stada)
    clock = Clock(workload.calibration())
    # a long request reports its phases as steps; a short one is one step
    workload.on_step = clock.step
    latencies, steps = [], []
    start = time.perf_counter()
    i = 0
    while i < workload.min_requests or time.perf_counter() - start < args.seconds:
        first, spent = len(clock.values), clock.spent
        req = workload.request(i)
        i += 1
        got = timed(workload, req, out, stada)
        if got is None:
            continue
        workload.check(req, got[1], out)
        elapsed = got[0] - (clock.spent - spent)
        if len(clock.values) == first:
            clock.step(elapsed)
        latencies.append(elapsed)
        steps.append(range(first, len(clock.values)))
    clock.flush()
    wall = time.perf_counter() - start
    workload.finish(out)
    lines = [f"setup runs {len(setup)} (s, slice s): "
             + " ".join(f"{t:.4f}/{u * 1e3:.3f}ms" for t, u in setup),
             f"requests {len(latencies)} in {wall:.3f} s, {clock.spent:.3f} s of it "
             f"in {len(clock.slices)} calibration slices of median "
             f"{statistics.median(clock.slices) * 1e3:.4f} ms"]
    if not latencies:
        return {}, lines, 0
    calibrated = [sum(clock.values[j] for j in r) for r in steps]
    lines.append(f"request_p50_ms {statistics.median(latencies) * 1e3:.4f} ms "
                 f"(uncalibrated, of {len(latencies)})")
    lines.append(f"throughput_rps {len(latencies) / (wall - clock.spent):.4f} 1/s "
                 f"(uncalibrated, calibration time excluded)")
    t = tail(latencies)
    if t is None:
        lines.append(f"request_tail_ms: {len(latencies)} samples leave none with ten beyond it")
    else:
        lines.append(f"request_tail_ms {t[1] * 1e3:.4f} ms (p{t[0]:.1f} of {len(latencies)}, "
                     "uncalibrated)")
    for name, times in getattr(workload, "suite_s", {}).items():
        lines.append(f"verify.{name}_s {statistics.median(times):.4f} s (median of {len(times)})")
    metrics = {
        "request_p50_cal": statistics.median(calibrated),
        "setup_s": statistics.median(t * REFERENCE_SLICE_S / u for t, u in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, lines, len(latencies)


def traced(args, make, out, stada):
    """The same fixed requests untraced, then traced; returns per-layer metrics."""
    from tracing import Tracer

    workload = make(args.seed)
    warm_up(workload, out, stada)
    reqs = [workload.request(i) for i in range(workload.traced_requests)]
    plain = 0.0
    for req in reqs:
        got = timed(workload, req, out, stada)
        if got is not None:
            plain += got[0]
            workload.check(req, got[1], out)
    suite_s = {name: times[0] for name, times in getattr(workload, "suite_s", {}).items()}

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    with_trace = 0.0
    for i, req in enumerate(reqs, start=1):
        tracer.request = i
        tracer.enabled = True
        with tracer.span("request"):
            got = timed(workload, req, out, stada)
        tracer.enabled = False
        if got is not None:
            with_trace += got[0]
            workload.check(req, got[1], out)
    workload.finish(out)
    cli = measure_cli(out)
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    metrics = {}
    absent = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in TRACER_COUNTS:
            metrics[name] = tracer.counts[name]
        elif field == "calls":
            metrics[name] = tracer.calls[span]
        elif field == "self_s":
            metrics[name] = tracer.self_s[span]
        # tracing.TARGETS has one target for both product backends
        target = span.removesuffix("_exact").removesuffix("_float")
        for key in (name, span, target):
            if key in tracer.absent:
                absent[name] = tracer.absent[key]
    for name in SUITE_NAMES:
        metrics[f"suites.{name}_s"] = suite_s.get(name, 0.0)
    metrics["suites.checks"] = getattr(workload, "checks", 0)
    metrics["cli.startup_s"] = statistics.median(cli)
    metrics["trace.overhead_ratio"] = with_trace / plain if plain else 0.0
    lines = [f"traced requests {len(reqs)}: untraced {plain:.4f} s, traced {with_trace:.4f} s",
             f"spans kept {len(tracer.spans)}",
             f"cli runs {len(cli)}: " + " ".join(f"{t:.4f}" for t in cli)]
    return metrics, absent, lines, len(reqs)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pinned_environment()
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        os.environ.update(pinned)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])
    if not (SRC / "stada" / "__init__.py").is_file():
        print(f"bench: no stada sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import stada

    if not Path(stada.__file__).resolve().is_relative_to(SRC):
        print(f"bench: stada was imported from {stada.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    out = Outcome()
    make = WORKLOADS[args.workload]
    if args.trace:
        values, absent, lines, samples = traced(args, make, out, stada)
        units = PER_LAYER
    else:
        values, lines, samples = untraced(args, make, out, stada)
        absent, units = {}, END_TO_END
    print("stamp " + json.dumps(machine_stamp(args, samples), sort_keys=True))
    for line in lines:
        print(line)
    ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ({out.failed} failed of {out.attempted} checks)")
    for note in out.notes:
        print(f"failure: {note}")
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            continue
        entry = {"value": values[name], "unit": unit}
        if name in absent:
            entry["absent"] = absent[name]
            print(f"{name} absent: {absent[name]}")
        else:
            print(f"{name} {values[name]} {unit}")
        metrics[name] = entry
    correct = out.failed == 0 and out.attempted > 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
