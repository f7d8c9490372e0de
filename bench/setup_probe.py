"""Time stada's set-up in a fresh interpreter, several times over.

Run by run.py as `python3 bench/setup_probe.py REPEATS` with src/ and bench/
on PYTHONPATH.  numpy is imported first and untimed: it is not the
program's own work.  Each repeat drops every stada module, then times
`import stada` plus `canonical_basis()` and `canonical_basis("float")`, then
five calibration slices right after it on the same core.  Prints one JSON
list of [set-up seconds, median slice seconds] pairs.
"""

import json
import statistics
import sys
import time

import numpy  # noqa: F401  (imported untimed)

from calibrate import python_slice


def main() -> None:
    pairs = []
    for _ in range(int(sys.argv[1])):
        for name in [m for m in sys.modules if m == "stada" or m.startswith("stada.")]:
            del sys.modules[name]
        start = time.perf_counter()
        import stada

        stada.canonical_basis()
        stada.canonical_basis("float")
        setup = time.perf_counter() - start
        slices = []
        for _ in range(5):
            t = time.perf_counter()
            python_slice()
            slices.append(time.perf_counter() - t)
        pairs.append([setup, statistics.median(slices)])
    print(json.dumps(pairs))


if __name__ == "__main__":
    main()
