"""Outside-in tracing of the stada layers.

Every traced target is a public function or method of a ``stada.*`` module.
The tracer replaces it, by object identity, in every ``stada.*`` module
namespace and every class dict that holds it, so aliases made by
``from .grid import sample`` and the like are traced too.  Nothing under
``src/`` is edited.

A span is (id, parent, request, name, start, end).  Spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its span
durations minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path) of each target it covers
TARGETS = {
    "multivector.product": [("stada.multivector", "clifford_product")],
    "multivector.wedge": [("stada.multivector", "exterior_product")],
    "multivector.inverse": [("stada.multivector", "inverse")],
    "ideal.gamma_of": [("stada.ideal", "gamma_of")],
    "ideal.idempotent_of": [("stada.ideal", "idempotent_of")],
    "ideal.representation_change": [("stada.ideal", "representation_change")],
    "fields.d": [("stada.fields", "d")],
    "fields.delta": [("stada.fields", "delta")],
    "fields.upsilon": [("stada.fields", "upsilon")],
    "fields.upsilon_gradient": [("stada.fields", "upsilon_gradient")],
    "fields.laplace": [("stada.fields", "laplace")],
    "fields.clifford": [("stada.fields", "AnalyticField.clifford")],
    "fields.eval": [("stada.fields", "AnalyticField.eval")],
    "grid.apply": [("stada.grid", "Stencil.apply")],
    "grid.compose": [("stada.grid", "Stencil.compose")],
    "grid.sample": [("stada.grid", "sample")],
    "grid.pointwise": [("stada.grid", "GridField.pointwise_product")],
    "equations.residual": [("stada.equations", name) for name in (
        "residual_dirac", "residual_ideal", "residual_hestenes", "residual_tensor",
        "residual_ilk", "residual_ilk_even", "residual_ilk_e5")],
    "equations.plane_wave": [("stada.equations", "plane_wave")],
    "equations.translate": [("stada.equations", "translate")],
    "equations.gauge": [("stada.equations", "gauge_transform")],
    "equations.current": [("stada.equations", "current")],
    "equations.hermitian_norm": [("stada.equations", "hermitian_norm")],
    "spin.lorentz_of": [("stada.spin", "lorentz_of")],
    "spin.recover": [("stada.spin", name) for name in (
        "recover_spin", "recover_spin_candidates", "recover_spin_pair")],
    "spin.sandwich": [("stada.spin", "sandwich")],
    "generators.transport": [("stada.generators", "transported_generators")],
    "generators.basis16": [("stada.generators", "basis16_of")],
    "linalg.solve": [("stada.linalg", "solve")],
    "linalg.mat_mul": [("stada.linalg", "mat_mul")],
    "exterior.hodge_star": [("stada.exterior", "hodge_star")],
    "exterior.oracle_product": [("stada.exterior", "clifford_product_via_table")],
}

# counted, not timed: a span per construction would swamp the run
COUNTED = {"scalars.qqi_new": ("stada.scalars", "QQi.__init__")}


def _resolve(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    if obj is None:
        raise LookupError(f"module {module_name} is not imported")
    for part in path.split("."):
        if part not in vars(obj):
            raise LookupError(f"{module_name} has no {path}")
        obj = vars(obj)[part]
    return obj


def _rebind(original, replacement) -> None:
    """Replace `original` by identity in every stada namespace and class dict."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "stada" or mod_name.startswith("stada.")):
            continue
        for holder in [module] + [v for v in vars(module).values()
                                  if isinstance(v, type) and v.__module__.startswith("stada")]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)


class Tracer:
    """Spans, call counts and self times of the wrapped stada targets."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self.request = 0
        # off while the benchmark checks outputs, so checks add no counts
        self.enabled = True

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((span_id, parent, self.request, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _timed(self, name: str, fn):
        enter, leave, tracer = self._enter, self._exit, self
        if name == "multivector.product":
            def wrapper(a, b):
                if not tracer.enabled:
                    return fn(a, b)
                frame = enter("multivector.product_" + a.backend)
                try:
                    return fn(a, b)
                finally:
                    leave(frame)
        elif name == "grid.apply":
            counts = self.counts

            def wrapper(stencil, field):
                if not tracer.enabled:
                    return fn(stencil, field)
                counts["grid.apply.site_updates"] += len(stencil.entries) * field.n ** 4
                frame = enter(name)
                try:
                    return fn(stencil, field)
                finally:
                    leave(frame)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded as absent."""
        plan = [(name, self._timed, where) for name, where in TARGETS.items()]
        plan += [(name, self._counted, [where]) for name, where in COUNTED.items()]
        for name, make, where in plan:
            missing = []
            for module_name, path in where:
                try:
                    original = _resolve(module_name, path)
                except LookupError as err:
                    missing.append(str(err))
                    continue
                _rebind(original, make(name, original))
            if len(missing) == len(where):
                self.absent[name] = "; ".join(missing)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "request", "name", "start", "end"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
