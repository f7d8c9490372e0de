"""The benchmark's workloads: seeded request streams with known answers.

Each workload is a closed loop with one client: the next request is sent
only after the previous one has returned.  A workload builds its requests
from the benchmark seed, runs one request through the public stada API
(`run`), and checks the outputs against an answer known in advance
(`check`).  README.md says why each workload exists and which layers it is
meant to move.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

import numpy as np

import stada
from calibrate import NumpySlice, float_slice, python_slice
from stada import EquationForm, FieldConfig

FLOAT = "float"
SUITES = ("algebra", "hodge", "spin", "representation", "fields", "equations")
# the north-star command is `stada verify --suite all --seed 1`
VERIFY_SEED = 1


class Outcome:
    """Known-answer bookkeeping: every check attempted, every one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def finite(x) -> bool:
    return math.isfinite(float(x))


class Workload:
    warm_up_requests = 1
    min_requests = 1
    # set by the untraced run: called with the duration of each phase of a
    # long request, so that calibration can follow each phase
    on_step = None

    def _lap(self, since: float) -> float:
        if self.on_step is not None:
            self.on_step(time.perf_counter() - since)
        return time.perf_counter()

    def finish(self, out: Outcome) -> None:
        pass


class VerifyAll(Workload):
    """One request is one pass of the six suites on the exact backend with
    default iterations, the work of `stada verify --suite all --seed 1`."""

    traced_requests = 1
    # a verify pass pays lazy set-up once per process, as the CLI does
    warm_up_requests = 0
    # the median of at least two passes, even on a slow machine
    min_requests = 2
    # set by the traced run, which wraps each suite in a span of its own
    tracer = None

    def __init__(self, seed: int):
        self.digests: dict[str, str] = {}
        self.suite_s: dict[str, list[float]] = {name: [] for name in SUITES}
        # checks in the latest pass
        self.checks = 0

    def request(self, i: int):
        return i

    def run(self, req):
        reports = {}
        for name in SUITES:
            start = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.span("suites." + name):
                    reports[name] = stada.run_suite(name, VERIFY_SEED)
            else:
                reports[name] = stada.run_suite(name, VERIFY_SEED)
            self.suite_s[name].append(time.perf_counter() - start)
            self._lap(start)
        return reports

    def calibration(self):
        return python_slice

    def check(self, req, reports, out: Outcome) -> None:
        self.checks = 0
        for name, report in reports.items():
            for c in report.checks:
                out.expect(c.status == "pass" and finite(c.measured),
                           f"{name}: check {c.id} gave {c.status} with {c.measured}")
                self.checks += 1
            blob = json.dumps(report.to_json_dict(with_environment=False), sort_keys=True)
            digest = hashlib.sha256(blob.encode()).hexdigest()
            first = self.digests.setdefault(name, digest)
            out.expect(digest == first, f"{name}: seeded report differs between passes")


class ResidualStream(Workload):
    """One request is a round of 21 residuals of plane-wave states on the
    float analytic backend, one for each pair of the seven forms and three
    kinds: a free solution, a gauge-transported one, and one with a
    mismatched mass.  The first two must pass and the third must fail.

    A round is the unit because single residuals differ in cost by form and
    kind, and the median of that mixture jumps between modes; a round costs
    the same work in every seed.  Momentum, mass and gauge come from the seed."""

    traced_requests = 20
    KINDS = ("free", "gauge", "mismatch")

    def __init__(self, seed: int):
        self.rng = random.Random(f"residual_stream:{seed}")
        self.basis = stada.canonical_basis(FLOAT)

    def request(self, i: int):
        return [self._residual(form, kind) for kind in self.KINDS for form in EquationForm]

    def _residual(self, form, kind):
        rng = self.rng
        m = rng.uniform(0.5, 2.0)
        direction = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        p = stada.boosted_momentum(m, rng.uniform(0.0, 1.0), direction)
        sign = rng.choice((1, -1))
        which = rng.randrange(2)
        lam = None
        mass = m
        if kind == "gauge":
            entries = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0, 0, 0, 0]
                for _ in range(rng.randint(1, 2)):
                    exps[rng.randrange(4)] += 1
                entries[tuple(exps)] = rng.uniform(-0.3, 0.3)
            lam = stada.real_polynomial(entries, FLOAT)
        elif kind == "mismatch":
            mass = m + rng.uniform(0.25, 1.0)
        return form, p, m, sign, which, kind, lam, mass

    def run(self, req):
        reports = []
        for form, p, m, sign, which, kind, lam, mass in req:
            state = stada.plane_wave(form, p, m, sign=sign, basis=self.basis,
                                     which=which).state
            pot = None
            if lam is not None:
                state, pot = stada.gauge_transform(state, None, lam, form, self.basis)
            reports.append(FieldConfig(form, state, pot, mass, self.basis).residual())
        return reports

    def calibration(self):
        return float_slice

    def check(self, req, reports, out: Outcome) -> None:
        for (form, *_, kind, lam, mass), report in zip(req, reports):
            want = "fail" if kind == "mismatch" else "pass"
            out.expect(finite(report.max_norm) and report.verdict == want,
                       f"{kind} {form.value}: verdict {report.verdict} "
                       f"at max_norm {report.max_norm}")


def symbol_norm(state, p, sign, h: float) -> float:
    """Exact max_norm of the grid residual of a one-phase free solution.

    The central difference turns -i*s*p_mu into -i*s*sin(p_mu h)/h, so for
    a state A exp(i phase) the residual is
    sum_mu e_mu (-i*s)(sin(p_mu h)/h - p_mu) A exp(i phase), whose norm is
    the same at every site."""
    amp = state.eval((0.0, 0.0, 0.0, 0.0))
    b = stada.Multivector.zero(FLOAT)
    for mu in range(4):
        c = -1j * sign * (math.sin(p[mu] * h) / h - p[mu])
        b = b + (stada.basis_vector(mu, FLOAT) * amp).scale(c)
    return stada.equations.hermitian_norm(b, stada.basis_vector(0, FLOAT))


class Lattice(Workload):
    """One request samples the tensor, ILK and e5 plane-wave states of one
    on-shell momentum onto the periodic n^4 grid of box 2*pi, evaluates their
    grid residuals, and applies the composed d∘d and the direct Laplacian
    stencils."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.h = 2.0 * math.pi / n
        self.rng = random.Random(f"lattice:{n}:{seed}")
        self.basis = stada.canonical_basis(FLOAT)
        self.traced_requests = 12 if n <= 8 else 2

    def request(self, i: int):
        rng = self.rng
        # integer momenta are periodic on the 2*pi box, so no aliasing
        while True:
            p0 = rng.choice((1, 2))
            k = [rng.choice((-1, 0, 1)) for _ in range(3)]
            if sum(x * x for x in k) <= p0 * p0:
                break
        p = (float(p0),) + tuple(float(x) for x in k)
        m = math.sqrt(p0 * p0 - sum(x * x for x in k))
        return p, m, rng.choice((1, -1)), rng.randrange(2)

    def run(self, req):
        from stada.grid import d_stencil, laplace_stencil

        p, m, sign, which = req
        n, h, b = self.n, self.h, self.basis
        t = time.perf_counter()
        states = {f: stada.plane_wave(f, p, m, sign=sign, basis=b, which=which).state
                  for f in (EquationForm.TENSOR, EquationForm.ILK, EquationForm.ILK_E5)}
        grids = {f: stada.sample(s, n, h) for f, s in states.items()}
        phi = grids[EquationForm.TENSOR]
        t = self._lap(t)
        reports = {EquationForm.TENSOR: stada.residual_tensor(phi, None, m, b.gens.h, b.gens.i2)}
        t = self._lap(t)
        reports[EquationForm.ILK] = stada.residual_ilk(grids[EquationForm.ILK], None, m)
        t = self._lap(t)
        reports[EquationForm.ILK_E5] = stada.residual_ilk_e5(grids[EquationForm.ILK_E5], None, m)
        t = self._lap(t)
        dd = d_stencil(h).compose(d_stencil(h)).apply(phi)
        direct = laplace_stencil(h, "direct")
        routes_agree = direct.isclose(laplace_stencil(h, "upsilon"), 1e-12)
        lap = direct.apply(phi)
        self._lap(t)
        return states, phi, reports, dd, routes_agree, lap

    def calibration(self):
        return NumpySlice(self.n)

    def check(self, req, result, out: Outcome) -> None:
        p, m, sign, which = req
        states, phi, reports, dd, routes_agree, lap = result
        tag = f"n={self.n} p={p} m={m:.3f}"
        for form, rep in reports.items():
            out.expect(finite(rep.max_norm), f"{tag}: {form.value} max_norm {rep.max_norm}")
        for form in (EquationForm.ILK, EquationForm.ILK_E5):
            want = symbol_norm(states[form], p, sign, self.h)
            got = reports[form].max_norm
            out.expect(abs(got - want) <= 1e-12 + 1e-9 * want,
                       f"{tag}: {form.value} grid residual {got} against symbol {want}")
        # the tensor residual times the idempotent is the ILK residual
        tensor_res = reports[EquationForm.TENSOR].residual
        ilk_res = reports[EquationForm.ILK].residual
        gap = float(np.abs(tensor_res.mul_const(self.basis.t, side="right").values
                           - ilk_res.values).max())
        out.expect(gap <= 1e-12 * max(1.0, tensor_res.max_abs()),
                   f"{tag}: tensor and ILK grid residuals disagree by {gap}")
        out.expect(dd.max_abs() == 0.0, f"{tag}: d∘d left {dd.max_abs()}")
        out.expect(routes_agree, f"{tag}: direct and Υ² Laplacian stencils differ")
        lam = -sum(g * (math.sin(pm * self.h) / self.h) ** 2
                   for g, pm in zip((1.0, -1.0, -1.0, -1.0), p))
        gap = float(np.abs(lap.values - lam * phi.values).max())
        out.expect(gap <= 1e-10 * max(1.0, abs(lam)),
                   f"{tag}: Laplacian misses the lattice symbol {lam} by {gap}")

    def finish(self, out: Outcome) -> None:
        """Halving h must divide the Υ residual by about four (second order).

        Checked on n = 8 with h = pi/2 and pi/4, where the ratio is 3.63;
        the per-request symbol checks already pin the residual at size n."""
        b = self.basis
        state = stada.plane_wave(EquationForm.ILK, (1.0, 0.0, 0.0, 0.0), 1.0, basis=b).state
        norms = [stada.residual_ilk(stada.sample(state, 8, h), None, 1.0).max_norm
                 for h in (math.pi / 2, math.pi / 4)]
        ratio = norms[0] / norms[1] if norms[1] else math.inf
        out.expect(abs(ratio - 4.0) <= 0.8, f"Υ residual ratio {ratio} when h halves")


WORKLOADS = {
    "verify_all": VerifyAll,
    "residual_stream": ResidualStream,
    "lattice_n8": lambda seed: Lattice(8, seed),
    "lattice_n16": lambda seed: Lattice(16, seed),
}
