"""Secondary generator quadruples (H, pseudoscalar, I, K) and their checks.

A valid triple (H, I, K) together with the fixed pseudoscalar generates
the whole algebra: H squares to the unit, I and K square to its negative,
H commutes with both, and I anticommutes with K.  Validation names every
violated relation instead of failing on the first, because generator sets
usually come from sandwich transport and a single bad input tends to
break several relations at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .errors import InvalidGeneratorError
from .multivector import (
    Multivector,
    anticommutator,
    basis_vector,
    clifford_product,
    commutator,
    l5,
)
from .scalars import EXACT


@dataclass(frozen=True)
class SecondaryGenerators:
    """Validated (H, I, K) triple; the pseudoscalar completes the quadruple."""

    h: Multivector
    i2: Multivector
    k2: Multivector

    @property
    def backend(self) -> str:
        return self.h.backend

    def pseudoscalar(self) -> Multivector:
        return l5(self.backend)


def secondary_violations(h: Multivector, i2: Multivector, k2: Multivector) -> list[str]:
    """All violated relations of the defining set, by name; empty when valid."""
    problems = []
    if not (h.backend == i2.backend == k2.backend):
        return ["mixed scalar backends"]
    unit = Multivector.unit(h.backend)
    if not h.is_real() or not i2.is_real() or not k2.is_real():
        problems.append("generators must be real")
    residues = (
        ("H must be homogeneous grade 1", h - h.grade_part(1)),
        ("I must be homogeneous grade 2", i2 - i2.grade_part(2)),
        ("K must be homogeneous grade 2", k2 - k2.grade_part(2)),
        ("H*H != unit", clifford_product(h, h) - unit),
        ("I*I != -unit", clifford_product(i2, i2) + unit),
        ("K*K != -unit", clifford_product(k2, k2) + unit),
        ("[H, I] != 0", commutator(h, i2)),
        ("[H, K] != 0", commutator(h, k2)),
        ("{I, K} != 0", anticommutator(i2, k2)),
    )
    return problems + [name for name, residue in residues if not residue.is_zero()]


def make_secondary(h: Multivector, i2: Multivector, k2: Multivector) -> SecondaryGenerators:
    """The validated triple, compared exactly or, for floats, at `DEFAULT_TOLERANCE`."""
    problems = secondary_violations(h, i2, k2)
    if problems:
        raise InvalidGeneratorError("; ".join(problems))
    return SecondaryGenerators(h, i2, k2)


def canonical_generators(backend: str = EXACT) -> SecondaryGenerators:
    """The standard triple: time axis vector, minus the 1-2 plane, minus the 1-3 plane."""
    return make_secondary(
        basis_vector(0, backend),
        -Multivector.basis(0b0110, backend),
        -Multivector.basis(0b1010, backend),
    )


def basis16_of(g: SecondaryGenerators) -> list[Multivector]:
    """The sixteen generator products that span the algebra, in the fixed order
    unit, H, I, K, HI, HK, IK, HIK, then the same eight multiplied by the
    pseudoscalar.  Verifies linear independence and the zero-trace property
    of every element except the unit."""
    from . import linalg

    h, i2, k2 = g.h, g.i2, g.k2
    ps = g.pseudoscalar()
    unit = Multivector.unit(g.backend)
    hi = h * i2
    hk = h * k2
    ik = i2 * k2
    hik = hi * k2
    first = [unit, h, i2, k2, hi, hk, ik, hik]
    elements = first + [ps * u for u in first]
    rank = linalg.rank([u.coeffs for u in elements])
    if rank != 16:
        raise InvalidGeneratorError(f"generator products span rank {rank}, not 16")
    for idx, u in enumerate(elements):
        tr = u.trace()
        want = scalars.one(g.backend) if idx == 0 else scalars.zero(g.backend)
        if not scalars.close(tr, want):
            raise InvalidGeneratorError(
                f"trace of generator product #{idx} is {tr}, violating the trace law")
    return elements


def transported_generators(s, g: SecondaryGenerators) -> SecondaryGenerators:
    """Carry a generator triple along a spin element via the sandwich action."""
    from .spin import sandwich

    return make_secondary(sandwich(s, g.h), sandwich(s, g.i2), sandwich(s, g.k2))


def random_generators(rng) -> SecondaryGenerators:
    """The canonical triple carried along a seeded random two-factor rational
    spin element: the `random:N` bases of the CLI and the suites."""
    from .spin import random_rational_spin

    return transported_generators(random_rational_spin(rng, factors=2),
                                  canonical_generators())
