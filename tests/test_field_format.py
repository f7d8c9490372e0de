"""The term format of analytic fields against a reference that keeps every
coefficient as a `Poly` of `QQi` (exact) or of `complex` (float), summed
term by term, and guards that the exact operators build no `QQi` and the
float ones no `Poly`."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stada.errors import DomainError
from stada.exterior import STAR_TABLE
from stada.fields import (
    AnalyticField,
    Poly,
    d,
    delta,
    laplace,
    upsilon,
    upsilon_gradient,
)
from stada.multivector import (
    CLIFFORD,
    EVEN_MAP,
    GRADE_MAPS,
    ODD_MAP,
    REVERSION_MAP,
    WEDGE,
    Multivector,
    basis_vector,
)
from stada.scalars import EXACT, FLOAT, QQi


# ---- the reference: exact fields with Poly coefficients ---------------------


class PolyField:
    """A field as a dict phase key -> (phase, 16 Polys), of QQi on the exact
    backend and of complex on the float one, with the operations written
    term by term on those polynomials."""

    def __init__(self, terms=(), backend=EXACT):
        self.backend = backend
        merged = {}
        for phase, coeffs in terms:
            coeffs = list(coeffs)
            key = phase.key()
            if key in merged:
                merged[key] = (phase, [a + b for a, b in zip(merged[key][1], coeffs)])
            else:
                merged[key] = (phase, coeffs)
        self.terms = {key: (phase, tuple(coeffs))
                      for key, (phase, coeffs) in merged.items() if any(coeffs)}

    def _new(self, terms):
        return PolyField(terms, self.backend)

    def _scalar(self, value):
        if self.backend == FLOAT:
            return complex(value)
        return value if isinstance(value, QQi) else QQi.from_rational(value)

    def _i_times(self, c):
        """i times a real phase coefficient, as a coefficient."""
        if self.backend == FLOAT:
            return complex(0.0, c)
        return QQi.from_rational(0, Fraction(c))

    def entries(self):
        return [(p, list(c)) for p, c in self.terms.values()]

    def _map_blades(self, table, conjugate=False):
        out = []
        for phase, coeffs in self.terms.values():
            new = [Poly()] * 16
            for q, (sign, target) in zip(coeffs, table):
                if sign and q:
                    q = q.conjugate() if conjugate else q
                    new[target] = q if sign > 0 else -q
            out.append((-phase if conjugate else phase, new))
        return self._new(out)

    def apply_slot_matrix(self, rows):
        out = []
        for phase, coeffs in self.terms.values():
            new = [Poly() for _ in range(16)]
            for j, q in enumerate(coeffs):
                for i in range(16):
                    if q and rows[i][j]:
                        new[i] = new[i] + q.scale(rows[i][j])
            out.append((phase, new))
        return self._new(out)

    def __add__(self, other):
        return self._new(self.entries() + other.entries())

    def __neg__(self):
        return self._new([(p, [-q for q in c]) for p, c in self.terms.values()])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        s = self._scalar(value)
        return self._new([(p, [q.scale(s) for q in c]) for p, c in self.terms.values()])

    def conjugate(self):
        return self._new([(-p, [q.conjugate() for q in c]) for p, c in self.terms.values()])

    def partial(self, mu):
        out = []
        for phase, coeffs in self.terms.values():
            chain = Poly({e: self._i_times(c) for e, c in phase.diff(mu).terms.items()})
            out.append((phase, [q.diff(mu) + chain * q for q in coeffs]))
        return self._new(out)

    def multiply_phase(self, lam):
        return self._new([(p + lam, list(c)) for p, c in self.terms.values()])

    def compose_linear(self, matrix):
        real = float if self.backend == FLOAT else Fraction
        rmat = [[real(v) for v in row] for row in matrix]
        cmat = [[self._scalar(v) for v in row] for row in rmat]
        return self._new([(p.compose_linear(rmat), [q.compose_linear(cmat) for q in c])
                          for p, c in self.terms.values()])

    def product(self, other, kind):
        return self._new([(pa + pb, kind.generic(ca, cb, Poly()))
                          for pa, ca in self.terms.values() for pb, cb in other.terms.values()])

    def mul_const(self, mv, side, kind):
        const = self._new([(Poly(), [Poly.constant(c) for c in mv.coeffs])])
        return self.product(const, kind) if side == "right" else const.product(self, kind)

    def scalar_part_of_mul(self, mv):
        return self.mul_const(mv, "right", CLIFFORD)._map_blades(
            [(int(m == 0), 0) for m in range(16)])


def same(field, ref):
    """The field and the reference hold the same terms, and the field's form
    is in lowest terms."""
    got = {key: coeffs for key, (_, coeffs) in field.terms.items()}
    want = {key: coeffs for key, (_, coeffs) in ref.terms.items()}
    for den, entries in field._forms.values():
        assert den > 0 and entries
        assert all(r or s for r, s in entries.values())
        assert math.gcd(den, *(x for pair in entries.values() for x in pair)) == 1
    return got == want


def close(field, ref):
    """The float field and the reference hold the same phases, with each
    coefficient within 1e-12 * (1 + |want|), a missing one read as zero, and
    the field's form has denominator 1 and no zero entry."""
    for den, entries in field._forms.values():
        assert den == 1 and entries
        assert all(r or s for r, s in entries.values())
    got = {key: coeffs for key, (_, coeffs) in field.terms.items()}
    want = {key: coeffs for key, (_, coeffs) in ref.terms.items()}
    empty = (Poly(),) * 16
    for key in got.keys() | want.keys():
        for g, w in zip(got.get(key, empty), want.get(key, empty)):
            for e in g.terms.keys() | w.terms.keys():
                x, y = g.terms.get(e, 0), w.terms.get(e, 0)
                if not abs(x - y) <= 1e-12 * (1 + abs(y)):
                    return False
    return True


# ---- strategies -----------------------------------------------------------------


ints = st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30))
dens = st.sampled_from((1, 1, 2, 3, 4, 6, 7, 12, 10 ** 20 + 39))
coeff = st.one_of(st.builds(QQi, ints, st.just(0), dens), st.builds(QQi, ints, ints, dens))
exps = st.tuples(*[st.integers(0, 2)] * 4)
rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 5)))
# linear, non-linear and empty phases, few enough that terms share them
phase = st.one_of(
    st.sampled_from([Poly(), Poly({(1, 0, 0, 0): Fraction(1)}),
                     Poly({(0, 1, 1, 0): Fraction(-2)}),
                     Poly({(2, 0, 0, 0): Fraction(1, 3), (0, 0, 0, 1): Fraction(1)})]),
    st.dictionaries(exps, rational, max_size=3).map(Poly))


# Float parts are small numbers over 1, 2, 3 or 4, and float phases and
# substitution matrices are dyadic, so phase arithmetic is exact and the
# phase keys of field and reference match; a coefficient may be summed in
# another order, hence `close`.
fpart = st.builds(lambda k, d: k / d, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4)))
fcoeff = st.builds(complex, fpart, fpart)
# dyadic coefficients, whose substituted expansions round nowhere
fdyadic = st.builds(lambda a, b, d: complex(a / d, b / d), st.integers(-9, 9),
                    st.integers(-9, 9), st.sampled_from((1, 2, 4)))
freal = st.builds(lambda k, d: k / d, st.integers(-3, 3), st.sampled_from((1, 2, 4)))
fphase = st.one_of(
    st.sampled_from([Poly(), Poly({(1, 0, 0, 0): 1.0}), Poly({(0, 1, 1, 0): -2.0}),
                     Poly({(2, 0, 0, 0): 0.25, (0, 0, 0, 1): 1.0})]),
    st.dictionaries(exps, freal, max_size=3).map(Poly))


@st.composite
def term_entries(draw, coeffs=coeff, phases=phase):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        polys = [Poly() for _ in range(16)]
        for blade, e, c in draw(st.lists(st.tuples(st.integers(0, 15), exps, coeffs),
                                         max_size=6)):
            polys[blade] = polys[blade] + Poly({e: c})
        out.append((draw(phases), polys))
    return out


float_entries = term_entries(fcoeff, fphase)

mv_exact = st.lists(st.one_of(st.just(QQi(0)), coeff), min_size=16, max_size=16).map(
    lambda cs: Multivector(cs, EXACT))
mv_float = st.lists(st.one_of(st.just(0j), fcoeff), min_size=16, max_size=16).map(
    lambda cs: Multivector(cs, FLOAT))


def both(entries, backend=EXACT):
    return AnalyticField(backend, entries), PolyField(entries, backend)


# ---- differential tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(term_entries())
def test_construction_and_read_back_match_the_reference(entries):
    f, ref = both(entries)
    assert same(f, ref)
    rebuilt = AnalyticField(EXACT, f.terms.values())
    assert rebuilt == f
    assert rebuilt._forms == f._forms


BLADE_MAPS = [("star_involution", REVERSION_MAP, True), ("hodge_star", STAR_TABLE, False),
              ("even_part", EVEN_MAP, False), ("odd_part", ODD_MAP, False)]


@settings(max_examples=60, deadline=None)
@given(term_entries(), st.integers(0, 15), st.integers(0, 4))
def test_blade_maps_and_conjugation_match_the_reference(entries, mask, k):
    f, ref = both(entries)
    for name, table, conjugate in BLADE_MAPS:
        assert same(getattr(f, name)(), ref._map_blades(table, conjugate)), name
    assert same(f.component(mask), ref._map_blades(
        [(int(m == mask), 0) for m in range(16)]))
    assert same(f.grade_part(k), ref._map_blades(GRADE_MAPS[k]))
    assert same(f.conjugate(), ref.conjugate())


@settings(max_examples=60, deadline=None)
@given(term_entries(), term_entries(),
       st.one_of(coeff, rational, st.integers(-3, 3), st.just(QQi(0))))
def test_sums_and_scaling_match_the_reference(a, b, value):
    f, ref = both(a)
    g, gref = both(b)
    assert same(f + g, ref + gref)
    assert same(f - g, ref - gref)
    assert same(-f, -ref)
    assert same(f.scale(value), ref.scale(value))
    # cancellation to the empty field, by routes that meet only at the end
    for empty in (f - f, f + f.scale(-1), f.scale(value) - f.scale(value),
                  f.conjugate().conjugate() - f, (f + g) - g - f):
        assert empty.is_zero() and empty == AnalyticField.zero(EXACT)
        assert empty.terms == {}


@settings(max_examples=60, deadline=None)
@given(term_entries(), st.integers(0, 3), phase)
def test_calculus_matches_the_reference(entries, mu, lam):
    f, ref = both(entries)
    assert same(f.partial(mu), ref.partial(mu))
    assert same(f.partial(mu).partial(3 - mu), ref.partial(mu).partial(3 - mu))
    assert same(f.multiply_phase(lam), ref.multiply_phase(lam))
    assert same(f.multiply_phase(lam).multiply_phase(-lam), ref)


@settings(max_examples=40, deadline=None)
@given(term_entries(), st.lists(st.lists(rational, min_size=4, max_size=4),
                                min_size=4, max_size=4))
def test_compose_linear_matches_the_reference(entries, matrix):
    f, ref = both(entries)
    assert same(f.compose_linear(matrix), ref.compose_linear(matrix))


@settings(max_examples=60, deadline=None)
@given(term_entries(), term_entries())
def test_field_products_match_the_reference(a, b):
    f, ref = both(a)
    g, gref = both(b)
    assert same(f.clifford(g), ref.product(gref, CLIFFORD))
    assert same(f.wedge(g), ref.product(gref, WEDGE))
    # a product that cancels: the wedge of a vector field with itself
    v = f.grade_part(1)
    assert v.wedge(v).is_zero()


@settings(max_examples=60, deadline=None)
@given(term_entries(), mv_exact)
def test_constant_products_match_the_reference(entries, mv):
    f, ref = both(entries)
    for side in ("left", "right"):
        for kind in (CLIFFORD, WEDGE):
            assert same(f.mul_const(mv, side, kind), ref.mul_const(mv, side, kind))
    assert same(f.scalar_part_of_mul(mv), ref.scalar_part_of_mul(mv))


@settings(max_examples=40, deadline=None)
@given(term_entries(), st.lists(st.one_of(st.just(QQi(0)), st.just(QQi(0)), coeff, rational),
                                min_size=256, max_size=256))
def test_slot_matrices_match_the_reference(entries, flat):
    f, ref = both(entries)
    rows = [flat[16 * i:16 * i + 16] for i in range(16)]
    qrows = [[v if isinstance(v, QQi) else QQi.from_rational(v) for v in row] for row in rows]
    assert same(f.apply_slot_matrix(rows), ref.apply_slot_matrix(qrows))


# ---- the same reference on float fields ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(float_entries, float_entries, fcoeff, st.integers(0, 15), st.integers(0, 4))
def test_float_linear_operations_match_the_reference(a, b, value, mask, k):
    f, ref = both(a, FLOAT)
    g, gref = both(b, FLOAT)
    assert close(f, ref)
    for name, table, conjugate in BLADE_MAPS:
        assert close(getattr(f, name)(), ref._map_blades(table, conjugate)), name
    assert close(f.component(mask), ref._map_blades([(int(m == mask), 0) for m in range(16)]))
    assert close(f.grade_part(k), ref._map_blades(GRADE_MAPS[k]))
    assert close(f.conjugate(), ref.conjugate())
    assert close(f + g, ref + gref)
    assert close(f - g, ref - gref)
    assert close(-f, -ref)
    assert close(f.scale(value), ref.scale(value))


@settings(max_examples=60, deadline=None)
@given(float_entries, st.integers(0, 3), fphase)
def test_float_calculus_matches_the_reference(entries, mu, lam):
    f, ref = both(entries, FLOAT)
    assert close(f.partial(mu), ref.partial(mu))
    assert close(f.partial(mu).partial(3 - mu), ref.partial(mu).partial(3 - mu))
    assert close(f.multiply_phase(lam), ref.multiply_phase(lam))
    assert close(f.multiply_phase(lam).multiply_phase(-lam), ref)


@settings(max_examples=40, deadline=None)
@given(term_entries(fdyadic, fphase), st.lists(st.lists(freal, min_size=4, max_size=4),
                                               min_size=4, max_size=4))
def test_float_compose_linear_matches_the_reference(entries, matrix):
    f, ref = both(entries, FLOAT)
    assert close(f.compose_linear(matrix), ref.compose_linear(matrix))


@settings(max_examples=60, deadline=None)
@given(float_entries, float_entries, mv_float,
       st.lists(st.one_of(st.just(0j), st.just(0j), fcoeff), min_size=256, max_size=256))
def test_float_products_match_the_reference(a, b, mv, flat):
    f, ref = both(a, FLOAT)
    g, gref = both(b, FLOAT)
    assert close(f.clifford(g), ref.product(gref, CLIFFORD))
    assert close(f.wedge(g), ref.product(gref, WEDGE))
    for side in ("left", "right"):
        for kind in (CLIFFORD, WEDGE):
            assert close(f.mul_const(mv, side, kind), ref.mul_const(mv, side, kind))
    assert close(f.scalar_part_of_mul(mv), ref.scalar_part_of_mul(mv))
    rows = [flat[16 * i:16 * i + 16] for i in range(16)]
    assert close(f.apply_slot_matrix(rows), ref.apply_slot_matrix(rows))


# ---- constructors and limits -----------------------------------------------------------


def test_constructors_match_the_poly_route():
    mv = Multivector([QQi(k - 7, k % 3, 1 + k % 4) for k in range(16)], EXACT)
    polys = [Poly.constant(c) for c in mv.coeffs]
    wave = (1, Fraction(-1, 2), 0, 3)
    lam = Poly({(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(-1, 2),
                (0, 0, 0, 1): Fraction(3)})
    assert AnalyticField.constant(mv) == AnalyticField(EXACT, [(Poly(), polys)])
    assert AnalyticField.plane_wave(mv, wave) == AnalyticField(EXACT, [(lam, polys)])
    assert AnalyticField.monomial(mv, (1, 0, 2, 0)) == AnalyticField(
        EXACT, [(Poly(), [Poly({(1, 0, 2, 0): c}) for c in mv.coeffs])])


def test_exponents_beyond_the_packed_width_are_refused():
    big = (2 ** 15 - 1, 0, 0, 0)
    f = AnalyticField.monomial(Multivector.unit(), big)
    with pytest.raises(DomainError):
        f.clifford(f)
    with pytest.raises(DomainError):
        AnalyticField.monomial(Multivector.unit(), (2 ** 15, 0, 0, 0))
    assert f.partial(0) == AnalyticField.monomial(Multivector.unit().scale(big[0]),
                                                  (big[0] - 1, 0, 0, 0))


# ---- no QQi inside the exact operators, no Poly inside the float ones ------------------


def test_exact_field_operators_build_no_qqi(monkeypatch):
    rng = random.Random(4)
    entries = []
    for k in range(3):
        coeffs = [Poly() for _ in range(16)]
        for _ in range(5):
            m = rng.randrange(16)
            coeffs[m] = coeffs[m] + Poly({tuple(rng.randint(0, 2) for _ in range(4)):
                                          QQi(rng.randint(-5, 5), rng.randint(-5, 5),
                                              rng.choice((1, 2, 3)))})
        entries.append((Poly({(k % 2, 1, 0, k // 2): Fraction(rng.randint(-3, 3), 2)}),
                        coeffs))
    f = AnalyticField(EXACT, entries)
    mv = Multivector([QQi(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((1, 5)))
                      for _ in range(16)], EXACT)
    g = f.mul_const(mv) + AnalyticField.plane_wave(mv, (1, 0, Fraction(1, 3), 0))
    vectors = [basis_vector(mu, EXACT) for mu in range(4)]

    built = []
    init = QQi.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QQi, "__init__", counted)
    results = [d(f), delta(f), upsilon(f), upsilon_gradient(f), f.clifford(g)]
    results += [laplace(f, route) for route in ("direct", "upsilon", "d_minus_delta",
                                                "de_rham")]
    for side in ("left", "right"):
        for kind in (CLIFFORD, WEDGE):
            results.append(f.mul_const(mv, side, kind))
            results += [f.mul_const(v, side, kind) for v in vectors]
    assert built == []
    assert not any(r.is_zero() for r in results[:4])
    QQi(1, 2, 3)  # the counter sees a construction
    assert len(built) == 1


def random_entries(rng, nterms=3, per_term=8):
    """Exact terms on non-linear phases, several monomials per blade, with
    coefficients over 1, 2, 3 and 7."""
    entries = []
    for k in range(nterms):
        coeffs = [Poly() for _ in range(16)]
        for _ in range(per_term):
            m = rng.randrange(16)
            coeffs[m] = coeffs[m] + Poly({tuple(rng.randint(0, 2) for _ in range(4)):
                                          QQi(rng.randint(-5, 5), rng.randint(-5, 5),
                                              rng.choice((1, 2, 3, 7)))})
        entries.append((Poly({(k % 2, 1, 0, k // 2): Fraction(rng.randint(-3, 3), 2),
                              (0, 0, 2, 0): Fraction(1, 5)}), coeffs))
    return entries


def rounded(entries):
    """The terms with float phases and complex coefficients."""
    return [(Poly({e: float(c) for e, c in phase.terms.items()}),
             [Poly({e: complex(c) for e, c in q.terms.items()}) for q in coeffs])
            for phase, coeffs in entries]


def test_float_field_operators_build_no_poly(monkeypatch):
    rng = random.Random(5)
    f = AnalyticField(FLOAT, rounded(random_entries(rng)))
    mv = Multivector([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(16)],
                     FLOAT)
    lam = Poly({(1, 0, 0, 0): 0.5, (0, 2, 0, 0): -0.25})
    matrix = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
    vectors = [basis_vector(mu, FLOAT) for mu in range(4)]

    built = []
    init = Poly.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counted)
    results = [upsilon(f), f.clifford(f), f.multiply_phase(lam), f.compose_linear(matrix)]
    results += [laplace(f, route) for route in ("direct", "upsilon", "d_minus_delta",
                                                "de_rham")]
    results += [f.partial(mu) for mu in range(4)]
    for side in ("left", "right"):
        for kind in (CLIFFORD, WEDGE):
            results += [f.mul_const(c, side, kind) for c in [mv, *vectors]]
    assert built == []
    assert not any(r.is_zero() for r in results)
    Poly()  # the counter sees a construction
    assert len(built) == 1


def test_exact_eval_is_the_read_back_sum_bit_for_bit():
    # each blade sums its read-back monomials in their (ascending key) order,
    # then takes the phase factor: the packed evaluation keeps those bits
    rng = random.Random(6)
    for _ in range(20):
        f = AnalyticField(EXACT, random_entries(rng))
        f = f.clifford(f.partial(rng.randrange(4)))
        x = tuple(rng.uniform(-2, 2) for _ in range(4))
        want = [0j] * 16
        for phase, polys in f.terms.values():
            angle = 0.0
            for exps, c in phase.terms.items():
                v = float(c)
                for mu in range(4):
                    if exps[mu]:
                        v *= x[mu] ** exps[mu]
                angle += v
            factor = cmath.exp(1j * angle)
            for m, q in enumerate(polys):
                if q:
                    want[m] += factor * q.eval(x)
        got = f.eval(x).coeffs
        assert [(c.real.hex(), c.imag.hex()) for c in got] == \
            [(c.real.hex(), c.imag.hex()) for c in want]
