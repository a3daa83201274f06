"""Eigen-decomposition, axis checks, minimal fusion laws."""

import math
import os
import random
import re
import signal
import subprocess
import sys

import pytest

import axial
from axial import catalog, spectral
from axial.algebra import Algebra
from axial.errors import (DimensionMismatchError, FieldMismatchError, NotIdempotentError,
                          NotSemisimpleError)
from axial.extension import Cocycle, cocycle_space, extension_axiality
from axial.fusion import FusionLaw, find_c2_gradings, monster_law
from axial.scalars import ONE, ZERO, FieldTag, Rat, Scalar, scalar_sqrt, sort_key
from axial.linalg import Matrix, Subspace, sparse_vector
from axial.miyamoto import tau_automorphism
from axial.spectral import (_divisors, _parts, _scale_divisors, axis_eigenbasis, char_poly,
                            check_axial_algebra, check_axis, eigen_decompose, field_roots,
                            minimal_law, root_bound)
from test_jordan_check import _random_algebra


def q(n, d=1):
    return Rat(n, d)


def vec_add(x, y):
    """Dense vector sum, for the reference."""
    return tuple(a + b for a, b in zip(x, y, strict=True))


class TestEigenDecompose:
    def test_b_axis_oracle(self):
        # Hand computation: for e1 in the algebra with e1 e2 = -e1 - e2,
        # L_{e1} has eigenvalue 1 on e1 and eigenvalue -1 on e1/2 + e2.
        alg = catalog.build("B").algebra
        ed = eigen_decompose(alg, alg.basis_element(0))
        assert ed.semisimple and ed.spectrum_complete
        assert ed.spectrum() == [q(-1), q(1)]
        assert ed.eigenspace(q(1)).contains_vector((q(1), q(0)))
        assert ed.eigenspace(q(-1)).contains_vector((q(1, 2), q(1)))
        # a value that is no eigenvalue has the zero eigenspace
        assert ed.eigenspace(q(0)) == Subspace.zero_space(2, FieldTag.QQ)

    def test_monster_axis_eigenvectors(self):
        # Frozen hand oracles for the 4-generated Monster-type algebra.
        entry = catalog.build("Monster4")
        alg = entry.algebra
        a0 = entry.axis_sets["all"][1]
        ed = eigen_decompose(alg, a0, hints=monster_law(FieldTag.QQ).values)
        assert ed.semisimple
        assert set(map(str, ed.spectrum())) == {"0", "1/2", "1", "2"}
        assert ed.eigenspace(q(0)).contains_vector((q(1), q(2), q(-1), q(-2)))
        assert ed.eigenspace(q(2)).contains_vector((q(1), q(0), q(-1), q(0)))
        assert ed.eigenspace(q(1, 2)).contains_vector(
            (q(1), q(0), q(0), q(-1)))
        assert ed.eigenspace(q(1)).dim == 1
        # the sparse split sums back to y, one component per eigenspace
        for y in [(q(3), q(-1), q(2, 5), q(7)), alg.basis_element(2),
                  alg.product(entry.axis_sets["all"][0], (q(1), q(2), q(0), q(-3)))]:
            comps = ed.components(sparse_vector(y))
            total = alg.zero()
            for lam, comp in comps.items():
                assert comp and all(comp.values())
                dense = alg.element(comp)
                assert ed.eigenspace(lam).contains_vector(dense)
                total = vec_add(total, dense)
            assert total == y

    def test_non_semisimple_detected(self):
        # In the 2-dim nilpotent-part algebra T2, e n1 = n1 and n1^2 = 0:
        # L_{n1} is nilpotent nonzero, hence not semisimple.
        alg = catalog.build("T", {"n": 2}).algebra
        ed = eigen_decompose(alg, alg.basis_element(1))
        assert not ed.semisimple
        # no eigenbasis to split by
        with pytest.raises(DimensionMismatchError):
            ed.components({0: q(1)})
        with pytest.raises(DimensionMismatchError):
            ed.products()

    def test_products_computed_once(self):
        entry = catalog.build("Monster4")
        a = entry.axis_sets["all"][0]
        ed = eigen_decompose(entry.algebra, a, hints=monster_law(FieldTag.QQ).values)
        assert ed.products() is ed.products()


class TestCheckAxis:
    def test_violations_for_non_idempotent(self):
        entry = catalog.build("B")
        rep = check_axis(entry.algebra, (q(2), q(0)), entry.laws["FB"])
        assert any(v[0] == "not_idempotent" for v in rep.violations)

    def test_zero_is_not_an_axis(self):
        # 0 is idempotent and L_0 = 0 is semisimple, but an axis is nonzero
        for name, law in (("B", "FB"), ("JordanD", "J12")):
            entry = catalog.build(name)
            zero = entry.algebra.zero()
            rep = check_axis(entry.algebra, zero, entry.laws[law])
            assert not rep.is_axis and not rep.idempotent
            assert ("not_idempotent", zero) in rep.violations

    def test_axis_passes(self):
        entry = catalog.build("B")
        rep = check_axis(entry.algebra, entry.algebra.basis_element(0),
                         entry.laws["FB"])
        assert rep.is_axis and rep.primitive

    def test_spectrum_outside_law(self):
        entry = catalog.build("D")  # spectrum {1, 5} on e1
        law = catalog.build("B").laws["FB"]  # values {1, -1}
        rep = check_axis(entry.algebra, entry.algebra.basis_element(0), law)
        assert any(v[0] == "spectrum_outside_law" for v in rep.violations)


class TestAxisEigenbasis:
    # a b = a + b: L_a is a Jordan block with eigenvalue 1
    BLOCK = Algebra(2, {(0, 0): {0: q(1)}, (0, 1): {0: q(1), 1: q(1)}}, FieldTag.QQ)

    def test_an_axis_gets_its_hinted_eigenbasis(self):
        entry = catalog.build("Monster4")
        a = entry.axis_sets["all"][1]
        hints = entry.laws["M2half"].values
        assert (axis_eigenbasis(entry.algebra, a, hints).pairs
                == eigen_decompose(entry.algebra, a, hints).pairs)

    def test_idempotent_is_checked_before_semisimple(self):
        alg = self.BLOCK
        for x in (alg.zero(), (q(2), q(0)), (q(0), q(1))):
            with pytest.raises(NotIdempotentError,
                               match=re.escape(f"axis candidate {alg.render_element(x)} "
                                               f"is not a nonzero idempotent")):
                axis_eigenbasis(alg, x)
        with pytest.raises(NotSemisimpleError, match="^axis candidate b1 is not semisimple$"):
            axis_eigenbasis(alg, alg.basis_element(0))

    @pytest.mark.parametrize("x, error", [((q(2), q(0)), NotIdempotentError),
                                          ((q(1), q(0)), NotSemisimpleError)])
    def test_every_caller_raises_the_gate_error(self, x, error):
        # the first refused axis in list order is the one named
        alg = self.BLOCK
        law = FusionLaw((q(0), q(1)), {}, FieldTag.QQ)
        grading = next(iter(find_c2_gradings(law)))
        theta = Cocycle.from_entries(2, {(0, 1): q(1)}, FieldTag.QQ)
        with pytest.raises(error) as gate:
            axis_eigenbasis(alg, x, law.values)
        for call in (lambda: minimal_law(alg, [x, alg.zero()]),
                     lambda: tau_automorphism(alg, x, law, grading),
                     lambda: extension_axiality(alg, theta, [x, alg.zero()], law)):
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == str(gate.value)


class TestMinimalLaw:
    def test_b_hand_oracle(self):
        # v = e1/2 + e2 spans the (-1)-eigenspace of e1; v*v = -3/4 e1 lies
        # in the 1-eigenspace and e1*v = -v, giving cells {1} and {-1}.
        entry = catalog.build("B")
        law = minimal_law(entry.algebra, entry.axis_sets["X12"])
        assert law == entry.laws["FB"]
        assert law.star(q(-1), q(-1)) == frozenset({q(1)})
        assert law.star(q(1), q(-1)) == frozenset({q(-1)})

    def test_a_hand_oracle(self):
        # e1 e2 = 0: the only nonzero off-unit product is e2*e2 = e2 in the
        # 0-eigenspace of e1, so 0*0 = {0} and 1*0 is empty.
        entry = catalog.build("A")
        law = minimal_law(entry.algebra, entry.axis_sets["X12"])
        assert set(law.values) == {q(1), q(0)}
        assert law.star(q(0), q(0)) == frozenset({q(0)})
        assert law.star(q(1), q(0)) == frozenset()

    def test_certificate_generation_failure(self):
        entry = catalog.build("T", {"n": 2})
        cert = check_axial_algebra(entry.algebra, entry.axis_sets["standard"],
                                   entry.laws["J12"])
        assert not cert.certified
        assert any(v[0] == "generation_fails" for v in cert.violations)


@pytest.mark.parametrize("name", [
    pytest.param(item["name"], marks=pytest.mark.slow) if item["name"] == "Albert"
    else item["name"]
    for item in catalog.list_catalog() if not item["stub"]])
def test_hints_do_not_change_a_complete_decomposition(name):
    # with or without a law's values as hints, a semisimple decomposition
    # finds the same eigenspaces, in the same bases, and so the same products
    entry = catalog.build(name)
    alg = entry.algebra
    compared = 0
    for axes in entry.axis_sets.values():
        for a in axes:
            plain = eigen_decompose(alg, a)
            for law in entry.laws.values():
                hinted = eigen_decompose(alg, a, hints=law.values)
                if plain.semisimple and hinted.semisimple:
                    assert hinted.pairs == plain.pairs
                    assert hinted.products() == plain.products()
                    compared += 1
    assert compared


# ---------------------------------------------------------------------------
# the integer eigen-analysis against field arithmetic

def _shifted(m, c):
    """m + c I for a square Matrix m, built from its entries."""
    return Matrix([[a + c if i == j else a for j, a in enumerate(r)]
                   for i, r in enumerate(m.rows)], m.tag)


def _field_char_poly(m):
    """The Faddeev-LeVerrier recursion in field arithmetic on Matrix
    objects, c_k = -tr(M_k) / k and M_(k+1) = m (M_k + c_k I): the reference
    for char_poly's integer recursion."""
    n = m.nrows
    coeffs = [ONE]
    mk = m
    for k in range(1, n + 1):
        trace = sum((r.get(i, ZERO) for i, r in enumerate(mk.sparse_rows)), ZERO)
        ck = -(trace * Rat(1, k))
        coeffs.append(ck)
        if k < n:
            mk = m * _shifted(mk, ck)
    return coeffs


def _random_rat(rng):
    if rng.random() < 0.4:
        return ZERO
    return Rat(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 7919, rng.randint(1, 7919))))


def _random_matrices(rng, tag):
    """Square matrices of sizes 1-8 over tag: random ones with denominators
    up to 7919 (over QI with non-real entries), zero matrices and strictly
    upper triangular (nilpotent) ones."""
    def entry():
        x = _random_rat(rng)
        return Scalar(x, _random_rat(rng)) if tag is FieldTag.QI else x
    for n in range(1, 9):
        for _ in range(4):
            yield Matrix([[entry() for _ in range(n)] for _ in range(n)], tag)
        yield Matrix([[ZERO] * n for _ in range(n)], tag)
        yield Matrix([[entry() if j > i else ZERO for j in range(n)] for i in range(n)], tag)


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_char_poly_matches_the_field_recursion(tag):
    rng = random.Random(7919 if tag is FieldTag.QQ else 7907)
    nonreal = 0
    for m in _random_matrices(rng, tag):
        ours = char_poly(m)
        assert ours == _field_char_poly(m)
        assert all(type(c) is Rat or (type(c) is Scalar and type(c.re) is Rat) for c in ours)
        nonreal += any(type(c) is Scalar for c in ours)
    assert (nonreal > 20) == (tag is FieldTag.QI)


def assert_eigenspaces_are_field_kernels(alg, x, hints):
    """eigen_decompose(alg, x, hints) finds, for every hint and for every
    eigenvalue it reports, exactly the kernel of L_x - lam I taken in field
    arithmetic, the same canonical subspace; returns the number of nonzero
    eigenspaces compared."""
    lmat = alg.left_mult_matrix(x)
    found = dict(eigen_decompose(alg, x, hints=hints).pairs)
    for lam in set(hints) | set(found):
        ref = _shifted(lmat, -lam).kernel()
        if ref.is_zero():
            assert lam not in found
        else:
            assert found[lam] == ref and repr(found[lam]) == repr(ref)
    return len(found)


# hints that are no eigenvalue of most operators: denominators, and values
# off the real line for the Gaussian rationals
OFF_SPECTRUM = {FieldTag.QQ: (Rat(7, 3), Rat(-5, 11), Rat(2, 7919)),
                FieldTag.QI: (Rat(7, 3), Scalar(Rat(1, 2), Rat(-2, 3)), Scalar(0, 1))}


def test_eigenspaces_match_the_field_kernels_on_random_algebras():
    rng = random.Random(1968)
    compared = 0
    for _ in range(60):
        tag = rng.choice((FieldTag.QQ, FieldTag.QI))
        alg = _random_algebra(rng, rng.randint(1, 6), tag, rng.choice((0.2, 0.35, 0.6)))
        for _ in range(2):
            x = tuple(rng.choice((ZERO, ZERO, ONE, -ONE, Rat(1, 2), Rat(3, 5)))
                      for _ in range(alg.dim))
            spectrum = eigen_decompose(alg, x).spectrum()
            compared += assert_eigenspaces_are_field_kernels(alg, x, ())
            compared += assert_eigenspaces_are_field_kernels(
                alg, x, (ZERO, *spectrum, *OFF_SPECTRUM[tag]))
    assert compared > 100


def test_a_hint_outside_the_field_is_refused():
    # a QI law with the value i on a QQ algebra: the value is a hint of the
    # decomposition, which refuses it before any kernel is taken
    entry = catalog.build("JordanA", {"n": 2})
    alg, axes = entry.algebra, entry.axis_sets["family"]
    law = FusionLaw((ZERO, Rat(1, 2), ONE, Scalar.i()), {}, FieldTag.QI)
    with pytest.raises(FieldMismatchError):
        eigen_decompose(alg, axes[0], hints=law.values)
    with pytest.raises(FieldMismatchError):
        check_axis(alg, axes[0], law)
    with pytest.raises(FieldMismatchError):
        cocycle_space(alg, axes, law)


# ---------------------------------------------------------------------------
# the integer root scan against the field-arithmetic scan it replaced

def _ref_eval(coeffs, x):
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _ref_deflate(coeffs, root):
    out = []
    acc = ZERO
    for c in coeffs:
        acc = acc * root + c
        out.append(acc)
    return out[:-1], out[-1]


def _ref_divisors(n):
    n = abs(int(n))
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += [d] if d == n // d else [d, n // d]
        d += 1
    return sorted(out)


def _ref_cleared(coeffs):
    """The rational polynomial times the lcm of its denominators."""
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    return [int(c * den) for c in coeffs]


def _ref_rational_roots(coeffs):
    """The rational root theorem on the field coefficients: candidates p/q
    for p dividing the cleared constant and q the cleared lead; over the
    Gaussian rationals, the rational roots of the imaginary part that are
    roots of the whole."""
    if any(type(c) is Scalar for c in coeffs):
        im = [c.im if type(c) is Scalar else ZERO for c in coeffs]
        lead = next(k for k, c in enumerate(im) if c)
        return [r for r in _ref_rational_roots(im[lead:]) if not _ref_eval(coeffs, r)]
    roots = set()
    work = list(coeffs)
    while len(work) > 1 and not work[-1]:
        work.pop()
        roots.add(ZERO)
    if len(work) > 1:
        ints = _ref_cleared(work)
        for p in _ref_divisors(ints[-1]):
            for q in _ref_divisors(ints[0]):
                for sgn in (1, -1):
                    cand = Rat(sgn * p, q)
                    if cand not in roots and not _ref_eval(work, cand):
                        roots.add(cand)
    return sorted(roots, key=sort_key)


def _ref_field_roots(coeffs, tag, known=()):
    """(roots, complete) in field arithmetic: the rational scan, then over
    the Gaussian rationals deflation by the roots found and the known values
    that are roots, and the quadratic formula on a degree-2 remainder."""
    if tag is FieldTag.QQ:
        return _ref_rational_roots(coeffs), True
    roots = set(_ref_rational_roots(coeffs))
    complete = False
    work = list(coeffs)
    for r in sorted(roots | {k for k in known if not _ref_eval(coeffs, k)}, key=sort_key):
        while len(work) > 1:
            quo, rem = _ref_deflate(work, r)
            if rem:
                break
            work = quo
            roots.add(r)
    if len(work) == 1:
        complete = True
    elif len(work) == 2:
        roots.add(-work[1] / work[0])
        complete = True
    elif len(work) == 3:
        a, b, c = work
        w = scalar_sqrt(b * b - Rat(4) * a * c, tag)
        if w is not None:
            roots.update(((-b + w) / (a + a), (-b - w) / (a + a)))
        complete = True
    return sorted(roots, key=sort_key), complete


def _ref_steps(coeffs):
    """The trial divisions of the reference: up to the square roots of the
    cleared lead and constant of the polynomial it scans (over the Gaussian
    rationals, the imaginary part when there is one)."""
    if any(type(c) is Scalar for c in coeffs):
        coeffs = [c.im if type(c) is Scalar else ZERO for c in coeffs]
        coeffs = coeffs[next(k for k, c in enumerate(coeffs) if c):]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if len(coeffs) == 1:
        return 0
    ints = _ref_cleared(coeffs)
    return math.isqrt(abs(ints[0])) + math.isqrt(abs(ints[-1]))


def _within_the_field_scan(m):
    """The reference scan of m's characteristic polynomial takes at most
    10^6 trial divisions.  Many random matrices with denominators near 7919
    are past it."""
    return _ref_steps(char_poly(m)) <= 10 ** 6


@pytest.fixture
def within_a_minute():
    """Fails the test after 60 s where the platform has SIGALRM: a scan
    slower than the reference on its operators hangs rather than fails."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(*_):
        pytest.fail("the root scan is still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_root_scan_matches_the_field_scan_on_char_polys(tag, within_a_minute):
    # the same roots, in the same order, and the same complete flag as the
    # reference, bounded by Gershgorin as eigen_decompose scans them
    rng = random.Random(7919 if tag is FieldTag.QQ else 7907)
    operators = [m for m in _random_matrices(rng, tag) if _within_the_field_scan(m)]
    # operators of random algebras at small elements: small entries, and
    # so more rational eigenvalues
    for _ in range(40):
        alg = _random_algebra(rng, rng.randint(1, 6), tag, rng.choice((0.2, 0.35, 0.6)))
        x = tuple(rng.choice((ZERO, ONE, -ONE, Rat(1, 2), Rat(3, 5))) for _ in range(alg.dim))
        operators.append(alg.left_mult_matrix(x))
    found = 0
    for m in operators:
        for known in ((), OFF_SPECTRUM[tag]):
            ref = _ref_field_roots(char_poly(m), tag, known)
            assert field_roots(char_poly(m), root_bound(m), tag, known) == ref
        found += bool(ref[0])
    assert len(operators) > 60 and found > 20


def test_root_scan_trial_divides_no_more_than_the_field_scan(monkeypatch):
    # over the rationals the scan trial-divides min(t B, sqrt |D a_m|) times,
    # where the reference trial-divides sqrt D + sqrt |D a_m| times; recorded
    # on every matrix of _random_matrices, those past both scans included,
    # with the candidates dropped so that nothing is evaluated
    steps = []
    monkeypatch.setattr(spectral, "_divisors",
                        lambda n, bound: steps.append(min(bound, math.isqrt(n))) or [])
    past = 0
    for m in _random_matrices(random.Random(7919), FieldTag.QQ):
        steps.clear()
        field_roots(char_poly(m), root_bound(m), FieldTag.QQ)
        assert sum(steps) <= _ref_steps(char_poly(m))
        past += _ref_steps(char_poly(m)) > 10 ** 6
    assert past > 10


# the matrix at index 15 of _random_matrices(random.Random(7919), QQ): N = s m
# has s = 179602920 and the Gershgorin bound 78 s, about 1.4e10, but its
# characteristic polynomial t^3 - 36 t^2 + 3711657247/12828780 t -
# 256411/641439 leaves few candidates: a scan of the divisors of N's trailing
# coefficient below that bound takes minutes
LARGE_SCALE = [["36", "-14", "28"], ["-1/3240", "0", "35/7919"], ["-31/3", "10/7", "0"]]


def test_root_scan_at_a_large_scale():
    code = ("from axial.linalg import Matrix\n"
            "from axial.scalars import FieldTag, Rat\n"
            "from axial.spectral import char_poly, field_roots, root_bound\n"
            f"m = Matrix([[Rat(a) for a in r] for r in {LARGE_SCALE!r}], FieldTag.QQ)\n"
            "print(field_roots(char_poly(m), root_bound(m), FieldTag.QQ))\n")
    src = os.path.dirname(os.path.dirname(axial.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    m = Matrix([[Rat(a) for a in r] for r in LARGE_SCALE], FieldTag.QQ)
    assert _ref_field_roots(char_poly(m), FieldTag.QQ) == ([], True)
    assert proc.stdout == "([], True)\n"


def _poly_from_roots(roots, factor=(ONE,)):
    """The monic polynomial with the given roots, times the monic factor."""
    coeffs = list(factor)
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return coeffs


# monic factors without roots in the field, each with roots of modulus below
# 2: over QQ t^2 - 2, t^2 + 1 and t^2 + t + 1; over QI t^2 - 2, t^2 - i and
# t^2 + t + 1; and t^3 - 2, which leaves the spectrum over QI undetermined
IRREDUCIBLE = {FieldTag.QQ: ([ONE, ZERO, Rat(-2)], [ONE, ZERO, ONE], [ONE, ONE, ONE]),
               FieldTag.QI: ([ONE, ZERO, Rat(-2)], [ONE, ZERO, -Scalar.i()], [ONE, ONE, ONE])}
CUBIC = [ONE, ZERO, ZERO, Rat(-2)]


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_root_scan_matches_the_field_scan_on_products(tag):
    # seeded products of (t - r), r rational or Gaussian with small
    # denominators and multiplicities, with or without a factor that has no
    # root in the field, and with or without the roots passed as hints; the
    # scan is bounded by 2 (1 + max |r|) and, as if unbounded, by 10^30,
    # above every trailing coefficient here
    rng = random.Random(2022 if tag is FieldTag.QQ else 2023)

    def value():
        x = Rat(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        if tag is FieldTag.QI and rng.random() < 0.5:
            return Scalar(x, Rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
        return x

    outcomes = set()
    for _ in range(150):
        roots = [value() for _ in range(rng.randint(0, 4))]
        roots += roots[:rng.randint(0, 2)]  # repeated roots
        factor = rng.choice(((ONE,), (ONE,), *IRREDUCIBLE[tag], CUBIC))
        coeffs = _poly_from_roots(roots, factor)
        bound = 2 * (1 + max((abs(a) for r in roots for a in _parts(r)), default=ZERO))
        hints = rng.sample(roots, rng.randint(0, len(roots))) + [value()]
        for known in ((), hints):
            ref = _ref_field_roots(coeffs, tag, known)
            assert field_roots(coeffs, bound, tag, known) == ref
            assert field_roots(coeffs, Rat(10 ** 30), tag, known) == ref
            found, complete = ref
            assert set(found) <= set(roots)
            outcomes.add((complete, set(found) == set(roots)))
    # over QI the cubic leaves the scan incomplete, and roots off the real
    # line are found only from hints or a linear or quadratic remainder
    assert outcomes == ({(True, True)} if tag is FieldTag.QQ
                        else {(True, True), (False, True), (False, False)})


def test_divisors_up_to_a_bound():
    for n in range(1, 200):
        for bound in range(0, n + 2):
            assert _divisors(n, bound) == [d for d in range(1, bound + 1) if n % d == 0]


def test_scale_is_the_least_integral_one():
    rng = random.Random(5)
    for _ in range(300):
        dens = [rng.choice((1, 2, 3, 4, 5, 8, 9, 12, 25, 27)) for _ in range(rng.randint(0, 4))]
        least = next(t for t in range(1, math.lcm(1, *dens) + 1)
                     if all(t ** k % d == 0 for k, d in enumerate(dens, 1)))
        assert _scale_divisors(dens) == [d for d in range(1, least + 1) if least % d == 0]
    # a large prime, left over from trial division
    p = 7919
    cases = ([p], [1, p * p], [1, 1, p], [4 * p, 8 * p ** 3])
    assert [_scale_divisors(dens)[-1] for dens in cases] == [p, p, p, 4 * p * p]
