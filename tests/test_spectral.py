"""Eigen-decomposition, axis checks, minimal fusion laws."""

import ast
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import axial
from axial import catalog
from axial.algebra import Algebra
from axial.errors import (DimensionMismatchError, FieldMismatchError, NotIdempotentError,
                          NotSemisimpleError)
from axial.extension import Cocycle, cocycle_space, extension_axiality
from axial.fusion import FusionLaw, find_c2_gradings, monster_law
from axial.scalars import (ONE, ZERO, FieldTag, Rat, Scalar, parse_scalar, render_scalar,
                           sort_key)
from axial.linalg import Matrix, Subspace, sparse_vector
from axial.miyamoto import tau_automorphism
from axial.spectral import (_proth_prime, _roots_mod, axis_eigenbasis, char_poly,
                            check_axial_algebra, check_axis, eigen_decompose, field_roots,
                            minimal_law)
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
        assert ed.semisimple
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

    @pytest.mark.parametrize("name, params, key", [("C", None, "X12"),
                                                   ("JordanA", {"n": 3}, "family")])
    def test_certificate_reads_the_axes_once(self, name, params, key):
        # an iterator of the axes certifies as the list and the tuple do
        entry = catalog.build(name, params)
        axes = entry.axis_sets[key]

        def summary(cert):
            return (cert.violations, cert.closure_dim, cert.max_word_length,
                    [(r.idempotent, r.primitive, r.violations, r.eigen.pairs)
                     for r in cert.reports])
        got = [summary(check_axial_algebra(entry.algebra, given, entry.law_for(key)))
               for given in (iter(axes), list(axes), tuple(axes))]
        assert got[0] == got[1] == got[2]
        assert got[0][0] == [] and got[0][1] == entry.algebra.dim


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
# the roots in the field against sympy's factorization

def _sympy_roots(m):
    """The roots of m's characteristic polynomial in its field, sorted: the
    linear factors of sympy's factorization over QQ or QQ<I>."""
    pytest.importorskip("sympy")
    from test_sympy_oracle import _field_roots, from_sympy
    return sorted(map(from_sympy, _field_roots(m, m.tag)), key=sort_key)


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_field_roots_match_sympy(tag):
    # every operator of _random_matrices, denominators up to 7919 included,
    # and operators of random algebras at small elements, whose small entries
    # give more roots in the field
    rng = random.Random(7919 if tag is FieldTag.QQ else 7907)
    operators = list(_random_matrices(rng, tag))
    for _ in range(40):
        alg = _random_algebra(rng, rng.randint(1, 6), tag, rng.choice((0.2, 0.35, 0.6)))
        x = tuple(rng.choice((ZERO, ONE, -ONE, Rat(1, 2), Rat(3, 5))) for _ in range(alg.dim))
        operators.append(alg.left_mult_matrix(x))
    found = nonreal = 0
    for m in operators:
        roots = field_roots(m)
        assert roots == _sympy_roots(m)
        found += bool(roots)
        nonreal += any(type(r) is Scalar for r in roots)
    assert found > 40 and (nonreal > 10) == (tag is FieldTag.QI)


def _run_field_roots(*ms):
    """The rendered field_roots of each matrix, one list a line, computed in
    a fresh process that fails after 30 s."""
    code = ("import json, sys\n"
            "from axial.linalg import Matrix\n"
            "from axial.scalars import FieldTag, parse_scalar, render_scalar\n"
            "from axial.spectral import field_roots\n"
            "for tag, rows in json.load(sys.stdin):\n"
            "    tag = FieldTag[tag]\n"
            "    m = Matrix([[parse_scalar(a, tag) for a in r] for r in rows], tag)\n"
            "    print([render_scalar(r) for r in field_roots(m)])\n")
    data = [[m.tag.name, [[render_scalar(a) for a in r] for r in m.rows]] for m in ms]
    src = os.path.dirname(os.path.dirname(axial.__file__))
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(data),
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _horner(coeffs, x):
    """The polynomial with coefficients coeffs, high degree first, at x."""
    value = ZERO
    for c in coeffs:
        value = value * x + c
    return value


# the number of roots in the field, counted with their distinct values, of
# the characteristic polynomials of _random_matrices: sympy's factorization
# finds 29 on the 48 operators over QQ (seed 7919) and 26 on the 48 over QI
# (seed 7907)
@pytest.mark.parametrize("tag, seed, count", [(FieldTag.QQ, 7919, 29),
                                              (FieldTag.QI, 7907, 26)])
def test_field_roots_are_every_root(tag, seed, count):
    # without sympy: on every operator, in one process that must finish in
    # 30 s, each value returned is a root of char_poly(m) in the field, once
    # and in order; as none is spurious, the pinned count means none is missed
    ms = list(_random_matrices(random.Random(seed), tag))
    lines = _run_field_roots(*ms).splitlines()
    assert len(lines) == len(ms)
    found = 0
    for m, line in zip(ms, lines):
        roots = [parse_scalar(r, tag) for r in ast.literal_eval(line)]
        assert roots == sorted(set(roots), key=sort_key)
        assert all(_horner(char_poly(m), r) == ZERO for r in roots)
        found += len(roots)
    assert found == count


def test_proth_prime_is_the_least_one():
    # against trial division, with iota^2 = -1 mod p, up to past a bound of
    # 64 bits
    def proth(n):
        e = ((n - 1) & (1 - n)).bit_length() - 1
        return e >= 2 and (n - 1) >> e < 1 << e and all(n % d for d in range(2, math.isqrt(n) + 1))

    for bound in [*range(0, 300), 2 ** 20, 10 ** 9]:
        p, iota = _proth_prime(bound)
        assert p == next(n for n in itertools.count(bound + 1) if proth(n)), bound
        assert (iota * iota + 1) % p == 0
    p, iota = _proth_prime(2 ** 64)
    assert p > 2 ** 64 and (iota * iota + 1) % p == 0


def test_roots_mod_p_are_the_zeros():
    # the distinct roots of seeded monic polynomials over F_p, against
    # evaluation at every residue, for small Proth primes
    rng = random.Random(13)
    for p in (5, 13, 17, 97, 193):
        for _ in range(40):
            f = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            zeros = [r for r in range(p) if not sum(c * pow(r, k, p) for k, c in enumerate(f)) % p]
            assert sorted(_roots_mod(f, p)) == zeros


# operators that the rational root scan field_roots replaced did not finish
# on: over QI, a scale with 10,485,760 divisors; over QQ, 4.5e8 trial
# divisions.  Neither characteristic polynomial has a root in the field
# (sympy's factorization)
@pytest.mark.parametrize("seed, tag, index", [(7907, FieldTag.QI, 43),
                                              (7919, FieldTag.QQ, 19)])
def test_field_roots_finish_where_the_scan_stalled(seed, tag, index):
    m = list(_random_matrices(random.Random(seed), tag))[index]
    assert _run_field_roots(m) == "[]\n"


# the matrix at index 15 of _random_matrices(random.Random(7919), QQ): N = s m
# has s = 179602920 and the Gershgorin bound 78 s, about 1.4e10, but its
# characteristic polynomial t^3 - 36 t^2 + 3711657247/12828780 t -
# 256411/641439 has no rational root
LARGE_SCALE = [["36", "-14", "28"], ["-1/3240", "0", "35/7919"], ["-31/3", "10/7", "0"]]


def test_root_scan_at_a_large_scale():
    m = Matrix([[Rat(a) for a in r] for r in LARGE_SCALE], FieldTag.QQ)
    assert _run_field_roots(m) == "[]\n"


def _poly_from_roots(roots, factor=(ONE,)):
    """The monic polynomial with the given roots, times the monic factor."""
    coeffs = list(factor)
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return coeffs


def _companion(coeffs, tag):
    """The companion matrix of the monic coeffs = [1, a1, ..., an], whose
    characteristic polynomial they are; 0 x 0 for [1]."""
    n = len(coeffs) - 1
    rows = [[ONE if j == i + 1 else ZERO for j in range(n)] for i in range(n - 1)]
    return Matrix(rows + [[-c for c in coeffs[:0:-1]]] if n else [], tag, n)


# monic factors without roots in the field: over QQ t^2 - 2, t^2 + 1 and
# t^2 + t + 1; over QI t^2 - 2, t^2 - i and t^2 + t + 1; and t^3 - 2
IRREDUCIBLE = {FieldTag.QQ: ([ONE, ZERO, Rat(-2)], [ONE, ZERO, ONE], [ONE, ONE, ONE]),
               FieldTag.QI: ([ONE, ZERO, Rat(-2)], [ONE, ZERO, -Scalar.i()], [ONE, ONE, ONE])}
CUBIC = [ONE, ZERO, ZERO, Rat(-2)]


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_field_roots_of_products(tag):
    # seeded products of up to four (t - r), r rational or Gaussian with
    # small denominators and multiplicities, with or without a factor that
    # has no root in the field: every r is found, off the real line
    # included, through the companion matrix, and none when there is no r
    rng = random.Random(2022 if tag is FieldTag.QQ else 2023)

    def value():
        x = Rat(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        if tag is FieldTag.QI and rng.random() < 0.5:
            return Scalar(x, Rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
        return x

    nonreal = 0
    for _ in range(150):
        roots = [value() for _ in range(rng.randint(0, 4))]
        roots += roots[:rng.randint(0, 2)]  # repeated roots
        factor = rng.choice(((ONE,), (ONE,), *IRREDUCIBLE[tag], CUBIC))
        m = _companion(_poly_from_roots(roots, factor), tag)
        assert char_poly(m) == _poly_from_roots(roots, factor)
        assert field_roots(m) == sorted(set(roots), key=sort_key)
        nonreal += any(type(r) is Scalar for r in roots)
    assert (nonreal > 50) == (tag is FieldTag.QI)
