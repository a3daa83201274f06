"""Eigen-decomposition, axis checks, minimal fusion laws."""

import random

import pytest

from axial import catalog
from axial.errors import DimensionMismatchError, FieldMismatchError
from axial.extension import cocycle_space
from axial.fusion import FusionLaw, monster_law
from axial.scalars import ONE, ZERO, FieldTag, Rat, Scalar
from axial.linalg import Matrix, sparse_vector
from axial.spectral import (char_poly, check_axial_algebra, check_axis, eigen_decompose,
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
        assert ed.semisimple and ed.spectrum_complete
        assert ed.spectrum() == [q(-1), q(1)]
        assert ed.eigenspace(q(1)).contains_vector((q(1), q(0)))
        assert ed.eigenspace(q(-1)).contains_vector((q(1, 2), q(1)))

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

def _field_char_poly(m):
    """The Faddeev-LeVerrier recursion in field arithmetic on Matrix
    objects, c_k = -tr(M_k) / k and M_(k+1) = m (M_k + c_k I): the reference
    for char_poly's integer recursion."""
    n = m.nrows
    coeffs = [ONE]
    mk = m
    ident = Matrix.identity(n, m.tag)
    for k in range(1, n + 1):
        trace = sum((r.get(i, ZERO) for i, r in enumerate(mk.sparse_rows)), ZERO)
        ck = -(trace * Rat(1, k))
        coeffs.append(ck)
        if k < n:
            mk = m * (mk + ident.scale(ck))
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
        yield Matrix.zero(n, n, tag)
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
    n, tag = alg.dim, alg.tag
    lmat = alg.left_mult_matrix(x)
    found = dict(eigen_decompose(alg, x, hints=hints).pairs)
    for lam in set(hints) | set(found):
        ref = (lmat + Matrix.identity(n, tag).scale(-lam)).kernel()
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
