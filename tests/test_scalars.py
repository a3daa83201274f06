"""Scalar field arithmetic and the text grammar."""

import math

import pytest
from hypothesis import given, strategies as st

from axial.scalars import (ONE, ZERO, FieldTag, Rat, Scalar, clear_denominators, over,
                           parse_scalar, render_scalar, sort_key)
from axial.errors import FieldMismatchError, ScalarParseError


def q(s):
    return parse_scalar(s, FieldTag.QQ)


def gi(s):
    return parse_scalar(s, FieldTag.QI)


class TestGrammar:
    def test_integers_and_fractions(self):
        assert render_scalar(q("3")) == "3"
        assert render_scalar(q("-1/2")) == "-1/2"
        assert render_scalar(q("4/6")) == "2/3"
        assert q("0/5") == ZERO

    def test_gaussian(self):
        assert render_scalar(gi("1+2i")) == "1+2i"
        assert render_scalar(gi("-i")) == "-i"
        assert render_scalar(gi("3")) == "3"
        assert gi("i") * gi("i") == -ONE

    def test_round_trip(self):
        for text in ["0", "1", "-7", "5/3", "-11/4"]:
            assert render_scalar(q(text)) == text
        for text in ["i", "-i", "1+i", "2-3i", "1/2+1/3i", "-5i"]:
            assert render_scalar(gi(text)) == text

    def test_rejects_garbage(self):
        for bad in ["", "one", "1..2", "--3", "1+", "+", "2/3/4"]:
            with pytest.raises(ScalarParseError):
                parse_scalar(bad, FieldTag.QQ)

    def test_imaginary_needs_qi(self):
        with pytest.raises(ScalarParseError):
            parse_scalar("1+2i", FieldTag.QQ)


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
scalars_qq = st.builds(
    lambda f: Scalar.rational(f.numerator, f.denominator),
    rationals)
scalars_qi = st.builds(
    lambda f, g: Scalar.rational(f.numerator, f.denominator)
    + Scalar.rational(g.numerator, g.denominator) * Scalar.i(),
    rationals, rationals)


@given(scalars_qq, scalars_qq, scalars_qq)
def test_field_axioms_qq(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO
    if a != ZERO:
        assert a * (ONE / a) == ONE


@given(scalars_qi, scalars_qi)
def test_field_axioms_qi(a, b):
    assert a * b == b * a
    assert (a + b) - b == a
    assert a * a.conjugate() == a.conjugate() * a
    if a != ZERO:
        assert a * (ONE / a) == ONE
        assert (a / a) == ONE


@given(scalars_qq)
def test_render_parse_round_trip_qq(a):
    assert parse_scalar(render_scalar(a), FieldTag.QQ) == a


@given(scalars_qi)
def test_render_parse_round_trip_qi(a):
    assert parse_scalar(render_scalar(a), FieldTag.QI) == a


@given(scalars_qq, scalars_qq)
def test_sort_key_total_order(a, b):
    ka, kb = sort_key(a), sort_key(b)
    assert (ka == kb) == (a == b)
    assert ka <= kb or kb <= ka


@given(scalars_qi, scalars_qi)
def test_gaussian_results_are_canonical(a, b):
    results = [a + b, a - b, a * b, -a, b + a, b - a, b * a]
    if b:
        results.append(a / b)
        results.append(ONE / b)
    for r in results:
        assert _canonical(r)
    assert hash((a + b) - b) == hash(a) and (a + b) - b == a
    assert sort_key(a) == (a.re, a.im) if type(a) is Scalar else sort_key(a) == (a, 0)


@given(scalars_qi, scalars_qi, st.integers(min_value=1, max_value=10**4))
def test_numerator_over_denominator(a, b, k):
    # the integer kernels carry an element as a numerator, an integer or a
    # Gaussian integer, over a positive integer denominator, in lowest terms
    num, den = a.numerator, a.denominator
    parts = (num.re, num.im) if type(num) is Scalar else (num,)
    assert all(type(p) is not Rat and p == int(p) for p in parts)
    assert den > 0 and math.gcd(den, *(int(p) for p in parts)) == 1
    assert _canonical(over(num, den)) and over(num, den) == a
    assert over(num * k, den * k) == a and (num * k) // k == num
    nums, d = clear_denominators({0: a, 1: b} if b else {0: a})
    assert over(nums[0], d) == a and (not b or over(nums[1], d) == b)


def test_canonical_constructors_and_membership():
    i = Scalar.i()
    assert type(i * i) is Rat and i * i == -1
    assert type((1 + i) - i) is Rat and Scalar(3, 0) == Rat(3)
    assert Scalar.rational(1, 2) == Rat(1, 2) and hash(Scalar.rational(1, 2)) == hash(Rat(1, 2))
    assert type(i * Rat(0)) is Rat and i != 0 and Scalar(0, 1) == i
    for x in (Rat(1, 2), i + 1):
        assert FieldTag.QI.check(x) is x
    assert FieldTag.QQ.check(Rat(2)) == 2
    for bad in (i, 1, 0.5):
        with pytest.raises(FieldMismatchError):
            FieldTag.QQ.check(bad)
    with pytest.raises(FieldMismatchError):
        FieldTag.QI.check(1)


def test_kernel_forms_are_not_field_elements():
    # a Gaussian integer, a pair with integer parts, is a kernel form: no
    # object takes it as an element of the Gaussian rationals
    from axial.algebra import Algebra
    from axial.linalg import Matrix
    g = Scalar(1, 1).numerator
    assert type(g) is Scalar and g == Scalar(1, 1)
    with pytest.raises(FieldMismatchError):
        FieldTag.QI.check(g)
    with pytest.raises(FieldMismatchError):
        Matrix([[g]], FieldTag.QI)
    with pytest.raises(FieldMismatchError):
        Algebra(1, {(0, 0): {0: g}}, FieldTag.QI)


def _canonical(x):
    """A bare Rat, or a Gaussian pair of Rats with a nonzero imaginary part."""
    if type(x) is Rat:
        return True
    return type(x) is Scalar and type(x.re) is Rat and type(x.im) is Rat and x.im != 0


def test_catalog_elements_are_canonical():
    # every element the library builds or returns is in canonical form: no
    # float, no plain int, no pair with a zero imaginary part
    from axial import catalog
    from axial.errors import ExtensionError
    from axial.extension import cocycle_space
    from axial.linalg import Matrix
    from axial.spectral import eigen_decompose

    seen = []
    for item in catalog.list_catalog():
        if item["stub"]:
            continue
        entry = catalog.build(item["name"])
        alg = entry.algebra
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                seen.extend(alg.basis_product(i, j).values())
        for law in list(entry.laws.values()) + list(entry.extension_laws.values()):
            seen.extend(law.values)
            seen.extend(v for cell in law.table.values() for v in cell)
        if entry.cocycle is not None:
            seen.extend(a for m in entry.cocycle.mats for row in m.rows for a in row)
        for key, axes in entry.axis_sets.items():
            law = entry.law_for(key) if key in entry.axis_laws else None
            for a in axes[:4]:
                seen.extend(a)
                lmat = alg.left_mult_matrix(a)
                seen.extend(x for row in lmat.rows for x in row)
                eig = eigen_decompose(alg, a)
                for lam, space in eig.pairs:
                    seen.append(lam)
                    seen.extend(x for b in space.basis for x in b)
                if eig.semisimple:
                    cols = [b for _lam, space in eig.pairs for b in space.basis]
                    inv = Matrix(cols, alg.tag).transpose().inverse()
                    seen.extend(x for row in inv.rows for x in row)
            if law is not None:
                try:
                    cs = cocycle_space(alg, axes[:4], law)
                except ExtensionError:
                    continue  # these axes fail the axis check for the law
                for space in (cs.space, cs.coboundaries, cs.intersection):
                    seen.extend(x for b in space.basis for x in b)
    assert any(type(x) is Scalar for x in seen)
    bad = [x for x in seen if not _canonical(x)]
    assert not bad, bad[:5]
