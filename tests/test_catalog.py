"""Catalog parameters (series sizes, integer n, the dimension bound) and the
matrix-model builder of the simple Jordan matrix algebras."""

import pytest

from axial import catalog
from axial.algebra import MAX_DIM
from axial.errors import CatalogError
from axial.fileio import AlgebraFile, parse_algebra_file, render_algebra_file
from axial.scalars import Rat, Scalar

SERIES = ("S", "J", "T", "JordanA", "JordanB", "JordanC", "JordanD")


@pytest.mark.parametrize("name", SERIES)
def test_series_size_matches_built_dim(name):
    _builder, size = catalog._SERIES[name]
    for n in (2, 3):
        assert catalog.build(name, {"n": n}).algebra.dim == size(n)


# the first n of each series whose algebra is past the bound; refused before
# anything is built
@pytest.mark.parametrize("name, n, dim", [
    ("S", 1025, 1025), ("J", 1025, 1025), ("T", 1025, 1025),
    ("JordanA", 33, 1089), ("JordanB", 45, 1035), ("JordanC", 23, 1035),
    ("JordanD", 1025, 1025)])
def test_series_past_the_bound_is_refused(name, n, dim):
    assert MAX_DIM == 1024
    with pytest.raises(CatalogError, match=f"has dim {dim}, above the limit 1024"):
        catalog.build(name, {"n": n})


@pytest.mark.parametrize("n", [Rat(5, 2), Rat(-1, 3), Scalar(Rat(1), Rat(1)), "3", 2.5,
                               float("inf")])
def test_non_integer_n_is_refused(n):
    with pytest.raises(CatalogError, match="needs an integer n"):
        catalog.build("S", {"n": n})


def test_integral_rational_n_is_accepted():
    assert catalog.build("S", {"n": Rat(3)}).algebra.dim == 3


def test_catalog_error_message_is_unquoted():
    assert not issubclass(CatalogError, KeyError)
    with pytest.raises(CatalogError) as info:
        catalog.build("Nope")
    assert str(info.value) == "unknown catalog name 'Nope'"


# matrix_model: coordinates are read off one entry per basis matrix, and the
# whole product is checked against them

def test_matrix_basis_products_are_expressed_in_the_basis():
    # diag(1, 0), diag(0, 1) and the symmetric off-diagonal unit F
    basis = [{(0, 0, 0): 1}, {(1, 1, 0): 1}, {(0, 1, 0): 1, (1, 0, 0): 1}]
    alg = catalog.matrix_model(basis, ("e1", "e2", "f"))
    half = Rat(1, 2)
    assert alg.basis_product(0, 0) == {0: Rat(1)}
    assert alg.basis_product(0, 1) == {}
    assert alg.basis_product(0, 2) == {2: half}
    assert alg.basis_product(2, 2) == {0: Rat(1), 1: Rat(1)}


def test_matrix_basis_with_overlapping_supports_is_refused():
    # diag(1, 0) and diag(2, -3) share the entry (0, 0)
    basis = [{(0, 0, 0): 1}, {(1, 1, 0): 1}, {(0, 0, 0): 2, (1, 1, 0): -3}]
    with pytest.raises(CatalogError, match="supports overlap"):
        catalog.matrix_model(basis, ("a", "b", "c"))


def test_matrix_basis_that_is_not_closed_is_refused():
    # E12 squares to 0, but E12 * E21 + E21 * E12 is the identity
    with pytest.raises(CatalogError, match="not closed"):
        catalog.matrix_model([{(0, 1, 0): 1}, {(1, 0, 0): 1}], ("e12", "e21"))


# F = E12 + E21 squares to diag(1, 1, 0). Its (0, 0) entry reads as 1 on
# diag(1, 2, 0), whose (1, 1) entry then does not match; or as 1 on
# diag(1, 0, 1), whose (2, 2) entry the square lacks.
@pytest.mark.parametrize("diagonal, other", [
    ({(0, 0, 0): 1, (1, 1, 0): 2}, {(2, 2, 0): 1}),
    ({(0, 0, 0): 1, (2, 2, 0): 1}, {(1, 1, 0): 1})])
def test_matrix_basis_product_off_the_combination_is_refused(diagonal, other):
    basis = [diagonal, other, {(0, 1, 0): 1, (1, 0, 0): 1}]
    with pytest.raises(CatalogError, match="not closed"):
        catalog.matrix_model(basis, ("d", "e", "f"))


def test_matrix_basis_with_repeated_labels_is_refused():
    with pytest.raises(CatalogError, match="labels must be distinct"):
        catalog.matrix_model([{(0, 0, 0): 1}, {(1, 1, 0): 1}], ("E111", "E111"))


@pytest.mark.parametrize("name, n, first, last", [
    ("JordanA", 9, ("E11", "E12"), ("E98", "E99")),
    ("JordanC", 9, ("D11", "D12"), ("L79", "L89")),
    ("JordanA", 11, ("E1_1", "E1_2"), ("E11_10", "E11_11")),
    ("JordanC", 11, ("D1_1", "D1_2"), ("L9_11", "L10_11"))])
def test_matrix_series_labels_are_distinct_and_round_trip(name, n, first, last):
    # from n = 10 on the indices are joined by "_": E1_11 and E11_1, not E111
    alg = catalog.build(name, {"n": n}).algebra
    assert alg.labels[:2] == first and alg.labels[-2:] == last
    assert len(set(alg.labels)) == alg.dim
    text = render_algebra_file(AlgebraFile(alg))
    back = parse_algebra_file(text).algebra
    assert back.labels == alg.labels
    assert all(back.basis_product(i, j) == alg.basis_product(i, j)
               for i in range(alg.dim) for j in range(i, alg.dim))
    assert render_algebra_file(AlgebraFile(back)) == text


def test_skew_mirror_fixes_the_jordan_c_basis_and_not_a_wrong_sign():
    n = 3
    # U13 = E(1, n+3) - E(3, n+1) is fixed; with a plus sign it is negated
    u13 = {(0, n + 2, 0): 1, (2, n, 0): -1}
    assert catalog._skew_mirror(u13, n) == u13
    wrong = {(0, n + 2, 0): 1, (2, n, 0): 1}
    assert catalog._skew_mirror(wrong, n) != wrong
    assert catalog._skew_mirror(wrong, n) == {k: -c for k, c in wrong.items()}
    # D12 and L12 are fixed too
    d12 = {(0, 1, 0): 1, (n + 1, n, 0): 1}
    l12 = {(n, 1, 0): 1, (n + 1, 0, 0): -1}
    assert catalog._skew_mirror(d12, n) == d12
    assert catalog._skew_mirror(l12, n) == l12


@pytest.mark.slow
def test_albert_satisfies_the_jordan_identity():
    # the octonion unit table and the hermitian basis give a Jordan algebra
    assert catalog.build("Albert").algebra.jordan_check() is None
