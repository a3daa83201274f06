"""Catalog parameters: series sizes, integer n and the dimension bound."""

import pytest

from axial import catalog
from axial.algebra import MAX_DIM
from axial.errors import CatalogError
from axial.linalg import Matrix
from axial.scalars import FieldTag, Rat, Scalar

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


# algebra_from_matrix_basis: one reduction of the basis serves every product

def _m(rows):
    return Matrix(tuple(tuple(Rat(x) for x in r) for r in rows), FieldTag.QQ)


def test_matrix_basis_products_are_expressed_in_the_basis():
    # diag(1, 0), diag(0, 1) and the symmetric off-diagonal unit F
    e1, e2, f = _m([[1, 0], [0, 0]]), _m([[0, 0], [0, 1]]), _m([[0, 1], [1, 0]])
    alg = catalog.algebra_from_matrix_basis([e1, e2, f], FieldTag.QQ)
    half = Rat(1, 2)
    assert alg.basis_product(0, 0) == {0: Rat(1)}
    assert alg.basis_product(0, 1) == {}
    assert alg.basis_product(0, 2) == {2: half}
    assert alg.basis_product(2, 2) == {0: Rat(1), 1: Rat(1)}


def test_matrix_basis_that_is_dependent_is_refused():
    e1, e2 = _m([[1, 0], [0, 0]]), _m([[0, 0], [0, 1]])
    with pytest.raises(CatalogError, match="linearly dependent"):
        catalog.algebra_from_matrix_basis([e1, e2, _m([[2, 0], [0, -3]])], FieldTag.QQ)


def test_matrix_basis_that_is_not_closed_is_refused():
    # E12 squares to 0, but E12 * E21 + E21 * E12 is the identity
    e12, e21 = _m([[0, 1], [0, 0]]), _m([[0, 0], [1, 0]])
    with pytest.raises(CatalogError, match="not closed"):
        catalog.algebra_from_matrix_basis([e12, e21], FieldTag.QQ)
