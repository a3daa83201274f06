"""Catalog parameters: series sizes, integer n and the dimension bound."""

import pytest

from axial import catalog
from axial.algebra import MAX_DIM
from axial.errors import CatalogError
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
