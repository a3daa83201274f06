"""Catalog parameters (series sizes, integer n, the dimension bound), the
registry's listing, the facts recorded on the entries, and the matrix-model
builder of the simple Jordan matrix algebras."""

import os

import pytest

from axial import catalog, cli
from axial.algebra import MAX_DIM
from axial.errors import CatalogError
from axial.fileio import AlgebraFile, parse_algebra_file, render_algebra_file
from axial.extension import coboundary_space, condition1_rows
from axial.linalg import RowReducer
from axial.miyamoto import find_flip, group_closure, tau_automorphism
from axial.scalars import FieldTag, Rat, Scalar, parse_scalar
from axial.spectral import eigen_decompose

SERIES = ("S", "J", "T", "JordanA", "JordanB", "JordanC", "JordanD")


@pytest.mark.parametrize("name", SERIES)
def test_series_size_matches_built_dim(name):
    _builder, _defaults, size = catalog._ENTRIES[name]
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


def test_unknown_parameter_is_refused():
    with pytest.raises(CatalogError) as info:
        catalog.build("B", {"alpha": 1})
    assert str(info.value) == "entry 'B' takes no parameter 'alpha'"


@pytest.mark.parametrize("item", [item for item in catalog.list_catalog() if not item["stub"]],
                         ids=lambda item: item["name"])
def test_listed_params_are_the_defaults(item):
    assert list(catalog.default_params(item["name"])) == item["params"]


def test_catalog_json_matches_the_frozen_listing(capsys):
    # stdout bytes of catalog --json, frozen in tests/data
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    with open(path, "rb") as fh:
        frozen = fh.read()
    assert cli.main(["catalog", "--json"]) == 0
    assert capsys.readouterr().out.encode() == frozen


# The facts of the paper's tables recorded in CatalogEntry.expected.  The
# recorded radical is not checked: radical_axial finds no axis-normalized
# invariant form on seven axis sets recorded with radical "zero" (C X15 and
# X25, E X12, X17 and X27, G X12, H X12), a disagreement left for its own
# change.

SYMMETRIC_CASES = [(name, {}) for name in catalog.TWO_DIM_FAMILIES] + [
    ("H", {"gamma": -1}), ("I", {"alpha": 1, "beta": -1})]

@pytest.mark.parametrize("name, params, key", [
    (name, params, key) for name, params in SYMMETRIC_CASES
    for key in catalog.build(name, params).axis_sets])
def test_symmetric_is_a_flip_of_the_two_axes(name, params, key):
    entry = catalog.build(name, params)
    flip = find_flip(entry.algebra, *entry.axis_sets[key])
    assert (flip is not None) == entry.expected["symmetric"][key]


@pytest.mark.parametrize("name, order", [("B", 6), ("C", 2)])
def test_miyamoto_order_is_the_order_of_the_tau_maps(name, order):
    # the tau maps of the first axis set whose law carries the grading
    entry = catalog.build(name)
    (law_name, grading), = entry.gradings.items()
    key = next(k for k in entry.axis_sets if entry.axis_laws[k] == law_name)
    taus = [tau_automorphism(entry.algebra, a, entry.laws[law_name], grading)
            for a in entry.axis_sets[key]]
    closure = group_closure(taus)
    assert closure.completed
    assert closure.order == entry.expected["miyamoto_order"] == order


def _admits_extension(algebra, axes):
    """Does the axis set admit an axial non-split 1-dim extension: is the
    kernel of the condition (1) rows of its axes larger than B?  (B lies
    inside it: a coboundary meets condition (1) on every axis.)"""
    n = algebra.dim
    red = RowReducer(n * (n + 1) // 2, algebra.tag)
    for a in axes:
        for row in condition1_rows(algebra, a, algebra.left_mult_matrix(a).kernel()):
            red.add_int_row(row)
    kernel_dim, b_dim = n * (n + 1) // 2 - red.rank(), coboundary_space(algebra).dim
    assert kernel_dim >= b_dim
    return kernel_dim > b_dim


@pytest.mark.parametrize("name", catalog.TWO_DIM_FAMILIES)
def test_admits_extension_is_condition_one_beyond_coboundaries(name):
    entry = catalog.build(name)
    admits = {key for key, axes in entry.axis_sets.items()
              if _admits_extension(entry.algebra, axes)}
    assert bool(admits) == entry.expected["admits_extension"]
    # every axis set but D's X12 and X26 admits one, when any does
    expect = set(entry.expected.get("extension_axes", entry.axis_sets))
    assert admits == (expect if entry.expected["admits_extension"] else set())


JORDAN = ("S", "J", "T", "J25", "J53", "J59", "JordanA", "JordanB", "JordanC",
          "JordanD", "Albert")


@pytest.mark.parametrize("name", JORDAN)
def test_jordan_entries_satisfy_the_jordan_identity(name):
    entry = catalog.build(name)
    assert entry.expected["jordan"] is True
    assert set(entry.laws) == {"J12"} and set(entry.axis_laws.values()) == {"J12"}
    assert entry.algebra.jordan_check() is None


def test_jordan_entries_are_every_entry_recorded_jordan():
    recorded = {item["name"] for item in catalog.list_catalog() if not item["stub"]
                and catalog.build(item["name"]).expected.get("jordan")}
    assert recorded == set(JORDAN)


@pytest.mark.parametrize("n, generates", [(2, False), (4, True)])
def test_axes_generate_matches_the_closure(n, generates):
    entry = catalog.build("T", {"n": n})
    closure, _ = entry.algebra.subalgebra_closure(entry.axis_sets["standard"])
    assert closure.is_full() == entry.expected["axes_generate"] == generates


@pytest.mark.parametrize("label, value", [(label, value) for label in ("a0", "a1")
                                          for value in ("0", "2", "1/2")])
def test_monster4_eigenvectors_lie_in_their_eigenspaces(label, value):
    entry = catalog.build("Monster4")
    alg = entry.algebra
    axis = alg.basis_element(alg.labels.index(label))
    vector = entry.expected["eigenvectors"][label][value]
    assert any(vector)
    space = eigen_decompose(alg, axis).eigenspace(parse_scalar(value))
    assert space.contains_vector(vector)


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
