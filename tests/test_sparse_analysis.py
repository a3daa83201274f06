"""The sparse per-axis analysis against a naive dense reference: eigenvector
products split with Matrix.apply by the eigenbasis inverse, dense constraint
rows, and the Miyamoto map as the signed sum of dense eigencomponents."""

import random

import pytest

from axial import catalog
from axial.algebra import Algebra, _sym_index
from axial.extension import condition1_rows, condition2_rows
from axial.fusion import find_c2_gradings
from axial.linalg import Matrix, Subspace
from axial.miyamoto import tau_automorphism
from axial.scalars import FieldTag, Rat
from axial.spectral import Eigenbasis, check_axis, eigen_decompose


# dense vector arithmetic for the reference
def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_neg(x):
    return tuple(-a for a in x)


def vec_scale(c, x):
    return tuple(c * a for a in x)

CASES = [("Monster4", {}, "all", "M2half"),
         ("B", {}, "X12", "FB"),
         ("JordanC", {"n": 2}, "family", "J12"),
         ("JordanD", {"n": 4}, "family", "J12")]


class DenseReference:
    """Eigenbasis splitting by a dense apply of the eigenbasis inverse."""

    def __init__(self, algebra, eigen):
        self.algebra = algebra
        self.pairs = eigen.pairs
        cols = [b for _, space in eigen.pairs for b in space.basis]
        self.inverse = Matrix.from_columns(cols, algebra.tag, nrows=algebra.dim).inverse()

    def split(self, y):
        coords = iter(self.inverse.apply(y))
        out = {}
        for lam, space in self.pairs:
            comp = self.algebra.zero()
            for b in space.basis:
                comp = vec_add(comp, vec_scale(next(coords), b))
            if any(comp):
                out[lam] = comp
        return out

    def products(self):
        out = []
        for s, (lam, vspace) in enumerate(self.pairs):
            for mu, wspace in self.pairs[s:]:
                for x in vspace.basis:
                    for y in wspace.basis:
                        out.append((lam, mu, x, y, self.split(self.algebra.product(x, y))))
        return out


def _dense_pair_row(algebra, x, y):
    """theta(x, y) as a dense vector in the upper-triangle unknowns."""
    idx = _sym_index(algebra.dim)
    row = [algebra.tag.zero] * len(idx)
    for p, a in enumerate(x):
        for q, b in enumerate(y):
            col = idx[(min(p, q), max(p, q))]
            row[col] = row[col] + a * b
    return tuple(row)


def _densify(algebra, row):
    zero = algebra.tag.zero
    return tuple(row.get(j, zero) for j in range(len(_sym_index(algebra.dim))))


def _flatten(algebra, products):
    """The sparse products as dense (lam, mu, x, y, {nu: z}), after checking
    each pair's nus against its components."""
    out = []
    for lam, mu, nus, items in products:
        assert nus == frozenset(nu for _x, _y, comps in items for nu in comps)
        for x, y, comps in items:
            assert all(v for comp in comps.values() for v in comp.values())
            out.append((lam, mu, algebra.element(x), algebra.element(y),
                        {nu: algebra.element(z) for nu, z in comps.items()}))
    return out


@pytest.mark.parametrize("name,params,axes,law", CASES)
def test_products_and_rows_match_dense_reference(name, params, axes, law):
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law]
    zero = alg.tag.zero
    nrows = 0
    for a in entry.axis_sets[axes]:
        eigen = eigen_decompose(alg, a, hints=law.values)
        products = eigen.products()
        ref = DenseReference(alg, eigen).products()
        flat = _flatten(alg, products)
        assert flat == ref
        assert [list(comps) for *_, comps in flat] == [list(c) for *_, c in ref]
        # condition (1): theta(a, k) for the kernel basis of L_a, which is
        # the 0-eigenspace on the axis report that cocycle_space passes
        ker = alg.left_mult_matrix(a).kernel()
        report_ker = check_axis(alg, a, law).eigen.eigenspace(zero)
        assert (report_ker or Subspace.zero_space(alg.dim, alg.tag)) == ker
        assert [_densify(alg, r) for r in condition1_rows(alg, a, ker)] == \
            [_dense_pair_row(alg, a, k) for k in ker.basis]
        # condition (2): theta(x, y) - sum nu^-1 theta(a, z_nu), nonzero rows
        expect = []
        for lam, mu, x, y, comps in ref:
            if zero in law.star(lam, mu):
                continue
            row = _dense_pair_row(alg, x, y)
            for nu, z in comps.items():
                row = vec_add(row, vec_neg(vec_scale(alg.tag.inverse(nu),
                                                     _dense_pair_row(alg, a, z))))
            if any(row):
                expect.append(row)
        assert [_densify(alg, r) for r in condition2_rows(alg, a, law, products)] == expect
        nrows += len(expect)
    assert nrows > 0


@pytest.mark.parametrize("name,params,axes,law", CASES)
def test_tau_matches_dense_reference(name, params, axes, law):
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law]
    grading = next(g for g in find_c2_gradings(law) if g.minus)
    for a in entry.axis_sets[axes]:
        eigen = eigen_decompose(alg, a, hints=law.values)
        ref = DenseReference(alg, eigen)
        cols = []
        for j in range(alg.dim):
            col = alg.zero()
            for lam, comp in ref.split(alg.basis_element(j)).items():
                col = vec_add(col, comp if grading.sign(lam) > 0 else vec_neg(comp))
            cols.append(col)
        tau = tau_automorphism(alg, a, law, grading)
        assert list(tau.matrix.transpose().rows) == cols


def test_cases_cover_both_fields_and_kernels():
    tags = {catalog.build(name, params).algebra.tag for name, params, *_ in CASES}
    assert tags == {FieldTag.QQ, FieldTag.QI}
    entry = catalog.build("Monster4")
    assert any(not entry.algebra.left_mult_matrix(a).kernel().is_zero()
               for a in entry.axis_sets["all"])


# ---------------------------------------------------------------------------
# the integer kernels over QQ on random algebras with non-unit denominators

def _qq_entry(rng):
    if rng.random() < 0.4:
        return Rat(0)
    return Rat(rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 2, 3, 5, 9, 7919]))


def _random_qq_algebra(rng, dim):
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            entry = {k: c for k in range(dim) if (c := _qq_entry(rng))}
            if entry and rng.random() < 0.7:
                products[(i, j)] = entry
    return Algebra(dim, products, FieldTag.QQ), products


def _naive_product(products, dim, x, y):
    """x * y summed over all structure constants, dense."""
    out = [Rat(0)] * dim
    for i in range(dim):
        for j in range(dim):
            for k, c in products.get((min(i, j), max(i, j)), {}).items():
                out[k] = out[k] + x[i] * y[j] * c
    return tuple(out)


def _random_eigenbasis(rng, alg):
    """An Eigenbasis of made-up eigenvalues over a random basis of QQ^dim
    cut into groups: components() is the split along that decomposition,
    whatever the algebra."""
    dim = alg.dim
    while True:
        vecs = [[_qq_entry(rng) for _ in range(dim)] for _ in range(dim)]
        if Matrix(vecs, FieldTag.QQ).rank() == dim:
            break
    cuts = sorted(rng.sample(range(1, dim), rng.randint(0, dim - 1)))
    groups = [vecs[a:b] for a, b in zip([0] + cuts, cuts + [dim])]
    pairs = [(Rat(t - 1, 2), Subspace(g, dim, FieldTag.QQ)) for t, g in enumerate(groups)]
    return Eigenbasis(alg, alg.zero(), pairs, True)


def test_product_sparse_matches_naive_product_on_random_qq_algebras():
    rng = random.Random(67)
    cancelled = 0
    for _ in range(60):
        dim = rng.randint(1, 6)
        alg, products = _random_qq_algebra(rng, dim)
        for _ in range(6):
            x = tuple(_qq_entry(rng) for _ in range(dim))
            y = tuple(_qq_entry(rng) for _ in range(dim))
            want = _naive_product(products, dim, x, y)
            got = alg.product_sparse({k: a for k, a in enumerate(x) if a},
                                     {k: a for k, a in enumerate(y) if a})
            assert got == {k: a for k, a in enumerate(want) if a}
            assert all(type(a) is Rat for a in got.values())
            assert alg.product(x, y) == want
            cancelled += any(x) and any(y) and not any(want)
    assert cancelled > 0


def test_components_match_dense_reference_on_random_qq_algebras():
    rng = random.Random(73)
    for _ in range(40):
        alg, _products = _random_qq_algebra(rng, rng.randint(1, 6))
        eigen = _random_eigenbasis(rng, alg)
        ref = DenseReference(alg, eigen)
        for _ in range(6):
            y = tuple(_qq_entry(rng) for _ in range(alg.dim))
            comps = eigen.components({k: a for k, a in enumerate(y) if a})
            assert {lam: alg.element(z) for lam, z in comps.items()} == ref.split(y)
            assert list(comps) == list(ref.split(y))
            assert all(type(a) is Rat for z in comps.values() for a in z.values())
        assert _flatten(alg, eigen.products()) == ref.products()
