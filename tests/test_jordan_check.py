"""Algebra.jordan_check against a naive reference: the full linearization
evaluated with dense Algebra.product on every quadruple, in the same order.
The reference visits the basis elements that annihilate the algebra, which
jordan_check skips."""

import random

import pytest

from axial import catalog
from axial.algebra import Algebra
from axial.extension import Cocycle, build_extension, cocycle_space
from axial.fusion import jordan_half_law
from axial.scalars import ONE, FieldTag, Scalar


def naive_jordan_witness(alg):
    """First (i, j, k, l), i <= j <= k, where
    sum over (a, bc) of (b_a b_l)(b_b b_c) - b_a (b_l (b_b b_c)) is nonzero."""
    n = alg.dim
    e = [alg.basis_element(t) for t in range(n)]
    mul = alg.product
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for l in range(n):
                    total = alg.zero()
                    for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
                        bc = mul(e[b], e[c])
                        lhs = mul(mul(e[a], e[l]), bc)
                        rhs = mul(e[a], mul(e[l], bc))
                        total = tuple(t + x - y for t, x, y in zip(total, lhs, rhs))
                    if any(total):
                        return (i, j, k, l)
    return None


def _random_algebra(rng, n, tag, density):
    """Each basis pair multiplies, with probability density, to one or two
    basis elements with small coefficients."""
    coeffs = [Scalar.rational(c, d) for c, d in ((1, 1), (-1, 1), (2, 1), (1, 2))]
    if tag is FieldTag.QI:
        coeffs += [Scalar.i(), Scalar.i() + ONE]
    products = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                targets = rng.sample(range(n), rng.randint(1, min(2, n)))
                products[(i, j)] = {k: rng.choice(coeffs) for k in targets}
    return Algebra(n, products, tag)


def _random_algebras(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        tag = rng.choice((FieldTag.QQ, FieldTag.QI))
        yield _random_algebra(rng, n, tag, rng.choice((0.1, 0.2, 0.35)))


# Jordan algebras whose extensions by cocycles outside Z are not Jordan
EXTENDED = [("T", {"n": 3}, "standard"), ("S", {"n": 3}, "standard"),
            ("J25", {}, "with_unity"), ("J53", {}, "standard"),
            ("JordanA", {"n": 2}, "family"), ("JordanB", {"n": 2}, "family")]


def _extensions_outside_z():
    """Extensions of EXTENDED by each unit cocycle E_pq that is not a
    relative cocycle."""
    law = jordan_half_law(FieldTag.QQ)
    for name, params, key in EXTENDED:
        entry = catalog.build(name, params)
        alg = entry.algebra
        cs = cocycle_space(alg, entry.axis_sets[key], law)
        for p in range(alg.dim):
            for q in range(p, alg.dim):
                theta = Cocycle.from_entries(alg.dim, {(p, q): ONE}, alg.tag)
                if not cs.contains(theta):
                    yield build_extension(alg, theta)[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_sparse_algebras_match_reference(seed):
    witnesses = []
    for alg in _random_algebras(seed, 40):
        w = alg.jordan_check()
        assert w == naive_jordan_witness(alg), alg
        witnesses.append(w)
    # both answers occur, and some witnesses come late in the loop order
    assert None in witnesses
    assert any(w and w[3] > 0 for w in witnesses)
    assert any(w and w[0] > 0 for w in witnesses)


def test_extensions_by_non_cocycles_match_reference():
    witnesses = []
    for ext in _extensions_outside_z():
        w = ext.jordan_check()
        assert w is not None
        assert w == naive_jordan_witness(ext)
        witnesses.append(w)
    assert any(w[3] > 0 for w in witnesses)
    assert any(w[0] > 0 or w[1] > 0 for w in witnesses)


@pytest.mark.parametrize("name,params", [("JordanA", {"n": 2}), ("J25", {}),
                                         ("JordanD", {"n": 4}), ("B", {})])
def test_catalog_entries_match_reference(name, params):
    alg = catalog.build(name, params).algebra
    assert alg.jordan_check() == naive_jordan_witness(alg)


def _with_annihilating(alg, zeros):
    """alg with basis elements that annihilate it inserted at the indices
    zeros of the larger basis."""
    n = alg.dim + len(zeros)
    pos = [x for x in range(n) if x not in zeros]
    products = {(pos[i], pos[j]): {pos[k]: c for k, c in alg.basis_product(i, j).items()}
                for i in range(alg.dim) for j in range(i, alg.dim)}
    return Algebra(n, products, alg.tag)


@pytest.mark.parametrize("name,params,key", EXTENDED)
def test_extensions_by_a_basis_of_z_match_reference(name, params, key):
    # s = dim Z central vectors adjoined after the basis of A
    entry = catalog.build(name, params)
    alg = entry.algebra
    cs = cocycle_space(alg, entry.axis_sets[key], jordan_half_law(FieldTag.QQ))
    ext, _ = build_extension(alg, Cocycle(cs.space.sparse_rows, alg.dim, alg.tag))
    assert ext.dim == alg.dim + cs.space.dim > alg.dim + 1
    assert ext.jordan_check() == naive_jordan_witness(ext)


@pytest.mark.parametrize("zeros,witness", [((0,), (1, 1, 2, 1)), ((1,), (0, 0, 2, 0)),
                                           ((0, 2), (1, 1, 3, 1))])
def test_annihilating_elements_below_the_witness(zeros, witness):
    # B fails first at (0, 0, 1, 0); each annihilating element lies below
    # some index of the witness in the loop order
    alg = _with_annihilating(catalog.build("B").algebra, zeros)
    assert alg.jordan_check() == naive_jordan_witness(alg) == witness


@pytest.mark.parametrize("seed", [4, 5])
def test_random_algebras_with_annihilating_elements_match_reference(seed):
    rng = random.Random(seed)
    witnesses = []
    for alg in _random_algebras(seed, 25):
        big = _with_annihilating(alg, sorted(rng.sample(range(alg.dim + 2), 2)))
        w = big.jordan_check()
        assert w == naive_jordan_witness(big), big
        witnesses.append(w)
    assert None in witnesses
    assert any(w and w[0] > 0 for w in witnesses)
