"""The sparse per-axis analysis against a naive dense reference: eigenvector
products split with Matrix.apply by the eigenbasis inverse (the components
rebuilt from the coordinates that products() returns), dense constraint
rows (the integer rows, Gaussian integer rows over QI, are positive
multiples of them), and the Miyamoto map as the signed sum of dense
eigencomponents; products() also against a double loop over the pairs of
eigenbasis positions that spreads each term of a product over the inverse
rows at once."""

import math
import random

import pytest

from axial import catalog
from axial.algebra import Algebra, Cocycle, _sym_pairs
from axial.errors import ExtensionError
from axial.extension import (condition1_rows, condition2_rows, cocycle_space,
                             extension_axiality)
from axial.fileio import parse_algebra_file
from axial.fusion import FusionLaw, find_c2_gradings
from axial.linalg import Matrix, Subspace
from axial.miyamoto import tau_automorphism
from axial.scalars import ONE, ZERO, FieldTag, Rat, Scalar, over, render_scalar, sort_key
from axial.spectral import Eigenbasis, check_axis, eigen_decompose, minimal_law


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
        self.inverse = Matrix(cols, algebra.tag).transpose().inverse()

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
    idx = {pair: t for t, pair in enumerate(_sym_pairs(algebra.dim))}
    row = [ZERO] * len(idx)
    for p, a in enumerate(x):
        for q, b in enumerate(y):
            col = idx[(min(p, q), max(p, q))]
            row[col] = row[col] + a * b
    return tuple(row)


def _densify(algebra, row):
    zero = ZERO
    return tuple(row.get(j, zero) for j in range(len(_sym_pairs(algebra.dim))))


def _parts(a):
    return (a.re, a.im) if type(a) is Scalar else (a,)


def _integral(a):
    """Is a an integer or a Gaussian integer, as the kernels carry them?"""
    return all(type(b) is not Rat for b in _parts(a))


def _canonical(a):
    """Is a a field element as the package returns them: a Rat, or a Scalar
    whose parts are Rats?"""
    return type(a) is Rat or (type(a) is Scalar and type(a.re) is Rat and type(a.im) is Rat)


def _rebuild(algebra, eigen, products):
    """products, as eigen.products() returns them, as dense
    (lam, mu, x, y, {nu: z}) in eigenvalue order: z sums c v_p over the
    coordinates c at the positions p of nu, v_p row p of eigen.eigenvectors,
    as field elements over eigen.product_den, and is kept even when it is
    zero."""
    den = eigen.product_den
    vectors = eigen.eigenvectors.sparse_rows
    out = []
    for lam, mu, _nus, items in products:
        for r, q, coords in items:
            comps = {}
            for p in sorted(coords):
                nu = eigen.blocks[eigen.owner[p]][0]
                c = over(coords[p], den)
                comps[nu] = vec_add(comps.get(nu, algebra.zero()),
                                    vec_scale(c, algebra.element(vectors[p])))
            out.append((lam, mu, algebra.element(vectors[r]),
                        algebra.element(vectors[q]), comps))
    return out


def _flatten(algebra, eigen):
    """eigen.products() rebuilt as by _rebuild, after checking that each
    coordinate dict is zero-free with integer entries (Gaussian integers
    over QI) and that each pair's nus are the eigenvalues of the positions
    that occur."""
    products = eigen.products()
    for _lam, _mu, nus, items in products:
        assert nus == frozenset(eigen.blocks[eigen.owner[p]][0]
                                for _r, _q, coords in items for p in coords)
        for _r, _q, coords in items:
            assert all(coords.values())
            assert all(_integral(c) for c in coords.values())
    return _rebuild(algebra, eigen, products)


def _drop_one_coordinate(products):
    """A copy of products with one coordinate removed from the first item
    that has one; the original dicts are left as they are."""
    out = []
    dropped = False
    for lam, mu, nus, items in products:
        copied = []
        for r, q, coords in items:
            if coords and not dropped:
                coords = dict(coords)
                del coords[next(iter(coords))]
                dropped = True
            copied.append((r, q, coords))
        out.append((lam, mu, nus, copied))
    assert dropped
    return out


def _assert_matches_dense_reference(algebra, eigen, ref):
    """products() rebuilt equals the dense reference, components in the
    same order, and one dropped coordinate makes them differ."""
    flat = _flatten(algebra, eigen)
    assert flat == ref
    assert [list(comps) for *_, comps in flat] == [list(c) for *_, c in ref]
    if any(comps for *_, comps in ref):
        assert _rebuild(algebra, eigen, _drop_one_coordinate(eigen.products())) != ref


def _dense_condition2_rows(algebra, a, law, ref):
    """theta(x, y) - sum nu^-1 theta(a, z_nu) for the dense reference
    products ref, nonzero rows only, skipping cells that hold 0."""
    zero = ZERO
    expect = []
    for lam, mu, x, y, comps in ref:
        if zero in law.star(lam, mu):
            continue
        row = _dense_pair_row(algebra, x, y)
        for nu, z in comps.items():
            row = vec_add(row, vec_neg(vec_scale(ONE / nu,
                                                 _dense_pair_row(algebra, a, z))))
        if any(row):
            expect.append(row)
    return expect


def _assert_positive_multiples(algebra, rows, expect):
    """The sparse rows, in order, are integer rows (Gaussian integer rows
    over QI) that are positive rational multiples of the dense reference
    rows."""
    assert len(rows) == len(expect)
    for row, ref in zip(rows, expect):
        dense = _densify(algebra, row)
        assert all(_integral(c) for c in row.values())
        if not any(ref):  # condition (1) keeps a zero row
            assert not row
            continue
        j = next(j for j, c in enumerate(ref) if c)
        factor = over(dense[j], 1) / ref[j]
        assert type(factor) is Rat and factor > 0
        assert dense == tuple(factor * c for c in ref)


def _fused_coords(eigen, x, y):
    """The eigenbasis coordinates of x * y for integer x and y, with each
    term x_i y_j C_ijk spread over row k of eigen.coordinates at once: no
    product vector in between."""
    rows, inverse = eigen.algebra._int_rows, eigen.coordinates.num
    acc = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in rows[i][j].items():
                for p, d in inverse[k].items():
                    acc[p] = acc.get(p, 0) + a * b * c * d
    return {p: v for p, v in acc.items() if v}


def _full_double_loop(eigen):
    """eigen.products() recomputed with every ordered pair of positions
    multiplied on its own, by _fused_coords."""
    vectors = eigen.eigenvectors.num
    out = []
    for s, (lam, rs) in enumerate(eigen.blocks):
        for mu, qs in eigen.blocks[s:]:
            items = [(r, q, _fused_coords(eigen, vectors[r], vectors[q]))
                     for r in rs for q in qs]
            nus = frozenset(eigen.blocks[eigen.owner[p]][0] for *_, c in items for p in c)
            out.append((lam, mu, nus, items))
    return out


def _assert_deduplicated(eigen):
    """products() equals the full double loop, and within each block
    lam = mu both orders of a pair share one coordinates dict."""
    products = eigen.products()
    assert products == _full_double_loop(eigen)
    for lam, mu, _nus, items in products:
        if lam == mu:
            by_pair = {(r, q): coords for r, q, coords in items}
            assert all(by_pair[(q, r)] is coords for (r, q), coords in by_pair.items())
            size = math.isqrt(len(items))
            assert len({id(coords) for *_, coords in items}) == size * (size + 1) // 2


@pytest.mark.parametrize("name,params,axes,law", CASES)
def test_products_and_rows_match_dense_reference(name, params, axes, law):
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law]
    zero = ZERO
    nrows = 0
    for a in entry.axis_sets[axes]:
        eigen = eigen_decompose(alg, a, hints=law.values)
        ref = DenseReference(alg, eigen).products()
        _assert_matches_dense_reference(alg, eigen, ref)
        _assert_deduplicated(eigen)
        # condition (1): theta(a, k) for the kernel basis of L_a, which is
        # the 0-eigenspace on the axis report that cocycle_space passes
        ker = alg.left_mult_matrix(a).kernel()
        assert check_axis(alg, a, law).eigen.eigenspace(zero) == ker
        _assert_positive_multiples(alg, condition1_rows(alg, a, ker),
                                   [_dense_pair_row(alg, a, k) for k in ker.basis])
        # condition (2): theta(x, y) - sum nu^-1 theta(a, z_nu), nonzero rows
        expect = _dense_condition2_rows(alg, a, law, ref)
        _assert_positive_multiples(alg, condition2_rows(alg, a, law, eigen), expect)
        nrows += len(expect)
    assert nrows > 0


@pytest.mark.slow
def test_integer_rows_match_dense_reference_on_an_albert_axis():
    # the last family axis has entries 1/2, so a is cleared over da = 2
    entry = catalog.build("Albert")
    alg, law = entry.algebra, entry.laws["J12"]
    a = entry.axis_sets["family"][-1]
    assert any(c.denominator == 2 for c in a)
    eigen = eigen_decompose(alg, a, hints=law.values)
    ref = DenseReference(alg, eigen).products()
    _assert_matches_dense_reference(alg, eigen, ref)
    _assert_deduplicated(eigen)
    ker = eigen.eigenspace(ZERO)
    _assert_positive_multiples(alg, condition1_rows(alg, a, ker),
                               [_dense_pair_row(alg, a, k) for k in ker.basis])
    expect = _dense_condition2_rows(alg, a, law, ref)
    assert len(expect) > 100
    _assert_positive_multiples(alg, condition2_rows(alg, a, law, eigen), expect)


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


@pytest.mark.parametrize("name,params,axes,law", CASES)
def test_eigenvectors_and_coordinates_are_inverse(name, params, axes, law):
    # coordinates * eigenvectors is the identity, and row r of eigenvectors
    # is an eigenvector of L_a for the eigenvalue of r's block
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law]
    for a in entry.axis_sets[axes]:
        eigen = eigen_decompose(alg, a, hints=law.values)
        vectors = eigen.eigenvectors
        assert eigen.coordinates * vectors == Matrix.identity(alg.dim, alg.tag)
        for lam, rs in eigen.blocks:
            assert len(rs) == eigen.eigenspace(lam).dim
            for r in rs:
                v = vectors.rows[r]
                assert any(v) and alg.product(a, v) == vec_scale(lam, v)
                assert eigen.eigenspace(lam).contains_vector(v)


def test_cases_cover_both_fields_and_kernels():
    tags = {catalog.build(name, params).algebra.tag for name, params, *_ in CASES}
    assert tags == {FieldTag.QQ, FieldTag.QI}
    entry = catalog.build("Monster4")
    assert any(not entry.algebra.left_mult_matrix(a).kernel().is_zero()
               for a in entry.axis_sets["all"])


# ---------------------------------------------------------------------------
# the integer kernels on random algebras with non-unit denominators, over QQ
# and over QI with Gaussian entries

def _qq_entry(rng):
    if rng.random() < 0.4:
        return Rat(0)
    return Rat(rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 2, 3, 5, 9, 7919]))


def _qi_entry(rng):
    return Scalar(_qq_entry(rng), _qq_entry(rng))


ENTRIES = {FieldTag.QQ: _qq_entry, FieldTag.QI: _qi_entry}


def _random_algebra(rng, dim, tag):
    entry = ENTRIES[tag]
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            entry_ij = {k: c for k in range(dim) if (c := entry(rng))}
            if entry_ij and rng.random() < 0.7:
                products[(i, j)] = entry_ij
    return Algebra(dim, products, tag), products


def _naive_product(products, dim, x, y):
    """x * y summed over all structure constants, dense."""
    out = [Rat(0)] * dim
    for i in range(dim):
        for j in range(dim):
            for k, c in products.get((min(i, j), max(i, j)), {}).items():
                out[k] = out[k] + x[i] * y[j] * c
    return tuple(out)


def _random_eigenbasis(rng, alg, values=None):
    """An Eigenbasis of made-up eigenvalues (values[t] for group t, else
    (t - 1)/2) over a random basis of the field^dim cut into groups:
    components() is the split along that decomposition, whatever the
    algebra."""
    dim, tag = alg.dim, alg.tag
    entry = ENTRIES[tag]
    while True:
        vecs = [[entry(rng) for _ in range(dim)] for _ in range(dim)]
        if Matrix(vecs, tag).kernel().is_zero():
            break
    cuts = sorted(rng.sample(range(1, dim), rng.randint(0, dim - 1)))
    groups = [vecs[a:b] for a, b in zip([0] + cuts, cuts + [dim])]
    pairs = [(values[t] if values else Rat(t - 1, 2), Subspace(g, dim, tag))
             for t, g in enumerate(groups)]
    return Eigenbasis(alg, pairs, True)


def _product_sparse_matches_naive_product(tag, seed):
    rng = random.Random(seed)
    entry = ENTRIES[tag]
    cancelled = 0
    for _ in range(60):
        dim = rng.randint(1, 6)
        alg, products = _random_algebra(rng, dim, tag)
        for _ in range(6):
            x = tuple(entry(rng) for _ in range(dim))
            y = tuple(entry(rng) for _ in range(dim))
            want = _naive_product(products, dim, x, y)
            got = alg.product_sparse({k: a for k, a in enumerate(x) if a},
                                     {k: a for k, a in enumerate(y) if a})
            assert got == {k: a for k, a in enumerate(want) if a}
            assert all(_canonical(a) for a in got.values())
            assert alg.product(x, y) == want
            cancelled += any(x) and any(y) and not any(want)
    return cancelled


def test_product_sparse_matches_naive_product_on_random_qq_algebras():
    assert _product_sparse_matches_naive_product(FieldTag.QQ, 67) > 0


def test_product_sparse_matches_naive_product_on_random_qi_algebras():
    _product_sparse_matches_naive_product(FieldTag.QI, 68)


def _components_match_dense_reference(tag, seed):
    rng = random.Random(seed)
    entry = ENTRIES[tag]
    for _ in range(40):
        alg, _products = _random_algebra(rng, rng.randint(1, 6), tag)
        eigen = _random_eigenbasis(rng, alg)
        ref = DenseReference(alg, eigen)
        for _ in range(6):
            y = tuple(entry(rng) for _ in range(alg.dim))
            comps = eigen.components({k: a for k, a in enumerate(y) if a})
            assert {lam: alg.element(z) for lam, z in comps.items()} == ref.split(y)
            assert list(comps) == list(ref.split(y))
            assert all(_canonical(a) for z in comps.values() for a in z.values())
        _assert_matches_dense_reference(alg, eigen, ref.products())
        _assert_deduplicated(eigen)


def test_components_match_dense_reference_on_random_qq_algebras():
    _components_match_dense_reference(FieldTag.QQ, 73)


def test_components_match_dense_reference_on_random_qi_algebras():
    _components_match_dense_reference(FieldTag.QI, 74)


def _integer_rows_match_dense_reference(tag, seed, values):
    """The condition rows on 30 random algebras for made-up eigenvalues in a
    law whose every cell holds all of them, so every product gives a
    condition (2) row; returns the number of those rows."""
    rng = random.Random(seed)
    entry = ENTRIES[tag]
    nrows = 0
    for _ in range(30):
        alg, _products = _random_algebra(rng, rng.randint(1, 6), tag)
        eigen = _random_eigenbasis(rng, alg, values)
        spectrum = eigen.spectrum()
        law = FusionLaw(spectrum, {(lam, mu): spectrum for lam in spectrum for mu in spectrum},
                        tag)
        a = tuple(entry(rng) for _ in range(alg.dim))
        ref = DenseReference(alg, eigen).products()
        expect = _dense_condition2_rows(alg, a, law, ref)
        _assert_positive_multiples(alg, condition2_rows(alg, a, law, eigen), expect)
        nrows += len(expect)
        ker = eigen.pairs[0][1]
        _assert_positive_multiples(alg, condition1_rows(alg, a, ker),
                                   [_dense_pair_row(alg, a, k) for k in ker.basis])
    return nrows


def test_integer_rows_match_dense_reference_on_random_qq_algebras():
    # nonzero eigenvalues in increasing order with numerators other than 1:
    # nu^-1 needs the lcm of the numerators
    values = [Rat(-5, 7), Rat(2, 3), Rat(6, 5), Rat(9, 4), Rat(3), Rat(10)]
    assert _integer_rows_match_dense_reference(FieldTag.QQ, 83, values) > 100


def test_integer_rows_match_dense_reference_on_random_qi_algebras():
    # non-real eigenvalues, in increasing order, besides two rational ones:
    # nu^-1 of a non-real nu has the norm of nu in its denominator
    values = sorted([Scalar(1, 1), Scalar(0, -2), Scalar(Rat(3, 2), Rat(-1, 2)),
                     Scalar(Rat(2, 3), Rat(6, 5)), Rat(-5, 7), Rat(10)], key=sort_key)
    assert _integer_rows_match_dense_reference(FieldTag.QI, 84, values) > 100


# ---------------------------------------------------------------------------
# the violation path against a dense reference that splits each eigenvector
# product by solving P c = xy, P the eigenvectors as columns

AXIS_VALUES = {FieldTag.QQ: [ZERO, ONE, Rat(1, 2), Rat(1, 4), Rat(-1), Rat(2)],
               FieldTag.QI: [ZERO, ONE, Rat(1, 2), Scalar(0, 1), Scalar(1, -1)]}


def _random_axis_algebra(rng, tag):
    """(algebra, a): a random 3- to 5-dim commutative algebra with the
    idempotent a.  In a hidden basis e, e0 e0 = e0, e0 ej = lam_j ej with
    lam_j from AXIS_VALUES (at most two of them non-real, so the root scan
    without hints finds them all) and the other products random; the
    algebra is given in the basis f_i = sum_k T_ik e_k for a random
    invertible T, so its eigenvectors are not basis vectors."""
    dim = rng.randint(3, 5)
    entry = ENTRIES[tag]
    while True:
        lams = [ONE] + [rng.choice(AXIS_VALUES[tag]) for _ in range(dim - 1)]
        if sum(type(lam) is Scalar and lam.im != 0 for lam in lams) <= 2:
            break
    hidden = {(0, j): {j: lams[j]} for j in range(dim) if lams[j]}
    for i in range(1, dim):
        for j in range(i, dim):
            if rng.random() < 0.6:
                hidden[(i, j)] = {k: c for k in range(dim) if (c := entry(rng))}
    e = Algebra(dim, hidden, tag)
    while True:
        t = [[entry(rng) for _ in range(dim)] for _ in range(dim)]
        if Matrix(t, tag).kernel().is_zero():
            break
    to_f = Matrix(t, tag).inverse().transpose()  # e-coordinates -> f-coordinates
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            v = {k: c for k, c in enumerate(to_f.apply(e.product(t[i], t[j]))) if c}
            if v:
                products[(i, j)] = v
    return Algebra(dim, products, tag), to_f.apply(e.basis_element(0))


def _random_law(rng, spectrum, tag):
    """A law on the spectrum whose cells are random subsets of it."""
    table = {}
    for s, lam in enumerate(spectrum):
        for mu in spectrum[s:]:
            table[(lam, mu)] = [nu for nu in spectrum if rng.random() < 0.6]
    return FusionLaw(spectrum, table, tag)


def _dense_solve(rows, b):
    """The solution c of rows c = b, for square nonsingular dense rows, by
    Gauss-Jordan elimination on the augmented rows."""
    n = len(rows)
    aug = [list(r) + [x] for r, x in zip(rows, b, strict=True)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = vec_scale(ONE / aug[col][col], aug[col])
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = vec_add(aug[r], vec_scale(-aug[r][col], aug[col]))
    return [r[n] for r in aug]


def _dense_split_products(algebra, eigen):
    """[(lam, mu, x, y, nus)] in the order of products(): nus the eigenvalues,
    in eigenvalue order, whose positions carry a nonzero entry of the
    solution c of P c = xy, P the eigenbasis as columns."""
    basis = [b for _, space in eigen.pairs for b in space.basis]
    p = list(zip(*basis))
    ranges, start = [], 0
    for lam, space in eigen.pairs:
        ranges.append((lam, range(start, start + space.dim)))
        start += space.dim
    out = []
    for s, (lam, vspace) in enumerate(eigen.pairs):
        for mu, wspace in eigen.pairs[s:]:
            for x in vspace.basis:
                for y in wspace.basis:
                    c = _dense_solve(p, algebra.product(x, y))
                    nus = [nu for nu, rs in ranges if any(c[r] for r in rs)]
                    out.append((lam, mu, x, y, nus))
    return out


def _dense_violations(law, split):
    return [("fusion_violation", (lam, mu, nu, x, y))
            for lam, mu, x, y, nus in split for nu in nus if nu not in law.star(lam, mu)]


def _dense_escape(law, split):
    """The text extension_axiality raises on the first product, in
    products() order, that escapes its cell; None when there is none."""
    for lam, mu, _x, _y, nus in split:
        cell = law.star(lam, mu)
        bad = [nu for nu in nus if nu not in cell]
        if bad:
            return (f"eigenspace product escapes the law cell ({render_scalar(lam)}, "
                    f"{render_scalar(mu)}): components at "
                    f"[{', '.join(map(render_scalar, bad))}]")
    return None


def _dense_minimal_law(algebra, eigen, split):
    table = {}
    for lam, mu, _x, _y, nus in split:
        if nus:
            table[(lam, mu)] = table.get((lam, mu), frozenset()).union(nus)
    return FusionLaw(eigen.spectrum(), table, algebra.tag)


@pytest.mark.parametrize("tag,seed", [(FieldTag.QQ, 91), (FieldTag.QI, 92)])
def test_violation_path_matches_dense_reference(tag, seed):
    rng = random.Random(seed)
    seen = {"violations": 0, "clean": 0, "escape": 0}
    for _ in range(25):
        alg, a = _random_axis_algebra(rng, tag)
        plain = eigen_decompose(alg, a)
        assert plain.semisimple
        assert minimal_law(alg, [a]) == _dense_minimal_law(
            alg, plain, _dense_split_products(alg, plain))
        law = _random_law(rng, plain.spectrum(), tag)
        rep = check_axis(alg, a, law)
        split = _dense_split_products(alg, rep.eigen)
        assert rep.violations == _dense_violations(law, split)
        seen["violations" if rep.violations else "clean"] += 1
        escape = _dense_escape(law, split)
        theta = Cocycle.from_entries(alg.dim, {(0, 1): ONE}, tag)
        if escape is None:
            extension_axiality(alg, theta, [a], law)
        else:
            with pytest.raises(ExtensionError) as info:
                extension_axiality(alg, theta, [a], law)
            assert str(info.value) == escape
            seen["escape"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the extension layer reads one law verdict: extension_axiality and
# cocycle_space refuse exactly the axis sets that check_axis refuses

# e1 + (2/3)e2 is a 3-eigenvector of e1 whose square escapes the cell
# 3*3 = {1, 0}, a cell that holds 0; and an axis b1 whose spectrum holds 0,
# which is no value of the law
MOTIVATING_FILES = (
    "dim 2\nbasis e1 e2\nproduct 1 1: 1 e1\nproduct 1 2: 3 e1, 3 e2\nproduct 2 2: 1 e2\n"
    "set X: e1 e2\nlaw F: 1 3 0\ncell F 3 3: 1 0\ncell F 0 0: 0\ncocycle t 1 2: 1\n",
    "dim 2\nbasis b1 b2\nproduct 1 1: 1 b1\nset X: b1\nlaw F: 1\ncocycle t 1 2: 1\n",
)


def _random_axis_set(rng, tag):
    """(algebra, axes): a random axis algebra with its axis, or the direct
    sum of two, with both axes embedded."""
    alg, a = _random_axis_algebra(rng, tag)
    if rng.random() < 0.5:
        return alg, [a]
    other, b = _random_axis_algebra(rng, tag)
    return alg.direct_sum(other), [a + other.zero(), alg.zero() + b]


def _random_axis_law(rng, alg, axes, tag):
    """A law for the axes: the minimal law with random cells added, which
    every axis passes; a random law on the joint spectrum; or a random law
    on the spectrum less one value."""
    spectrum = sorted(minimal_law(alg, axes).values, key=sort_key)
    kind = rng.randrange(3)
    if kind == 2 and len(spectrum) > 1:
        spectrum.remove(rng.choice(spectrum))
    law = _random_law(rng, spectrum, tag)
    if kind:
        return law
    least = minimal_law(alg, axes)
    return FusionLaw(spectrum, {(lam, mu): least.star(lam, mu) | law.star(lam, mu)
                                for lam in spectrum for mu in spectrum}, tag)


def _random_theta(rng, alg, axes, law):
    """A random cocycle on alg, or, when the axes pass, a random element of
    Z(alg, law; axes)."""
    tag = alg.tag
    n = alg.dim
    if rng.random() < 0.5:
        try:
            space = cocycle_space(alg, axes, law).space
        except ExtensionError:
            space = None
        if space is not None and space.dim:
            coeffs = {k: ENTRIES[tag](rng) for k in range(space.dim)}
            v = {}
            for k, row in enumerate(space.sparse_rows):
                for t, c in row.items():
                    v[t] = v.get(t, ZERO) + coeffs[k] * c
            return Cocycle([v], n, tag)
    entries = {(i, j): ENTRIES[tag](rng) for i in range(n) for j in range(i, n)
               if rng.random() < 0.5}
    return Cocycle.from_entries(n, entries, tag)


def _assert_one_law_verdict(alg, axes, law, theta):
    """extension_axiality and cocycle_space refuse exactly when check_axis
    reports a violation on some axis, both with the text of its first one;
    otherwise theta_in_z is the membership of theta in Z.  Returns what was
    seen."""
    refused = next(((a, rep.violations[0][0]) for a in axes
                    if (rep := check_axis(alg, a, law)).violations), None)
    if refused is None:
        rep = extension_axiality(alg, theta, axes, law)
        assert rep.theta_in_z == cocycle_space(alg, axes, law).contains(theta)
        return "in_z" if rep.theta_in_z else "outside_z"
    a, kind = refused
    with pytest.raises(ExtensionError) as info:
        extension_axiality(alg, theta, axes, law)
    expect = {"spectrum_outside_law": f"axis {alg.render_element(a)} has eigenvalues "
                                      f"outside the law: [",
              "fusion_violation": "eigenspace product escapes the law cell ("}[kind]
    assert str(info.value).startswith(expect)
    with pytest.raises(ExtensionError) as again:
        cocycle_space(alg, axes, law)
    assert str(again.value) == str(info.value)
    return kind


@pytest.mark.parametrize("text", MOTIVATING_FILES, ids=["escape-zero-cell", "spectrum-outside"])
def test_motivating_files_are_refused_by_both(text):
    bundle = parse_algebra_file(text)
    seen = _assert_one_law_verdict(bundle.algebra, list(bundle.sets["X"]), bundle.laws["F"],
                                   bundle.cocycles["t"])
    assert seen in ("fusion_violation", "spectrum_outside_law")


def test_only_a_violation_builds_the_field_view_of_the_eigenvectors():
    # law_violations reads eigenvectors.sparse_rows only to report a
    # violation: a passing axis keeps its eigenvectors in integer form only
    for name, params, axes, law in CASES:
        entry = catalog.build(name, params)
        for a in entry.axis_sets[axes]:
            rep = check_axis(entry.algebra, a, entry.laws[law])
            assert rep.is_axis and rep.eigen.eigenvectors._sparse is None
    bundle = parse_algebra_file(MOTIVATING_FILES[0])
    escapes = [check_axis(bundle.algebra, a, bundle.laws["F"]) for a in bundle.sets["X"]]
    escapes = [rep for rep in escapes if rep.violations]
    assert escapes and all(rep.eigen.eigenvectors._sparse is not None for rep in escapes)


@pytest.mark.parametrize("tag,seed", [(FieldTag.QQ, 93), (FieldTag.QI, 94)])
def test_extension_layer_reads_the_axis_check(tag, seed):
    rng = random.Random(seed)
    seen = {"in_z": 0, "outside_z": 0, "fusion_violation": 0, "spectrum_outside_law": 0}
    for _ in range(24):
        alg, axes = _random_axis_set(rng, tag)
        law = _random_axis_law(rng, alg, axes, tag)
        seen[_assert_one_law_verdict(alg, axes, law, _random_theta(rng, alg, axes, law))] += 1
    assert all(seen.values()), seen
