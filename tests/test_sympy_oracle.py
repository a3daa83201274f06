"""Differential tests of the exact core against sympy, an independent
implementation of exact linear algebra over the rationals and Q(i):
characteristic polynomials, reduced row echelon forms, kernels and the
eigenvalue multiplicities found by eigen_decompose; and the structure
constants of the matrix series JordanA/B/C against matrices multiplied in
sympy."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from axial import catalog  # noqa: E402
from axial.scalars import ZERO, FieldTag, Rat, Scalar  # noqa: E402
from axial.spectral import char_poly, eigen_decompose  # noqa: E402
from test_linalg import reducer_of  # noqa: E402
from test_spectral import OFF_SPECTRUM, assert_eigenspaces_are_field_kernels  # noqa: E402

T = sympy.Symbol("t")

# (name, params): every entry over QQ up to dimension 9, and JordanD over QI
CASES = [(name, {}) for name in ("A", "B", "C", "D", "E", "F", "G", "H", "I",
                                 "Monster4", "J25", "J53", "J59")]
CASES += [("S", {"n": 3}), ("J", {"n": 3}), ("T", {"n": 3}),
          ("JordanA", {"n": 2}), ("JordanA", {"n": 3}), ("JordanB", {"n": 3}),
          ("JordanC", {"n": 2}), ("JordanD", {"n": 3}), ("JordanD", {"n": 4})]


def to_sympy(x):
    if type(x) is Scalar:
        return sympy.Rational(x.re.numerator, x.re.denominator) + \
            sympy.Rational(x.im.numerator, x.im.denominator) * sympy.I
    return sympy.Rational(x.numerator, x.denominator)


def from_sympy(x):
    re, im = sympy.re(x), sympy.im(x)
    assert re.is_rational and im.is_rational
    return Scalar(Rat(int(re.p), int(re.q)), Rat(int(im.p), int(im.q)))


def sympy_matrix(m):
    return sympy.Matrix([[to_sympy(a) for a in row] for row in m.rows])


def same(ours, theirs):
    return sympy.expand(to_sympy(ours) - theirs) == 0


def _random_scalar(rng, tag):
    re = Rat(rng.choice([-2, -1, 0, 0, 1, 2]), rng.choice([1, 1, 2, 3]))
    im = Rat(rng.choice([-1, 0, 0, 1]), rng.choice([1, 2])) if tag is FieldTag.QI else 0
    return Scalar(re, im)


def _operators():
    """(label, algebra, element, matrix of x -> element * x): for every
    case, up to three axes, two seeded random elements, and random multiples
    c a and combinations c a + d b of axes, whose eigenvalues lie in the
    field more often than those of random elements."""
    rng = random.Random(20221101)
    for name, params in CASES:
        entry = catalog.build(name, params)
        alg = entry.algebra
        axes = [a for axes in entry.axis_sets.values() for a in axes]
        elements = axes[:3]
        elements += [tuple(_random_scalar(rng, alg.tag) for _ in range(alg.dim))
                     for _ in range(2)]
        for _ in range(2):
            (c, a), (d, b) = [(_random_scalar(rng, alg.tag) or Rat(1), rng.choice(axes))
                              for _ in range(2)]
            elements.append(tuple(c * p for p in a))
            elements.append(tuple(c * p + d * q for p, q in zip(a, b)))
        for k, x in enumerate(elements):
            yield f"{name}{params} #{k}", alg, x, alg.left_mult_matrix(x)


OPERATORS = list(_operators())


def test_cases_cover_both_fields():
    tags = {alg.tag for _label, alg, _x, _m in OPERATORS}
    assert tags == {FieldTag.QQ, FieldTag.QI}
    assert any(type(a) is Scalar for _l, _alg, _x, m in OPERATORS
               for row in m.rows for a in row)
    # some operators have eigenvalues with an imaginary part
    assert sum(any(type(r) is Scalar for r in map(from_sympy, _field_roots(m, alg.tag)))
               for _l, alg, _x, m in OPERATORS if alg.tag is FieldTag.QI) >= 5


@pytest.mark.parametrize("label, alg, x, m", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_char_poly(label, alg, x, m):
    theirs = sympy_matrix(m).charpoly(T).all_coeffs()
    ours = char_poly(m)
    assert len(ours) == len(theirs)
    assert all(same(a, b) for a, b in zip(ours, theirs)), label


@pytest.mark.parametrize("label, alg, x, m", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_rref_and_kernel(label, alg, x, m):
    sm = sympy_matrix(m)
    red = reducer_of(m)
    reduced, pivots = red.rref_form(), red.pivot_columns()
    s_reduced, s_pivots = sm.rref()
    assert tuple(pivots) == tuple(s_pivots)
    # sympy pads the RREF with zero rows to the row count of m
    ours = [a for row in reduced.rows for a in row]
    ours += [ZERO] * ((m.nrows - reduced.nrows) * m.ncols)
    assert len(ours) == len(s_reduced)
    assert all(same(a, b) for a, b in zip(ours, list(s_reduced)))
    kernel = m.kernel()
    nullspace = sm.nullspace()
    assert kernel.dim == len(nullspace)
    # the same span: sympy's kernel vectors lie in ours, and ours are killed
    for v in nullspace:
        assert kernel.contains_vector(tuple(from_sympy(c) for c in v))
    for b in kernel.basis:
        product = (sm * sympy.Matrix([to_sympy(c) for c in b])).expand()
        assert product == sympy.zeros(m.nrows, 1)


def _field_roots(m, tag):
    """{root: algebraic multiplicity} of the characteristic polynomial of m
    over the field, from sympy's factorization."""
    domain = "QQ" if tag is FieldTag.QQ else "QQ<I>"
    poly = sympy.Poly(sympy_matrix(m).charpoly(T).as_expr(), T, domain=domain)
    roots = {}
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots[sympy.nsimplify(sympy.expand(-b / a))] = mult
    return roots


@pytest.mark.parametrize("hinted", [False, True], ids=["found", "hinted"])
@pytest.mark.parametrize("label, alg, x, m", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_eigen_multiplicities(label, alg, x, m, hinted):
    # hinted: the field roots are passed as candidates, as a law's values
    # are; found: every root in the field comes from field_roots
    roots = _field_roots(m, alg.tag)
    ed = eigen_decompose(alg, x, hints=[from_sympy(r) for r in roots] if hinted else ())
    sm = sympy_matrix(m)
    ours = {to_sympy(lam): space.dim for lam, space in ed.pairs}
    # every eigenvalue found is a root in the field; its eigenspace has the
    # geometric multiplicity, at most the algebraic one
    for lam, dim in ours.items():
        assert lam in roots, label
        geometric = len((sm - lam * sympy.eye(alg.dim)).nullspace())
        assert dim == geometric <= roots[lam]
    # every root in the field is found, with or without hints
    assert set(ours) == set(roots), label
    assert ed.semisimple == (sum(ours.values()) == alg.dim)
    if ed.semisimple:
        assert ours == roots


@pytest.mark.parametrize("label, alg, x, m", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_eigenspaces_are_the_field_kernels(label, alg, x, m):
    # the integer kernels of q N - p den I against L_x - lam I in field
    # arithmetic, with the field roots, 0 and values off the spectrum as hints
    roots = [from_sympy(r) for r in _field_roots(m, alg.tag)]
    assert_eigenspaces_are_field_kernels(alg, x, ())
    assert_eigenspaces_are_field_kernels(alg, x, (Rat(0), *roots, *OFF_SPECTRUM[alg.tag]))


# ---------------------------------------------------------------------------
# the matrix series against sympy matrices built from their definitions

MATRIX_SERIES = [(name, n) for name in ("JordanA", "JordanB", "JordanC")
                 for n in (1, 2, 3)]


def _series_units(name, n):
    """(kind, i, j) per basis element, in basis order: E_ij in JordanA;
    E_ii then F_ij (i < j) in JordanB; D_ij, then U_ij and L_ij (i < j) in
    JordanC."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if name == "JordanA":
        return [("E", i, j) for i in range(n) for j in range(n)]
    if name == "JordanB":
        return [("E", i, i) for i in range(n)] + [("F", i, j) for i, j in upper]
    return ([("D", i, j) for i in range(n) for j in range(n)]
            + [("U", i, j) for i, j in upper] + [("L", i, j) for i, j in upper])


def _series_matrix(name, n, kind, i, j):
    """The sparse sympy matrix of a basis element: E_ij and F_ij = E_ij + E_ji
    in JordanA/B; in JordanC, of size 2n, D_ij = E_(i,j) + E_(n+j,n+i),
    U_ij = E_(i,n+j) - E_(j,n+i) and L_ij = E_(n+i,j) - E_(n+j,i)."""
    entries = {"E": {(i, j): 1}, "F": {(i, j): 1, (j, i): 1},
               "D": {(i, j): 1, (n + j, n + i): 1},
               "U": {(i, n + j): 1, (j, n + i): -1},
               "L": {(n + i, j): 1, (n + j, i): -1}}[kind]
    size = 2 * n if name == "JordanC" else n
    return sympy.SparseMatrix(size, size, entries)


@pytest.mark.parametrize("name, n", MATRIX_SERIES)
def test_matrix_series_products_match_dense_matrices(name, n):
    # coordinates of (XY + YX)/2 solved for in sympy
    alg = catalog.build(name, {"n": n}).algebra
    units = _series_units(name, n)
    sep = "_" if n >= 10 else ""
    assert alg.labels == tuple(f"{kind}{i+1}{sep}{j+1}" for kind, i, j in units)
    mats = [sympy.Matrix(_series_matrix(name, n, *u)) for u in units]
    if name == "JordanC":
        # the defining identity J^-1 X^T J = X for J = [[0, I], [-I, 0]]
        j = sympy.Matrix(sympy.BlockMatrix([[sympy.zeros(n, n), sympy.eye(n)],
                                            [-sympy.eye(n), sympy.zeros(n, n)]]))
        assert all(j.inv() * m.T * j == m for m in mats)
    flat = sympy.Matrix.hstack(*[m.reshape(m.rows * m.cols, 1) for m in mats])
    assert flat.rank() == alg.dim
    left = (flat.T * flat).inv() * flat.T
    for a in range(alg.dim):
        for b in range(a, alg.dim):
            prod = (mats[a] * mats[b] + mats[b] * mats[a]) / 2
            vec = prod.reshape(prod.rows * prod.cols, 1)
            coords = left * vec
            assert flat * coords == vec, (name, n, a, b)
            ours = alg.basis_product(a, b)
            assert [to_sympy(ours.get(k, Rat(0))) for k in range(alg.dim)] == list(coords)


def _jordan_a_closed_form(n, i, j, k, l):
    """E_ij o E_kl = 1/2 (delta_jk E_il + delta_li E_kj), as {index: Rat}."""
    half = Rat(1, 2)
    out = {}
    if j == k:
        out[i * n + l] = half
    if l == i:
        out[k * n + j] = out.get(k * n + j, Rat(0)) + half
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jordan_a_closed_form(n):
    alg = catalog.build("JordanA", {"n": n}).algebra
    units = [(i, j) for i in range(n) for j in range(n)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            assert alg.basis_product(a, b) == _jordan_a_closed_form(n, i, j, k, l)


# the largest n of each series within the dimension bound builds, and a
# sample of its products matches sympy: (XY + YX)/2 equals the combination of
# basis matrices given by the product's coordinates
@pytest.mark.slow
@pytest.mark.parametrize("name, n, dim", [("JordanA", 32, 1024), ("JordanB", 44, 990),
                                          ("JordanC", 22, 946)])
def test_matrix_series_at_the_dimension_bound(name, n, dim):
    alg = catalog.build(name, {"n": n}).algebra
    assert alg.dim == dim == catalog._ENTRIES[name][2](n)
    units = _series_units(name, n)
    mats = [_series_matrix(name, n, *u) for u in units]
    rng = random.Random(n)
    nonzero = zero = 0
    while nonzero < 60:
        a, b = rng.randrange(dim), rng.randrange(dim)
        ours = alg.basis_product(a, b)
        if not ours and zero == 60:
            continue
        if name == "JordanA":
            assert ours == _jordan_a_closed_form(n, *units[a][1:], *units[b][1:])
        prod = (mats[a] * mats[b] + mats[b] * mats[a]) / 2
        combo = sympy.SparseMatrix(mats[a].rows, mats[a].cols, {})
        for k, c in ours.items():
            combo += to_sympy(c) * mats[k]
        assert prod == combo, (name, a, b)
        nonzero, zero = nonzero + bool(ours), zero + (not ours)
