"""Differential tests of the sparse cocycle form against a naive dense
reference: each coordinate of theta as a symmetric Gram matrix G, with
theta(x, y) = x^T G y, and the vectorization as the row-major upper triangle
of G."""

import random

import pytest

from axial import catalog
from axial.extension import (Cocycle, aut_action, build_extension, coboundary,
                             cocycle_space, is_split, normalize_on_axes)
from axial.linalg import Matrix, Subspace, sparse_vector
from axial.scalars import ZERO, FieldTag, Rat, Scalar

# (name, params, axis-set key); JordanD is the algebra over Q(i)
CASES = [("B", {}, "X12"), ("D", {}, "X16"), ("Monster4", {}, "X01"),
         ("J25", {}, "no_unity"), ("JordanB", {"n": 2}, "family"),
         ("JordanD", {"n": 3}, "family"), ("JordanD", {"n": 4}, "family")]
IDS = [f"{name}{params.get('n', '')}" for name, params, _ in CASES]
SEEDS = range(3)


def _element(rng, tag):
    re = Rat(rng.randint(-3, 3), rng.randint(1, 3))
    if tag is FieldTag.QI and rng.random() < 0.5:
        return Scalar(re, Rat(rng.randint(-2, 2), rng.randint(1, 2)))
    return re


def _vector(rng, n, tag):
    return tuple(_element(rng, tag) if rng.random() < 0.7 else ZERO for _ in range(n))


def _gram(rng, n, tag):
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                g[i][j] = g[j][i] = _element(rng, tag)
    return g


def _theta(rng, grams, tag):
    """The cocycle of the Gram matrices, each entry given in a random order."""
    n = len(grams[0])
    entries = {}
    for i in range(n):
        for j in range(i, n):
            key = (j, i) if rng.random() < 0.5 else (i, j)
            entries[key] = tuple(g[i][j] for g in grams)
    return Cocycle.from_entries(n, entries, tag, s=len(grams))


def _form(g, x, y):
    acc = ZERO
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            acc = acc + a * g[i][j] * b
    return acc


def _upper(g):
    n = len(g)
    return tuple(g[i][j] for i in range(n) for j in range(i, n))


def _dense(mats):
    return [[list(r) for r in m.rows] for m in mats]


def _delta(alg, f):
    """Gram matrices of delta f, f an n x s list of rows: f(b_i b_j)."""
    n, s = alg.dim, len(f[0])
    out = [[[ZERO] * n for _ in range(n)] for _ in range(s)]
    for g in range(s):
        for i in range(n):
            for j in range(n):
                for k, c in alg.basis_product(i, j).items():
                    out[g][i][j] = out[g][i][j] + c * f[k][g]
    return out


def _entry(case):
    name, params, key = case
    entry = catalog.build(name, params)
    return entry.algebra, entry.axis_sets[key], entry.law_for(key)


def _draws(case):
    """(rng, s, grams) per seed and coordinate count."""
    alg = _entry(case)[0]
    for seed in SEEDS:
        for s in (1, 2, 3):
            rng = random.Random(1000 * seed + 10 * s + len(case[0]))
            yield rng, s, [_gram(rng, alg.dim, alg.tag) for _ in range(s)]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_evaluate_mats_and_vectors(case):
    alg = _entry(case)[0]
    n, tag = alg.dim, alg.tag
    for rng, s, grams in _draws(case):
        theta = _theta(rng, grams, tag)
        assert theta.s == s and _dense(theta.mats) == grams
        assert theta == Cocycle([sparse_vector(_upper(g)) for g in grams], n, tag)
        points = [alg.basis_element(k) for k in range(n)]
        points += [_vector(rng, n, tag) for _ in range(4)]
        for x in points:
            for y in points:
                assert theta.evaluate(x, y) == tuple(_form(g, x, y) for g in grams)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_build_extension(case):
    alg, axes, _law = _entry(case)
    n = alg.dim
    for rng, s, grams in _draws(case):
        ext, lifted = build_extension(alg, _theta(rng, grams, alg.tag), axes)
        assert ext.dim == n + s
        for i in range(n + s):
            for j in range(n + s):
                want = dict(alg.basis_product(i, j)) if max(i, j) < n else {}
                if max(i, j) < n:
                    want.update({n + g: gm[i][j] for g, gm in enumerate(grams) if gm[i][j]})
                assert ext.basis_product(i, j) == want
        assert lifted == [tuple(a) + tuple(_form(g, a, a) for g in grams) for a in axes]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_coboundary(case):
    alg = _entry(case)[0]
    n, tag = alg.dim, alg.tag
    for rng, s, _grams in _draws(case):
        f = [list(_vector(rng, s, tag)) for _ in range(n)]
        assert _dense(coboundary(alg, Matrix(tuple(map(tuple, f)), tag)).mats) == _delta(alg, f)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_aut_action(case):
    alg = _entry(case)[0]
    n, tag = alg.dim, alg.tag
    for rng, _s, grams in _draws(case):
        while True:
            phi = Matrix(tuple(_vector(rng, n, tag) for _ in range(n)), tag)
            if phi.kernel().is_zero():
                break
        want = [[[_form(g, [r[i] for r in phi.rows], [r[j] for r in phi.rows])
                  for j in range(n)] for i in range(n)] for g in grams]
        assert _dense(aut_action(_theta(rng, grams, tag), phi).mats) == want


def _degenerate(rng, grams):
    """Copies of the Gram matrices, each with the rows and columns of a
    random set of indices zeroed: those basis vectors lie in its radical."""
    n = len(grams[0])
    out = []
    for g in grams:
        dead = set(rng.sample(range(n), rng.randint(0, n)))
        out.append([[ZERO if i in dead or j in dead else x for j, x in enumerate(r)]
                    for i, r in enumerate(g)])
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_radical(case):
    # theta-perp by its definition: the x with theta_g(x, b_j) = 0 for every
    # coordinate g and basis vector b_j, one equation in x per (g, j)
    alg = _entry(case)[0]
    n, tag = alg.dim, alg.tag
    basis = [alg.basis_element(k) for k in range(n)]
    first_only_differs = 0
    for rng, s, grams in _draws(case):
        for gs in (grams, _degenerate(rng, grams), _degenerate(rng, grams)):
            rows = [[_form(g, e, b) for e in basis] for g in gs for b in basis]
            want = Matrix(rows, tag).kernel()
            got = _theta(rng, gs, tag).radical()
            assert got == want
            for x in got.basis:
                assert all(not _form(g, x, b) for g in gs for b in basis)
            first_only_differs += Matrix(rows[:n], tag).kernel() != want
    # a radical of the first coordinate alone would fail here
    assert first_only_differs


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_normalize_on_axes(case):
    alg, axes, _law = _entry(case)
    n, tag = alg.dim, alg.tag
    # the axes completed by the standard vectors that raise the rank
    rows = [tuple(a) for a in axes]
    for j in range(n):
        if Subspace(rows + [alg.basis_element(j)], n, tag).dim > len(rows):
            rows.append(alg.basis_element(j))
    rinv = Matrix(tuple(rows), tag).inverse().rows
    for rng, s, grams in _draws(case):
        # f(r_k) = theta(a_k, a_k) on the axes, 0 on the completion
        values = [[_form(g, a, a) for g in grams] for a in axes]
        values += [[ZERO] * s for _ in range(n - len(axes))]
        f = [[sum((rinv[j][k] * values[k][g] for k in range(n)), ZERO) for g in range(s)]
             for j in range(n)]
        want = [[[gm[i][j] - dm[i][j] for j in range(n)] for i in range(n)]
                for gm, dm in zip(grams, _delta(alg, f))]
        out = normalize_on_axes(alg, _theta(rng, grams, tag), axes)
        assert _dense(out.mats) == want


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_is_split(case):
    alg = _entry(case)[0]
    n, tag = alg.dim, alg.tag
    ident = [[ZERO] * k + [Rat(1)] + [ZERO] * (n - k - 1) for k in range(n)]
    cob = [_upper(g) for g in _delta(alg, ident)]
    dim_b = Subspace(cob, len(cob[0]), tag).dim
    verdicts = set()
    for rng, s, grams in _draws(case):
        if s > 1 and rng.random() < 0.5:
            # the last coordinate twice the first plus a coboundary: split
            f = [[_element(rng, tag)] for _ in range(n)]
            d = _delta(alg, f)[0]
            grams[-1] = [[2 * a + b for a, b in zip(r, dr)] for r, dr in zip(grams[0], d)]
        span = Subspace(cob + [_upper(g) for g in grams], len(cob[0]), tag)
        verdict = is_split(alg, _theta(rng, grams, tag))
        assert (verdict == "split") == (span.dim < dim_b + s)
        verdicts.add(verdict == "split")
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_space_membership(case):
    alg, axes, law = _entry(case)
    n, tag = alg.dim, alg.tag
    cs = cocycle_space(alg, axes, law)
    seen = set()
    for rng, s, grams in _draws(case):
        # a Gram matrix as drawn, a combination of Z, a coboundary, or both
        kind = rng.randrange(4)
        for g in range(s):
            vec = _upper(grams[g]) if kind == 0 else [ZERO] * len(_upper(grams[g]))
            if kind in (1, 3):
                for b in cs.space.basis:
                    c = _element(rng, tag)
                    vec = [v + c * x for v, x in zip(vec, b)]
            if kind in (2, 3):
                f = [[_element(rng, tag)] for _ in range(n)]
                vec = [v + d for v, d in zip(vec, _upper(_delta(alg, f)[0]))]
            grams[g] = _dense(Cocycle([sparse_vector(vec)], n, tag).mats)[0]
        theta = _theta(rng, grams, tag)
        in_z = all(cs.space.contains_vector(_upper(g)) for g in grams)
        in_b = all(cs.coboundaries.contains_vector(_upper(g)) for g in grams)
        assert cs.contains(theta) == in_z
        assert cs.class_is_zero(theta) == in_b
        seen.add((in_z, in_b))
    # B lies in Z; Z has a class outside B exactly when the quotient is nonzero
    assert seen == {(False, False), (True, True)} | ({(True, False)} if cs.quotient_dim else set())
