"""Sign-flip automorphisms, group and axis closures, axis-swap maps."""

import hashlib
import json
import random

import pytest

from axial import catalog, miyamoto
from axial.algebra import Algebra
from axial.errors import (AxialError, CatalogError, DimensionMismatchError,
                          FieldMismatchError, NotIdempotentError)
from axial.fusion import C2Grading, find_c2_gradings
from axial.linalg import Matrix
from axial.miyamoto import (AutMatrix, axis_closure, find_flip, group_closure,
                            is_automorphism, tau_automorphism)
from axial.scalars import ONE, ZERO, FieldTag, Rat, Scalar, render_scalar
from axial.spectral import Eigenbasis


def q(n, d=1):
    return Rat(n, d)


def _scaled(m, c):
    """c m, built from the entries of m."""
    return Matrix([[c * a for a in r] for r in m.rows], m.tag)


def _zero(nrows, ncols, tag):
    """The nrows x ncols zero Matrix, built from its entries."""
    return Matrix([[ZERO] * ncols for _ in range(nrows)], tag)


def _taus(entry, axes_key, law_key):
    law = entry.laws[law_key]
    grad = entry.gradings[law_key]
    return [tau_automorphism(entry.algebra, a, law, grad)
            for a in entry.axis_sets[axes_key]]


class TestTau:
    def test_tau_is_automorphism_and_involution(self):
        entry = catalog.build("B")
        for t in _taus(entry, "X12", "FB"):
            assert is_automorphism(entry.algebra, t.matrix)
            ident = Matrix.identity(2, FieldTag.QQ)
            assert t.matrix * t.matrix == ident

    def test_tau_reads_components_not_products(self, monkeypatch):
        # the sign map needs only the split of each basis vector; the
        # eigenvector products are work for the axis check alone
        def refuse(self):
            raise AssertionError("tau_automorphism computed the products")
        monkeypatch.setattr(Eigenbasis, "products", refuse)
        entry = catalog.build("JordanC", {"n": 2})
        law = entry.laws["J12"]
        grading = next(g for g in find_c2_gradings(law) if g.minus)
        for a in entry.axis_sets["family"]:
            tau_automorphism(entry.algebra, a, law, grading)

    def test_rejects_non_multiplicative_and_singular(self):
        alg = catalog.build("B").algebra
        ident = Matrix.identity(2, FieldTag.QQ)
        assert is_automorphism(alg, ident)
        # invertible, but m(xy) = 2xy while m(x)m(y) = 4xy
        assert not is_automorphism(alg, _scaled(ident, q(2)))
        # the zero map is multiplicative; only invertibility rejects it
        assert not is_automorphism(alg, _zero(2, 2, FieldTag.QQ))

    def test_rejects_non_axes(self):
        # JordanC n=2 under J12 with the grading {0, 1} | {1/2}: the zero
        # element would give the identity, half the unit -id (not an
        # automorphism); neither is a nonzero idempotent
        entry = catalog.build("JordanC", {"n": 2})
        alg, law = entry.algebra, entry.laws["J12"]
        grading = next(g for g in find_c2_gradings(law) if g.minus)
        half_unit = alg.element({0: q(1, 2), 3: q(1, 2)})
        for x in (alg.zero(), half_unit):
            with pytest.raises(NotIdempotentError, match="nonzero idempotent"):
                tau_automorphism(alg, x, law, grading)

    def test_a_grading_invalid_for_the_law_keeps_its_refusal(self):
        # JordanC n=2 under J12 with {0, 1/2} | {1}: the axis passes the law,
        # but 1/2 * 1/2 reaches 1, so the sign map is not multiplicative
        entry = catalog.build("JordanC", {"n": 2})
        law = entry.laws["J12"]
        grading = C2Grading(frozenset((q(0), q(1, 2))), frozenset((q(1),)), 1)
        with pytest.raises(AxialError) as info:
            tau_automorphism(entry.algebra, entry.axis_sets["family"][0], law, grading)
        assert str(info.value) == ("eigenspace sign map is not an automorphism (grading "
                                   "incompatible with the observed products)")

    def test_b_group_s3(self):
        entry = catalog.build("B")
        t1, t2 = _taus(entry, "X12", "FB")
        gc = group_closure([t1, t2], cap=50)
        assert gc.completed and gc.order == 6
        ident = Matrix.identity(2, FieldTag.QQ)
        prod = t1.matrix * t2.matrix
        assert prod * prod * prod == ident
        assert prod != ident and prod * prod != ident  # exact order 3

    def test_c_pair_order_2(self):
        entry = catalog.build("C")  # alpha = 3
        law = entry.law_for("X15")
        key = next(k for k, v in entry.laws.items() if v == law)
        taus = _taus(entry, "X15", key)
        gc = group_closure(taus, cap=50)
        assert gc.completed and gc.order == 2


class TestAxisClosure:
    def test_b_closure(self):
        entry = catalog.build("B")
        ac = axis_closure(entry.algebra, entry.axis_sets["X12"],
                          entry.laws["FB"], entry.gradings["FB"], cap=50)
        assert ac.completed
        assert set(ac.axes) == set(entry.expected["axis_closure"])

    def test_i_closure_exceeds_cap(self):
        entry = catalog.build("I")
        ac = axis_closure(entry.algebra, entry.axis_sets["Xab"],
                          entry.laws["FI"], entry.gradings["FI"], cap=50)
        assert not ac.completed
        assert len(ac.axes) >= 50


# (entry, parameters, axis set, law, cap).  The simple Jordan algebras carry
# symmetry generators, so their later orbit members get conjugated maps; the
# closures of Albert at cap 200 and of B X12 take a second round, whose
# images get tau_c tau_a tau_c.
CLOSURES = ([(name, {"n": n}, "family", "J12", 200)
             for name in ("JordanA", "JordanB", "JordanC") for n in (1, 2, 3)]
            + [("JordanD", {"n": 5}, "family", "J12", 200),
               ("Albert", {}, "family", "J12", 200),
               ("B", {}, "X12", "FB", 50), ("C", {}, "X12", "FC2", 50),
               ("I", {}, "Xab", "FI", 50)])


def _wrong_maps(name, params, key, law_key, cap):
    """The axes whose map in axis_closure differs from the one
    tau_automorphism builds for them, lazily, in the closure's order."""
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law_key]
    grading = entry.gradings.get(law_key) or next(
        g for g in find_c2_gradings(law) if g.minus)
    ac = axis_closure(alg, entry.axis_sets[key], law, grading, cap=cap)
    return (a for a, tau in ac.taus.items()
            if tau != tau_automorphism(alg, a, law, grading))


def _conjugate_dropping_s_i(m, g):
    """The conjugation with the sign s_i of the row left out."""
    rows = [None] * m.nrows
    for (pi, _), row in zip(g, m.num):
        rows[pi] = {g[j][0]: g[j][1] * v for j, v in row.items()}
    return Matrix.from_int_rows(rows, m.den, m.ncols, m.tag)


def _conjugate_by_g_inverse(m, g):
    """g^-1 m g in place of g m g^-1."""
    inverse = [None] * len(g)
    for j, (k, s) in enumerate(g):
        inverse[k] = (j, s)
    rows = [None] * m.nrows
    for (pi, si), row in zip(inverse, m.num):
        rows[pi] = {inverse[j][0]: si * inverse[j][1] * v for j, v in row.items()}
    return Matrix.from_int_rows(rows, m.den, m.ncols, m.tag)


class TestTransportedMaps:
    """Every map of axis_closure, conjugated from its orbit's first member or
    carried by tau_c, equals the one tau_automorphism builds for the axis."""

    @pytest.mark.parametrize("case", CLOSURES,
                             ids=[f"{c[0]}{c[1].get('n', '')}-{c[2]}" for c in CLOSURES])
    def test_every_map_equals_the_direct_one(self, case):
        assert next(_wrong_maps(*case), None) is None

    @pytest.mark.parametrize("mutant", [_conjugate_dropping_s_i, _conjugate_by_g_inverse],
                             ids=["drops s_i", "by g^-1"])
    def test_a_wrong_conjugation_is_caught(self, monkeypatch, mutant):
        monkeypatch.setattr(miyamoto, "_conjugate", mutant)
        assert any(next(_wrong_maps(*case), None) is not None for case in CLOSURES)


# sha256 of the rendered axes, maps and completed flag of the Albert family
# closure at cap 200, taken when every round applied every map to every axis
ALBERT_CLOSURE_DIGEST = "0419f5b119fbe772b5f6f5ef8407f543780e264fbd57759190db0e5c3a987453"


def test_axis_closure_applies_each_pair_once(monkeypatch):
    """The Albert family closure takes two rounds.  The second applies only
    the pairs whose map or axis is new: 2601 distinct (map, axis) pairs, each
    applied once (3978 applications when a round re-applied the first
    round's pairs), with the same axes, maps and completed flag."""
    applied = []
    apply = Matrix.apply

    def counted(m, v):
        applied.append((m, tuple(v)))
        return apply(m, v)

    monkeypatch.setattr(Matrix, "apply", counted)
    entry = catalog.build("Albert")
    law = entry.laws["J12"]
    grading = next(g for g in find_c2_gradings(law) if g.minus)
    ac = axis_closure(entry.algebra, entry.axis_sets["family"], law, grading, cap=200)
    assert len(applied) == len(set(applied)) == 2601
    doc = {"axes": [[render_scalar(c) for c in a] for a in ac.axes],
           "taus": [[[render_scalar(c) for c in a],
                     [sorted((j, str(v)) for j, v in r.items()) for r in t.matrix.num],
                     str(t.matrix.den)] for a, t in ac.taus.items()],
           "completed": ac.completed}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == ALBERT_CLOSURE_DIGEST


class TestFlips:
    def test_existing_flips(self):
        b = catalog.build("B")
        assert find_flip(b.algebra, *b.axis_sets["X12"]) is not None
        i = catalog.build("I")
        assert find_flip(i.algebra, *i.axis_sets["Xab"]) is not None

    def test_missing_flips(self):
        d = catalog.build("D")
        assert find_flip(d.algebra, *d.axis_sets["X12"]) is None
        h3 = catalog.build("H")  # gamma = 3
        assert find_flip(h3.algebra, *h3.axis_sets["X12"]) is None

    def test_h_flip_only_at_minus_one(self):
        hm1 = catalog.build("H", {"gamma": -1})
        flip = find_flip(hm1.algebra, *hm1.axis_sets["X12"])
        assert flip is not None
        assert is_automorphism(hm1.algebra, flip.matrix)

    def test_flip_matches_the_swap_of_the_two_axes(self):
        # in dimension 2 the only linear map swapping independent a1 and a2
        # is W V^-1 for V = [a1 a2] and W = [a2 a1]; a flip exists iff it is
        # an automorphism
        slots = {"C": ("alpha",), "D": ("beta",), "E": ("alpha", "beta"),
                 "G": ("beta",), "H": ("gamma",), "I": ("alpha", "beta")}
        rng = random.Random(20)
        draws = 0
        seen = set()
        while draws < 200:
            name = rng.choice(catalog.TWO_DIM_FAMILIES)
            params = {k: q(rng.randint(-9, 9), rng.randint(1, 4)) for k in slots.get(name, ())}
            try:
                entry = catalog.build(name, params)
            except CatalogError:
                continue
            draws += 1
            alg = entry.algebra
            for a1, a2 in entry.axis_sets.values():
                v = Matrix([a1, a2], alg.tag).transpose()
                swap = Matrix([a2, a1], alg.tag).transpose() * v.inverse()
                flip = find_flip(alg, a1, a2)
                exists = is_automorphism(alg, swap)
                assert (flip is not None) == exists, (name, params)
                assert flip is None or flip.matrix == swap, (name, params)
                seen.add(exists)
        assert seen == {True, False}

    def test_flip_of_a_non_generating_pair_is_an_error(self):
        s3 = catalog.build("S", {"n": 3})
        e1, e2, _ = s3.axis_sets["standard"]
        with pytest.raises(AxialError, match="do not generate"):
            find_flip(s3.algebra, e1, e2)


# The integer Miyamoto path against the definitions on field elements

def _naive_rref(rows, tag):
    """Dense Gauss-Jordan elimination; returns (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _naive_inverse(rows, tag):
    """The inverse of a square dense matrix as a tuple of tuples, or None."""
    n = len(rows)
    aug = [list(r) + [q(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = _naive_rref(aug, tag)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in red)


def _naive_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), q(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _naive_product(alg, x, y):
    out = [q(0)] * alg.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in alg.basis_product(i, j).items():
                    out[k] = out[k] + a * b * c
    return tuple(out)


def _rat_is_automorphism(alg, m):
    """The definition: square of size dim, rank dim, and m(b_i b_j) =
    m(b_i) m(b_j) on every pair, in field elements on dense columns."""
    n = alg.dim
    if (m.nrows, m.ncols) != (n, n) or len(_naive_rref(m.rows, alg.tag)[1]) < n:
        return False
    cols = list(zip(*m.rows))
    for i in range(n):
        for j in range(i, n):
            lhs = [q(0)] * n
            for k, c in alg.basis_product(i, j).items():
                lhs = [s + c * t for s, t in zip(lhs, cols[k])]
            if tuple(lhs) != _naive_product(alg, cols[i], cols[j]):
                return False
    return True


def _random_invertible(rng, n, tag):
    while True:
        rows = tuple(tuple(
            Scalar(q(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])),
                   rng.randint(-1, 1) if tag is FieldTag.QI else 0)
            for _ in range(n)) for _ in range(n))
        inv = _naive_inverse(rows, tag)
        if inv is not None:
            return rows, inv


def _rebased(alg, p, pinv):
    """The algebra alg in the basis of the columns of p (p^-1 its inverse):
    its automorphisms are p^-1 phi p for the automorphisms phi of alg."""
    cols = list(zip(*p))
    products = {}
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            img = _naive_mul(pinv, tuple((c,) for c in _naive_product(alg, cols[i], cols[j])))
            products[(i, j)] = {k: r[0] for k, r in enumerate(img) if r[0]}
    return Algebra(alg.dim, products, alg.tag)


def _tau_cases(seed):
    """(algebra, law, grading, axes, tag) over QQ and QI: catalog algebras
    whose tau maps are integer matrices, and copies in a random rational
    basis, whose tau maps have denominators."""
    rng = random.Random(seed)
    cases = []
    for name, params, axes_key, law_key in [("B", {}, "X12", "FB"),
                                            ("JordanC", {"n": 2}, "family", "J12"),
                                            ("JordanD", {"n": 3}, "family", "J12")]:
        entry = catalog.build(name, params)
        alg, law = entry.algebra, entry.laws[law_key]
        grading = entry.gradings.get(law_key) or next(
            g for g in find_c2_gradings(law) if g.minus)
        axes = list(entry.axis_sets[axes_key])
        cases.append((alg, law, grading, axes))
        p, pinv = _random_invertible(rng, alg.dim, alg.tag)
        moved = [tuple(r[0] for r in _naive_mul(pinv, tuple((c,) for c in a))) for a in axes]
        cases.append((_rebased(alg, p, pinv), law, grading, moved))
    return cases


def test_is_automorphism_matches_the_rat_definition():
    rng = random.Random(1501)
    fractional = 0
    for alg, law, grading, axes in _tau_cases(1500):
        n, tag = alg.dim, alg.tag
        ident = Matrix.identity(n, tag)
        mats = [ident, _scaled(ident, q(2)), _zero(n, n, tag),
                _zero(n, n + 1, tag), _zero(n + 1, n, tag),
                Matrix.identity(n + 1, tag)]
        for a in axes:
            t = tau_automorphism(alg, a, law, grading).matrix
            rows = [list(r) for r in t.rows]
            flipped = [r[:1] + [-r[1]] + r[2:] for r in rows]   # column 1 negated
            copied = [r[:1] + [r[0]] + r[2:] for r in rows]     # singular
            mats += [t, _scaled(t, q(2)), Matrix(flipped, tag), Matrix(copied, tag),
                     Matrix(_random_invertible(rng, n, tag)[0], tag)]
        for m in mats:
            expect = _rat_is_automorphism(alg, m)
            assert is_automorphism(alg, m) == expect, (alg, m)
            fractional += expect and m.den > 1
    # the d factor of the check only shows on automorphisms with denominators
    assert fractional >= 4


def _naive_closure(generators, cap):
    """Breadth-first closure on dense matrices of field elements, keyed by
    their rows: (elements in order, completed)."""
    tag = generators[0].tag
    gens = []
    for g in generators:
        gens += [g.rows, _naive_inverse(g.rows, tag)]
    ident = Matrix.identity(generators[0].nrows, tag).rows
    seen, order, frontier = {ident}, [ident], [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _naive_mul(m, g)
                if prod in seen:
                    continue
                if len(seen) >= cap:
                    return order, False
                seen.add(prod)
                order.append(prod)
                nxt.append(prod)
        frontier = nxt
    return order, True


def test_group_closure_matches_a_naive_rat_bfs():
    qq = FieldTag.QQ
    diag = Matrix([[q(2), q(0)], [q(0), q(1, 2)]], qq)
    runs = [([diag], 9), ([diag, diag.inverse()], 9), ([diag, diag.inverse()], 1)]
    for alg, law, grading, axes in _tau_cases(1502):
        taus = [tau_automorphism(alg, a, law, grading).matrix for a in axes]
        runs += [(taus, 60), (taus, 5)]
    completed = 0
    for mats, cap in runs:
        gc = group_closure([AutMatrix(m) for m in mats], cap=cap)
        order, done = _naive_closure(mats, cap)
        assert [e.matrix.rows for e in gc.elements] == order
        assert (gc.completed, gc.order) == (done, len(order))
        completed += done
    assert completed >= 3


class TestGroupClosureErrors:
    # each as with Matrix: every generator is inverted first, then the
    # identity is multiplied by each
    def _tau(self, name, params, axes_key, law_key):
        entry = catalog.build(name, params)
        law = entry.laws[law_key]
        grading = entry.gradings.get(law_key) or next(
            g for g in find_c2_gradings(law) if g.minus)
        return tau_automorphism(entry.algebra, entry.axis_sets[axes_key][0], law, grading)

    def test_mixed_sizes(self):
        small = self._tau("B", {}, "X12", "FB")
        large = self._tau("JordanC", {"n": 2}, "family", "J12")
        with pytest.raises(DimensionMismatchError, match="inner dimensions differ"):
            group_closure([small, large])

    def test_mixed_fields(self):
        qq = self._tau("JordanC", {"n": 2}, "family", "J12")
        qi = AutMatrix(_scaled(Matrix.identity(6, FieldTag.QI), Scalar(0, 1)))
        with pytest.raises(FieldMismatchError, match="different fields"):
            group_closure([qq, qi])

    def test_singular_and_non_square(self):
        tau = self._tau("B", {}, "X12", "FB")
        singular = AutMatrix(Matrix([[q(1), q(1)], [q(1), q(1)]], FieldTag.QQ))
        wide = AutMatrix(_zero(2, 3, FieldTag.QQ))
        with pytest.raises(DimensionMismatchError, match="singular"):
            group_closure([tau, singular])
        with pytest.raises(DimensionMismatchError, match="non-square"):
            group_closure([tau, wide])
        # the inverses come before any product
        qi = AutMatrix(Matrix.identity(2, FieldTag.QI))
        with pytest.raises(DimensionMismatchError, match="singular"):
            group_closure([tau, qi, singular])
