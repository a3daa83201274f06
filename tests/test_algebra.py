"""Structure-constant algebras: products, operators, forms, radical."""

import itertools
import random

import pytest

from axial import catalog
from axial.algebra import Algebra, BilinearForm, Cocycle, radical_axial
from axial.errors import CatalogError, DimensionMismatchError
from axial.scalars import ONE, ZERO, FieldTag, Rat


def q(n, d=1):
    return Rat(n, d)


class TestProducts:
    def test_commutativity_from_upper_triangle(self):
        alg = catalog.build("B").algebra
        x, y = alg.basis_element(0), alg.basis_element(1)
        assert alg.product(x, y) == alg.product(y, x)
        assert alg.product(x, y) == (q(-1), q(-1))

    def test_left_mult_kernel_oracle(self):
        # D(5): e1 e2 = 5 e2, e2^2 = e2, so L_{e2}(x e1 + y e2) = (5x+y) e2
        # and the kernel is spanned by e1 - 5 e2.  Hand-computed.
        alg = catalog.build("D").algebra
        ker = alg.left_mult_matrix(alg.basis_element(1)).kernel()
        assert ker.dim == 1
        assert ker.contains_vector((q(1), q(-5)))

    def test_idempotents(self):
        alg = catalog.build("C").algebra  # alpha = 3
        e = catalog.build("C")
        for a in e.axis_sets["X15"]:
            assert alg.is_idempotent(a)
        assert not alg.is_idempotent((q(2), q(0)))

    def test_direct_sum(self):
        a = catalog.build("J", {"n": 2}).algebra
        b = catalog.build("J", {"n": 3}).algebra
        s = a.direct_sum(b)
        assert s.dim == 5
        # cross products vanish
        x = s.basis_element(0)
        y = s.basis_element(3)
        assert all(not c for c in s.product(x, y))

    @pytest.mark.parametrize("products, labels, message", [
        ({(0, 2): {0: ONE}}, None, "basis index out of range in pair (0, 2)"),
        ({(0, 1): {2: ONE}}, None, "target index 2 out of range"),
        ({(0, 1): {0: ONE}, (1, 0): {1: ONE}}, None,
         "conflicting products for basis pair (0, 1)"),
        ({}, ("e1",), "label count differs from dimension"),
    ], ids=["pair-index", "target-index", "conflicting-pair", "label-count"])
    def test_malformed_products_are_refused(self, products, labels, message):
        with pytest.raises(DimensionMismatchError) as ex:
            Algebra(2, products, FieldTag.QQ, labels)
        assert str(ex.value) == message

    @pytest.mark.parametrize("labels", [None, ()])
    def test_a_negative_dimension_is_refused_by_name(self, labels):
        with pytest.raises(DimensionMismatchError) as ex:
            Algebra(-1, {}, FieldTag.QQ, labels)
        assert str(ex.value) == "dimension must be nonnegative, got -1"
        assert Algebra(0, {}, FieldTag.QQ).dim == 0

    def test_a_pair_given_in_both_orders_alike_is_accepted(self):
        alg = Algebra(2, {(0, 1): {1: q(1, 2)}, (1, 0): {1: q(1, 2)}}, FieldTag.QQ)
        assert alg.basis_product(1, 0) == alg.basis_product(0, 1) == {1: q(1, 2)}

    @pytest.mark.parametrize("entries, s, message", [
        ({(0, 1): ONE, (1, 0): q(2)}, 1, "conflicting entries for basis pair (0, 1)"),
        ({(2, 1): (ONE, ZERO), (1, 2): (ONE, ONE)}, 2,
         "conflicting entries for basis pair (1, 2)"),
    ], ids=["one-coordinate", "two-coordinates"])
    def test_a_cocycle_pair_given_in_both_orders_differently_is_refused(self, entries, s,
                                                                         message):
        with pytest.raises(DimensionMismatchError) as ex:
            Cocycle.from_entries(3, entries, FieldTag.QQ, s)
        assert str(ex.value) == message

    def test_a_cocycle_pair_given_in_both_orders_alike_is_accepted(self):
        theta = Cocycle.from_entries(2, {(0, 1): q(1, 2), (1, 0): q(1, 2)}, FieldTag.QQ)
        assert theta == Cocycle.from_entries(2, {(1, 0): q(1, 2)}, FieldTag.QQ)
        assert theta.evaluate((ONE, ZERO), (ZERO, ONE)) == (q(1, 2),)


class TestFrobenius:
    def test_space_dimensions(self):
        assert len(catalog.build("A").algebra.frobenius_space()) == 2
        assert len(catalog.build("B").algebra.frobenius_space()) == 1

    def test_b_gram_is_invariant(self):
        # hand value: Gram [[-2, 1], [1, -2]] satisfies (xy, z) = (x, yz)
        entry = catalog.build("B")
        assert entry.frobenius.gram.rows == ((q(-2), q(1)), (q(1), q(-2)))
        alg = entry.algebra
        g = entry.frobenius.gram

        def bil(x, y):
            tot = q(0)
            for i in range(2):
                for j in range(2):
                    tot = tot + x[i] * g.rows[i][j] * y[j]
            return tot

        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x, y, z = (alg.basis_element(t) for t in (i, j, k))
                    assert bil(alg.product(x, y), z) == bil(x, alg.product(y, z))


class TestRadical:
    def test_d_radical_oracle(self):
        entry = catalog.build("D")
        sub, _ = radical_axial(entry.algebra, entry.axis_sets["X16"])
        assert sub.basis == ((q(0), q(1)),)

    def test_i_radical_oracle(self):
        entry = catalog.build("I")
        sub, _ = radical_axial(entry.algebra, entry.axis_sets["Xab"])
        assert sub.basis == ((q(1), q(-1)),)

    def test_f_radical_unavailable(self):
        entry = catalog.build("F")
        with pytest.raises(ValueError):
            radical_axial(entry.algebra, entry.axis_sets["X12"])


def test_a_bilinear_form_is_the_one_coordinate_cocycle():
    assert BilinearForm.__bases__ == (Cocycle,)
    assert {name for name in vars(BilinearForm) if not name.startswith("__")} == {"gram"}
    form = catalog.build("B").frobenius
    assert form.s == 1 and form.gram == form.mats[0]
    assert form.evaluate((q(1), q(0)), (q(1), q(1))) == (q(-1),)


# ---------------------------------------------------------------------------
# radical_axial against a dense reference on plain lists: the invariant
# forms as Gram matrices, solved for (a, a) = 1 on every axis, summed, and
# every kernel shift of the solution tested for the same radical

def _rref(rows, ncols):
    """(rows, pivots): the nonzero rows of the reduced row echelon form, with
    unit pivots, and their pivot columns."""
    todo = [list(r) for r in rows]
    out, pivots = [], []
    for col in range(ncols):
        piv = next((r for r in todo if r[col]), None)
        if piv is None:
            continue
        todo.remove(piv)
        inv = ONE / piv[col]
        piv = [x * inv for x in piv]
        todo = [[x - r[col] * y for x, y in zip(r, piv)] for r in todo]
        out = [[x - r[col] * y for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        pivots.append(col)
    return out, pivots


def _kernel(rows, ncols):
    """The RREF basis of {x : r . x = 0 for every row r}."""
    red, pivots = _rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return _rref(basis, ncols)[0]


def _ref_frobenius(alg):
    """The invariant forms as Gram matrices: the RREF basis of the solutions
    of (b_i b_j, b_k) = (b_i, b_j b_k) in the upper-triangle entries."""
    n = alg.dim
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    col = {}
    for t, (i, j) in enumerate(pairs):
        col[(i, j)] = col[(j, i)] = t
    eqs = []
    for i, j, k in itertools.product(range(n), repeat=3):
        row = [ZERO] * len(pairs)
        for m, c in alg.basis_product(j, k).items():
            row[col[(i, m)]] += c
        for m, c in alg.basis_product(i, j).items():
            row[col[(m, k)]] -= c
        eqs.append(row)
    return [[[v[col[(i, j)]] for j in range(n)] for i in range(n)]
            for v in _kernel(eqs, len(pairs))]


def _bilinear(g, x, y):
    return sum((x[i] * g[i][j] * y[j] for i in range(len(x)) for j in range(len(y))), ZERO)


def _combined(grams, coeffs):
    n = len(grams[0])
    return [[sum((c * g[i][j] for c, g in zip(coeffs, grams)), ZERO) for j in range(n)]
            for i in range(n)]


def _ref_radical_axial(alg, axes):
    """(radical basis, Gram rows) or ValueError, by the dense algorithm."""
    n = alg.dim
    grams = _ref_frobenius(alg)
    if not grams:
        raise ValueError("no nonzero invariant bilinear form exists")
    k = len(grams)
    red, pivots = _rref([[_bilinear(g, a, a) for g in grams] + [ONE] for a in axes], k + 1)
    if k in pivots:
        raise ValueError("no invariant form takes value 1 on every axis")
    sol = [ZERO] * k
    for row, p in zip(red, pivots):
        sol[p] = row[k]
    gram = _combined(grams, sol)
    rad = _kernel(gram, n)
    for v in _kernel([r[:k] for r in red], k):
        if _kernel(_combined(grams, [c + d for c, d in zip(sol, v)]), n) != rad:
            raise ValueError("axis-normalized invariant form is not unique")
    for a in axes:
        if len(_rref(rad + [list(a)], n)[0]) == len(rad):
            raise ValueError("an axis lies in the radical of its own form")
    return rad, gram


def _radical_cases():
    """(label, algebra, axes): every axis set of A-I at the default and two
    seeded parameter draws (drawn as the paper-suite benchmark draws them),
    of J25, S n=4, JordanB n=3 and JordanD n=4 (over Q(i)), and per entry
    the empty axis list and the first axis repeated."""
    rng = random.Random(24)
    entries = []
    for name in "ABCDEFGHI":
        entries.append((name, catalog.build(name)))
        slots = catalog.default_params(name)
        accepted = 0
        while slots and accepted < 2:
            params = {slot: Rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                      for slot in slots}
            try:
                entries.append((f"{name}{params}", catalog.build(name, params)))
            except CatalogError:
                continue
            accepted += 1
    entries += [(name, catalog.build(name, params)) for name, params in
                (("J25", {}), ("S", {"n": 4}), ("JordanB", {"n": 3}),
                 ("JordanD", {"n": 4}))]
    for label, entry in entries:
        sets = dict(entry.axis_sets)
        first = next(iter(sets.values()))[0]
        sets.update({"none": (), "repeated": (first, first)})
        for key, axes in sets.items():
            yield f"{label} {key}", entry.algebra, axes


def test_radical_axial_matches_the_dense_reference():
    outcomes = set()
    for label, alg, axes in _radical_cases():
        forms = [[list(r) for r in f.gram.rows] for f in alg.frobenius_space()]
        assert forms == _ref_frobenius(alg), label
        try:
            want = _ref_radical_axial(alg, axes)
        except ValueError as ex:
            with pytest.raises(ValueError) as got:
                radical_axial(alg, axes)
            assert str(got.value) == str(ex), label
            outcomes.add(str(ex))
            continue
        rad, form = radical_axial(alg, axes)
        assert ([list(b) for b in rad.basis], [list(r) for r in form.gram.rows]) == want, label
        outcomes.add("answer")
    assert {"answer", "no invariant form takes value 1 on every axis",
            "axis-normalized invariant form is not unique"} <= outcomes, outcomes


class TestJordanCheck:
    def test_jordan_families_pass(self):
        for name, n in (("JordanA", 2), ("S", 3), ("J", 3), ("T", 3)):
            assert catalog.build(name, {"n": n}).algebra.jordan_check() is None

    def test_non_jordan_witness(self):
        witness = catalog.build("B").algebra.jordan_check()
        assert witness == (0, 0, 1, 0)

    def test_annihilator(self):
        from axial.extension import Cocycle, build_extension
        alg = catalog.build("B").algebra
        theta = Cocycle.from_entries(2, {(0, 1): q(1)}, FieldTag.QQ)
        ext, _ = build_extension(alg, theta)
        ann = ext.annihilator()
        assert ann.dim == 1 and ann.contains_vector((q(0), q(0), q(1)))
        assert alg.annihilator().is_zero()
