"""Cocycles, the two extension conditions, building and splitting."""

import random

import pytest

from axial import catalog, extension
from axial.algebra import Algebra, _sym_pairs, radical_axial
from axial.errors import (AxialError, DimensionMismatchError, ExtensionError, FieldMismatchError,
                          NotIdempotentError)
from axial.extension import (Cocycle, aut_action, build_extension, coboundary,
                             coboundary_space, cocycle_space, condition1_rows,
                             condition2_rows, decompose_by_annihilator,
                             extension_axiality, is_split, normalize_on_axes)
from axial.linalg import Matrix, RowReducer, Subspace, sparse_add, sparse_vector
from axial.scalars import ZERO, FieldTag, Rat, Scalar
from axial.fileio import parse_algebra_file
from axial.spectral import axis_eigenbasis, check_axial_algebra


def q(n, d=1):
    return Rat(n, d)


def theta12():
    return Cocycle.from_entries(2, {(0, 1): q(1)}, FieldTag.QQ)


class TestCondition1:
    def test_a_constraint_oracle(self):
        # e1 e2 = 0, so ker L_{e1} = <e2> and the single constraint is
        # theta(e1, e2) = 0, i.e. symmetric coordinate (0,1) vanishes.
        alg = catalog.build("A").algebra
        a = alg.basis_element(0)
        rows = condition1_rows(alg, a, alg.left_mult_matrix(a).kernel())
        assert rows == [{1: q(1)}]

    def test_empty_when_kernel_zero(self):
        alg = catalog.build("B").algebra
        a = alg.basis_element(0)
        assert condition1_rows(alg, a, alg.left_mult_matrix(a).kernel()) == []


# a 3-dim algebra over QI whose axis a has the spectrum {1/2, 1}: some of
# its eigenvector products cancel in a coordinate, and that integer 0 times
# a Gaussian-integer entry of the inverse eigenbasis must stay an integer
CANCELLING_PRODUCTS = """\
field QI
dim 3
basis b1 b2 b3
product 1 1: -1180169/54495+1678427/54495i b1, -16/15+8/135i b2, 2714438/54495-4129241/54495i b3
product 1 2: -2766541/326970-180011/46710i b1, -4/45-52/405i b2, 3037991/163485+28453/65394i b3
product 1 3: -267206/32697+1596341/98091i b1, -676/1215+146/1215i b2, 970666/54495-4046159/98091i b3
product 2 2: -161219/72660-31651/24220i b1, -227/45i b2, 24967/5190+54491/24220i b3
product 2 3: -899006/163485+30503/163485i b1, -2/27-31/405i b2, 1893707/163485-102803/23355i b3
product 3 3: -627373/163485+4111007/490455i b1, -368/1215+124/1215i b2, 1185866/163485-2138869/98091i b3
element a: -6/1211+1167/12110i b1, 1/5i b2, 534/6055-240/1211i b3
set X: a
law F: 1/2 1
cell F 1/2 1: 1/2 1
cell F 1 1: 1/2 1
"""


class TestCocycleSpaceOracles:
    def test_b_space_is_sum_zero_plane(self):
        # Hand derivation: with v = e1/2 + e2 the (-1,-1) cell constraint
        # theta(v,v) = theta(e1, v v) reduces to t11 + t12 + t22 = 0; the
        # other cells give trivial identities.  Both axes give the same
        # plane, so Z has dimension 2.
        entry = catalog.build("B")
        cs = cocycle_space(entry.algebra, entry.axis_sets["X12"],
                           entry.laws["FB"])
        assert cs.space.dim == 2
        for v in cs.space.basis:
            assert v[0] + v[1] + v[2] == q(0)
        # the canonical generator has coordinate sum 1: outside Z
        assert not cs.contains(theta12())

    def test_monster_dims(self):
        entry = catalog.build("Monster4")
        cs = cocycle_space(entry.algebra, entry.axis_sets["X01"],
                           entry.laws["M2half"])
        assert (cs.space.dim, cs.coboundaries.dim,
                cs.intersection.dim, cs.quotient_dim) == (5, 4, 4, 1)
        assert cs.contains(entry.cocycle)
        assert not cs.class_is_zero(entry.cocycle)

    def test_gaussian_rows_stay_integral_when_a_product_cancels(self):
        bundle = parse_algebra_file(CANCELLING_PRODUCTS)
        alg, axes, law = bundle.algebra, list(bundle.sets["X"]), bundle.laws["F"]
        eigen = axis_eigenbasis(alg, axes[0], law.values)
        rows = condition2_rows(alg, axes[0], law, eigen)
        assert rows and all(type(part) is not Rat for row in rows for c in row.values()
                            for part in ((c.re, c.im) if type(c) is Scalar else (c,)))
        cs = cocycle_space(alg, axes, law)
        assert cs.quotient_dim == 0 and cs.space == cs.coboundaries

    def test_axis_verification_guard(self):
        entry = catalog.build("B")
        bad_axes = [(q(2), q(0))]
        with pytest.raises(NotIdempotentError) as got:
            cocycle_space(entry.algebra, bad_axes, entry.laws["FB"])
        assert str(got.value) == "axis candidate (2)e1 is not a nonzero idempotent"


# ---------------------------------------------------------------------------
# the Z = B exit of cocycle_space

BUILDABLE = [item["name"] for item in catalog.list_catalog() if not item["stub"]]


def _laws(entry, key):
    """The laws of an entry for an axis set: every law of the entry, then the
    law of the extension, the law with 0 adjoined under which the table1
    families and Monster4 have non-split extensions."""
    laws = dict(entry.laws)
    if key in entry.extension_laws:
        laws["ext"] = entry.extension_laws[key]
    return laws


def _cases():
    """(name, axis-set key, law name) of every buildable entry at its
    default parameters, for every axis set and law."""
    cases = []
    for name in BUILDABLE:
        entry = catalog.build(name)
        cases += [(name, key, law) for key in entry.axis_sets for law in _laws(entry, key)]
    return cases


def _axis_rows(algebra, a, law):
    """The condition (1) and (2) rows of a; the axis gate of the extension
    layer raises first unless a is an axis for law."""
    eigen = extension._f_axis(algebra, a, law)
    return (condition1_rows(algebra, a, eigen.eigenspace(ZERO))
            + condition2_rows(algebra, a, law, eigen))


def _full_cocycle_space(algebra, axes, law):
    """cocycle_space without the exit: the rows of every axis go into one
    reducer; the result as a tuple of its fields."""
    idx_len = len(_sym_pairs(algebra.dim))
    red = RowReducer(idx_len, algebra.tag)
    for a in axes:
        for row in _axis_rows(algebra, a, law):
            red.add_int_row(row)
    space = Subspace.spanned(red.kernel_basis(), idx_len, algebra.tag)
    cob = coboundary_space(algebra)
    inter = space.intersect(cob)
    rep_red = RowReducer(idx_len, algebra.tag)
    for b in inter.num:
        rep_red.add_int_row(dict(b))
    reps = [dict(b) for b in space.num if rep_red.add_int_row(dict(b))]
    return (space, cob, inter, space.dim - inter.dim,
            list(Matrix.from_int_rows(reps, space.den, idx_len,
                                      algebra.tag).rows))


def _fields(cs):
    return (cs.space, cs.coboundaries, cs.intersection, cs.quotient_dim, cs.class_reps)


@pytest.fixture
def cond2_calls(monkeypatch):
    """The axes on which cocycle_space calls condition2_rows."""
    calls = []

    def counting(*args):
        calls.append(args[1])
        return condition2_rows(*args)

    monkeypatch.setattr(extension, "condition2_rows", counting)
    return calls


class TestCoboundariesMeetTheConditions:
    @pytest.mark.parametrize("name", BUILDABLE)
    def test_coboundaries_vanish_on_every_condition_row(self, name):
        # the lemma behind the exit: theta = delta f has theta(a, k) =
        # f(ak) = 0, and theta(x, y) - theta(a, sum nu^-1 z_nu) = f(xy) -
        # f(sum z_nu) = 0 when 0 is not in lam*mu
        entry = catalog.build(name)
        alg = entry.algebra
        cob = [dict(b) for b in coboundary_space(alg).num]
        covered = 0
        for key, axes in entry.axis_sets.items():
            for law in _laws(entry, key).values():
                try:
                    per_axis = [_axis_rows(alg, a, law) for a in axes]
                except AxialError:
                    continue
                covered += 1
                for row in (row for rows in per_axis for row in rows):
                    for b in cob:
                        assert not sum((c * b[col] for col, c in row.items()
                                        if col in b), 0)
        assert covered


class TestZEqualsBExit:
    @pytest.mark.parametrize("name, key, law", _cases())
    def test_equals_the_full_path_on_every_entry(self, name, key, law, cond2_calls):
        entry = catalog.build(name)
        alg, axes, fl = entry.algebra, entry.axis_sets[key], _laws(entry, key)[law]
        try:
            expected = _full_cocycle_space(alg, axes, fl)
        except AxialError as exc:
            with pytest.raises(type(exc)) as got:
                cocycle_space(alg, axes, fl)
            assert str(got.value) == str(exc)
            return
        assert _fields(cocycle_space(alg, axes, fl)) == expected
        if expected[3]:  # Z != B: the rank never reaches N - dim B
            assert len(cond2_calls) == len(axes)

    @pytest.mark.parametrize("name, params", [("Albert", {}), ("JordanC", {"n": 3})])
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_full_path_in_seeded_axis_orders(self, name, params, seed):
        entry = catalog.build(name, params)
        axes = list(entry.axis_sets["family"])
        random.Random(seed).shuffle(axes)
        alg, law = entry.algebra, entry.laws["J12"]
        assert _fields(cocycle_space(alg, axes, law)) == _full_cocycle_space(alg, axes, law)

    def test_albert_exits_before_its_last_axis(self, cond2_calls):
        entry = catalog.build("Albert")
        axes = entry.axis_sets["family"]
        cs = cocycle_space(entry.algebra, axes, entry.laws["J12"])
        assert cs.quotient_dim == 0
        assert len(cond2_calls) < len(axes) == 27

    @pytest.mark.parametrize("where", ["after the exit", "before the exit"])
    def test_a_non_axis_raises_the_full_path_error(self, where, cond2_calls):
        entry = catalog.build("Albert")
        alg, law = entry.algebra, entry.laws["J12"]
        family = list(entry.axis_sets["family"])
        bad = tuple(2 * c for c in family[0])  # (2a)^2 = 4a: not an idempotent
        axes = family + [bad] if where == "after the exit" else [family[0], bad] + family[1:]
        with pytest.raises(NotIdempotentError) as full:
            _full_cocycle_space(alg, axes, law)
        cond2_calls.clear()
        with pytest.raises(NotIdempotentError) as got:
            cocycle_space(alg, axes, law)
        assert str(got.value) == str(full.value)
        assert str(got.value).endswith("is not a nonzero idempotent")
        if where == "after the exit":
            assert len(cond2_calls) < len(family)


class TestBuildAndSplit:
    def test_extension_product(self):
        alg = catalog.build("B").algebra
        ext, lifted = build_extension(alg, theta12(),
                                      [alg.basis_element(0),
                                       alg.basis_element(1)])
        assert ext.dim == 3
        x, y = lifted
        # (e1 e2, theta(e1,e2)) = (-e1 - e2, 1)
        assert ext.product(x, y) == (q(-1), q(-1), q(1))

    def test_evaluate_checks_length(self):
        th = theta12()
        assert th.evaluate((q(1), q(0)), (q(0), q(1))) == (q(1),)
        for x, y in [((q(1),), (q(0), q(1))), ((q(1), q(0)), (q(0), q(1), q(1)))]:
            with pytest.raises(DimensionMismatchError):
                th.evaluate(x, y)

    def test_constructor_checks_indices_and_field(self):
        tag = FieldTag.QQ
        assert Cocycle([{0: q(0), 2: q(2)}], 2, tag).vectors == ({2: q(2)},)
        with pytest.raises(DimensionMismatchError):
            Cocycle([{3: q(1)}], 2, tag)  # dim 2 has the pairs 0, 1, 2
        with pytest.raises(DimensionMismatchError):
            Cocycle.from_entries(2, {(0, 2): q(1)}, tag)
        with pytest.raises(FieldMismatchError):
            Cocycle([{0: Scalar(q(1), q(1))}], 2, tag)
        with pytest.raises(ExtensionError):
            Cocycle([], 2, tag)

    def test_cocycle_of_another_dimension_is_refused(self):
        entry = catalog.build("B")
        alg = entry.algebra
        cs = cocycle_space(alg, entry.axis_sets["X12"], entry.law_for("X12"))
        th = Cocycle.from_entries(3, {}, FieldTag.QQ)
        for call in (lambda: is_split(alg, th), lambda: build_extension(alg, th),
                     lambda: cs.contains(th), lambda: cs.class_is_zero(th),
                     lambda: normalize_on_axes(alg, th, entry.axis_sets["X12"])):
            with pytest.raises(DimensionMismatchError,
                               match="^cocycle size differs from algebra dimension$"):
                call()

    def test_cocycle_of_another_field_is_refused(self):
        # a theta over Q(i) on an algebra over Q, and the other way round
        for name in ("B", "JordanD"):
            entry = catalog.build(name, {"n": 4} if name == "JordanD" else {})
            alg = entry.algebra
            key = "X12" if name == "B" else "family"
            cs = cocycle_space(alg, entry.axis_sets[key], entry.law_for(key))
            other = FieldTag.QI if alg.tag is FieldTag.QQ else FieldTag.QQ
            th = Cocycle.from_entries(alg.dim, {(0, 1): Scalar(0, 1) if other is FieldTag.QI
                                                else q(1)}, other)
            for call in (lambda: is_split(alg, th), lambda: build_extension(alg, th),
                         lambda: cs.contains(th), lambda: cs.class_is_zero(th),
                         lambda: normalize_on_axes(alg, th, entry.axis_sets[key]),
                         lambda: extension_axiality(alg, th, entry.axis_sets[key],
                                                    entry.law_for(key))):
                with pytest.raises(FieldMismatchError,
                                   match="^cocycle and algebra over different fields$"):
                    call()

    @pytest.mark.parametrize("axis,error", [
        ((0.5, q(0), q(0), q(0)), FieldMismatchError),
        ((Scalar(q(1), q(1)), q(0), q(0), q(0)), FieldMismatchError),
        ((1, 0, 0, 0), FieldMismatchError),
        ((q(1), q(0), q(0)), DimensionMismatchError)])
    def test_axes_from_outside_are_checked(self, axis, error):
        # a float, a Gaussian entry over Q, plain ints, and a short axis,
        # each given to the 4-dimensional Monster4 algebra over Q
        alg = catalog.build("Monster4").algebra
        th = Cocycle.from_entries(4, {(0, 1): q(1)}, FieldTag.QQ)
        for call in (lambda: build_extension(alg, th, [axis]),
                     lambda: normalize_on_axes(alg, th, [axis]),
                     lambda: radical_axial(alg, [axis])):
            with pytest.raises(error):
                call()

    def test_coboundary_is_split(self):
        alg = catalog.build("B").algebra
        f = Matrix(((q(2),), (q(-1),)), FieldTag.QQ, ncols=1)
        assert is_split(alg, coboundary(alg, f)) == "split"

    def test_canonical_b_non_split(self):
        assert is_split(catalog.build("B").algebra, theta12()) == "non_split"

    def test_round_trip(self):
        entry = catalog.build("D")
        th = Cocycle.from_entries(2, {(0, 0): q(2), (0, 1): q(-3),
                                      (1, 1): q(7)}, FieldTag.QQ)
        ext, lifted = build_extension(entry.algebra, th,
                                      entry.axis_sets["X16"])
        small, th2, proj = decompose_by_annihilator(ext, lifted)
        assert small.dim == 2 and th2 == th
        assert [tuple(p) for p in proj] == \
            [tuple(a) for a in entry.axis_sets["X16"]]

    def test_decompose_requires_annihilator(self):
        with pytest.raises(ExtensionError):
            decompose_by_annihilator(catalog.build("B").algebra)

    def test_decompose_checks_each_axis(self):
        ext, (lifted,) = build_extension(catalog.build("B").algebra, theta12(),
                                         [(q(1), q(0))])
        for bad in (lifted[:2], lifted + (q(0),)):
            with pytest.raises(DimensionMismatchError, match="vector length mismatch"):
                decompose_by_annihilator(ext, [bad])
        with pytest.raises(FieldMismatchError):
            decompose_by_annihilator(ext, [(Scalar(q(1), q(1)),) + lifted[1:]])


def _is_split_by_extension(algebra, theta):
    """The verdict read off A_theta itself: with independent classes, its
    annihilator against the adjoined space V."""
    n = algebra.dim
    red = RowReducer(len(_sym_pairs(n)), algebra.tag)
    for b in coboundary_space(algebra).num:
        red.add_int_row(b)
    if not all(red.add_row(v) for v in theta.vectors):
        return "split"
    ext, _ = build_extension(algebra, theta)
    adjoined = Subspace.spanned([{n + g: 1} for g in range(theta.s)],
                                n + theta.s, algebra.tag)
    return "non_split" if ext.annihilator() == adjoined else "indeterminate"


def _random_split_cases(seed, count):
    """(algebra, theta): sparse random algebras of dim 1-4, a third of them
    summed with a zero algebra, and cocycles with s = 1 or 2 coordinates,
    sometimes a coboundary or with repeated coordinates."""
    rng = random.Random(seed)
    coeffs = [q(1), q(-1), q(2), q(1, 2)]
    for _ in range(count):
        tag = rng.choice((FieldTag.QQ, FieldTag.QI))
        n = rng.randint(1, 4)
        products = {}
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    products[(i, j)] = {k: rng.choice(coeffs)
                                        for k in rng.sample(range(n), rng.randint(1, min(2, n)))}
        alg = Algebra(n, products, tag)
        if rng.random() < 1 / 3:
            alg = alg.direct_sum(Algebra(rng.randint(1, 2), {}, tag))
        n, s = alg.dim, rng.randint(1, 2)
        pairs = _sym_pairs(n)
        vectors = [{t: rng.choice(coeffs) for t in rng.sample(range(len(pairs)),
                                                           rng.randint(1, min(3, len(pairs))))}
                   for _ in range(s)]
        shape = rng.random()
        if shape < 0.15:
            f = Matrix(tuple(tuple(rng.choice(coeffs + [q(0)]) for _ in range(s))
                             for _ in range(n)), tag, ncols=s)
            yield alg, coboundary(alg, f)
            continue
        if s == 2 and shape < 0.3:
            vectors[1] = dict(vectors[0])
        yield alg, Cocycle(vectors, n, tag)


def test_is_split_matches_the_annihilator_of_the_extension():
    # Ann(A_theta) = (Ann(A) cap theta-perp) + V, read without building A_theta
    verdicts = {}
    for alg, theta in _random_split_cases(22, 300):
        got = is_split(alg, theta)
        assert got == _is_split_by_extension(alg, theta), (alg.dim, theta.vectors)
        verdicts[got] = verdicts.get(got, 0) + 1
    assert set(verdicts) == {"split", "non_split", "indeterminate"}
    assert min(verdicts.values()) >= 30, verdicts


class TestNormalizeAndAction:
    def test_normalize_vanishes_on_axes_and_keeps_class(self):
        entry = catalog.build("Monster4")
        axes = entry.axis_sets["all"]
        cs = cocycle_space(entry.algebra, entry.axis_sets["X01"],
                           entry.laws["M2half"])
        th = Cocycle([sparse_vector(cs.class_reps[0])], 4, FieldTag.QQ)
        nm = normalize_on_axes(entry.algebra, th, axes)
        for a in axes:
            assert all(not v for v in nm.evaluate(a, a))
        diff = dict(th.vectors[0])
        for t, c in nm.vectors[0].items():
            sparse_add(diff, t, -c)
        assert cs.coboundaries.contains_sparse(diff)

    def test_flip_fixes_canonical_cocycle(self):
        from axial.miyamoto import find_flip
        entry = catalog.build("B")
        flip = find_flip(entry.algebra, *entry.axis_sets["X12"])
        assert flip is not None
        assert aut_action(theta12(), flip.matrix) == theta12()


class TestExtensionAxiality:
    def test_b_report(self):
        entry = catalog.build("B")
        rep = extension_axiality(entry.algebra, theta12(),
                                 entry.axis_sets["X12"], entry.laws["FB"])
        assert rep.axial and all(rep.condition1.values())
        assert rep.split_verdict == "non_split"
        assert not rep.theta_in_z
        assert rep.induced_law == entry.extension_laws["X12"]
        cert = check_axial_algebra(rep.extension, rep.lifted_axes,
                                   rep.induced_law)
        assert cert.certified

    def test_a_fails_condition1(self):
        entry = catalog.build("A")
        rep = extension_axiality(entry.algebra, theta12(),
                                 entry.axis_sets["X12"], entry.law_for("X12"))
        assert not rep.axial
        assert not all(rep.condition1.values())
