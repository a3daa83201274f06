"""Cocycles, the two extension conditions, building and splitting."""

import pytest

from axial import catalog
from axial.errors import DimensionMismatchError, ExtensionError, FieldMismatchError
from axial.extension import (Cocycle, aut_action, build_extension, coboundary,
                             cocycle_space, condition1_rows,
                             decompose_by_annihilator, extension_axiality,
                             is_split, normalize_on_axes)
from axial.linalg import Matrix, sparse_add
from axial.scalars import FieldTag, Rat, Scalar
from axial.spectral import check_axial_algebra


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

    def test_axis_verification_guard(self):
        entry = catalog.build("B")
        bad_axes = [(q(2), q(0))]
        with pytest.raises(ExtensionError):
            cocycle_space(entry.algebra, bad_axes, entry.laws["FB"])


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
                     lambda: cs.contains(th), lambda: cs.class_is_zero(th)):
            with pytest.raises(DimensionMismatchError):
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


class TestNormalizeAndAction:
    def test_normalize_vanishes_on_axes_and_keeps_class(self):
        entry = catalog.build("Monster4")
        axes = entry.axis_sets["all"]
        cs = cocycle_space(entry.algebra, entry.axis_sets["X01"],
                           entry.laws["M2half"])
        th = Cocycle.from_vectors([cs.class_reps[0]], 4, FieldTag.QQ)
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
