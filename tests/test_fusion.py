"""Fusion laws, C2-gradings, and the two standard laws."""

import pytest

from axial import catalog
from axial.errors import AxialError, FieldMismatchError
from axial.fusion import (GRADING_SEARCH_CAP, FusionLaw, find_c2_gradings,
                          grading_is_valid, jordan_half_law, law_contains,
                          monster_law)
from axial.scalars import FieldTag, Rat, Scalar


def q(n, d=1):
    return Rat(n, d)


class TestStandardLaws:
    def test_jordan_half_cells(self):
        law = jordan_half_law(FieldTag.QQ)
        one, zero, half = q(1), q(0), q(1, 2)
        assert set(law.values) == {one, zero, half}
        assert law.star(one, one) == frozenset({one})
        assert law.star(one, zero) == frozenset()
        assert law.star(one, half) == frozenset({half})
        assert law.star(zero, zero) == frozenset({zero})
        assert law.star(zero, half) == frozenset({half})
        assert law.star(half, half) == frozenset({one, zero})

    def test_monster_cells(self):
        law = monster_law(FieldTag.QQ)
        one, zero, al, be = q(1), q(0), q(2), q(1, 2)
        assert set(law.values) == {one, zero, al, be}
        assert law.star(al, al) == frozenset({one, zero})
        assert law.star(al, be) == frozenset({be})
        assert law.star(be, be) == frozenset({one, zero, al})
        assert law.star(zero, al) == frozenset({al})
        assert law.star(zero, be) == frozenset({be})


def test_values_are_checked_against_the_required_tag():
    FusionLaw((q(1), Scalar.i()), {}, FieldTag.QI)
    for value in (Scalar.i(), 0.5):
        with pytest.raises(FieldMismatchError):
            FusionLaw((q(1), value), {}, FieldTag.QQ)
    with pytest.raises(TypeError):
        FusionLaw((q(1),), {})


class TestContainment:
    def test_law_contains_reflexive_and_strict(self):
        small = jordan_half_law(FieldTag.QQ)
        big = monster_law(FieldTag.QQ)
        assert law_contains(small, small)
        assert not law_contains(big, small)

    def test_symmetric_lookup(self):
        law = monster_law(FieldTag.QQ)
        assert law.star(q(1, 2), q(2)) == law.star(q(2), q(1, 2))


class TestGradings:
    def test_b_grading(self):
        entry = catalog.build("B")
        law = entry.laws["FB"]
        grad = entry.gradings["FB"]
        assert grad.plus == frozenset({q(1)})
        assert grad.minus == frozenset({q(-1)})
        assert grading_is_valid(law, grad.plus, grad.minus)

    def test_find_gradings_on_jordan(self):
        law = jordan_half_law(FieldTag.QQ)
        grads = find_c2_gradings(law)
        # the Peirce grading: {1, 0} positive, {1/2} negative
        assert any(g.plus == frozenset({q(1), q(0)})
                   and g.minus == frozenset({q(1, 2)}) for g in grads)

    def test_invalid_grading_rejected(self):
        law = jordan_half_law(FieldTag.QQ)
        # 1/2 * 1/2 = {1, 0} straddles the parts: not a grading
        assert not grading_is_valid(law, frozenset({q(1), q(1, 2)}),
                                    frozenset({q(0)}))

    def test_search_cap(self):
        # refused before any of the 2^cap sign partitions is tried
        values = [q(k) for k in range(1, GRADING_SEARCH_CAP + 2)]
        with pytest.raises(AxialError, match="search cap"):
            find_c2_gradings(FusionLaw(values, {}, FieldTag.QQ))
