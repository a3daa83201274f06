"""Text format for algebras: parsing, rendering, round trips."""

import pytest

from axial import catalog
from axial.extension import Cocycle
from axial.fileio import (AlgebraFile, AlgebraFileError, parse_algebra_file,
                          render_algebra_file)
from axial.scalars import FieldTag, Scalar


def q(n, d=1):
    return Scalar.rational(n, d, FieldTag.QQ)


SAMPLE = """
# two-dimensional sample
field QQ
dim 2
basis e1 e2
product 1 1: 1 e1
product 1 2: -1 e1, -1 e2
product 2 2: 1 e2
element a4: -1 e1, -1 e2
set X12: e1 e2
set X14: e1 a4
law FB: 1 -1
cell FB -1 -1: 1
cell FB -1 1: -1
cocycle th 1 2: 1
"""


class TestParse:
    def test_sample(self):
        out = parse_algebra_file(SAMPLE)
        alg = out.algebra
        assert alg.dim == 2 and alg.labels == ("e1", "e2")
        assert alg.product(alg.basis_element(0), alg.basis_element(1)) == \
            (q(-1), q(-1))
        assert out.elements["a4"] == (q(-1), q(-1))
        assert out.sets["X14"] == ((q(1), q(0)), (q(-1), q(-1)))
        law = out.laws["FB"]
        assert law.star(q(-1), q(-1)) == frozenset({q(1)})
        assert law.star(q(1), q(1)) == frozenset({q(1)})  # implied unit row
        assert out.cocycles["th"].evaluate((q(1), q(0)), (q(0), q(1))) == (q(1),)

    def test_omitted_products_are_zero(self):
        out = parse_algebra_file("dim 2\nbasis a b\nproduct 1 1: 1 a\n")
        alg = out.algebra
        assert all(not c for c in alg.product(alg.basis_element(0),
                                              alg.basis_element(1)))

    def test_qi_field(self):
        out = parse_algebra_file(
            "field QI\ndim 1\nbasis e\nproduct 1 1: i e\n")
        assert out.algebra.tag is FieldTag.QI

    def test_errors(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_file("basis a b\n")  # missing dim
        with pytest.raises(AlgebraFileError):
            parse_algebra_file("dim 2\nbasis a b\nproduct 2 1: 1 a\n")
        with pytest.raises(AlgebraFileError):
            parse_algebra_file("dim 1\nbasis a\nbogus directive\n")
        with pytest.raises(AlgebraFileError):
            parse_algebra_file("dim 1\nbasis a\nset S: missing\n")


class TestRoundTrip:
    def test_sample_round_trip(self):
        first = parse_algebra_file(SAMPLE)
        text = render_algebra_file(first)
        second = parse_algebra_file(text)
        assert render_algebra_file(second) == text
        assert second.laws["FB"] == first.laws["FB"]
        assert second.cocycles["th"] == first.cocycles["th"]
        # one coordinate per cocycle name: s = 2 cannot be written
        mat = first.cocycles["th"].mats[0]
        first.cocycles["th2"] = Cocycle([mat, mat], FieldTag.QQ)
        with pytest.raises(AlgebraFileError):
            render_algebra_file(first)

    def test_catalog_entries_round_trip(self):
        for name in ("B", "D", "Monster4", "J25"):
            entry = catalog.build(name)
            bundle = AlgebraFile(entry.algebra)
            bundle.laws = dict(entry.laws)
            if entry.cocycle is not None:
                bundle.cocycles["canonical"] = entry.cocycle
            for key, members in entry.axis_sets.items():
                for t, m in enumerate(members):
                    nz = [(j, c) for j, c in enumerate(m) if c]
                    if len(nz) == 1 and nz[0][1].is_one():
                        continue
                    bundle.elements.setdefault(f"{key}_{t + 1}", tuple(m))
                bundle.sets[key] = members
            text = render_algebra_file(bundle)
            again = parse_algebra_file(text)
            assert render_algebra_file(again) == text
            for i in range(entry.algebra.dim):
                for j in range(i, entry.algebra.dim):
                    assert again.algebra.basis_product(i, j) == \
                        entry.algebra.basis_product(i, j)
