"""Sign-flip automorphisms, group and axis closures, axis-swap maps."""

import pytest

from axial import catalog
from axial.errors import NotIdempotentError
from axial.fusion import find_c2_gradings
from axial.linalg import Matrix
from axial.miyamoto import (axis_closure, find_flip, group_closure,
                            is_automorphism, tau_automorphism)
from axial.scalars import FieldTag, Rat
from axial.spectral import Eigenbasis


def q(n, d=1):
    return Rat(n, d)


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
        assert not is_automorphism(alg, ident.scale(q(2)))
        # the zero map is multiplicative; only invertibility rejects it
        assert not is_automorphism(alg, Matrix.zero(2, 2, FieldTag.QQ))

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
