"""Structure-constant algebras: products, operators, forms, radical."""

import pytest

from axial import catalog
from axial.algebra import Algebra, radical_axial
from axial.scalars import FieldTag, Rat


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
