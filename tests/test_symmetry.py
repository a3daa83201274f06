"""Symmetry generators of the catalog's simple Jordan algebras and the
orbit-reduced axis analysis of cocycle_space and minimal_law: every declared
generator is an automorphism, the family axis sets fall into the stated
orbits, answers and refusals equal those of the same algebra without
generators, and a generator that is not an automorphism is refused."""

import random

import pytest

from axial import catalog, cli
from axial.algebra import Algebra, Cocycle, is_automorphism
from axial.errors import (AxialError, DimensionMismatchError, FieldMismatchError,
                          NotIdempotentError)
from axial.extension import build_extension, cocycle_space, decompose_by_annihilator
from axial.fileio import AlgebraFile, parse_algebra_file, render_algebra_file
from axial.linalg import Matrix
from axial.scalars import ONE
from axial.spectral import minimal_law


def _rebuilt(alg, symmetry=()):
    """The algebra with the same constants and labels and the given
    generators."""
    n = alg.dim
    products = {(i, j): alg.basis_product(i, j) for i in range(n) for j in range(i, n)}
    return Algebra(n, products, alg.tag, alg.labels, symmetry=symmetry)


def _matrix(alg, g):
    """The matrix of the signed permutation g: column j is s_j e_pi(j)."""
    return Matrix.from_int_rows([{k: s} for k, s in g], 1, alg.dim, alg.tag).transpose()


# (entry, n, generator count, orbits of the family axes)
ORBITS = [("JordanA", 1, 0, 1), ("JordanA", 2, 1, 2), ("JordanA", 3, 2, 2),
          ("JordanA", 4, 2, 2),
          ("JordanB", 1, 0, 1), ("JordanB", 2, 1, 2), ("JordanB", 3, 2, 2),
          ("JordanB", 4, 2, 2),
          ("JordanC", 1, 0, 1), ("JordanC", 2, 1, 5), ("JordanC", 3, 2, 5),
          ("JordanD", 2, 0, 1), ("JordanD", 3, 1, 1), ("JordanD", 4, 2, 1),
          ("JordanD", 6, 2, 1),
          ("Albert", None, 3, 3)]


def _theta(alg):
    return Cocycle.from_entries(alg.dim, {(0, 1): ONE}, alg.tag)


def _build(name, n):
    return catalog.build(name, {} if n is None else {"n": n})


class TestCatalogGenerators:
    @pytest.mark.parametrize("name, n, gens, orbits", ORBITS)
    def test_generators_are_automorphisms_with_the_stated_orbits(self, name, n, gens, orbits):
        alg = _build(name, n).algebra
        family = list(_build(name, n).axis_sets["family"])
        assert len(alg.symmetry) == gens
        for g in alg.symmetry:
            assert is_automorphism(alg, _matrix(alg, g))
        assert sum(alg.orbit_firsts(family)) == orbits

    def test_albert_orbits_are_the_diagonal_the_real_and_the_imaginary_axes(self):
        entry = catalog.build("Albert")
        family = list(entry.axis_sets["family"])
        firsts = entry.algebra.orbit_firsts(family)
        # catalog order: D1, D2, D3, then per pair F0 .. F7
        assert [t for t, first in enumerate(firsts) if first] == [0, 3, 4]

    def test_albert_diagonal_maps_alone_give_nine_orbits(self):
        alg = catalog.build("Albert").algebra
        diagonal = _rebuilt(alg, alg.symmetry[:2])
        family = list(catalog.build("Albert").axis_sets["family"])
        assert sum(diagonal.orbit_firsts(family)) == 9

    @pytest.mark.parametrize("make", [
        lambda jordan: catalog.build("Monster4").algebra,
        lambda jordan: jordan.direct_sum(jordan),
        lambda jordan: build_extension(jordan, _theta(jordan))[0],
        lambda jordan: decompose_by_annihilator(build_extension(jordan, _theta(jordan))[0])[0],
        lambda jordan: parse_algebra_file(render_algebra_file(AlgebraFile(jordan))).algebra,
    ], ids=["Monster4", "direct_sum", "build_extension", "decompose", "file"])
    def test_other_and_derived_algebras_carry_none(self, make):
        jordan = catalog.build("JordanB").algebra
        assert jordan.symmetry
        assert make(jordan).symmetry == ()

    @pytest.mark.parametrize("symmetry", [
        [[(1, 1), (0, 1)]],               # too short
        [[(1, 1), (1, 1), (2, 1)]],       # not a permutation
        [[(1, 1), (0, 2), (2, 1)]],       # a sign that is not +-1
        [[(1, 1), (0, 1), (2,)]],         # not a pair
        [(1, 0, 2)],                      # a bare permutation
        [[(1, 1), ("0", 1), (2, 1)]],     # indices that do not sort
    ])
    def test_constructor_checks_the_shape(self, symmetry):
        alg = catalog.build("JordanB", {"n": 2}).algebra
        with pytest.raises(DimensionMismatchError, match="not a signed permutation"):
            _rebuilt(alg, symmetry)


# every entry that declares generators
DECLARING = ([("JordanA", n) for n in range(1, 5)] + [("JordanB", n) for n in range(1, 5)]
             + [("JordanC", n) for n in range(1, 4)] + [("JordanD", n) for n in range(2, 7)]
             + [("Albert", None)])


def _answers(alg, axes, law):
    cs = cocycle_space(alg, axes, law)
    ml = minimal_law(alg, axes)
    return (cs.space, cs.coboundaries, cs.quotient_dim, cs.class_reps,
            ml.values, ml.table)


class TestDifferential:
    @pytest.mark.parametrize("name, n", DECLARING)
    def test_answers_equal_those_without_generators(self, name, n):
        entry = _build(name, n)
        alg, law = entry.algebra, entry.laws["J12"]
        plain = _rebuilt(alg)
        for seed in range(3):
            axes = list(entry.axis_sets["family"])
            random.Random(seed).shuffle(axes)
            assert _answers(alg, axes, law) == _answers(plain, axes, law)

    @pytest.mark.parametrize("name, n", [(name, n) for name, n in DECLARING
                                         if _build(name, n).algebra.symmetry])
    def test_a_generator_with_one_sign_flipped_is_refused(self, name, n):
        entry = _build(name, n)
        alg, law = entry.algebra, entry.laws["J12"]
        # an idempotent basis element moves onto minus one, which is none
        j = next(j for j in range(alg.dim) if alg.basis_product(j, j) == {j: ONE})
        last = len(alg.symmetry)
        g = list(alg.symmetry[-1])
        g[j] = (g[j][0], -g[j][1])
        bad = _rebuilt(alg, alg.symmetry[:-1] + (g,))
        axes = entry.axis_sets["family"]
        message = f"symmetry generator {last} is not an automorphism"
        with pytest.raises(AxialError, match=message):
            cocycle_space(bad, axes, law)
        with pytest.raises(AxialError, match=message):
            minimal_law(bad, axes)


def _int_copy(a):
    return tuple(int(c) if c.denominator == 1 else c for c in a)


def _float_copy(a):
    return tuple(float(c) for c in a)


class TestRefusalsAreNeverSkipped:
    """An axis after the Z = B exit that fails the length or field check, or
    is no idempotent, raises as it does without generators.  The int and
    float copies compare and hash equal to the family axis they copy."""

    @pytest.mark.parametrize("name, n", [("JordanA", 3), ("Albert", None)])
    @pytest.mark.parametrize("kind, error", [
        ("int copy", FieldMismatchError), ("float copy", FieldMismatchError),
        ("short copy", DimensionMismatchError), ("not idempotent", NotIdempotentError)])
    def test_same_error_with_and_without_generators(self, name, n, kind, error):
        entry = _build(name, n)
        alg, law = entry.algebra, entry.laws["J12"]
        family = list(entry.axis_sets["family"])
        # quotient 0: the rank reached N - dim B, so what follows comes after
        # the exit
        assert cocycle_space(alg, family, law).quotient_dim == 0
        # the last axis with an integer entry, a later member of its orbit
        a = next(a for a in reversed(family) if any(c and c.denominator == 1 for c in a))
        assert not alg.orbit_firsts(family)[family.index(a)]
        extra = {"int copy": _int_copy(a), "float copy": _float_copy(a),
                 "short copy": a[:-1], "not idempotent": tuple(2 * c for c in a)}[kind]
        if kind in ("int copy", "float copy"):
            assert extra == a and hash(extra) == hash(a)
        axes = family + [extra]
        for run in (cocycle_space, lambda alg, axes, law: minimal_law(alg, axes)):
            with pytest.raises(error) as plain:
                run(_rebuilt(alg), axes, law)
            with pytest.raises(error) as got:
                run(alg, axes, law)
            assert str(got.value) == str(plain.value)


def test_jordan_simple_reads_the_expected_quotient(monkeypatch):
    real = catalog.build

    def build(name, params=None):
        entry = real(name, params)
        entry.expected["quotient_dim"] = 1
        return entry

    monkeypatch.setattr(cli._catalog, "build", build)
    checks = cli._bundle_jordan_simple()
    assert checks and all(label.endswith("quotient 1") and not ok for label, ok in checks)
