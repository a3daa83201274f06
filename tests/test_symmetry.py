"""Symmetry generators of the catalog's simple Jordan algebras and the
orbit-reduced axis analysis of cocycle_space and minimal_law:
every declared generator is an automorphism, the family axis sets fall into
the stated orbits, each later member is the image of its first member under
the returned map, answers and refusals equal those of the same algebra
without generators, and the constructor refuses a generator that is not an
automorphism, as is_automorphism judges it."""

import itertools
import random

import pytest

from axial import catalog, cli, extension
from axial.algebra import Algebra, Cocycle, _sym_columns, _sym_pairs, is_automorphism
from axial.errors import (AxialError, DimensionMismatchError, FieldMismatchError,
                          NotIdempotentError)
from axial.extension import (build_extension, cocycle_space, decompose_by_annihilator,
                             extension_axiality)
from axial.fileio import AlgebraFile, parse_algebra_file, render_algebra_file
from axial.linalg import Matrix, RowReducer
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
        maps = alg.orbit_maps(family)
        assert maps.count(None) == orbits
        for t, orbit in enumerate(maps):
            if orbit is not None:
                r, g = orbit
                assert r < t and maps[r] is None
                assert _matrix(alg, g).apply(family[r]) == family[t]
                assert is_automorphism(alg, _matrix(alg, g))

    def test_albert_orbits_are_the_diagonal_the_real_and_the_imaginary_axes(self):
        entry = catalog.build("Albert")
        family = list(entry.axis_sets["family"])
        maps = entry.algebra.orbit_maps(family)
        # catalog order: D1, D2, D3, then per pair F0 .. F7
        assert [t for t, orbit in enumerate(maps) if orbit is None] == [0, 3, 4]

    def test_albert_diagonal_maps_alone_give_nine_orbits(self):
        alg = catalog.build("Albert").algebra
        diagonal = _rebuilt(alg, alg.symmetry[:2])
        family = list(catalog.build("Albert").axis_sets["family"])
        assert diagonal.orbit_maps(family).count(None) == 9

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
        [[(1.0, 1), (0, 1), (2, 1)]],     # a float index
        [[(1, 1), (0, 1), (2, 1.0)]],     # a float sign
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

    @pytest.mark.parametrize("name, n", [("JordanA", 3), ("JordanB", 3), ("JordanC", 2),
                                         ("JordanD", 5), ("Albert", None)])
    def test_extension_axiality_equals_that_without_generators(self, name, n):
        entry = _build(name, n)
        alg, law = entry.algebra, entry.laws["J12"]
        plain = _rebuilt(alg)
        axes = list(entry.axis_sets["family"])
        random.Random(n).shuffle(axes)
        # a coboundary, a map that meets condition (1) on every axis and not
        # (2), and the single entry at the pair (0, 1)
        cond1 = RowReducer(len(_sym_pairs(alg.dim)), alg.tag)
        for a in axes:
            for row in extension._orbit_rows(plain, a, law, None, None)[0]:
                cond1.add_int_row(row)
        space = cocycle_space(alg, axes, law).space
        only1 = next(v for v in cond1.kernel().sparse_rows if not space.contains_sparse(v))
        thetas = [Cocycle([space.sparse_rows[-1]], alg.dim, alg.tag),
                  Cocycle([only1], alg.dim, alg.tag), _theta(alg)]
        verdicts = []
        for theta in thetas:
            got, want = (extension_axiality(a, theta, axes, law) for a in (alg, plain))
            verdicts.append((got.axial, got.theta_in_z))
            assert (got.condition1, got.axial, got.theta_in_z, got.split_verdict,
                    got.lifted_axes) == (want.condition1, want.axial, want.theta_in_z,
                                         want.split_verdict, want.lifted_axes)
            assert (got.induced_law is None) == (want.induced_law is None)
            if got.induced_law is not None:
                assert ((got.induced_law.values, got.induced_law.table)
                        == (want.induced_law.values, want.induced_law.table))
        assert verdicts[:2] == [(True, True), (True, False)]

    @pytest.mark.parametrize("name, n", [(name, n) for name, n in DECLARING
                                         if _build(name, n).algebra.symmetry])
    def test_a_generator_with_one_sign_flipped_is_refused(self, name, n):
        alg = _build(name, n).algebra
        # an idempotent basis element moves onto minus one, which is none
        j = next(j for j in range(alg.dim) if alg.basis_product(j, j) == {j: ONE})
        last = len(alg.symmetry)
        g = list(alg.symmetry[-1])
        g[j] = (g[j][0], -g[j][1])
        with pytest.raises(AxialError, match=f"symmetry generator {last} is not an automorphism"):
            _rebuilt(alg, alg.symmetry[:-1] + (g,))

    @pytest.mark.parametrize("name, n", [("JordanA", 3), ("Albert", None)])
    def test_the_readers_do_not_verify_the_generators_again(self, name, n, monkeypatch):
        entry = _build(name, n)
        alg, law = entry.algebra, entry.laws["J12"]
        axes = list(entry.axis_sets["family"])
        expected = _answers(alg, axes, law), alg.orbit_maps(axes)

        def refuse(*args):
            raise AssertionError("a symmetry generator was verified again")

        monkeypatch.setattr("axial.algebra.is_automorphism", refuse)
        assert (_answers(alg, axes, law), alg.orbit_maps(axes)) == expected


# JordanC and Albert carry generators with minus signs
TRANSPORTED = ([(name, n) for name in ("JordanA", "JordanB", "JordanC") for n in range(1, 5)]
               + [("JordanD", 5), ("Albert", None)])


def _row_space(rows, alg):
    """The canonical RREF of the integer rows: the stored rows of a
    RowReducer, keyed by their pivots."""
    red = RowReducer(len(_sym_pairs(alg.dim)), alg.tag)
    for row in rows:
        red.add_int_row(row)
    return red.rows


def _mistransported(name, n):
    """(the later members of the family's orbits, the positions of those
    whose moved condition (1) or (2) rows span another row space than the
    rows built from their own Eigenbasis)."""
    entry = _build(name, n)
    alg, law = entry.algebra, entry.laws["J12"]
    axes = list(entry.axis_sets["family"])
    direct = [extension._orbit_rows(alg, a, law, None, None) for a in axes]
    later, wrong = 0, []
    for t, orbit in enumerate(alg.orbit_maps(axes)):
        if orbit is not None:
            later += 1
            moved = extension._orbit_rows(alg, axes[t], law, orbit, direct)
            if any(_row_space(m, alg) != _row_space(d, alg) for m, d in zip(moved, direct[t])):
                wrong.append(t)
    return later, wrong


def _moved_rows_unsigned(rows, g, n):
    """The column map with the sign s_i s_j left out."""
    pairs, cols = _sym_pairs(n), _sym_columns(n)
    return [{cols[g[pairs[t][0]][0]][g[pairs[t][1]][0]]: c for t, c in row.items()}
            for row in rows]


class TestTransportedRows:
    """The condition rows of a later orbit member, moved from its first
    member's, span the rows built from its own Eigenbasis, part by part."""

    @pytest.mark.parametrize("name, n", TRANSPORTED)
    def test_moved_rows_span_the_direct_rows(self, name, n):
        later, wrong = _mistransported(name, n)
        assert later or not _build(name, n).algebra.symmetry
        assert wrong == []

    def test_a_dropped_sign_is_caught(self, monkeypatch):
        monkeypatch.setattr(extension, "_moved_rows", _moved_rows_unsigned)
        caught = [(name, n) for name, n in TRANSPORTED if _mistransported(name, n)[1]]
        assert ("Albert", None) in caught and ("JordanC", 3) in caught


# every signed permutation of each algebra, 1,640 in all: (entry, params,
# how many the constructor accepts)
SIGNED = [("B", {}, 2), ("JordanB", {"n": 2}, 4), ("JordanD", {"n": 3}, 8),
          ("Monster4", {}, 2), ("JordanA", {"n": 2}, 8), ("J25", {}, 2), ("J59", {}, 2)]


@pytest.mark.parametrize("name, params, accepted", SIGNED)
def test_the_constructor_accepts_exactly_the_automorphisms(name, params, accepted):
    alg = catalog.build(name, params).algebra
    n = alg.dim
    verdicts = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            g = list(zip(perm, signs))
            try:
                _rebuilt(alg, [g])
            except AxialError as e:
                assert str(e) == "symmetry generator 1 is not an automorphism"
                verdicts.append(False)
            else:
                verdicts.append(True)
            assert verdicts[-1] == is_automorphism(alg, _matrix(alg, g)), g
    assert sum(verdicts) == accepted


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
        assert alg.orbit_maps(family)[family.index(a)] is not None
        extra = {"int copy": _int_copy(a), "float copy": _float_copy(a),
                 "short copy": a[:-1], "not idempotent": tuple(2 * c for c in a)}[kind]
        if kind in ("int copy", "float copy"):
            assert extra == a and hash(extra) == hash(a)
        axes = family + [extra]
        for run in (cocycle_space, lambda alg, axes, law: minimal_law(alg, axes),
                    lambda alg, axes, law: extension_axiality(alg, _theta(alg), axes, law)):
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
