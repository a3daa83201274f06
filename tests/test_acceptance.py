"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion.  The heavy 27-dimensional run is marked slow and excluded from the
default run; enable it with `pytest -m slow`."""

import time

import pytest

from axial import catalog
from axial.cli import (REPRODUCE_BUNDLES, _bundle_jordan_simple)
from axial.extension import build_extension, condition1_rows
from axial.fusion import law_contains, monster_law
from axial.linalg import Matrix
from axial.miyamoto import axis_closure, find_flip, group_closure, \
    tau_automorphism
from axial.scalars import FieldTag, Rat
from axial.spectral import check_axial_algebra, eigen_decompose, minimal_law

from test_properties import PROPERTY_SUITES


def q(n, d=1):
    return Rat(n, d)


def _assert_bundle(name):
    checks = REPRODUCE_BUNDLES[name]()
    failures = [label for label, ok in checks if not ok]
    assert not failures, f"{name}: {failures}"


def test_criterion_1_family_tables_certified_under_5s():
    start = time.monotonic()
    _assert_bundle("table1")
    _assert_bundle("table2")
    assert time.monotonic() - start < 5.0


def test_criterion_2_no_constraints_iff_zero_not_in_spectrum():
    for name in catalog.TWO_DIM_FAMILIES:
        entry = catalog.build(name)
        for axes in entry.axis_sets.values():
            for a in axes:
                rows = condition1_rows(entry.algebra, a,
                                       entry.algebra.left_mult_matrix(a).kernel())
                spec = eigen_decompose(entry.algebra, a).spectrum()
                assert (not rows) == (q(0) not in spec)


def test_criterion_3_canonical_extensions_match_table():
    _assert_bundle("table3")


def test_criterion_4_monster_example():
    _assert_bundle("monster")
    # sharper frozen oracle: the induced minimal law of the 5-dim extension
    # differs from the base minimal law only in the (1/2, 1/2) cell, which
    # changes from empty to {0}; both sit inside the (2, 1/2) law.
    entry = catalog.build("Monster4")
    law = monster_law(FieldTag.QQ)
    ext, lifted = build_extension(entry.algebra, entry.cocycle,
                                  entry.axis_sets["all"])
    cert = check_axial_algebra(ext, lifted, law)
    assert cert.certified
    base_min = minimal_law(entry.algebra, entry.axis_sets["all"])
    ext_min = minimal_law(ext, lifted)
    assert law_contains(ext_min, law)
    half = q(1, 2)
    for lam in ext_min.values:
        for mu in ext_min.values:
            if (lam, mu) == (half, half):
                assert base_min.star(lam, mu) == frozenset()
                assert ext_min.star(lam, mu) == frozenset({q(0)})
            else:
                assert ext_min.star(lam, mu) == base_min.star(lam, mu)


def test_criterion_5_simple_jordan_quotients_vanish():
    _assert_bundle("jordan-simple")


@pytest.mark.slow
def test_criterion_5_extended_27_dim():
    start = time.monotonic()
    checks = _bundle_jordan_simple(extended=True)
    failures = [label for label, ok in checks if not ok]
    assert not failures, failures
    assert time.monotonic() - start < 300.0


def test_criterion_6_small_nilpotent_families():
    _assert_bundle("jordan-small")


def test_criterion_7_dimension_four_spot_set():
    _assert_bundle("jordan-dim4")


def test_criterion_8_miyamoto_suite():
    ident2 = Matrix.identity(2, FieldTag.QQ)

    b = catalog.build("B")
    law, grad = b.laws["FB"], b.gradings["FB"]
    t1, t2 = (tau_automorphism(b.algebra, a, law, grad)
              for a in b.axis_sets["X12"])
    gc = group_closure([t1, t2], cap=50)
    assert gc.completed and gc.order == 6
    assert t1.matrix * t1.matrix == ident2
    assert t2.matrix * t2.matrix == ident2
    prod = t1.matrix * t2.matrix
    assert prod * prod * prod == ident2 and prod != ident2

    c = catalog.build("C")
    ckey = c.axis_laws["X15"]
    ctaus = [tau_automorphism(c.algebra, a, c.laws[ckey], c.gradings[ckey])
             for a in c.axis_sets["X15"]]
    assert group_closure(ctaus, cap=50).order == 2

    ac = axis_closure(b.algebra, b.axis_sets["X12"], law, grad, cap=50)
    assert ac.completed and set(ac.axes) == set(b.expected["axis_closure"])

    i = catalog.build("I")
    iac = axis_closure(i.algebra, i.axis_sets["Xab"], i.laws["FI"],
                       i.gradings["FI"], cap=50)
    assert not iac.completed

    assert find_flip(b.algebra, *b.axis_sets["X12"]) is not None
    assert find_flip(i.algebra, *i.axis_sets["Xab"]) is not None
    d = catalog.build("D")
    assert find_flip(d.algebra, *d.axis_sets["X12"]) is None
    assert find_flip(catalog.build("H").algebra,
                     *catalog.build("H").axis_sets["X12"]) is None
    hm1 = catalog.build("H", {"gamma": -1})
    assert find_flip(hm1.algebra, *hm1.axis_sets["X12"]) is not None


def test_criterion_9_property_suites_100_instances_each():
    for fn in PROPERTY_SUITES.values():
        fn(100)
