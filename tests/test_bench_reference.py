"""The frozen answers under bench/reference for the Albert, Gaussian and
Miyamoto computations, recomputed with the axes in catalog order.  The
answers do not depend on the axis order, and each file is only read here."""

import json
import os

from axial import catalog
from axial.extension import cocycle_space
from axial.fusion import C2Grading, grading_is_valid
from axial.miyamoto import axis_closure, group_closure, tau_automorphism
from axial.scalars import ONE, ZERO, Rat, render_scalar
from axial.spectral import check_axial_algebra, minimal_law

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "reference")


def _reference(name):
    with open(os.path.join(REFERENCE, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sparse(v):
    return [[j, render_scalar(a)] for j, a in enumerate(v) if a]


def _basis(subspace):
    return [_sparse(b) for b in subspace.basis]


def _cocycles(cs):
    return {"Z": _basis(cs.space), "B": _basis(cs.coboundaries),
            "ZcapB": _basis(cs.intersection), "quotient_dim": cs.quotient_dim,
            "class_reps": [_sparse(v) for v in cs.class_reps]}


def _law(law):
    cells = {f"{render_scalar(a)}*{render_scalar(b)}": sorted(render_scalar(v) for v in cell)
             for (a, b), cell in law.table.items()}
    return {"values": [render_scalar(v) for v in law.values], "cells": dict(sorted(cells.items()))}


def test_albert_cocycle_space():
    entry = catalog.build("Albert")
    cs = cocycle_space(entry.algebra, entry.axis_sets["family"], entry.laws["J12"])
    assert {"cocycles": _cocycles(cs)} == _reference("albert")


def test_gaussian_jordan_form():
    entry = catalog.build("JordanD", {"n": 16})
    alg, axes, law = entry.algebra, entry.axis_sets["family"], entry.laws["J12"]
    cert = check_axial_algebra(alg, axes, law)
    answers = {"certified": cert.certified, "closure_dim": cert.closure_dim,
               "violations": len(cert.violations),
               "minimal_law": _law(minimal_law(alg, axes)),
               "cocycles": _cocycles(cocycle_space(alg, axes, law))}
    assert answers == _reference("gaussian")


def test_miyamoto_closures():
    entry = catalog.build("JordanC", {"n": 3})
    alg, axes, law = entry.algebra, entry.axis_sets["family"], entry.laws["J12"]
    grading = C2Grading(frozenset({ONE, ZERO}), frozenset({Rat(1, 2)}), 1)
    taus = [tau_automorphism(alg, a, law, grading) for a in axes]
    group = group_closure(taus, cap=200)
    closure = axis_closure(alg, axes, law, grading, cap=200)
    answers = {
        "grading_valid": grading_is_valid(law, grading.plus, grading.minus),
        "taus": {str(k): [_sparse(row) for row in t.matrix.rows] for k, t in enumerate(taus)},
        "group_order": group.order, "group_completed": group.completed,
        "axis_count": len(closure.axes), "axes_completed": closure.completed,
    }
    assert answers == _reference("miyamoto")
