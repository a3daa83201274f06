"""The four benchmark workloads and the library loader.

A workload has three steps:

* ``draw(seed)``: the inputs made from the seed, using no library code
  (permutations, and candidate parameters for the drawn families);
* ``prepare(lib, drawn)``: set-up, i.e. ``catalog.build``;
* ``iterate(lib, state)``: one run of the workload through the public API.
  It returns ``(answers, checks)``: ``answers`` are rendered results that
  must equal the frozen reference answers, ``checks`` are ``(name, ok)``
  pairs checked against the catalog's own expected values.

Every answer is independent of the seed: the seed only reorders inputs or
draws parameters whose answers the catalog itself predicts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
PACKAGE = "axial"


class LibraryMissing(Exception):
    pass


class Library:
    """The axial package imported from ``<root>/src``, with its modules."""

    MODULES = ("catalog", "cli", "extension", "fusion", "miyamoto", "scalars")

    def __init__(self, root):
        src = Path(root) / "src"
        if not (src / PACKAGE / "__init__.py").is_file():
            raise LibraryMissing(f"no {PACKAGE} package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        # a fresh import each time, so set-up time includes the import
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.axial = importlib.import_module(PACKAGE)
        if not Path(self.axial.__file__).resolve().is_relative_to(src.resolve()):
            raise LibraryMissing(f"{PACKAGE} imported from {self.axial.__file__}, not {src}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    # rendering of library values into plain JSON data
    def render(self, s):
        return self.scalars.render_scalar(s)

    def sparse(self, v):
        return [[j, self.render(a)] for j, a in enumerate(v) if a]

    def basis(self, subspace):
        return [self.sparse(b) for b in subspace.basis]

    def law(self, law):
        cells = {f"{self.render(a)}*{self.render(b)}": sorted(self.render(v) for v in cell)
                 for (a, b), cell in law.table.items()}
        return {"values": [self.render(v) for v in law.values],
                "cells": dict(sorted(cells.items()))}

    def cocycles(self, cs):
        return {"Z": self.basis(cs.space), "B": self.basis(cs.coboundaries),
                "ZcapB": self.basis(cs.intersection),
                "quotient_dim": cs.quotient_dim,
                "class_reps": [self.sparse(v) for v in cs.class_reps]}

    def rational(self, fraction):
        return self.scalars.Scalar.rational(fraction.numerator, fraction.denominator)


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _permutation(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


class Albert:
    name = "albert"
    why = ("cocycle_space of the 27-dim Albert algebra for its 27 axes: the paper's "
           "largest case, dominated by eigen-component splitting")
    AXES = 27

    def draw(self, seed):
        return {"order": _permutation(random.Random(seed), self.AXES)}

    def prepare(self, lib, drawn):
        entry = lib.catalog.build("Albert")
        family = entry.axis_sets["family"]
        return {"algebra": entry.algebra, "law": entry.laws["J12"],
                "axes": [family[k] for k in drawn["order"]]}

    def iterate(self, lib, state):
        cs = lib.axial.cocycle_space(state["algebra"], state["axes"], state["law"])
        return {"cocycles": lib.cocycles(cs)}, []


class Gaussian:
    name = "gaussian"
    why = ("JordanD n=16 over Q(i): axis checks, minimal law by root finding and "
           "cocycle space; the only Gaussian-rational workload")
    N = 16

    def draw(self, seed):
        return {"order": _permutation(random.Random(seed), self.N - 1)}

    def prepare(self, lib, drawn):
        entry = lib.catalog.build("JordanD", {"n": self.N})
        family = entry.axis_sets["family"]
        return {"algebra": entry.algebra, "law": entry.laws["J12"],
                "axes": [family[k] for k in drawn["order"]]}

    def iterate(self, lib, state):
        alg, axes, law = state["algebra"], state["axes"], state["law"]
        cert = lib.axial.check_axial_algebra(alg, axes, law)
        minimal = lib.axial.minimal_law(alg, axes)
        cs = lib.axial.cocycle_space(alg, axes, law)
        answers = {
            "certified": cert.certified,
            "closure_dim": cert.closure_dim,
            "violations": len(cert.violations),
            "minimal_law": lib.law(minimal),
            "cocycles": lib.cocycles(cs),
        }
        return answers, []


class Miyamoto:
    name = "miyamoto"
    why = ("tau maps of the 27 axes of JordanC n=3 under the grading {0,1}|{1/2}, "
           "then group and axis closures at cap 200: dense matrix products")
    N = 3
    AXES = 27
    CAP = 200

    def draw(self, seed):
        return {"order": _permutation(random.Random(seed), self.AXES)}

    def prepare(self, lib, drawn):
        entry = lib.catalog.build("JordanC", {"n": self.N})
        family = entry.axis_sets["family"]
        law = entry.laws["J12"]
        Scalar = lib.scalars.Scalar
        one, zero, half = Scalar.rational(1), Scalar.rational(0), Scalar.rational(1, 2)
        # The grading is passed explicitly: find_c2_gradings(law)[0] is the
        # trivial all-plus grading, whose tau maps are all the identity.
        grading = lib.fusion.C2Grading(frozenset({one, zero}), frozenset({half}), 1)
        return {"algebra": entry.algebra, "law": law, "grading": grading,
                "order": drawn["order"],
                "axes": [family[k] for k in drawn["order"]]}

    def iterate(self, lib, state):
        alg, axes, law, grading = (state["algebra"], state["axes"], state["law"],
                                   state["grading"])
        taus = [lib.axial.tau_automorphism(alg, a, law, grading) for a in axes]
        group = lib.axial.group_closure(taus, cap=self.CAP)
        closure = lib.axial.axis_closure(alg, axes, law, grading, cap=self.CAP)
        # tau maps keyed by the axis's position in the catalog's family
        rendered = {str(k): [lib.sparse(row) for row in t.matrix.rows]
                    for k, t in zip(state["order"], taus)}
        answers = {
            "grading_valid": lib.fusion.grading_is_valid(law, grading.plus, grading.minus),
            "taus": dict(sorted(rendered.items(), key=lambda kv: int(kv[0]))),
            "group_order": group.order,
            "group_completed": group.completed,
            "axis_count": len(closure.axes),
            "axes_completed": closure.completed,
        }
        return answers, []


# Drawn 2-dimensional families: parameter slots and the axis set of their
# table 3 extension check.
FAMILIES = {
    "C": (("alpha",), "X12"),
    "D": (("beta",), "X16"),
    "E": (("alpha", "beta"), "X12"),
    "G": (("beta",), "X12"),
    "H": (("gamma",), "X12"),
    "I": (("alpha", "beta"), "Xab"),
}
BUNDLES = ("table1", "table2", "table3", "monster", "jordan-dim4",
           "jordan-simple", "jordan-small")


class PaperSuite:
    name = "paper-suite"
    why = ("the seven default reproduce bundles plus seed-drawn parameters for "
           "families C-I: hundreds of small algebras, per-call overhead")
    DRAWS = 2        # accepted parameter sets per family and run
    CANDIDATES = 64  # candidate parameter sets drawn per family

    def draw(self, seed):
        rng = random.Random(seed)
        candidates = {}
        for family, (slots, _key) in FAMILIES.items():
            candidates[family] = [
                {slot: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                 for slot in slots}
                for _ in range(self.CANDIDATES)]
        bundles = list(BUNDLES)
        rng.shuffle(bundles)
        return {"bundles": bundles, "candidates": candidates}

    def prepare(self, lib, drawn):
        entries = []
        for family, candidates in drawn["candidates"].items():
            accepted = 0
            for params in candidates:
                if accepted == self.DRAWS:
                    break
                try:
                    entry = lib.catalog.build(
                        family, {k: lib.rational(v) for k, v in params.items()})
                except lib.axial.CatalogError:
                    continue  # the catalog rejects these parameters; redraw
                entries.append((family, params, entry))
                accepted += 1
            if accepted < self.DRAWS:
                raise RuntimeError(f"too few accepted parameter draws for family {family}")
        return {"bundles": drawn["bundles"], "entries": entries}

    def iterate(self, lib, state):
        answers = {}
        checks = []
        for bundle in state["bundles"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(["reproduce", bundle, "--json"])
            checks.append((f"reproduce {bundle} exit code", code == 0))
            answers[bundle] = json.loads(out.getvalue())
        for family, params, entry in state["entries"]:
            label = family + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"
            checks.extend(self._table_checks(lib, label, entry, FAMILIES[family][1]))
        return dict(sorted(answers.items())), checks

    @staticmethod
    def _table_checks(lib, label, entry, ext_key):
        """The checks of reproduce table1-table3, at drawn parameters."""
        api = lib.axial
        alg = entry.algebra
        checks = []
        for key, axes in entry.axis_sets.items():
            law = entry.law_for(key)
            cert = api.check_axial_algebra(alg, axes, law)
            checks.append((f"{label} {key} axial", cert.certified))
            primitive = all(r.primitive for r in cert.reports)
            checks.append((f"{label} {key} primitivity",
                           primitive == entry.expected["primitive"][key]))
            checks.append((f"{label} {key} minimal law",
                           api.minimal_law(alg, axes) == law))
        forms = alg.frobenius_space()
        vecs = [tuple(x for row in f.gram.rows for x in row) for f in forms]
        target = tuple(x for row in entry.frobenius.gram.rows for x in row)
        checks.append((f"{label} Frobenius Gram in frobenius_space",
                       api.Subspace(vecs, 4, alg.tag).contains_vector(target)))
        rep = api.extension_axiality(alg, entry.cocycle, entry.axis_sets[ext_key],
                                     entry.law_for(ext_key))
        checks.append((f"{label} {ext_key} extension: axial, law match, non-split, "
                       "theta outside Z",
                       rep.axial and rep.induced_law == entry.extension_laws[ext_key]
                       and rep.split_verdict == "non_split" and not rep.theta_in_z))
        return checks


WORKLOADS = {w.name: w for w in (Albert(), PaperSuite(), Miyamoto(), Gaussian())}


def compare(answers, reference):
    """(name, ok) for every reference key; a missing or extra key fails."""
    checks = []
    for key in sorted(set(answers) | set(reference)):
        if key not in answers or key not in reference:
            checks.append((f"{key} present in answers and reference", False))
        else:
            checks.append((f"{key} matches reference", answers[key] == reference[key]))
    return checks
