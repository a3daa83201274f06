"""Command-line front end: verification, spectra, cocycle spaces, extensions,
Miyamoto closures, catalog access, and reproducible report bundles.

Exit codes: 0 = verified/success, 1 = violations found, 2 = usage or I/O
error.  `--json` emits a stable-key JSON document that is byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as _catalog
from .algebra import Cocycle, radical_axial
from .errors import AxialError
from .extension import (build_extension, cocycle_space, decompose_by_annihilator,
                        extension_axiality, is_split, normalize_on_axes)
from .fileio import AlgebraFile, _basis_label, parse_algebra_file, render_algebra_file
from .fusion import find_c2_gradings, jordan_half_law, law_contains, monster_law
from .linalg import Matrix, Subspace
from .miyamoto import axis_closure, group_closure
from .scalars import ONE, ZERO, FieldTag, parse_scalar, render_scalar, sort_key
from .spectral import check_axial_algebra, eigen_decompose, minimal_law, render_violation


class UsageError(AxialError):
    pass


# ---------------------------------------------------------------------------
# rendering helpers

def _r(s):
    return render_scalar(s)


def _rvec(v):
    return [render_scalar(c) for c in v]


def _rlaw(law):
    vals = sorted(law.values, key=sort_key)
    cells = {}
    for (a, b), cell in law.table.items():
        key = f"{_r(a)}*{_r(b)}"
        cells[key] = sorted((_r(v) for v in cell), key=str)
    return {"values": [_r(v) for v in vals], "cells": cells}


def _law_lines(law):
    doc = _rlaw(law)
    lines = ["values: " + " ".join(doc["values"])]
    for key in sorted(doc["cells"]):
        lines.append(f"  {key} = {{{', '.join(doc['cells'][key])}}}")
    return lines


# ---------------------------------------------------------------------------
# input loading

def _entry_bundle(entry):
    """An AlgebraFile of a catalog entry: its algebra, axis sets and laws,
    and its cocycle as "canonical" when it has one."""
    bundle = AlgebraFile(entry.algebra)
    bundle.sets = dict(entry.axis_sets)
    bundle.laws = dict(entry.laws)
    if entry.cocycle is not None:
        bundle.cocycles["canonical"] = entry.cocycle
    return bundle


def _load(args):
    """Return (bundle-like, description).  Catalog entries are wrapped so that
    axis sets, laws and the canonical cocycle resolve by name."""
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise UsageError(f"cannot read {args.file}: {ex}")
        bundle = parse_algebra_file(text)
        return bundle, f"file {args.file}"
    if getattr(args, "catalog", None):
        params = {}
        for item in getattr(args, "param", None) or []:
            key, _, val = item.partition("=")
            if not _:
                raise UsageError(f"malformed --param {item!r} (want key=value)")
            try:
                params[key] = int(val)
            except ValueError:
                params[key] = parse_scalar(val, FieldTag.QQ)
        entry = _catalog.build(args.catalog, params)
        bundle = _entry_bundle(entry)
        for key, law in entry.extension_laws.items():
            bundle.laws.setdefault(f"ext:{key}", law)
        bundle.laws.setdefault("J12", jordan_half_law(entry.algebra.tag))
        if entry.algebra.tag is FieldTag.QQ:
            bundle.laws.setdefault("M2half", monster_law(FieldTag.QQ))
        bundle.entry = entry
        desc = args.catalog
        if entry.params:
            desc += "(" + ", ".join(f"{k}={_r(v)}" for k, v in sorted(entry.params.items())) + ")"
        return bundle, desc
    raise UsageError("one of --catalog or --file is required")


def _axes_of(bundle, args):
    key = getattr(args, "axes", None)
    if key is None:
        raise UsageError("--axes is required for this subcommand")
    if key not in bundle.sets:
        raise UsageError(f"unknown axis set {key!r}; available: {sorted(bundle.sets)}")
    return bundle.sets[key]


def _law_of(bundle, args):
    key = getattr(args, "law", None)
    if key is None:
        raise UsageError("--law is required for this subcommand")
    if key not in bundle.laws:
        raise UsageError(f"unknown law {key!r}; available: {sorted(bundle.laws)}")
    return bundle.laws[key]


def _cocycle_of(bundle, args):
    key = getattr(args, "cocycle", None) or "canonical"
    if key not in bundle.cocycles:
        raise UsageError(
            f"unknown cocycle {key!r}; available: {sorted(bundle.cocycles)}")
    return bundle.cocycles[key]


def _grading_of(bundle, args, law):
    entry = getattr(bundle, "entry", None)
    if entry is not None:
        for name, grad in entry.gradings.items():
            if entry.laws.get(name) == law:
                return grad
    grads = find_c2_gradings(law)
    if not grads:
        raise UsageError("law admits no C2-grading")
    # the all-plus grading comes first and makes every tau the identity
    return next((g for g in grads if g.minus), grads[0])


# ---------------------------------------------------------------------------
# output plumbing

def _emit(args, doc, lines):
    if args.json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check_axial(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    law = _law_of(bundle, args)
    cert = check_axial_algebra(bundle.algebra, axes, law)
    violations = [render_violation(bundle.algebra, v) for v in cert.violations]
    doc = {
        "command": "check-axial", "input": desc, "axes": args.axes,
        "law": args.law, "certified": cert.certified,
        "closure_dim": cert.closure_dim,
        "max_word_length": cert.max_word_length,
        "violations": violations,
        "axes_report": [
            {"idempotent": r.idempotent, "semisimple": r.eigen.semisimple,
             "primitive": r.primitive, "is_axis": r.is_axis,
             "spectrum": [_r(s) for s in r.eigen.spectrum()]}
            for r in cert.reports],
    }
    lines = [f"check-axial {desc} axes={args.axes} law={args.law}",
             f"  certified: {cert.certified}",
             f"  closure dim: {cert.closure_dim} (m = {cert.max_word_length})"]
    for v in violations:
        lines.append("  violation: " + " ".join(v))
    _emit(args, doc, lines)
    return 0 if cert.certified else 1


def _cmd_spectrum(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    hints = ()
    if getattr(args, "law", None):
        hints = _law_of(bundle, args).values
    out = []
    lines = [f"spectrum {desc} axes={args.axes}"]
    complete_all = True
    for a in axes:
        ed = eigen_decompose(bundle.algebra, a, hints=hints)
        rec = {"element": bundle.algebra.render_element(a),
               "semisimple": ed.semisimple,
               "spectrum_complete": ed.spectrum_complete,
               "eigenvalues": [{"value": _r(lam), "dim": sp.dim}
                               for lam, sp in ed.pairs]}
        out.append(rec)
        complete_all = complete_all and ed.spectrum_complete
        eig = ", ".join(f"{_r(lam)} (dim {sp.dim})" for lam, sp in ed.pairs)
        lines.append(f"  {rec['element']}: {eig}; semisimple={ed.semisimple}"
                     + ("" if ed.spectrum_complete else "; spectrum undetermined"))
    doc = {"command": "spectrum", "input": desc, "axes": args.axes,
           "elements": out}
    _emit(args, doc, lines)
    return 0 if complete_all else 1


def _cmd_fusion_min(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    law = minimal_law(bundle.algebra, axes)
    doc = {"command": "fusion-min", "input": desc, "axes": args.axes,
           "law": _rlaw(law)}
    lines = [f"fusion-min {desc} axes={args.axes}"] + \
        ["  " + x for x in _law_lines(law)]
    _emit(args, doc, lines)
    return 0


def _cmd_frobenius(args):
    bundle, desc = _load(args)
    forms = bundle.algebra.frobenius_space()
    doc = {"command": "frobenius", "input": desc,
           "dimension": len(forms),
           "grams": [[_rvec(row) for row in f.gram.rows] for f in forms]}
    lines = [f"frobenius {desc}: space dimension {len(forms)}"]
    for k, f in enumerate(forms):
        lines.append(f"  form {k+1}: " +
                     "; ".join(" ".join(_rvec(row)) for row in f.gram.rows))
    _emit(args, doc, lines)
    return 0


def _cmd_radical(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    try:
        sub, form = radical_axial(bundle.algebra, axes)
    except ValueError as ex:
        doc = {"command": "radical", "input": desc, "axes": args.axes,
               "available": False, "reason": str(ex)}
        _emit(args, doc, [f"radical {desc} axes={args.axes}: unavailable ({ex})"])
        return 1
    doc = {"command": "radical", "input": desc, "axes": args.axes,
           "available": True, "dim": sub.dim,
           "basis": [_rvec(b) for b in sub.basis],
           "gram": [_rvec(row) for row in form.gram.rows]}
    lines = [f"radical {desc} axes={args.axes}: dim {sub.dim}"]
    for b in sub.basis:
        lines.append("  " + bundle.algebra.render_element(b))
    _emit(args, doc, lines)
    return 0


def _cmd_jordan(args):
    bundle, desc = _load(args)
    witness = bundle.algebra.jordan_check()
    ok = witness is None
    doc = {"command": "jordan", "input": desc, "jordan": ok,
           "witness": None if ok else list(witness)}
    lines = [f"jordan {desc}: " +
             ("PASS" if ok else f"FAIL witness (i,j,k,l)={witness}")]
    _emit(args, doc, lines)
    return 0 if ok else 1


def _cmd_cocycles(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    law = _law_of(bundle, args)
    cs = cocycle_space(bundle.algebra, axes, law)
    doc = {"command": "cocycles", "input": desc, "axes": args.axes,
           "law": args.law, "space_dim": cs.space.dim,
           "coboundary_dim": cs.coboundaries.dim,
           "intersection_dim": cs.intersection.dim,
           "quotient_dim": cs.quotient_dim,
           "class_reps": [_rvec(v) for v in cs.class_reps]}
    lines = [f"cocycles {desc} axes={args.axes} law={args.law}",
             f"  Z dim: {cs.space.dim}; B dim: {cs.coboundaries.dim}; "
             f"Z∩B dim: {cs.intersection.dim}; quotient dim: {cs.quotient_dim}"]
    for v in cs.class_reps:
        lines.append("  class rep: " + " ".join(_rvec(v)))
    _emit(args, doc, lines)
    return 0


def _cmd_extend(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    law = _law_of(bundle, args)
    theta = _cocycle_of(bundle, args)
    rep = extension_axiality(bundle.algebra, theta, axes, law)
    doc = {"command": "extend", "input": desc, "axes": args.axes,
           "law": args.law, "condition1_ok": rep.condition1,
           "axial": rep.axial,
           "induced_law": None if rep.induced_law is None else _rlaw(rep.induced_law),
           "split": rep.split_verdict, "theta_in_Z": rep.theta_in_z,
           "extension_dim": rep.extension.dim}
    lines = [f"extend {desc} axes={args.axes} law={args.law}",
             f"  condition (1) on every axis: {all(rep.condition1.values())}",
             f"  axial: {rep.axial}",
             f"  split: {rep.split_verdict}; theta in Z: {rep.theta_in_z}"]
    if rep.induced_law is not None:
        lines.append("  induced law:")
        lines += ["    " + x for x in _law_lines(rep.induced_law)]
    _emit(args, doc, lines)
    return 0 if rep.axial else 1


def _cmd_split(args):
    bundle, desc = _load(args)
    theta = _cocycle_of(bundle, args)
    verdict = is_split(bundle.algebra, theta)
    doc = {"command": "split", "input": desc, "verdict": verdict}
    _emit(args, doc, [f"split {desc}: {verdict}"])
    return 0


def _cmd_decompose(args):
    bundle, desc = _load(args)
    small, theta, projected = decompose_by_annihilator(bundle.algebra)
    doc = {"command": "decompose", "input": desc,
           "base_dim": small.dim, "adjoined_dim": bundle.algebra.dim - small.dim,
           "theta": [[_rvec(row) for row in m.rows] for m in theta.mats]}
    lines = [f"decompose {desc}: base dim {small.dim}, "
             f"adjoined dim {bundle.algebra.dim - small.dim}"]
    _emit(args, doc, lines)
    return 0


def _cmd_miyamoto(args):
    bundle, desc = _load(args)
    axes = _axes_of(bundle, args)
    law = _law_of(bundle, args)
    grading = _grading_of(bundle, args, law)
    # the maps of the given axes are built first, in list order
    ac = axis_closure(bundle.algebra, axes, law, grading, cap=args.cap)
    generators = [ac.taus[tuple(a)] for a in axes]
    gc = group_closure(generators, cap=args.cap)
    taus = [g.matrix for g in generators]
    ident = Matrix.identity(bundle.algebra.dim, bundle.algebra.tag)
    relations = [{"relation": f"tau{k+1}^2 = id", "holds": t * t == ident}
                 for k, t in enumerate(taus)]
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            prod = taus[i] * taus[j]
            power = prod
            order = None
            for k in range(1, min(args.cap, 24) + 1):
                if power == ident:
                    order = k
                    break
                power = power * prod
            relations.append({"relation": f"(tau{i+1} tau{j+1}) order",
                              "holds": order is not None, "order": order})
    doc = {"command": "miyamoto", "input": desc, "axes": args.axes,
           "law": args.law, "cap": args.cap,
           "group_order": gc.order, "group_completed": gc.completed,
           "axis_count": len(ac.axes), "axes_completed": ac.completed,
           "relations": relations}
    lines = [f"miyamoto {desc} axes={args.axes} law={args.law} cap={args.cap}",
             f"  group order: {gc.order}; completed: {gc.completed}",
             f"  axis closure: {len(ac.axes)} axes; completed: {ac.completed}"]
    for r in relations:
        lines.append(f"  {r['relation']}: {r.get('order', r['holds'])}")
    _emit(args, doc, lines)
    return 0


def _cmd_catalog(args):
    listing = _catalog.list_catalog()
    if getattr(args, "export", None):
        bundle = _entry_bundle(_catalog.build(args.export))
        named = {}
        for key, members in list(bundle.sets.items()):
            for t, m in enumerate(members):
                if _basis_label(bundle.algebra, m) is None:
                    named.setdefault(tuple(m), f"{key}_{t+1}")
        bundle.elements = {name: list(vec) for vec, name in named.items()}
        sys.stdout.write(render_algebra_file(bundle))
        return 0
    doc = {"command": "catalog", "entries": listing}
    lines = ["catalog:"]
    for item in listing:
        mark = " [stub: products not available]" if item["stub"] else ""
        params = ("(" + ", ".join(item["params"]) + ")") if item["params"] else ""
        lines.append(f"  {item['name']}{params}{mark}")
    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# reproduce bundles


def _two_dim_cases():
    """The nine families at their defaults, in catalog order, then six at
    other parameters."""
    return [(name, {}) for name in _catalog.TWO_DIM_FAMILIES] + [
        ("C", {"alpha": 4}), ("D", {"beta": 3}), ("E", {"alpha": 2, "beta": 3}),
        ("G", {"beta": 3}), ("H", {"gamma": 4}), ("I", {"alpha": 3, "beta": -1})]


def _desc(name, params):
    if not params:
        return name
    return name + "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"


def _bundle_table1():
    checks = []
    defaults = {}  # name -> its entry at the default parameters
    for name, params in _two_dim_cases():
        entry = _catalog.build(name, params)
        if not params:
            defaults[name] = entry
        for key, axes in entry.axis_sets.items():
            cert = check_axial_algebra(entry.algebra, axes, entry.law_for(key))
            checks.append((f"{_desc(name, params)} {key} axial", cert.certified))
            prim = all(r.primitive for r in cert.reports)
            expect_prim = entry.expected["primitive"][key]
            checks.append((f"{_desc(name, params)} {key} primitivity", prim == expect_prim))
    # radical facts
    d = defaults["D"]
    sub, _ = radical_axial(d.algebra, d.axis_sets["X16"])
    checks.append(("D(5) radical = <e2>",
                   sub.basis == ((ZERO, ONE),)))
    i_e = defaults["I"]
    sub2, _ = radical_axial(i_e.algebra, i_e.axis_sets["Xab"])
    checks.append(("I radical = <e1 - e2>", sub2.basis == ((ONE, -ONE),)))
    # Frobenius membership
    for name, entry in defaults.items():
        forms = entry.algebra.frobenius_space()
        vecs = [tuple(x for row in f.gram.rows for x in row) for f in forms]
        target = tuple(x for row in entry.frobenius.gram.rows for x in row)
        sp = Subspace(vecs, 4, entry.algebra.tag)
        checks.append((f"{name} Frobenius Gram in frobenius_space",
                       sp.contains_vector(target)))
    return checks


def _bundle_table2():
    checks = []
    for name, params in _two_dim_cases():
        entry = _catalog.build(name, params)
        for key, axes in entry.axis_sets.items():
            ml = minimal_law(entry.algebra, axes)
            checks.append((f"{_desc(name, params)} {key} minimal law",
                           ml == entry.law_for(key)))
    return checks


_TABLE3_CASES = (("B", "X12"), ("C", "X12"), ("D", "X16"), ("E", "X12"),
                 ("G", "X12"), ("H", "X12"), ("I", "Xab"))


def _bundle_table3():
    checks = []
    for name, key in _TABLE3_CASES:
        entry = _catalog.build(name)
        law = entry.law_for(key)
        rep = extension_axiality(entry.algebra, entry.cocycle,
                                 entry.axis_sets[key], law)
        ok = (rep.axial and rep.induced_law == entry.extension_laws[key]
              and rep.split_verdict == "non_split" and not rep.theta_in_z)
        checks.append((f"{name} {key} extension: axial, law match, non-split, "
                       "theta outside Z", ok))
    for name in ("A", "F"):
        entry = _catalog.build(name)
        theta = Cocycle.from_entries(2, {(0, 1): ONE}, FieldTag.QQ)
        rep = extension_axiality(entry.algebra, theta, entry.axis_sets["X12"],
                                 entry.law_for("X12"))
        checks.append((f"{name} admits no axial 1-dim extension", not rep.axial))
    return checks


def _bundle_monster():
    checks = []
    entry = _catalog.build("Monster4")
    alg, law = entry.algebra, entry.laws["M2half"]
    cs = cocycle_space(alg, entry.axis_sets["X01"], law)
    pattern_ok = True
    basis = [alg.basis_element(k) for k in range(4)]
    for v in cs.space.sparse_rows:
        th = Cocycle([v], alg.dim, alg.tag)
        nm = normalize_on_axes(alg, th, entry.axis_sets["all"])
        w = {(i, j): nm.evaluate(basis[i], basis[j])[0]
             for i in range(4) for j in range(i, 4)}
        diag0 = all(not w[(i, i)] for i in range(4))
        long0 = (not w[(0, 2)]) and (not w[(1, 3)])
        short = {w[(0, 1)], w[(0, 3)], w[(1, 2)], w[(2, 3)]}
        pattern_ok = pattern_ok and diag0 and long0 and len(short) == 1
    checks.append(("normalized solutions vanish on (a-1,a1),(a0,a2) with "
                   "four-way equality", pattern_ok))
    checks.append(("normalized generator class nonzero",
                   cs.contains(entry.cocycle) and not cs.class_is_zero(entry.cocycle)))
    ext, lifted = build_extension(alg, entry.cocycle, axes=entry.axis_sets["all"])
    cert = check_axial_algebra(ext, lifted, law)
    ml = minimal_law(ext, lifted)
    checks.append(("5-dim extension certified axial for the (2,1/2) law",
                   cert.certified and ext.dim == 5))
    checks.append(("extension fusion behavior stays inside the (2,1/2) law",
                   law_contains(ml, law)))
    return checks


def _bundle_jordan_simple(extended=False):
    checks = []
    plan = [("JordanA", 2), ("JordanA", 3), ("JordanB", 2), ("JordanB", 3),
            ("JordanC", 2), ("JordanD", 3), ("JordanD", 4)]
    if extended:
        plan.append(("Albert", None))
    for name, n in plan:
        entry = _catalog.build(name, {} if n is None else {"n": n})
        cs = cocycle_space(entry.algebra, entry.axis_sets["family"],
                           entry.laws["J12"])
        label = name if n is None else f"{name} n={n}"
        expected = entry.expected["quotient_dim"]
        checks.append((f"{label} quotient {expected}", cs.quotient_dim == expected))
    return checks


def _sum_axes(a, b):
    axes = [tuple(x) + tuple(b.algebra.zero()) for x in a.axis_sets["standard"]]
    axes += [tuple(a.algebra.zero()) + tuple(x) for x in b.axis_sets["standard"]]
    return tuple(axes)


def _all_basis_cocycles_jordan(cs):
    """Is A_theta Jordan for every theta in the cocycle space Z?  The central
    part of the Jordan identity is linear in theta and taken coordinatewise,
    so the one extension by a basis of Z (dim Z coordinates) decides it."""
    basis, alg = cs.space.sparse_rows, cs.algebra
    if not basis:
        return True
    ext, _ = build_extension(alg, Cocycle(basis, alg.dim, alg.tag))
    return ext.jordan_check() is None


def _bundle_jordan_small():
    checks = []
    for n in range(2, 6):
        entry = _catalog.build("S", {"n": n})
        cs = cocycle_space(entry.algebra, entry.axis_sets["standard"],
                           entry.laws["J12"])
        checks.append((f"S n={n} quotient 0", cs.quotient_dim == 0))
    law = jordan_half_law(FieldTag.QQ)
    for name in ("J", "T"):
        entries = {n: _catalog.build(name, {"n": n}) for n in range(2, 6)}
        for n, entry in entries.items():
            ok = _all_basis_cocycles_jordan(
                cocycle_space(entry.algebra, entry.axis_sets["standard"], law))
            checks.append((f"{name} n={n} basis cocycle extensions jordan", ok))
        for n in range(2, 4):
            for m in range(2, 4):
                a, b = entries[n], entries[m]
                alg = a.algebra.direct_sum(b.algebra)
                ok = _all_basis_cocycles_jordan(cocycle_space(alg, _sum_axes(a, b), law))
                checks.append((f"{name}{n} + {name}{m} basis cocycle "
                               "extensions jordan", ok))
    return checks


def _bundle_jordan_dim4():
    checks = []
    law = jordan_half_law(FieldTag.QQ)
    j25 = _catalog.build("J25")
    for key in ("with_unity", "no_unity"):
        ok = _all_basis_cocycles_jordan(cocycle_space(j25.algebra, j25.axis_sets[key], law))
        checks.append((f"J25 {key} cocycle extensions jordan", ok))
    j53 = _catalog.build("J53")
    cs = cocycle_space(j53.algebra, j53.axis_sets["standard"], law)
    checks.append(("J53 quotient 0", cs.quotient_dim == 0))
    checks.append(("J53 cocycle extensions jordan", _all_basis_cocycles_jordan(cs)))
    j59 = _catalog.build("J59")
    checks.append(("J59 cocycle extensions jordan",
                   _all_basis_cocycles_jordan(
                       cocycle_space(j59.algebra, j59.axis_sets["standard"], law))))
    return checks


REPRODUCE_BUNDLES = {
    "table1": _bundle_table1,
    "table2": _bundle_table2,
    "table3": _bundle_table3,
    "monster": _bundle_monster,
    "jordan-simple": _bundle_jordan_simple,
    "jordan-small": _bundle_jordan_small,
    "jordan-dim4": _bundle_jordan_dim4,
}


def _cmd_reproduce(args):
    if args.bundle not in REPRODUCE_BUNDLES:
        raise UsageError(f"unknown bundle {args.bundle!r}; "
                         f"available: {sorted(REPRODUCE_BUNDLES)}")
    if args.bundle == "jordan-simple":
        checks = _bundle_jordan_simple(extended=args.extended)
    else:
        checks = REPRODUCE_BUNDLES[args.bundle]()
    lines = []
    all_ok = True
    for name, ok in checks:
        lines.append(("PASS " if ok else "FAIL ") + name)
        all_ok = all_ok and ok
    lines.append(f"{args.bundle}: {'all checks passed' if all_ok else 'FAILURES'}")
    doc = {"command": "reproduce", "bundle": args.bundle,
           "checks": [{"name": n, "ok": ok} for n, ok in checks],
           "all_ok": all_ok}
    _emit(args, doc, lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_source(p):
    p.add_argument("--catalog", help="catalog entry name")
    p.add_argument("--param", action="append",
                   help="catalog parameter key=value (repeatable)")
    p.add_argument("--file", help="algebra file path")


def _cap(text):
    """--cap value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="axial",
        description="Exact verification of axial algebras, cocycle spaces, "
                    "central extensions, and Miyamoto groups.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, source=True, axes=False, law=False, cocycle=False,
            cap=False):
        p = sub.add_parser(name)
        if source:
            _add_source(p)
        if axes:
            p.add_argument("--axes", help="axis-set name")
        if law:
            p.add_argument("--law", help="fusion-law name")
        if cocycle:
            p.add_argument("--cocycle",
                           help="cocycle name (default: canonical)")
        if cap:
            p.add_argument("--cap", type=_cap, default=200)
        p.add_argument("--json", action="store_true",
                       help="emit stable-key JSON")
        p.set_defaults(fn=fn)
        return p

    add("check-axial", _cmd_check_axial, axes=True, law=True)
    add("spectrum", _cmd_spectrum, axes=True, law=True)
    add("fusion-min", _cmd_fusion_min, axes=True)
    add("frobenius", _cmd_frobenius)
    add("radical", _cmd_radical, axes=True)
    add("jordan", _cmd_jordan)
    add("cocycles", _cmd_cocycles, axes=True, law=True)
    add("extend", _cmd_extend, axes=True, law=True, cocycle=True)
    add("split", _cmd_split, cocycle=True)
    add("decompose", _cmd_decompose)
    add("miyamoto", _cmd_miyamoto, axes=True, law=True, cap=True)
    pc = add("catalog", _cmd_catalog, source=False)
    pc.add_argument("--export", help="print an entry in the algebra file format")
    pr = add("reproduce", _cmd_reproduce, source=False)
    pr.add_argument("bundle")
    pr.add_argument("--extended", action="store_true",
                    help="include the 27-dimensional extended run")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except AxialError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2
    except OSError as ex:
        sys.stderr.write(f"i/o error: {ex}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
