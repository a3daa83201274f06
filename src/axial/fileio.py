"""Line-oriented text format for algebras given by structure constants.

A file is a sequence of directives; blank lines and `#` comments are skipped.

    field QQ                     rational (default) or QI for Gaussian rationals
    dim 2                        at most MAX_DIM (1024)
    basis e1 e2
    product 1 2: -1 e1, -1 e2   sparse products, 1-based indices i <= j;
                                 omitted products are zero
    element a4: -1 e1, -1 e2    named element as a combination of basis names
    set X12: e1 e2              named element set; entries are basis or
                                 element names
    law FB: 1 -1                fusion-law values; when 1 is a value the unit
                                 row of fusion.unit_row is filled in (1*1={1},
                                 1*v={v} for v not in {0,1}, 1*0 empty)
    cell FB -1 -1: 1            law cell contents (may be empty); a cell line
                                 overrides the filled-in unit row
    cocycle th 1 2: 1           symmetric cocycle entries, 1-based, i <= j

A product pair, a cocycle entry, an element, set or law name, and a cell of
a law (an unordered pair of values) may each appear once.

Scalars use the grammar of render_scalar / parse_scalar ('3', '-1/2', '1+2i').
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import MAX_DIM, Algebra, Cocycle, _sym_pairs
from .errors import AxialError
from .fusion import FusionLaw, _cell_key, unit_row
from .linalg import sparse_vector
from .scalars import (ONE, ZERO, FieldTag, ScalarParseError, parse_scalar, render_scalar,
                      sort_key)


class AlgebraFileError(AxialError):
    pass


@dataclass
class AlgebraFile:
    algebra: Algebra
    elements: dict = field(default_factory=dict)   # name -> coefficient tuple
    sets: dict = field(default_factory=dict)       # name -> tuple of elements
    laws: dict = field(default_factory=dict)       # name -> FusionLaw
    cocycles: dict = field(default_factory=dict)   # name -> Cocycle

    def resolve(self, name):
        """Element by basis label or defined element name."""
        if name in self.elements:
            return self.elements[name]
        labels = self.algebra.labels
        if labels and name in labels:
            return self.algebra.basis_element(labels.index(name))
        raise AlgebraFileError(f"unknown element name {name!r}")


def _int(text, where):
    try:
        return int(text)
    except ValueError:
        raise AlgebraFileError(f"{where}: expected an integer, got {text!r}") from None


def _scalar(text, tag, where):
    try:
        return parse_scalar(text, tag)
    except ScalarParseError as ex:
        raise AlgebraFileError(f"{where}: {ex}") from None


def _split_combo(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_combo(text, labels, tag, where):
    """'c name, c name, ...' -> dict basis-index -> field element."""
    out = {}
    for part in _split_combo(text):
        bits = part.split()
        if len(bits) != 2:
            raise AlgebraFileError(f"{where}: expected 'coeff name', got {part!r}")
        coeff = _scalar(bits[0], tag, where)
        if bits[1] not in labels:
            raise AlgebraFileError(f"{where}: unknown basis name {bits[1]!r}")
        j = labels.index(bits[1])
        out[j] = out.get(j, ZERO) + coeff
    return {j: c for j, c in out.items() if c}


def parse_algebra_file(text):
    tag = FieldTag.QQ
    dim = None
    labels = None
    products = {}
    # element, set and law: {name: (text after the colon, line)}
    raw_named = {"element": {}, "set": {}, "law": {}}
    raw_cells = []      # (law, a, b, contents)
    raw_cocycles = {}   # name -> {(i, j): field element}
    declared = {}       # field, dim and basis may each appear once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("field", "dim", "basis"):
            _put(declared, head, rest, where, f"{head!r} directive")
        if head == "field":
            if rest == "QQ":
                tag = FieldTag.QQ
            elif rest == "QI":
                tag = FieldTag.QI
            else:
                raise AlgebraFileError(f"{where}: unknown field tag {rest!r}")
        elif head == "dim":
            dim = _int(rest, where)
            if dim < 0:
                raise AlgebraFileError(f"{where}: dim must be nonnegative, got {dim}")
            if dim > MAX_DIM:
                raise AlgebraFileError(f"{where}: dim {dim} exceeds the limit {MAX_DIM}")
        elif head == "basis":
            labels = tuple(rest.split())
            if len(set(labels)) != len(labels):
                raise AlgebraFileError(f"{where}: repeated basis name")
        elif head == "product":
            if dim is None or labels is None:
                raise AlgebraFileError(f"{where}: product before dim/basis")
            spec, _, combo = rest.partition(":")
            try:
                i, j = (int(t) for t in spec.split())
            except ValueError:
                raise AlgebraFileError(f"{where}: product wants two indices")
            if not (1 <= i <= j <= dim):
                raise AlgebraFileError(f"{where}: product indices out of range")
            _put(products, (i - 1, j - 1), _parse_combo(combo, labels, tag, where), where,
                 f"product {i} {j}")
        elif head in raw_named:
            name, _, body = rest.partition(":")
            _put(raw_named[head], name.strip(), (body, where), where, f"{head} {name.strip()!r}")
        elif head == "cell":
            spec, _, contents = rest.partition(":")
            bits = spec.split()
            if len(bits) != 3:
                raise AlgebraFileError(f"{where}: cell wants law name and two values")
            raw_cells.append((bits[0], bits[1], bits[2], contents.split(), where))
        elif head == "cocycle":
            spec, _, value = rest.partition(":")
            bits = spec.split()
            if len(bits) != 3:
                raise AlgebraFileError(f"{where}: cocycle wants name and two indices")
            name, i, j = bits[0], _int(bits[1], where), _int(bits[2], where)
            if dim is None or not (1 <= i <= j <= dim):
                raise AlgebraFileError(f"{where}: cocycle indices out of range")
            _put(raw_cocycles.setdefault(name, {}), (i - 1, j - 1),
                 _scalar(value.strip(), tag, where), where, f"cocycle {name} {i} {j}")
        else:
            raise AlgebraFileError(f"{where}: unknown directive {head!r}")

    if dim is None:
        raise AlgebraFileError("missing 'dim' directive")
    if labels is None:
        labels = tuple(f"b{k+1}" for k in range(dim))
    if len(labels) != dim:
        raise AlgebraFileError("basis name count does not match dim")
    algebra = Algebra(dim, products, tag, labels)

    out = AlgebraFile(algebra)
    for name, (combo, where) in raw_named["element"].items():
        out.elements[name] = algebra.element(_parse_combo(combo, labels, tag, where))
    for name, (members, where) in raw_named["set"].items():
        out.sets[name] = tuple(out.resolve(m) for m in members.split())
    for name, (values, where) in raw_named["law"].items():
        vals = [_scalar(v, tag, where) for v in values.split()]
        out.laws[name] = _law(vals, unit_row(vals), tag, where)
    cells = {}
    for law_name, a, b, contents, where in raw_cells:
        if law_name not in out.laws:
            raise AlgebraFileError(f"{where}: unknown law {law_name!r}")
        law = out.laws[law_name]
        va, vb = _scalar(a, tag, where), _scalar(b, tag, where)
        _put(cells, (law_name, frozenset((va, vb))), None, where, f"cell {law_name} {a} {b}")
        cell = {_scalar(c, tag, where) for c in contents}
        table = {k: set(v) for k, v in law.table.items()}
        table[_cell_key(va, vb)] = cell
        out.laws[law_name] = _law(law.values, table, tag, where)
    for name, entries in raw_cocycles.items():
        out.cocycles[name] = Cocycle.from_entries(dim, entries, tag)
    return out


def _put(table, key, value, where, what):
    """table[key] = value, refusing a key that an earlier line gave."""
    if key in table:
        raise AlgebraFileError(f"{where}: repeated {what}")
    table[key] = value


def _law(values, table, tag, where):
    try:
        return FusionLaw(values, table, tag)
    except AxialError as ex:  # no values, or a cell outside the values
        raise AlgebraFileError(f"{where}: {ex}") from None


def _check_names(kind, names):
    """Refuse names that would not parse back as written: empty, repeated,
    or holding whitespace, ',', ':' or '#'."""
    seen = set()
    for name in names:
        if not name or name in seen or any(c.isspace() or c in ",:#" for c in name):
            raise AlgebraFileError(
                f"{kind} name {name!r} cannot be written: names must be distinct, "
                f"nonempty and free of whitespace, ',', ':' and '#'")
        seen.add(name)


def _basis_label(algebra, vector):
    """The label of b_k when vector is the basis element b_k, else None: a
    set member is written by a basis label exactly then."""
    nz = [j for j, c in enumerate(vector) if c]
    return algebra.labels[nz[0]] if len(nz) == 1 and vector[nz[0]] == ONE else None


def render_algebra_file(bundle):
    """Canonical text form of an AlgebraFile bundle; parse-render round-trips."""
    alg = bundle.algebra
    if alg.dim > MAX_DIM:
        raise AlgebraFileError(f"dim {alg.dim} exceeds the file format's limit {MAX_DIM}")
    # a set member resolves an element name before a basis name, so the two
    # share one namespace
    _check_names("basis or element", alg.labels + tuple(bundle.elements))
    _check_names("set", bundle.sets)
    _check_names("law", bundle.laws)
    _check_names("cocycle", bundle.cocycles)
    for name, th in bundle.cocycles.items():
        if th.s != 1:
            raise AlgebraFileError(
                f"cocycle {name!r} has {th.s} coordinates; the file format holds one")
    lines = [f"field {alg.tag.name}", f"dim {alg.dim}",
             "basis " + " ".join(alg.labels)]

    def combo(entry):
        return ", ".join(f"{render_scalar(c)} {alg.labels[j]}"
                         for j, c in sorted(entry.items()))

    for i in range(alg.dim):
        for j in range(i, alg.dim):
            entry = alg.basis_product(i, j)
            if entry:
                lines.append(f"product {i+1} {j+1}: {combo(entry)}")
    for name, el in bundle.elements.items():
        entry = sparse_vector(el)
        lines.append(f"element {name}: {combo(entry)}")
    for name, members in bundle.sets.items():
        names = []
        for m in members:
            label = None
            for ename, el in bundle.elements.items():
                if tuple(el) == tuple(m):
                    label = ename
                    break
            if label is None:
                label = _basis_label(alg, m)
            if label is None:
                raise AlgebraFileError(
                    f"set {name!r} member has no name; add an 'element' entry")
            names.append(label)
        lines.append(f"set {name}: " + " ".join(names))
    for name, law in bundle.laws.items():
        vals = sorted(law.values, key=sort_key)
        lines.append(f"law {name}: " + " ".join(render_scalar(v) for v in vals))
        # the filled-in unit row, keyed like law.table
        implied = {_cell_key(a, b): cell for (a, b), cell in unit_row(law.values).items()}
        # an empty cell needs no line unless it overrides the unit row
        cells = {key: frozenset() for key in implied}
        cells.update(law.table)
        for (a, b), cell in sorted(cells.items(),
                                   key=lambda kv: (sort_key(kv[0][0]), sort_key(kv[0][1]))):
            if a == ONE and cell == implied.get((a, b)):
                continue  # implied by the law line
            body = " ".join(render_scalar(v) for v in sorted(cell, key=sort_key))
            lines.append(f"cell {name} {render_scalar(a)} {render_scalar(b)}: {body}")
    pairs = _sym_pairs(alg.dim)
    for name, th in bundle.cocycles.items():
        for t, v in sorted(th.vectors[0].items()):
            i, j = pairs[t]
            lines.append(f"cocycle {name} {i+1} {j+1}: {render_scalar(v)}")
    return "\n".join(lines) + "\n"
