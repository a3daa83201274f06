"""Text format for algebras: parsing, rendering, round trips."""

import os
import subprocess
import sys

import pytest

import axial
from axial import catalog, fileio
from axial.extension import Cocycle
from axial.fileio import (AlgebraFile, AlgebraFileError, parse_algebra_file,
                          render_algebra_file)
from axial.scalars import ONE, ZERO, FieldTag, Rat


def q(n, d=1):
    return Rat(n, d)


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

    def test_repeated_basis_name(self):
        with pytest.raises(AlgebraFileError, match="line 2: repeated basis name"):
            parse_algebra_file("dim 2\nbasis e e\nproduct 2 2: 1 e\n")

    @pytest.mark.parametrize("labels", [("e", "e"), ("a b", "c"), ("x#", "y"), ("p,", "q"),
                                        ("r:", "s"), ("", "t")])
    def test_unwritable_basis_names(self, labels):
        # each would render text that parses back differently, or not at all
        alg = Algebra(2, {(1, 1): {1: Rat(1)}}, FieldTag.QQ, labels)
        with pytest.raises(AlgebraFileError, match="cannot be written"):
            render_algebra_file(AlgebraFile(alg))

    def test_unwritable_other_names(self):
        bundle = parse_algebra_file(SAMPLE)
        # an element named like a basis vector would capture it in a set
        bundle.elements["e1"] = bundle.elements.pop("a4")
        with pytest.raises(AlgebraFileError, match="'e1' cannot be written"):
            render_algebra_file(bundle)
        bundle = parse_algebra_file(SAMPLE)
        bundle.laws["F B"] = bundle.laws.pop("FB")
        with pytest.raises(AlgebraFileError, match="law name 'F B'"):
            render_algebra_file(bundle)
        bundle = parse_algebra_file(SAMPLE)
        bundle.cocycles["t:h"] = bundle.cocycles.pop("th")
        with pytest.raises(AlgebraFileError, match="cocycle name 't:h'"):
            render_algebra_file(bundle)
        bundle = parse_algebra_file(SAMPLE)
        bundle.sets["X#"] = bundle.sets.pop("X12")
        with pytest.raises(AlgebraFileError, match="set name 'X#'"):
            render_algebra_file(bundle)

    def test_dim_limit(self, monkeypatch):
        # parse and render refuse the same dims, so whatever renders parses
        monkeypatch.setattr(fileio, "MAX_DIM", 3)
        assert parse_algebra_file("dim 3\n").algebra.dim == 3
        with pytest.raises(AlgebraFileError, match="line 1: dim 4 exceeds the limit 3"):
            parse_algebra_file("dim 4\n")
        with pytest.raises(AlgebraFileError, match="limit 3"):
            render_algebra_file(AlgebraFile(catalog.build("Monster4").algebra))

    def test_negative_dim_is_refused_by_name(self):
        assert parse_algebra_file("dim 0\n").algebra.dim == 0
        with pytest.raises(AlgebraFileError) as ex:
            parse_algebra_file("field QQ\ndim -3\n")
        assert str(ex.value) == "line 2: dim must be nonnegative, got -3"

    @pytest.mark.parametrize("dim", ["1025", "3000", "1000000000"])
    def test_oversized_dim_exits_two(self, tmp_path, dim):
        # refused before the algebra's product table is allocated
        path = tmp_path / "big.alg"
        path.write_text(f"dim {dim}\n")
        src = os.path.dirname(os.path.dirname(axial.__file__))
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "jordan", "--file", str(path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"dim {dim} exceeds the limit 1024" in proc.stderr


class TestRoundTrip:
    def test_sample_round_trip(self):
        first = parse_algebra_file(SAMPLE)
        text = render_algebra_file(first)
        second = parse_algebra_file(text)
        assert render_algebra_file(second) == text
        assert second.laws["FB"] == first.laws["FB"]
        assert second.cocycles["th"] == first.cocycles["th"]
        # one coordinate per cocycle name: s = 2 cannot be written
        vec = first.cocycles["th"].vectors[0]
        first.cocycles["th2"] = Cocycle([vec, vec], 2, FieldTag.QQ)
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
                    if len(nz) == 1 and nz[0][1] == 1:
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


# ---------------------------------------------------------------------------
# properties: every text either parses or raises AlgebraFileError, and every
# renderable bundle renders back byte-identically after a parse

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from axial.algebra import Algebra  # noqa: E402
from axial.fusion import FusionLaw  # noqa: E402
from axial.scalars import Scalar, render_scalar  # noqa: E402

QI_SAMPLE = """field QI
dim 3
basis e1 e2 e3
product 1 1: 1 e1
product 1 3: 1/2+i e2
product 2 2: -i e3, 3 e1
element a: 1/2 e1, -1/3i e2
set X: e1 a
law L: 1 0 i 1/2-2i
cell L 0 i: 1/2-2i
cell L i i: 1 0
cocycle th 1 2: 2-i
"""

VALID_TEXTS = (SAMPLE, QI_SAMPLE)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])

# characters and tokens of the grammar, so mutations reach past the lexer
_GRAMMAR_PIECES = ["field", "QQ", "QI", "dim", "basis", "product", "element",
                   "set", "law", "cell", "cocycle", "e1", "e2", "a", "X", "L",
                   "FB", "th", "1", "2", "0", "-1", "1/2", "1/0", "i", "-i",
                   "2+i", ":", ",", " ", "\n", "#", "-", "/", "+", "x"]


def _parses_or_file_error(text):
    try:
        parse_algebra_file(text)
    except AlgebraFileError:
        pass


@PROPERTY_SETTINGS
@given(st.text(max_size=200))
def test_arbitrary_text_parses_or_file_error(text):
    _parses_or_file_error(text)


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=40))
def test_token_soup_parses_or_file_error(pieces):
    _parses_or_file_error("".join(pieces))


# texts whose directives contradict each other or a law's value set
REPEATED_TEXTS = (
    ("dim 1\nbasis e\nproduct 1 1: 1 e\nproduct 1 1: 2 e\n", "line 4: repeated product 1 1"),
    ("dim 1\nbasis e\nproduct 1 1:\nproduct 1 1: 1 e\n", "line 4: repeated product 1 1"),
    ("dim 2\nbasis a b\ncocycle th 1 2: 1\ncocycle th 1 2: 2\n",
     "line 4: repeated cocycle th 1 2"),
    ("dim 1\nbasis a\nelement x: 1 a\nelement x: 2 a\n", "line 4: repeated element 'x'"),
    ("dim 1\nbasis a\nset S: a\nset S: a\n", "line 4: repeated set 'S'"),
    ("dim 1\nbasis a\nlaw L: 1\n\nlaw L: 1 0\n", "line 5: repeated law 'L'"),
    # the last line used to leave an empty 0*0 cell
    ("dim 1\nbasis a\nlaw L: 1 0\ncell L 0 0: 0\ncell L 0 0:\n", "line 5: repeated cell L 0 0"),
    # one cell, however its values are written
    ("dim 1\nbasis a\nlaw L: 1 0 1/2\ncell L 0 1/2: 1/2\ncell L 2/4 0:\n",
     "line 5: repeated cell L 2/4 0"),
)


INCONSISTENT_TEXTS = (
    "dim 2\nbasis a b\ncocycle th 2 2: 1\ndim 1\nbasis a\n",
    "dim 2\nbasis a b\nproduct 2 2: 1 b\ndim 1\nbasis a\n",
    "field QI\ndim 1\nbasis a\nproduct 1 1: i a\nfield QQ\n",
    "dim 1\nbasis a\nlaw L:\n",
    "dim 1\nbasis a\nlaw L: 1\ncell L 2 2: 1\n",
    "dim 1\nbasis a\nlaw L: 1 2\ncell L 2 2: 3\n",
    # a directive that names a product pair, a cocycle entry, an element,
    # set or law, or a cell of a law a second time; the last line used to win
    *(text for text, _ in REPEATED_TEXTS),
)


@pytest.mark.parametrize("text", INCONSISTENT_TEXTS)
def test_inconsistent_directives_are_file_errors(text):
    with pytest.raises(AlgebraFileError, match="line "):
        parse_algebra_file(text)


@pytest.mark.parametrize("text, message", REPEATED_TEXTS)
def test_repeated_entries_are_refused(text, message):
    with pytest.raises(AlgebraFileError) as info:
        parse_algebra_file(text)
    assert str(info.value) == message


def test_cells_and_distinct_names_may_share_a_line_kind():
    # a cell line overrides the filled-in unit row, and one cocycle entry
    # per name and pair is no repeat
    bundle = parse_algebra_file(
        "dim 2\nbasis a b\nlaw L: 1 0\ncell L 1 0: 0\n"
        "cocycle s 1 2: 1\ncocycle t 1 2: 2\n")
    assert bundle.laws["L"].star(ONE, ZERO) == frozenset({ZERO})
    assert set(bundle.cocycles) == {"s", "t"}


@st.composite
def _mutated_texts(draw):
    text = draw(st.sampled_from(VALID_TEXTS))
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "insert", "replace", "line", "append"]))
        if op == "append":  # a line of grammar pieces
            line = " ".join(draw(st.lists(st.sampled_from(_GRAMMAR_PIECES[:25]),
                                          min_size=1, max_size=5)))
            lines.insert(draw(st.integers(0, len(lines))), line + "\n")
            text = "".join(lines)
        elif op == "line":  # drop, duplicate or move a whole line
            k = draw(st.integers(0, len(lines) - 1))
            line = lines.pop(k)
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), line)
                if draw(st.booleans()):
                    lines.insert(draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
        else:
            text = "".join(lines)
            start = draw(st.integers(0, len(text)))
            stop = start + (0 if op == "insert" else draw(st.integers(1, 4)))
            new = "" if op == "delete" else draw(st.sampled_from(_GRAMMAR_PIECES))
            text = text[:start] + new + text[stop:]
        lines = text.splitlines(keepends=True) or [""]
    return text


@PROPERTY_SETTINGS
@given(_mutated_texts())
@example(INCONSISTENT_TEXTS[0])
def test_mutated_files_parse_or_file_error(text):
    _parses_or_file_error(text)


_SMALL = st.integers(-3, 3)


@st.composite
def _elements(draw, tag):
    re = Rat(draw(_SMALL), draw(st.integers(1, 3)))
    im = Rat(draw(_SMALL), draw(st.integers(1, 3))) if tag is FieldTag.QI else 0
    return Scalar(re, im)


@st.composite
def _bundles(draw):
    tag = draw(st.sampled_from([FieldTag.QQ, FieldTag.QI]))
    dim = draw(st.integers(1, 4))
    # mostly well-formed labels; else short ones that may be empty, repeated,
    # hold a character of the grammar or clash with an element name
    if draw(st.integers(0, 3)):
        labels = tuple(f"e{k + 1}" for k in range(dim))
    else:
        labels = tuple(draw(st.lists(st.text("ex1 ,:#", max_size=2),
                                     min_size=dim, max_size=dim)))
    elements = _elements(tag)

    def sparse():
        entry = {}
        for k in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
            entry[k] = draw(elements)
        return {k: c for k, c in entry.items() if c}

    products = {}
    for i in range(dim):
        for j in range(i, dim):
            if draw(st.booleans()):
                products[(i, j)] = sparse()
    algebra = Algebra(dim, products, tag, labels)
    bundle = AlgebraFile(algebra)
    for t in range(draw(st.integers(0, 3))):
        bundle.elements[f"x{t + 1}"] = algebra.element(sparse())
    named = list(bundle.elements.values()) + [algebra.basis_element(k) for k in range(dim)]
    for t in range(draw(st.integers(0, 2))):
        bundle.sets[f"S{t + 1}"] = tuple(draw(st.lists(st.sampled_from(named), max_size=4)))
    for t in range(draw(st.integers(0, 2))):
        values = draw(st.lists(elements, min_size=1, max_size=4, unique=True))
        table = {}
        for a in values:
            for b in values:
                table[(a, b)] = set(draw(st.lists(st.sampled_from(values), max_size=2)))
        table = {key: cell for key, cell in table.items()}
        # a symmetric table: keep the cell of the first ordered pair seen
        sym = {}
        for (a, b), cell in table.items():
            if (b, a) not in sym:
                sym[(a, b)] = cell
        bundle.laws[f"L{t + 1}"] = FusionLaw(values, sym, tag)
    for t in range(draw(st.integers(0, 2))):
        entries = {}
        for i in range(dim):
            for j in range(i, dim):
                if draw(st.booleans()):
                    entries[(i, j)] = draw(elements)
        bundle.cocycles[f"th{t + 1}"] = Cocycle.from_entries(dim, entries, tag)
    return bundle


def _writable(bundle):
    """Are all names of the bundle ones the file format can write back?"""
    kinds = (bundle.algebra.labels + tuple(bundle.elements), bundle.sets,
             bundle.laws, bundle.cocycles)
    for names in kinds:
        names = list(names)
        if len(set(names)) != len(names):
            return False
        if any(not n or any(c in " \t\n,:#" for c in n) for n in names):
            return False
    return True


@PROPERTY_SETTINGS
@given(_bundles())
def test_render_parse_render_is_identical(bundle):
    # a bundle either round-trips or is refused by render, as its names say
    try:
        text = render_algebra_file(bundle)
    except AlgebraFileError:
        assert not _writable(bundle)
        return
    assert _writable(bundle)
    again = parse_algebra_file(text)
    assert render_algebra_file(again) == text
    alg = bundle.algebra
    assert again.algebra.tag is alg.tag
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            assert again.algebra.basis_product(i, j) == alg.basis_product(i, j)
    assert again.elements == bundle.elements
    assert again.sets == bundle.sets
    assert again.laws == bundle.laws
    for name, th in bundle.cocycles.items():
        if any(th.vectors):
            assert again.cocycles[name] == th
    # every element read back is canonical: a Rat, or a pair with im != 0
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            for c in again.algebra.basis_product(i, j).values():
                assert again.algebra.tag.check(c) is c
                assert render_scalar(c) in text
