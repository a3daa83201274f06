"""Exact linear algebra: sparse matrices, canonical subspaces, and an
incremental sparse row reducer for large constraint systems.

A vector inside the package is sparse, {index: entry} without zero entries,
and so is every row of a Matrix: its canonical integer form holds, per row,
the column-sorted {column: numerator} dict, integers or Gaussian integers,
over one positive denominator, in lowest terms.  Its field-element rows,
sparse and dense, are views built on demand.  Rows are shared, never copied
and never mutated.  Field elements are bare rationals or Gaussian pairs (see
scalars).  Matrix and RowReducer hold their field tag; a Matrix built from
dense rows and a Subspace built from dense vectors check their entries
against it once, when built.

The kernels run on integer vectors: sparse_combine, the one sparse linear
combination of rows, uses only + and *, and RowReducer reduces fraction-free,
so add_int_row takes integer rows with nothing to clear.  Matrix products,
inverses and row reduction, the kernel bases and the eigen-analysis
(spectral) all run on such rows.  A kernel is read as RowReducer.kernel(),
the canonical Subspace of the reducer's kernel_basis().  A Subspace is the
Matrix of the RREF of its span, a subclass with no state of its own, and
reduces a vector against its rows to test membership.

Conventions fixed for reproducibility:
  * reduced row echelon form picks, for each column left to right, the first
    row with a nonzero entry in that column;
  * kernel bases enumerate free columns in increasing order;
  * a Subspace is the RREF Matrix of its span, so equal subspaces are equal
    matrices.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError
from .scalars import ZERO, Scalar, clear_denominators, common_denominator, over


# ---------------------------------------------------------------------------
# sparse vectors ({index: element}, no zero entries)

def sparse_add(acc, k, c):
    """acc[k] += c on a sparse vector {index: element}; an entry that cancels
    is dropped."""
    v = acc.get(k)
    v = v + c if v is not None else c
    if v:
        acc[k] = v
    elif k in acc:
        del acc[k]


def sparse_combine(rows, x):
    """The sum of x[k] * rows[k] over the sparse vector x, each rows[k] a
    sparse vector; sparse, without zero entries.  Only + and * touch the
    entries, so they may be field elements, integers or Gaussian integers."""
    acc = {}
    for k, c in x.items():
        for j, a in rows[k].items():
            v = acc.get(j)
            acc[j] = c * a if v is None else v + c * a
    return {j: v for j, v in acc.items() if v}


def sparse_vector(x):
    """The nonzero entries of a dense vector as {index: element}."""
    return {k: a for k, a in enumerate(x) if a}


def _checked_sparse(x, tag):
    """sparse_vector(x) for a vector from outside the package, after checking
    that its entries lie in the field tag (else FieldMismatchError)."""
    check = tag.check
    return {k: a for k, a in enumerate(x) if check(a)}


# ---------------------------------------------------------------------------

class Matrix:
    """Immutable matrix over a single field, stored as its canonical integer
    form: ``num``, per row the column-sorted dict {column: numerator} of its
    nonzero entries (integers or Gaussian integers), over one integer
    ``den`` > 0 that has gcd 1 with the integer parts of ``num``.  Equal
    matrices have equal forms; equality, hashing and the arithmetic use them.
    The field-element views ``sparse_rows`` (column-sorted dicts
    {column: element}) and dense ``rows``, and the hash, are built on first
    access.  The row dicts are shared and must never be mutated.
    """

    __slots__ = ("nrows", "ncols", "num", "den", "tag", "_sparse", "_rows", "_hash")

    def __init__(self, rows, tag, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            raise DimensionMismatchError("empty matrix needs explicit ncols")
        check = tag.check
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
            for a in r:
                check(a)
        sparse = tuple({j: a for j, a in enumerate(r) if a} for r in rows)
        self._fill(*common_denominator(sparse), ncols, tag, sparse, rows)

    def _fill(self, num, den, ncols, tag, sparse=None, rows=None):
        object.__setattr__(self, "nrows", len(num))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_sparse", sparse)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of_form(cls, num, den, ncols, tag):
        """The matrix whose canonical form is (num, den), taken as given."""
        self = object.__new__(cls)
        self._fill(num, den, ncols, tag)
        return self

    @classmethod
    def from_int_rows(cls, rows, den, ncols, tag):
        """The matrix rows / den, for sparse rows {column: entry} of integers
        or Gaussian integers without zero entries and an integer den > 0."""
        rows, den = _lowest_terms(rows, den)
        return cls._of_form(tuple({j: r[j] for j in sorted(r)} for r in rows), den, ncols, tag)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def sparse_rows(self):
        """Per row, the column-sorted dict {column: element}, built from the
        form on first access."""
        sparse = self._sparse
        if sparse is None:
            den = self.den
            sparse = tuple({j: over(a, den) for j, a in r.items()} for r in self.num)
            object.__setattr__(self, "_sparse", sparse)
        return sparse

    @property
    def rows(self):
        """Dense rows, built from the sparse rows on first access."""
        rows = self._rows
        if rows is None:
            dense = []
            for r in self.sparse_rows:
                row = [ZERO] * self.ncols
                for j, a in r.items():
                    row[j] = a
                dense.append(tuple(row))
            rows = tuple(dense)
            object.__setattr__(self, "_rows", rows)
        return rows

    @classmethod
    def identity(cls, n, tag):
        return cls._of_form(tuple({j: 1} for j in range(n)), 1, n, tag)

    def transpose(self):
        cols = tuple({} for _ in range(self.ncols))
        for i, r in enumerate(self.num):
            for j, a in r.items():
                cols[j][i] = a
        return Matrix._of_form(cols, self.den, self.nrows, self.tag)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.tag is other.tag and self.ncols == other.ncols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            items = tuple(tuple(r.items()) for r in self.num)
            object.__setattr__(self, "_hash", hash((items, self.den, self.ncols, self.tag)))
        return self._hash

    def _shape_check(self, other):
        if self.tag is not other.tag:
            raise FieldMismatchError("matrices over different fields")

    def __mul__(self, other):
        self._shape_check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatchError("inner dimensions differ")
        return Matrix.from_int_rows([sparse_combine(other.num, r) for r in self.num],
                                    self.den * other.den, other.ncols, self.tag)

    def apply(self, x):
        """Matrix-vector product (x a length-ncols tuple of field elements)."""
        if len(x) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        sx, dx = clear_denominators(_checked_sparse(x, self.tag))
        den = self.den * dx
        out = []
        for r in self.num:
            s = None
            for j, a in r.items():
                b = sx.get(j)
                if b is not None:
                    s = a * b if s is None else s + a * b
            out.append(over(s, den) if s else ZERO)
        return tuple(out)

    def _reducer(self):
        red = RowReducer(self.ncols, self.tag)
        for r in self.num:
            red.add_int_row(r)
        return red

    def kernel(self):
        """Null space {x : Mx = 0} as a canonical Subspace."""
        return self._reducer().kernel()

    def inverse(self):
        """The inverse; DimensionMismatchError when singular.  The stored row
        of pivot i of [num | I] is p (e_i | row i of num^-1), p > 0, so
        den num^-1 is read off the right halves over the lcm of the p."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatchError("inverse of a non-square matrix")
        red = RowReducer(2 * n, self.tag)
        for i, r in enumerate(self.num):
            red.add_int_row({**r, n + i: 1})
        if red.pivot_columns() != list(range(n)):
            raise DimensionMismatchError("matrix is singular")
        stored = [red.rows[i] for i in range(n)]
        common = lcm(1, *(r[i] for i, r in enumerate(stored)))
        return Matrix.from_int_rows(
            [{j - n: a * (self.den * common // r[i]) for j, a in r.items() if j >= n}
             for i, r in enumerate(stored)], common, n, self.tag)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


class RowReducer:
    """Incrementally maintained RREF over sparse rows (dicts column -> element).

    Rows handed to add_row are copied, never changed.  The reducer keeps one
    fully reduced row per pivot column in ``rows``: a primitive row of
    integers or Gaussian integers (content removed: the gcd of all their
    integer parts is 1) with a positive integer pivot entry, reduced
    fraction-free with gcd-scaled elimination and back-substitution.  These
    rows are a canonical form of the RREF: rref_form() divides each by its
    pivot entry, and kernel_basis() reads the integer kernel off them.
    """

    def __init__(self, ncols, tag):
        self.ncols = ncols
        self.tag = tag
        self.rows = {}  # pivot column -> stored row, see the class docstring

    def contains_int(self, row):
        """Is the sparse row of integers or Gaussian integers in the span of
        the rows added so far?"""
        return not _eliminate(row, self.rows)

    def add_row(self, row):
        """Reduce and insert a sparse row of field elements; returns True
        when the rank increased."""
        return self.add_int_row(clear_denominators(row)[0])

    def add_int_row(self, row):
        """add_row for a sparse row of integers or Gaussian integers.  Any
        nonzero multiple of a row adds the same stored row, since what is
        stored is made primitive."""
        return self._insert(_eliminate(row, self.rows))

    def _insert(self, row):
        """Insert the residue row, back-substituting into the pivot rows."""
        if not row:
            return False
        lead = min(row)
        if type(row[lead]) is Scalar:  # times the conjugate: the pivot is the norm
            conj = row[lead].conjugate()
            row = {j: conj * a for j, a in row.items()}
        row = _primitive(row, lead)
        # back-substitute into existing pivot rows
        for q, qrow in self.rows.items():
            if lead in qrow:
                _eliminate_step(qrow, lead, row)
                self.rows[q] = _primitive(qrow, q)
        self.rows[lead] = row
        return True

    def rank(self):
        return len(self.rows)

    def pivot_columns(self):
        return sorted(self.rows)

    def free_columns(self):
        return [j for j in range(self.ncols) if j not in self.rows]

    def rref_form(self):
        """The RREF as a Subspace: the unit-pivot rows in pivot order, the stored
        rows times L / p over L, p the pivot entry and L their lcm.  The rows
        are primitive, so the contents L / p have gcd 1: lowest terms."""
        rows = self.rows
        pivots = self.pivot_columns()
        den = lcm(1, *(rows[p][p] for p in pivots))
        num = []
        for p in pivots:
            row, s = rows[p], den // rows[p][p]
            num.append({j: s * row[j] for j in sorted(row)})
        return Subspace._of_form(tuple(num), den, self.ncols, self.tag)

    def kernel_basis(self):
        """Basis of the solution space of (rows)x = 0 as sparse integer vectors,
        one per free column f in increasing order: L at f and -c L / p at the
        pivot of each row with entry c at f and pivot entry p, L the lcm of
        those p."""
        holders = {f: {} for f in self.free_columns()}
        for p, row in self.rows.items():
            for f in row:
                if f in holders:
                    holders[f][p] = row
        basis = []
        for f, rows in holders.items():
            m = lcm(1, *(row[p] for p, row in rows.items()))
            basis.append({f: m} | {p: -row[f] * (m // row[p]) for p, row in rows.items()})
        return basis

    def kernel(self):
        """The solution space of (rows)x = 0 as a canonical Subspace."""
        return Subspace.spanned(self.kernel_basis(), self.ncols, self.tag)


def _lowest_terms(rows, den):
    """rows / den with den and the entries divided by the gcd of den and
    every integer part of the entries."""
    g = _gcd(den, *(a for r in rows for a in r.values()))
    if g == 1:
        return rows, den
    return [{j: a // g for j, a in r.items()} for r in rows], den // g


def _eliminate(row, pivots):
    """The sparse integer (Gaussian-integer) row reduced by the pivot rows
    {pivot column: row} to a multiple of its residue, with zero entries
    dropped; the row handed in is not changed.

    Every pivot column occurring in the row is eliminated, not just the
    leading one; a pivot row contains no pivot column other than its own,
    so elimination only ever introduces free-column entries and one pass
    suffices.  The stored rows of a RowReducer and the rows of an RREF
    Matrix keyed by their pivots are both such pivot rows."""
    row = {j: a for j, a in row.items() if a}
    for lead in [j for j in sorted(row) if j in pivots]:
        _eliminate_step(row, lead, pivots[lead])
    return row


def _eliminate_step(row, lead, piv):
    """Clear column lead of row, in place, with the pivot row piv: with
    p = piv[lead], c = row[lead] and g the gcd of p and the parts of c, scale
    row by p / g and subtract c / g times piv, dropping the entries that
    cancel, so every step stays integral."""
    c = row[lead]
    p = piv[lead]
    if p != 1:
        g = _gcd(p, c)
        s, c = p // g, c // g
        if s != 1:
            for j in row:
                row[j] *= s
    for j, a in piv.items():
        v = row.get(j)
        v = (v - c * a) if v is not None else -(c * a)
        if v:
            row[j] = v
        elif j in row:
            del row[j]


def _gcd(*nums):
    """The gcd of the integer parts of integers and Gaussian integers."""
    try:
        return gcd(*nums)
    except TypeError:  # a Gaussian integer among them
        return gcd(*(b for a in nums
                     for b in ((a.re, a.im) if type(a) is Scalar else (a,))))


def _primitive(row, lead):
    """The row divided by its content, signed so row[lead] > 0; a Gaussian
    row must have a positive integer lead already."""
    g = _gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {j: a // g for j, a in row.items()}


class Subspace(Matrix):
    """A subspace of tag^ambient: the Matrix of the canonical RREF of its
    span, the unit-pivot rows in pivot order (see RowReducer.rref_form), so
    it equals and hashes like any Matrix of that form.  The inherited
    from_int_rows and identity would build a Subspace never checked to be in
    RREF; no code calls them on Subspace."""

    __slots__ = ()

    def __init__(self, vectors, ambient, tag):
        """The span of dense vectors of field elements, checked against
        ambient and tag."""
        red = RowReducer(ambient, tag)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatchError("vector length differs from ambient dimension")
            red.add_row(_checked_sparse(v, tag))
        form = red.rref_form()
        self._fill(form.num, form.den, ambient, tag)

    @classmethod
    def spanned(cls, vectors, ambient, tag):
        """The span of sparse vectors of integers or Gaussian integers over
        tag, taken as given."""
        red = RowReducer(ambient, tag)
        for v in vectors:
            red.add_int_row(v)
        return red.rref_form()

    @classmethod
    def zero_space(cls, ambient, tag):
        return RowReducer(ambient, tag).rref_form()

    @property
    def ambient(self):
        return self.ncols

    @property
    def basis(self):
        """The RREF basis as dense tuples: the rows."""
        return self.rows

    @property
    def pivots(self):
        return tuple(next(iter(r)) for r in self.num)

    @property
    def dim(self):
        return self.nrows

    def is_zero(self):
        return not self.dim

    def is_full(self):
        return self.dim == self.ambient

    def contains_sparse(self, v):
        """Is the sparse vector {index: element} in the subspace?  It is
        cleared of denominators, taken as given, and reduced against the
        rows of the RREF keyed by their pivots."""
        pivots = dict(zip(self.pivots, self.num))
        return not _eliminate(clear_denominators(v)[0], pivots)

    def contains_vector(self, v):
        """Is the dense vector v, of field elements, in the subspace?"""
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector length mismatch")
        return self.contains_sparse(_checked_sparse(v, self.tag))

    def intersect(self, other):
        """U cap W via the kernel of [U^T | -W^T], on the integer forms: the
        first dim U coordinates of a kernel vector combine the rows of U's
        form into a multiple of a vector of U cap W."""
        if self.tag is not other.tag:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(self.ambient, self.tag)
        u = self.num
        cols = u + tuple({k: -a for k, a in r.items()} for r in other.num)
        combos = Matrix._of_form(cols, 1, self.ambient, self.tag).transpose()._reducer()
        vecs = [sparse_combine(u, {t: c for t, c in x.items() if t < self.dim})
                for x in combos.kernel_basis()]
        return Subspace.spanned(vecs, self.ambient, self.tag)

    def __repr__(self):
        rows = "; ".join(" ".join(str(a) for a in b) for b in self.basis)
        return f"Subspace[dim {self.dim} of {self.ambient}]({rows})"
