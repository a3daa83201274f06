"""Exact linear algebra: sparse matrices, canonical subspaces, and an
incremental sparse row reducer for large constraint systems.

A Matrix stores, per row, the column-sorted nonzero (column, element) pairs;
its dense rows are derived on demand for rendering and entry lookups.  A
vector inside the package is sparse, {index: element} without zero entries.
Field elements are bare rationals or Gaussian pairs (see scalars).  Matrix,
RowReducer and Subspace hold their field tag; a Matrix built from dense rows
or columns and a Subspace built from dense vectors check their entries
against it once, when built.

The kernels take vectors of integers or Gaussian integers over one
denominator as readily as field elements: sparse_combine, the one sparse
linear combination of rows, uses only + and *, and RowReducer reduces
fraction-free, so add_int_row feeds it integer rows with nothing to clear.
The eigen-analysis (spectral) runs on such rows from L_x to the eigenspaces.

Conventions fixed for reproducibility:
  * reduced row echelon form picks, for each column left to right, the first
    row with a nonzero entry in that column;
  * kernel bases enumerate free columns in increasing order;
  * a Subspace is stored as the RREF Matrix of its span, so equal subspaces
    have equal matrices.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError
from .scalars import ONE, ZERO, Scalar, clear_denominators, common_denominator, over


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


def canonical_rows(rows, den):
    """The canonical form (rows, den) of the matrix rows / den, for sparse
    rows {column: entry} of integers or Gaussian integers and an integer
    den > 0: den and every entry are divided by the gcd of den and all
    integer parts, and each row becomes its column-sorted tuple of
    (column, entry) pairs.  A matrix has exactly one canonical form, so
    equal matrices have equal, hashable forms."""
    rows, den = _lowest_terms(rows, den)
    return tuple(tuple(sorted(r.items())) for r in rows), den


def canonical_product(x, y):
    """The canonical form of the product of the matrices whose canonical
    forms are x and y, row by row through sparse_combine."""
    (xrows, xden), (yrows, yden) = x, y
    yrows = [dict(r) for r in yrows]
    return canonical_rows([sparse_combine(yrows, dict(r)) for r in xrows], xden * yden)


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
    """Immutable matrix over a single field, stored sparsely.

    The stored form is ``sparse_rows``: for each row, the column-sorted tuple
    of its nonzero ``(column, element)`` pairs.  It is canonical, so equal
    matrices have equal sparse rows (equality and hashing use them), and
    products, applies, sums and row reduction walk only the nonzero entries.
    The dense ``rows`` (tuples of elements) are derived from it on first access
    and kept; a matrix constructed from dense rows keeps those instead.
    """

    __slots__ = ("nrows", "ncols", "sparse_rows", "tag", "_rows")

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
        sparse = tuple(tuple((j, a) for j, a in enumerate(r) if a) for r in rows)
        self._fill(sparse, ncols, tag, rows)

    def _fill(self, sparse_rows, ncols, tag, rows):
        object.__setattr__(self, "nrows", len(sparse_rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "sparse_rows", sparse_rows)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def from_sparse_rows(cls, sparse_rows, ncols, tag):
        """A matrix from canonical sparse rows (no zero entries, columns
        increasing), taken as given."""
        self = object.__new__(cls)
        self._fill(sparse_rows, ncols, tag, None)
        return self

    @classmethod
    def from_int_rows(cls, rows, den, ncols, tag):
        """The matrix rows / den, for sparse rows {column: entry} of integers
        or Gaussian integers and an integer den > 0 (see int_rows).  One
        element is built per distinct entry: the entries of integer matrices
        repeat."""
        elements = {}

        def element(a):
            e = elements.get(a)
            if e is None:
                e = elements[a] = over(a, den)
            return e
        return cls.from_sparse_rows(
            tuple(tuple(sorted((j, element(a)) for j, a in r.items())) for r in rows),
            ncols, tag)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self):
        """Dense rows, built from the sparse rows on first access."""
        rows = self._rows
        if rows is None:
            dense = []
            for r in self.sparse_rows:
                row = [ZERO] * self.ncols
                for j, a in r:
                    row[j] = a
                dense.append(tuple(row))
            rows = tuple(dense)
            object.__setattr__(self, "_rows", rows)
        return rows

    @classmethod
    def identity(cls, n, tag):
        return cls.from_sparse_rows(tuple(((j, ONE),) for j in range(n)), n, tag)

    @classmethod
    def zero(cls, nrows, ncols, tag):
        return cls.from_sparse_rows(((),) * nrows, ncols, tag)

    @classmethod
    def from_columns(cls, cols, tag, nrows=None):
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise DimensionMismatchError("empty matrix needs explicit nrows")
        check = tag.check
        sparse = [[] for _ in range(nrows)]
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise DimensionMismatchError("ragged columns")
            for i, a in enumerate(c):
                if check(a):
                    sparse[i].append((j, a))
        return cls.from_sparse_rows(tuple(map(tuple, sparse)), len(cols), tag)

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self.sparse_rows):
            for j, a in r:
                cols[j].append((i, a))
        return Matrix.from_sparse_rows(tuple(map(tuple, cols)), self.nrows, self.tag)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.tag is other.tag and self.ncols == other.ncols
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.sparse_rows, self.ncols, self.tag))

    def __add__(self, other):
        self._shape_check(other, same=True)
        out = []
        for r, s in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(r)
            for j, b in s:
                sparse_add(acc, j, b)
            out.append(tuple(sorted(acc.items())))
        return Matrix.from_sparse_rows(tuple(out), self.ncols, self.tag)

    def scale(self, c):
        if not self.tag.check(c):
            return Matrix.zero(self.nrows, self.ncols, self.tag)
        return Matrix.from_sparse_rows(
            tuple(tuple((j, c * a) for j, a in r) for r in self.sparse_rows),
            self.ncols, self.tag)

    def _shape_check(self, other, same=False):
        if self.tag is not other.tag:
            raise FieldMismatchError("matrices over different fields")
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch")

    def __mul__(self, other):
        self._shape_check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatchError("inner dimensions differ")
        orows = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            acc = {}
            for k, a in r:
                for j, b in orows[k]:
                    v = acc.get(j)
                    acc[j] = a * b if v is None else v + a * b
            out.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
        return Matrix.from_sparse_rows(tuple(out), other.ncols, self.tag)

    def apply(self, x):
        """Matrix-vector product (x a length-ncols tuple of field elements)."""
        if len(x) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        sx = _checked_sparse(x, self.tag)
        out = []
        for r in self.sparse_rows:
            s = None
            for j, a in r:
                b = sx.get(j)
                if b is not None:
                    s = a * b if s is None else s + a * b
            out.append(ZERO if s is None else s)
        return tuple(out)

    def _reducer(self):
        red = RowReducer(self.ncols, self.tag)
        for r in self.sparse_rows:
            red.add_row(dict(r))
        return red

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
        red = self._reducer()
        rows = red.sparse_rows() + ((),) * (self.nrows - red.rank())
        return (Matrix.from_sparse_rows(rows, self.ncols, self.tag),
                tuple(red.pivot_columns()))

    def rank(self):
        return self._reducer().rank()

    def kernel(self):
        """Null space {x : Mx = 0} as a canonical Subspace."""
        return Subspace.spanned(self._reducer().kernel_basis(), self.ncols, self.tag)

    def solve(self, rhs):
        """Solve M x = rhs for a single right-hand-side vector.

        Returns (particular, kernel) or (None, witness_row) when inconsistent;
        the witness is the reduced augmented row asserting 0 = nonzero.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatchError("rhs length mismatch")
        check = self.tag.check
        n = self.ncols
        red = RowReducer(n + 1, self.tag)
        for r, b in zip(self.sparse_rows, rhs):
            row = dict(r)
            if check(b):
                row[n] = b
            red.add_row(row)
        rows = red.unit_rows()
        if n in rows:
            return None, tuple(rows[n].get(j, ZERO) for j in range(n + 1))
        x = tuple(rows[j].get(n, ZERO) if j in rows else ZERO for j in range(n))
        # left of the rhs column the pivot rows are the RREF of M
        return x, Subspace.spanned(red.kernel_basis(n), n, self.tag)

    def int_rows(self):
        """(rows, den): the rows as sparse integer (Gaussian-integer) dicts
        over den, the lcm of the entry denominators, so rows / den is the
        matrix in lowest terms."""
        return common_denominator([dict(r) for r in self.sparse_rows])

    def inverse(self):
        """The inverse, from inverse_int on the integer rows."""
        if self.nrows != self.ncols:
            raise DimensionMismatchError("inverse of a non-square matrix")
        return Matrix.from_int_rows(*inverse_int(*self.int_rows(), self.tag), self.ncols,
                                    self.tag)

    def is_zero(self):
        return not any(self.sparse_rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


class RowReducer:
    """Incrementally maintained RREF over sparse rows (dicts column -> element).

    Rows handed to add_row are copied, never changed.  The reducer keeps one
    fully reduced row per pivot column in ``rows``: a primitive row of
    integers or Gaussian integers (content removed: the gcd of all their
    integer parts is 1) with a positive integer pivot entry, reduced
    fraction-free with gcd-scaled elimination and back-substitution.  The
    canonical unit-pivot rows are built by unit_rows(), sparse_rows() and
    kernel_basis().
    """

    def __init__(self, ncols, tag):
        self.ncols = ncols
        self.tag = tag
        self.rows = {}  # pivot column -> stored row, see the class docstring

    def _residue(self, row):
        """(residue, scale): row reduced by the current pivots, with zero
        entries dropped, is residue / scale.

        Every pivot column occurring in the row is eliminated, not just the
        leading one; pivot rows contain no pivot columns other than their own,
        so elimination only ever introduces free-column entries and one pass
        suffices.  The row is cleared of denominators first, and before c/p
        times a pivot row with pivot entry p is subtracted the row is scaled
        by p / g, g the gcd of p and the parts of c, so every step stays
        integral.
        """
        return self._eliminate(*clear_denominators(row))

    def _eliminate(self, row, scale):
        """_residue of row / scale, for row a sparse row of integers or
        Gaussian integers."""
        rows = self.rows
        row = {j: a for j, a in row.items() if a}
        for lead in [j for j in sorted(row) if j in rows]:
            scale *= _eliminate_step(row, lead, rows[lead])
        return row, scale

    def contains(self, row):
        """Is the sparse row in the span of the rows added so far?"""
        return not self._residue(row)[0]

    def add_row(self, row):
        """Reduce and insert; returns True when the rank increased."""
        return self._insert(self._residue(row)[0])

    def add_int_row(self, row):
        """add_row for a sparse row of integers or Gaussian integers, which
        needs no denominators cleared.  Any nonzero multiple of a row adds
        the same stored row, since what is stored is made primitive."""
        return self._insert(self._eliminate(row, 1)[0])

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

    def unit_rows(self):
        """The RREF as {pivot column: sparse row with entry 1 at the pivot},
        in the order the pivots were found."""
        return {p: {j: over(a, row[p]) for j, a in row.items()}
                for p, row in self.rows.items()}

    def sparse_rows(self):
        """The pivot rows in pivot order, as column-sorted (column, element)
        pairs: the canonical sparse rows of the RREF."""
        rows = self.unit_rows()
        return tuple(tuple(sorted(rows[p].items())) for p in self.pivot_columns())

    def kernel_basis(self, ncols=None):
        """Basis of the solution space of (rows)x = 0 as sparse vectors, one
        per free column in increasing order; with ncols, of the rows cut to
        their first ncols columns, which must hold every pivot."""
        ncols = self.ncols if ncols is None else ncols
        basis = {f: {f: ONE} for f in self.free_columns() if f < ncols}
        for p, row in self.rows.items():
            piv = row[p]
            for f, c in row.items():
                v = basis.get(f)
                if v is not None:
                    v[p] = over(-c, piv)
        return list(basis.values())


def inverse_int(rows, den, tag):
    """The inverse of the n x n matrix M = rows / den, for n sparse rows of
    integers or Gaussian integers over tag, as (rows, den) in lowest terms
    (the gcd of den and every integer part is 1); DimensionMismatchError
    when M is singular.

    [rows | I] is reduced with add_int_row.  The stored row of pivot i is
    p (e_i | row i of rows^-1), p its positive integer pivot entry, so
    M^-1 = den rows^-1 is read off the right halves over the lcm of the
    pivot entries."""
    n = len(rows)
    red = RowReducer(2 * n, tag)
    for i, r in enumerate(rows):
        row = dict(r)
        row[n + i] = 1
        red.add_int_row(row)
    if red.pivot_columns() != list(range(n)):
        raise DimensionMismatchError("matrix is singular")
    stored = [red.rows[i] for i in range(n)]
    common = lcm(*(r[i] for i, r in enumerate(stored)))
    inv = [{j - n: a * (den * common // r[i]) for j, a in r.items() if j >= n}
           for i, r in enumerate(stored)]
    return _lowest_terms(inv, common)


def _lowest_terms(rows, den):
    """rows / den with den and the entries divided by the gcd of den and
    every integer part of the entries."""
    g = _gcd(den, *(a for r in rows for a in r.values()))
    if g == 1:
        return rows, den
    return [{j: a // g for j, a in r.items()} for r in rows], den // g


def _eliminate_step(row, lead, piv):
    """Clear column lead of row, in place, with the pivot row piv: with
    p = piv[lead], c = row[lead] and g the gcd of p and the parts of c, scale
    row by p / g and subtract c / g times piv, dropping the entries that
    cancel.  Returns the scale p / g."""
    c = row[lead]
    p = piv[lead]
    s = 1
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
    return s


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


class Subspace:
    """A subspace of tag^ambient, stored as the canonical RREF of its span: a
    Matrix whose sparse rows are the unit-pivot rows in pivot order.  The
    RowReducer that built it is kept for membership tests."""

    __slots__ = ("matrix", "_reducer")

    def __init__(self, vectors, ambient, tag):
        """The span of dense vectors, checked against ambient and tag."""
        check = tag.check
        sparse = []
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatchError("vector length differs from ambient dimension")
            sparse.append({k: a for k, a in enumerate(v) if check(a)})
        self._span(sparse, ambient, tag)

    @classmethod
    def spanned(cls, vectors, ambient, tag):
        """The span of sparse vectors over tag, taken as given."""
        self = object.__new__(cls)
        self._span(vectors, ambient, tag)
        return self

    def _span(self, vectors, ambient, tag):
        red = RowReducer(ambient, tag)
        for v in vectors:
            red.add_row(v)
        object.__setattr__(self, "matrix",
                           Matrix.from_sparse_rows(red.sparse_rows(), ambient, tag))
        object.__setattr__(self, "_reducer", red)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero_space(cls, ambient, tag):
        return cls.spanned((), ambient, tag)

    @property
    def ambient(self):
        return self.matrix.ncols

    @property
    def tag(self):
        return self.matrix.tag

    @property
    def rows(self):
        """The RREF basis as column-sorted (column, element) pairs."""
        return self.matrix.sparse_rows

    @property
    def basis(self):
        """The RREF basis as dense tuples, built on first access."""
        return self.matrix.rows

    @property
    def pivots(self):
        return tuple(r[0][0] for r in self.rows)

    @property
    def dim(self):
        return self.matrix.nrows

    def is_zero(self):
        return not self.dim

    def is_full(self):
        return self.dim == self.ambient

    def contains_sparse(self, v):
        """Is the sparse vector {index: element} in the subspace?  It is
        reduced against the kept RowReducer, taken as given."""
        return self._reducer.contains(v)

    def contains_vector(self, v):
        """Is the dense vector v, of field elements, in the subspace?"""
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector length mismatch")
        return self.contains_sparse(_checked_sparse(v, self.tag))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def intersect(self, other):
        """U cap W via the kernel of [U^T | -W^T]."""
        self._compat(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(self.ambient, self.tag)
        cols = self.rows + tuple(tuple((k, -a) for k, a in r) for r in other.rows)
        combos = Matrix.from_sparse_rows(cols, self.ambient, self.tag).transpose().kernel()
        # the first dim U coordinates of a kernel vector combine the basis
        # of U into a vector of U cap W
        rows = [dict(r) for r in self.rows]
        vecs = [sparse_combine(rows, {t: coef for t, coef in c if t < self.dim})
                for c in combos.rows]
        return Subspace.spanned(vecs, self.ambient, self.tag)

    def _compat(self, other):
        if self.tag is not other.tag:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")

    def __repr__(self):
        rows = "; ".join(" ".join(str(a) for a in b) for b in self.basis)
        return f"Subspace[dim {self.dim} of {self.ambient}]({rows})"
