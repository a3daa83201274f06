"""Exact linear algebra: dense matrices, canonical subspaces, and an
incremental sparse row reducer for large constraint systems.

Conventions fixed for reproducibility:
  * reduced row echelon form picks, for each column left to right, the first
    row with a nonzero entry in that column;
  * kernel bases enumerate free columns in increasing order;
  * a Subspace is stored as the RREF basis of its span, so equal subspaces
    compare equal componentwise.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, FieldMismatchError
from .scalars import Scalar


# ---------------------------------------------------------------------------
# vector helpers (vectors are tuples of Scalar)

def vec_zero(n, tag):
    z = Scalar.zero(tag)
    return (z,) * n


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vec_neg(x):
    return tuple(-a for a in x)


def vec_scale(c, x):
    return tuple(c * a for a in x)


def vec_is_zero(x):
    return all(a.is_zero() for a in x)


def sparse_add(acc, k, c):
    """acc[k] += c on a sparse vector {index: Scalar}; an entry that cancels
    is dropped."""
    v = acc.get(k)
    v = v + c if v is not None else c
    if v:
        acc[k] = v
    elif k in acc:
        del acc[k]


def unit_vector(n, j, tag):
    z, o = Scalar.zero(tag), Scalar.one(tag)
    return tuple(o if k == j else z for k in range(n))


# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix of Scalars over a single field."""

    __slots__ = ("nrows", "ncols", "rows", "tag")

    def __init__(self, rows, tag, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            raise DimensionMismatchError("empty matrix needs explicit ncols")
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
            for a in r:
                if a.tag is not tag:
                    raise FieldMismatchError("matrix entry from a different field")
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n, tag):
        return cls(tuple(unit_vector(n, j, tag) for j in range(n)), tag)

    @classmethod
    def zero(cls, nrows, ncols, tag):
        return cls((vec_zero(ncols, tag),) * nrows, tag, ncols=ncols)

    @classmethod
    def from_columns(cls, cols, tag, nrows=None):
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise DimensionMismatchError("empty matrix needs explicit nrows")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)),
                   tag, ncols=len(cols))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.columns(), self.tag, ncols=self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.tag is other.tag and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols, self.tag))

    def __add__(self, other):
        self._shape_check(other, same=True)
        return Matrix(tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)),
                      self.tag, ncols=self.ncols)

    def __sub__(self, other):
        self._shape_check(other, same=True)
        return Matrix(tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)),
                      self.tag, ncols=self.ncols)

    def scale(self, c):
        return Matrix(tuple(vec_scale(c, r) for r in self.rows), self.tag, ncols=self.ncols)

    def _shape_check(self, other, same=False):
        if self.tag is not other.tag:
            raise FieldMismatchError("matrices over different fields")
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch")

    def __mul__(self, other):
        self._shape_check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatchError("inner dimensions differ")
        zero = Scalar.zero(self.tag)
        ocols = other.columns()
        out = []
        for r in self.rows:
            row = []
            for c in ocols:
                s = zero
                for a, b in zip(r, c):
                    if a and b:
                        s = s + a * b
                row.append(s)
            out.append(tuple(row))
        return Matrix(tuple(out), self.tag, ncols=other.ncols)

    def apply(self, x):
        """Matrix-vector product (x a length-ncols tuple)."""
        if len(x) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        zero = Scalar.zero(self.tag)
        out = []
        for r in self.rows:
            s = zero
            for a, b in zip(r, x):
                if a and b:
                    s = s + a * b
            out.append(s)
        return tuple(out)

    def augment(self, other):
        self._shape_check(other)
        if self.nrows != other.nrows:
            raise DimensionMismatchError("row counts differ")
        return Matrix(tuple(a + b for a, b in zip(self.rows, other.rows)),
                      self.tag, ncols=self.ncols + other.ncols)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatchError("trace of a non-square matrix")
        s = Scalar.zero(self.tag)
        for k in range(self.nrows):
            s = s + self.rows[k][k]
        return s

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
        red = RowReducer(self.ncols, self.tag)
        for r in self.rows:
            red.add_row({j: a for j, a in enumerate(r) if a})
        pivots = red.pivot_columns()
        rows = [red.dense_row(p) for p in pivots]
        while len(rows) < self.nrows:
            rows.append(vec_zero(self.ncols, self.tag))
        return Matrix(tuple(rows), self.tag, ncols=self.ncols), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Null space {x : Mx = 0} as a canonical Subspace."""
        red = RowReducer(self.ncols, self.tag)
        for r in self.rows:
            red.add_row({j: a for j, a in enumerate(r) if a})
        return Subspace(red.kernel_basis(), self.ncols, self.tag)

    def solve(self, rhs):
        """Solve M x = rhs for a single right-hand-side vector.

        Returns (particular, kernel) or (None, witness_row) when inconsistent;
        the witness is the reduced augmented row asserting 0 = nonzero.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatchError("rhs length mismatch")
        n = self.ncols
        red = RowReducer(n + 1, self.tag)
        for r, b in zip(self.rows, rhs):
            row = {j: a for j, a in enumerate(r) if a}
            if b:
                row[n] = b
            red.add_row(row)
        if n in red.pivot_columns():
            return None, red.dense_row(n)
        zero = Scalar.zero(self.tag)
        x = [zero] * n
        for p in red.pivot_columns():
            x[p] = red.rows[p].get(n, zero)
        return tuple(x), self.kernel()

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.nrows
        aug = self.augment(Matrix.identity(n, self.tag))
        r, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise DimensionMismatchError("matrix is singular")
        return Matrix(tuple(row[n:] for row in r.rows), self.tag, ncols=n)

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


class RowReducer:
    """Incrementally maintained RREF over sparse rows (dicts column -> Scalar).

    Rows handed to add_row are consumed/copied; the reducer keeps one fully
    reduced unit-pivot row per pivot column.
    """

    def __init__(self, ncols, tag):
        self.ncols = ncols
        self.tag = tag
        self.rows = {}  # pivot column -> sparse row, row[pivot] == 1

    def reduce_row(self, row):
        """Return the residue of row after elimination by the current pivots.

        Every pivot column occurring in the row is eliminated, not just the
        leading one; pivot rows contain no pivot columns other than their own,
        so elimination only ever introduces free-column entries and one pass
        suffices.
        """
        row = {j: a for j, a in row.items() if a}
        for lead in [j for j in sorted(row) if j in self.rows]:
            c = row.pop(lead, None)
            if not c:
                continue
            piv = self.rows[lead]
            for j, a in piv.items():
                if j == lead:
                    continue
                v = row.get(j)
                v = (v - c * a) if v is not None else -(c * a)
                if v:
                    row[j] = v
                elif j in row:
                    del row[j]
        return row

    def add_row(self, row):
        """Reduce and insert; returns True when the rank increased."""
        row = self.reduce_row(row)
        if not row:
            return False
        lead = min(row)
        inv = row[lead].inverse()
        row = {j: inv * a for j, a in row.items()}
        row[lead] = Scalar.one(self.tag)
        # back-substitute into existing pivot rows
        for p, prow in self.rows.items():
            c = prow.get(lead)
            if c is None:
                continue
            for j, a in row.items():
                v = prow.get(j)
                v = (v - c * a) if v is not None else -(c * a)
                if v:
                    prow[j] = v
                elif j in prow:
                    del prow[j]
        self.rows[lead] = row
        return True

    def rank(self):
        return len(self.rows)

    def pivot_columns(self):
        return sorted(self.rows)

    def free_columns(self):
        return [j for j in range(self.ncols) if j not in self.rows]

    def dense_row(self, pivot):
        row = self.rows[pivot]
        zero = Scalar.zero(self.tag)
        return tuple(row.get(j, zero) for j in range(self.ncols))

    def dense_rows(self):
        return [self.dense_row(p) for p in self.pivot_columns()]

    def kernel_basis(self):
        """RREF-ordered basis of the solution space of (rows)x = 0."""
        zero = Scalar.zero(self.tag)
        one = Scalar.one(self.tag)
        basis = []
        for f in self.free_columns():
            v = [zero] * self.ncols
            v[f] = one
            for p, row in self.rows.items():
                c = row.get(f)
                if c is not None:
                    v[p] = -c
            basis.append(tuple(v))
        return basis


class Subspace:
    """A subspace of tag^ambient stored via the canonical RREF basis."""

    __slots__ = ("ambient", "tag", "basis", "pivots")

    def __init__(self, vectors, ambient, tag):
        red = RowReducer(ambient, tag)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatchError("vector length differs from ambient dimension")
            red.add_row({j: a for j, a in enumerate(v) if a})
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "basis", tuple(red.dense_rows()))
        object.__setattr__(self, "pivots", tuple(red.pivot_columns()))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero_space(cls, ambient, tag):
        return cls((), ambient, tag)

    @classmethod
    def full_space(cls, ambient, tag):
        return cls(tuple(unit_vector(ambient, j, tag) for j in range(ambient)), ambient, tag)

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return len(self.basis) == self.ambient

    def contains_vector(self, v):
        red = RowReducer(self.ambient, self.tag)
        for b in self.basis:
            red.add_row({j: a for j, a in enumerate(b) if a})
        return not red.reduce_row({j: a for j, a in enumerate(v) if a})

    def contains(self, other):
        return all(self.contains_vector(b) for b in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.tag is other.tag and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.basis, self.ambient, self.tag))

    def add(self, other):
        self._compat(other)
        return Subspace(self.basis + other.basis, self.ambient, self.tag)

    def intersect(self, other):
        """U cap W via the kernel of [U^T | -W^T]."""
        self._compat(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(self.ambient, self.tag)
        cols = [list(b) for b in self.basis] + [list(vec_neg(b)) for b in other.basis]
        m = Matrix.from_columns(cols, self.tag, nrows=self.ambient)
        combos = m.kernel()
        r = len(self.basis)
        vecs = []
        for c in combos.basis:
            v = vec_zero(self.ambient, self.tag)
            for coef, b in zip(c[:r], self.basis):
                if coef:
                    v = vec_add(v, vec_scale(coef, b))
            vecs.append(v)
        return Subspace(vecs, self.ambient, self.tag)

    def _compat(self, other):
        if self.tag is not other.tag:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")

    def __repr__(self):
        rows = "; ".join(" ".join(str(a) for a in b) for b in self.basis)
        return f"Subspace[dim {self.dim} of {self.ambient}]({rows})"
