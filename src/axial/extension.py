"""Central extensions of commutative algebras by symmetric bilinear maps:
coboundaries, the two cocycle conditions relative to an axis set, the
relative cocycle space, extension construction, split detection, the induced
fusion law of an extension, and the inverse decomposition of an algebra with
nonzero annihilator.

Symmetric forms on an n-dimensional algebra are vectorized by the n(n+1)/2
upper-triangle entries in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, _sym_index, _unflatten_sym
from .errors import (DimensionMismatchError, ExtensionError, FieldMismatchError,
                     NotSemisimpleError)
from .linalg import Matrix, RowReducer, Subspace, sparse_vector
from .scalars import ONE, ZERO
from .spectral import check_axis, eigen_decompose, minimal_law, render_violation


class Cocycle:
    """Symmetric bilinear map A x A -> F^s given by s symmetric matrices."""

    def __init__(self, mats, tag):
        if not mats:
            raise ExtensionError("a cocycle needs at least one coordinate")
        n = mats[0].nrows
        for m in mats:
            if m.tag is not tag:
                raise FieldMismatchError("cocycle coordinate matrix over a different field")
            if m.nrows != n or m.ncols != n:
                raise DimensionMismatchError("cocycle coordinate matrices must share size")
            if m != m.transpose():
                raise ExtensionError("cocycle coordinate matrix is not symmetric")
        self.mats = tuple(mats)
        self.dim = n
        self.s = len(mats)
        self.tag = tag

    @classmethod
    def from_entries(cls, n, entries, tag, s=1):
        """entries: {(i, j): element} or {(i, j): tuple of s elements}."""
        grids = [[[ZERO] * n for _ in range(n)] for _ in range(s)]
        for (i, j), val in entries.items():
            vals = tuple(val) if isinstance(val, (tuple, list)) else (val,)
            if len(vals) != s:
                raise DimensionMismatchError("entry arity differs from coordinate count")
            for g, v in zip(grids, vals):
                g[i][j] = v
                g[j][i] = v
        return cls([Matrix(tuple(tuple(r) for r in g), tag) for g in grids], tag)

    def evaluate(self, x, y):
        """theta(x, y) as a tuple of s elements."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("vector length mismatch")
        out = []
        for m in self.mats:
            acc = ZERO
            for a, row in zip(x, m.rows):
                if not a:
                    continue
                for b, g in zip(y, row):
                    if b and g:
                        acc = acc + a * b * g
            out.append(acc)
        return tuple(out)

    def vectorize(self):
        """Each coordinate as an upper-triangle row vector."""
        idx = _sym_index(self.dim)
        out = []
        for m in self.mats:
            v = [None] * len(idx)
            for (i, j), t in idx.items():
                v[t] = m.rows[i][j]
            out.append(tuple(v))
        return out

    @classmethod
    def from_vectors(cls, vectors, n, tag):
        """A cocycle from dense upper-triangle vectors, one per coordinate."""
        mats = []
        for v in vectors:
            if len(v) != n * (n + 1) // 2:
                raise DimensionMismatchError("vector length differs from n(n+1)/2")
            pairs = [(t, tag.check(a)) for t, a in enumerate(v) if a]
            mats.append(_unflatten_sym(pairs, n, tag))
        return cls(mats, tag)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self):
        return f"Cocycle(dim={self.dim}, s={self.s})"


def coboundary(algebra, f):
    """delta f for a linear map f: A -> F^s given as an n x s matrix
    (rows = values on basis elements): delta f(x, y) = f(xy)."""
    n = algebra.dim
    s = f.ncols
    grids = [[[ZERO] * n for _ in range(n)] for _ in range(s)]
    for i in range(n):
        for j in range(i, n):
            for k, c in algebra.basis_product(i, j).items():
                for g in range(s):
                    fv = f.rows[k][g]
                    if fv:
                        v = grids[g][i][j] + c * fv
                        grids[g][i][j] = v
                        if i != j:
                            grids[g][j][i] = v
    return Cocycle([Matrix(tuple(tuple(r) for r in g), algebra.tag) for g in grids],
                   algebra.tag)


def coboundary_space(algebra):
    """Span of all coboundaries, vectorized: spanned by the n(n+1)/2-vectors
    of delta(dual basis functionals)."""
    idx = _sym_index(algebra.dim)
    vecs = {}  # k -> the vector of delta(b_k^*): c[i][j][k] at (i, j)
    for (i, j), t in idx.items():
        for k, c in algebra.basis_product(i, j).items():
            vecs.setdefault(k, {})[t] = c
    return Subspace.spanned(vecs.values(), len(idx), algebra.tag)


def build_extension(algebra, theta, axes=()):
    """The extension A + F^s with product xy + theta(x,y); returns
    (extension, Y) where Y lifts the given axes to a + theta(a,a)."""
    if theta.dim != algebra.dim:
        raise DimensionMismatchError("cocycle size differs from algebra dimension")
    n, s = algebra.dim, theta.s
    products = {}
    for i in range(n):
        for j in range(i, n):
            entry = {k: c for k, c in algebra.basis_product(i, j).items()}
            for g in range(s):
                v = theta.mats[g].rows[i][j]
                if v:
                    entry[n + g] = v
            if entry:
                products[(i, j)] = entry
    labels = algebra.labels + tuple(f"v{g+1}" for g in range(s))
    ext = Algebra(n + s, products, algebra.tag, labels)
    lifted = []
    for a in axes:
        a = tuple(a)
        w = theta.evaluate(a, a)
        lifted.append(a + w)
    return ext, lifted


# ---------------------------------------------------------------------------
# constraint rows (one coordinate: unknowns are upper-triangle entries)

def _sym_columns(n):
    """cols[p][q]: the symmetric-form unknown of the pair (p, q), either order."""
    idx = _sym_index(n)
    return [[idx[(min(p, q), max(p, q))] for q in range(n)] for p in range(n)]


def _add_pair(acc, cols, x, y):
    """acc += the row of theta(x, y) for sparse x and y; entries that cancel
    are left in acc as zeros."""
    for p, a in x.items():
        colp = cols[p]
        for q, b in y.items():
            col = colp[q]
            v = acc.get(col)
            acc[col] = a * b if v is None else v + a * b


def condition1_rows(algebra, a, kernel):
    """Sparse rows enforcing theta(a, k) = 0 for the basis vectors k of
    kernel, which is ker L_a as a Subspace (for an axis, its 0-eigenspace)."""
    cols = _sym_columns(algebra.dim)
    sa = sparse_vector(a)
    rows = []
    for k in kernel.rows:
        acc = {}
        _add_pair(acc, cols, sa, dict(k))
        rows.append({col: c for col, c in acc.items() if c})
    return rows


def condition2_rows(algebra, a, law, products):
    """Sparse rows of the eigenspace compatibility condition for axis a.

    products is the decomposed eigenvector products of a, as returned by
    Eigenbasis.products().  For each eigenvalue pair (lam, mu) with 0 not in
    lam*mu, each (x, y, {nu: z_nu}) gives the row of
    theta(x, y) - theta(a, sum nu^-1 z_nu) = 0; a component outside the law
    cell lam*mu raises ExtensionError."""
    cols = _sym_columns(algebra.dim)
    sa = sparse_vector(a)
    rows = []
    for lam, mu, nus, items in products:
        cell = law.star(lam, mu)
        if ZERO in cell:
            continue
        if not nus <= cell:
            for _x, _y, comps in items:
                bad = [nu for nu in comps if nu not in cell]
                if bad:
                    raise ExtensionError(
                        f"eigenspace product escapes the law cell "
                        f"({lam}, {mu}): components at {bad}")
        minus_inv = {nu: -(ONE / nu) for nu in nus}
        for xv, yv, comps in items:
            acc = {}
            _add_pair(acc, cols, xv, yv)
            w = {}
            for nu, z in comps.items():
                s = minus_inv[nu]
                for k, c in z.items():
                    v = w.get(k)
                    w[k] = s * c if v is None else v + s * c
            _add_pair(acc, cols, sa, w)
            row = {col: c for col, c in acc.items() if c}
            if row:
                rows.append(row)
    return rows


@dataclass
class CocycleSpace:
    algebra: Algebra
    axes: list
    law: object
    space: Subspace          # Z: relative cocycles (one coordinate)
    coboundaries: Subspace   # B
    intersection: Subspace   # Z cap B
    quotient_dim: int
    class_reps: list         # vectors of Z spanning a complement of Z cap B in Z

    def contains(self, theta):
        """Is every coordinate of theta a relative cocycle?"""
        return all(self.space.contains_vector(v) for v in theta.vectorize())

    def class_is_zero(self, theta):
        return all(self.coboundaries.contains_vector(v) for v in theta.vectorize())


def cocycle_space(algebra, axes, law):
    """Z(A, F; axes) for one output coordinate, with coboundary comparison.
    Each axis is analysed once: check_axis first, then its constraint rows
    from the Eigenbasis on the report."""
    idx_len = len(_sym_index(algebra.dim))
    red = RowReducer(idx_len, algebra.tag)
    for a in axes:
        rep = check_axis(algebra, a, law)
        if not rep.is_axis:
            found = "; ".join(" ".join(render_violation(algebra, v))
                              for v in rep.violations)
            raise ExtensionError(
                f"{algebra.render_element(a)} fails the axis check: {found}")
        # an axis is semisimple, so ker L_a is its 0-eigenspace, if any
        kernel = rep.eigen.eigenspace(ZERO) or Subspace.zero_space(algebra.dim, algebra.tag)
        for row in condition1_rows(algebra, a, kernel):
            red.add_row(row)
        for row in condition2_rows(algebra, a, law, rep.eigen.products()):
            red.add_row(row)
    space = Subspace.spanned(red.kernel_basis(), idx_len, algebra.tag)
    cob = coboundary_space(algebra)
    inter = space.intersect(cob)
    rep_red = RowReducer(idx_len, algebra.tag)
    for b in inter.rows:
        rep_red.add_row(dict(b))
    reps = tuple(b for b in space.rows if rep_red.add_row(dict(b)))
    return CocycleSpace(algebra, [tuple(a) for a in axes], law, space, cob,
                        inter, space.dim - inter.dim,
                        list(Matrix.from_sparse_rows(reps, idx_len, algebra.tag).rows))


def normalize_on_axes(algebra, theta, axes):
    """Subtract a coboundary so the result vanishes on (a, a) for each given
    axis; the class is unchanged.  Requires the axes to be independent."""
    axes = [tuple(a) for a in axes]
    n = algebra.dim
    if not axes:
        return theta
    # complete axes to a basis with standard vectors on non-pivot coordinates
    red = RowReducer(n, algebra.tag)
    for a in axes:
        if not red.add_row(sparse_vector(a)):
            raise ExtensionError("normalize_on_axes requires independent axes")
    basis_rows = list(axes)
    for j in range(n):
        if red.add_row({j: ONE}):
            basis_rows.append(tuple(algebra.basis_element(j)))
    bmat = Matrix(tuple(basis_rows), algebra.tag, ncols=n).transpose()
    binv = bmat.inverse()
    # f(a_k) = theta(a_k, a_k), f = 0 on the completion
    fvals = []
    for k, a in enumerate(basis_rows):
        if k < len(axes):
            fvals.append(theta.evaluate(a, a))
        else:
            fvals.append((ZERO,) * theta.s)
    # f on the standard basis: f(e_j) = sum_k coords(e_j)_k * f(basis_k)
    frows = []
    for j in range(n):
        coords = binv.apply(algebra.basis_element(j))
        row = [ZERO] * theta.s
        for c, fv in zip(coords, fvals):
            if c:
                for g in range(theta.s):
                    row[g] = row[g] + c * fv[g]
        frows.append(tuple(row))
    f = Matrix(tuple(frows), algebra.tag, ncols=theta.s)
    delta = coboundary(algebra, f)
    mats = [m - d for m, d in zip(theta.mats, delta.mats)]
    out = Cocycle(mats, algebra.tag)
    for a in axes:
        if any(v for v in out.evaluate(a, a)):
            raise ExtensionError("normalization failed to vanish on an axis")
    return out


def is_split(algebra, theta):
    """'split', 'non_split', or 'indeterminate'.

    Dependent classes [theta_1..theta_s] modulo coboundaries give a split
    extension.  With independent classes, the extension is non-split when the
    annihilator of A_theta is exactly the adjoined space; when the base
    algebra has annihilator of its own the criterion is silent and
    'indeterminate' is returned.
    """
    n = algebra.dim
    red = RowReducer(len(_sym_index(n)), algebra.tag)
    for b in coboundary_space(algebra).rows:
        red.add_row(dict(b))
    independent = True
    for v in theta.vectorize():
        if not red.add_row(sparse_vector(v)):
            independent = False
            break
    if not independent:
        return "split"
    ext, _ = build_extension(algebra, theta)
    ann = ext.annihilator()
    adjoined = Subspace.spanned([{n + g: ONE} for g in range(theta.s)],
                                n + theta.s, algebra.tag)
    if ann == adjoined:
        return "non_split"
    return "indeterminate"


@dataclass
class ExtensionReport:
    extension: Algebra
    lifted_axes: list
    condition1: dict        # rendered axis -> bool (kernel of L_a inside theta_a-perp)
    axial: bool
    induced_law: object     # minimal law of (A_theta, Y), or None
    split_verdict: str
    theta_in_z: bool


def extension_axiality(algebra, theta, axes, law):
    """Summary report: the extension is axial for the zero-augmented
    law iff condition (1) holds on every axis; the induced law is the minimal
    law of (A_theta, Y) and equals the base law exactly when theta is a
    relative cocycle.

    theta_in_z says whether theta lies in Z(A, F; axes): every condition (1)
    and (2) row of every axis vanishes on each coordinate of theta.  As for Z
    itself, the axes need not pass the axis check here; each is analysed with
    the law's values as eigenvalue hints and must be semisimple
    (NotSemisimpleError) with its eigenvector products inside the law's
    cells (ExtensionError)."""
    axes = [tuple(a) for a in axes]
    # one decomposition per axis; its 0-eigenspace is ker L_a, since 0 is
    # tried whenever the hinted eigenspaces do not fill the space
    eigens = [eigen_decompose(algebra, a, hints=law.values) for a in axes]
    ext, lifted = build_extension(algebra, theta, axes)
    vectors = theta.vectorize()
    no_kernel = Subspace.zero_space(algebra.dim, algebra.tag)
    cond1 = {}
    all_ok = True
    for a, eigen in zip(axes, eigens):
        kernel = eigen.eigenspace(ZERO) or no_kernel
        ok = _rows_vanish(condition1_rows(algebra, a, kernel), vectors)
        cond1[algebra.render_element(a)] = ok
        all_ok = all_ok and ok
    induced = None
    if all_ok:
        induced = minimal_law(ext, lifted)
    in_z = all_ok
    for a, eigen in zip(axes, eigens):
        if not eigen.semisimple:
            raise NotSemisimpleError(
                f"axis candidate {algebra.render_element(a)} is not semisimple")
        rows = condition2_rows(algebra, a, law, eigen.products())
        in_z = in_z and _rows_vanish(rows, vectors)
    return ExtensionReport(ext, lifted, cond1, all_ok, induced,
                           is_split(algebra, theta), in_z)


def _rows_vanish(rows, vectors):
    """Does every sparse row vanish on every dense vector?"""
    for v in vectors:
        for row in rows:
            acc = None
            for col, c in row.items():
                if v[col]:
                    acc = acc + c * v[col] if acc is not None else c * v[col]
            if acc:
                return False
    return True


def decompose_by_annihilator(bigebra, axes=()):
    """Invert build_extension: split off the annihilator.

    Returns (A, theta, X): A is the product algebra on the RREF-pivot
    complement of Ann(B), theta the component of the product falling in
    Ann(B) (coordinates in its RREF basis), X the projections of the given
    axes.  Raises when the annihilator is zero.
    """
    ann = bigebra.annihilator()
    if ann.is_zero():
        raise ExtensionError("annihilator is zero; nothing to split off")
    n = bigebra.dim
    tag = bigebra.tag
    comp_idx = [j for j in range(n) if j not in ann.pivots]
    # change of basis: complement standard vectors first, then Ann basis
    basis_rows = tuple(((j, ONE),) for j in comp_idx) + ann.rows
    bmat = Matrix.from_sparse_rows(basis_rows, n, tag).transpose()
    binv = bmat.inverse()
    m = len(comp_idx)
    s = ann.dim

    def split_coords(x):
        coords = binv.apply(x)
        return coords[:m], coords[m:]

    products = {}
    theta_entries = {}
    for a in range(m):
        for b in range(a, m):
            p = bigebra.product(bigebra.basis_element(comp_idx[a]),
                                bigebra.basis_element(comp_idx[b]))
            comp, annc = split_coords(p)
            entry = sparse_vector(comp)
            if entry:
                products[(a, b)] = entry
            if any(annc):
                theta_entries[(a, b)] = tuple(annc)
    labels = tuple(bigebra.labels[j] for j in comp_idx)
    small = Algebra(m, products, tag, labels)
    theta = Cocycle.from_entries(m, theta_entries, tag, s=s) if theta_entries else \
        Cocycle([Matrix.zero(m, m, tag)] * s, tag)
    projected = []
    for y in axes:
        comp, _annc = split_coords(tuple(y))
        projected.append(tuple(comp))
    return small, theta, projected


def aut_action(theta, phi):
    """Pullback of theta along an invertible matrix: (phi.theta)(x,y) =
    theta(phi x, phi y), i.e. each Gram matrix becomes phi^T G phi."""
    phi.inverse()  # raises when singular
    pt = phi.transpose()
    return Cocycle([pt * m * phi for m in theta.mats], theta.tag)
