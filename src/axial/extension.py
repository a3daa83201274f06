"""Central extensions of commutative algebras by symmetric bilinear maps:
coboundaries, the two cocycle conditions relative to an axis set, the
relative cocycle space, extension construction, split detection, the induced
fusion law of an extension, and the inverse decomposition of an algebra with
nonzero annihilator.

Symmetric forms on an n-dimensional algebra are vectorized by the n(n+1)/2
upper-triangle entries in row-major order (see algebra._sym_pairs): a
cocycle coordinate (algebra.Cocycle), a vector of Z or B, and a constraint
row all index them alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import Algebra, Cocycle, _sym_columns, _sym_pairs
from .errors import DimensionMismatchError, ExtensionError, FieldMismatchError
from .linalg import (Matrix, RowReducer, Subspace, _checked_sparse, sparse_add, sparse_combine,
                     sparse_vector)
from .scalars import ONE, ZERO, clear_denominators, over
from .spectral import axis_eigenbasis, law_refusal, minimal_law


def coboundary(algebra, f):
    """delta f for a linear map f: A -> F^s given as an n x s matrix
    (rows = values on basis elements): delta f(x, y) = f(xy), built from
    the integer forms of f and of the structure constants."""
    n = algebra.dim
    if f.nrows != n:
        raise DimensionMismatchError("coboundary map has a row count other than dim")
    vectors = [{} for _ in range(f.ncols)]
    rows, den = algebra._int_rows, f.den * algebra._int_den
    for t, (i, j) in enumerate(_sym_pairs(n)):
        for g, v in sparse_combine(f.num, rows[i][j]).items():
            vectors[g][t] = over(v, den)
    return Cocycle(vectors, n, algebra.tag)


def coboundary_space(algebra):
    """B, the span of all coboundaries: spanned by the coordinates of
    delta(identity), the coboundaries of the dual basis functionals, here
    in the integer structure constants."""
    n = algebra.dim
    vectors = [{} for _ in range(n)]
    rows = algebra._int_rows
    for t, (i, j) in enumerate(_sym_pairs(n)):
        for g, c in rows[i][j].items():
            vectors[g][t] = c
    return Subspace.spanned(vectors, len(_sym_pairs(n)), algebra.tag)


def _require_on(algebra, theta):
    """The one check that theta lives on algebra, in dimension and field."""
    if theta.dim != algebra.dim:
        raise DimensionMismatchError("cocycle size differs from algebra dimension")
    if theta.tag is not algebra.tag:
        raise FieldMismatchError("cocycle and algebra over different fields")


def build_extension(algebra, theta, axes=()):
    """The extension A + F^s with product xy + theta(x,y); returns
    (extension, Y) where Y lifts the given axes to a + theta(a,a)."""
    _require_on(algebra, theta)
    n = algebra.dim
    pairs = _sym_pairs(n)
    products = {p: algebra.basis_product(*p) for p in pairs}
    for g, v in enumerate(theta.vectors):
        for t, c in v.items():
            products[pairs[t]][n + g] = c
    labels = algebra.labels + tuple(f"v{g+1}" for g in range(theta.s))
    ext = Algebra(n + theta.s, products, algebra.tag, labels)
    lifted = []
    for a in axes:
        a = tuple(a)
        lifted.append(a + theta.evaluate(a, a))
    return ext, lifted


# ---------------------------------------------------------------------------
# constraint rows (one coordinate: unknowns are upper-triangle entries)

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
    kernel, which is ker L_a as a Subspace (for an axis, its 0-eigenspace).
    The rows are integer rows (Gaussian integer rows over QI), each a
    positive multiple of the field row: a is cleared of denominators, and
    the k are the rows of the kernel's integer form."""
    cols = _sym_columns(algebra.dim)
    sa = clear_denominators(sparse_vector(a))[0]
    rows = []
    for k in kernel.matrix.num:
        acc = {}
        _add_pair(acc, cols, sa, k)
        rows.append({col: c for col, c in acc.items() if c})
    return rows


def condition2_rows(algebra, a, law, eigen):
    """Sparse rows of the eigenspace compatibility condition for axis a.

    Precondition, which both callers meet: a passed the axis check for law
    (law_violations of eigen is empty), so every nu below lies in lam*mu.

    eigen is the Eigenbasis of a; its products() are read.  For each
    eigenvalue pair (lam, mu) with 0 not in lam*mu, each eigenvector pair
    (x, y) with the eigenbasis coordinates {p: c_p} of xy gives the row of
    theta(x, y) - theta(a, w) = 0, if nonzero, for w = sum nu(p)^-1 c_p
    v_p, v_p the eigenvector at position p and nu(p) its eigenvalue: the sum
    of nu^-1 times the nu-components of xy, built in one pass.

    The rows are integer rows (Gaussian integer rows over QI), each
    da * D * dvec * L times the field row: a is cleared to integers over
    da, the coordinates are integers over D = eigen.product_den, the
    integer rows of eigen.eigenvectors are over its denominator dvec, and L
    is the lcm of the denominators of the cell's nu^-1, so nu^-1 = q/p is
    the integer q * L / p over L, once per cell.  theta(x, y) of the
    integer eigenvectors is then scaled by da * D * L / dvec."""
    products = eigen.products()
    cols = _sym_columns(algebra.dim)
    sa, da = clear_denominators(sparse_vector(a))
    vectors, dvec = eigen.eigenvectors.num, eigen.eigenvectors.den
    base = da * eigen.product_den // dvec
    rows = []
    for lam, mu, nus, items in products:
        if ZERO in law.star(lam, mu):
            continue
        inverses = {nu: ONE / nu for nu in nus}
        lcm = math.lcm(1, *(inv.denominator for inv in inverses.values()))
        # -nu^-1 * L by the index of nu in eigen.blocks, for nu in nus
        minus_inv = [-(inv.numerator * (lcm // inv.denominator))
                     if (inv := inverses.get(nu)) else 0 for nu, _ in eigen.blocks]
        scale = base * lcm
        scaled = {}  # position -> its eigenvector times scale
        for r, q, coords in items:
            x = scaled.get(r)
            if x is None:
                x = scaled[r] = {p: scale * c for p, c in vectors[r].items()}
            acc = {}
            _add_pair(acc, cols, x, vectors[q])
            w = sparse_combine(vectors, {p: minus_inv[eigen.owner[p]] * c
                                         for p, c in coords.items()})
            _add_pair(acc, cols, sa, w)
            row = {col: c for col, c in acc.items() if c}
            if row:
                rows.append(row)
    return rows


@dataclass
class CocycleSpace:
    algebra: Algebra
    space: Subspace          # Z: relative cocycles (one coordinate)
    coboundaries: Subspace   # B
    quotient_dim: int
    class_reps: list         # vectors of Z spanning a complement of Z cap B in Z

    @property
    def intersection(self):  # Z cap B, which is B (see cocycle_space)
        return self.coboundaries

    def contains(self, theta):
        """Is every coordinate of theta a relative cocycle?"""
        _require_on(self.algebra, theta)
        return all(map(self.space.contains_sparse, theta.vectors))

    def class_is_zero(self, theta):
        _require_on(self.algebra, theta)
        return all(map(self.coboundaries.contains_sparse, theta.vectors))


def cocycle_space(algebra, axes, law):
    """Z(A, F; axes) for one output coordinate, with coboundary comparison.
    Each axis is analysed once: _f_axis first, then its constraint rows from
    the Eigenbasis it returns.

    Every coboundary theta = delta f meets both conditions on every axis a:
    theta(a, k) = f(ak) = f(0) = 0 for k in ker L_a, and when 0 is not in
    lam*mu, theta(x, y) - theta(a, sum nu^-1 z_nu) = f(xy) - f(sum z_nu) = 0.
    So B <= Z <= ker(rows so far), and once the rank of the rows reaches
    N - dim B, N = n(n+1)/2, both ends have dimension dim B: Z = B, and no
    later row can change the row space or its canonical RREF.  From then on
    an axis gets only _f_axis, and only when it is the first of its orbit
    under algebra.symmetry (Algebra.orbit_firsts): a later member of an
    orbit passes exactly when its first member did.  So the errors and their
    order are those of the full path, and those of extension_axiality.

    The function returns only when every axis passes _f_axis, and then
    B <= Z by the same lemma: Z cap B is B itself, and the class reps are
    the rows of Z's RREF that enlarge the span of B's."""
    axes = list(axes)
    firsts = algebra.orbit_firsts(axes)
    idx_len = len(_sym_pairs(algebra.dim))
    cob = coboundary_space(algebra)
    full = idx_len - cob.dim
    red = RowReducer(idx_len, algebra.tag)
    for a, first in zip(axes, firsts):
        if red.rank() == full:
            if first:
                _f_axis(algebra, a, law)
            continue
        eigen = _f_axis(algebra, a, law)
        # an axis is semisimple, so ker L_a is its 0-eigenspace; the
        # condition rows are integer rows
        for row in condition1_rows(algebra, a, eigen.eigenspace(ZERO)):
            red.add_int_row(row)
        for row in condition2_rows(algebra, a, law, eigen):
            red.add_int_row(row)
    space = red.kernel()
    rep_red = RowReducer(idx_len, algebra.tag)
    for b in cob.matrix.num:
        rep_red.add_int_row(b)
    reps = [b for b in space.matrix.num if rep_red.add_int_row(b)]
    return CocycleSpace(algebra, space, cob, space.dim - cob.dim,
                        list(Matrix.from_int_rows(reps, space.matrix.den, idx_len,
                                                  algebra.tag).rows))


def normalize_on_axes(algebra, theta, axes):
    """Subtract a coboundary so the result vanishes on (a, a) for each given
    axis; the class is unchanged.  Requires the axes to be independent."""
    _require_on(algebra, theta)
    axes = [tuple(a) for a in axes]
    n = algebra.dim
    if not axes:
        return theta
    # complete axes to a basis with standard vectors on non-pivot coordinates
    red = RowReducer(n, algebra.tag)
    for a in axes:
        if not red.add_row(_checked_sparse(a, algebra.tag)):
            raise ExtensionError("normalize_on_axes requires independent axes")
    basis_rows = list(axes)
    for j in range(n):
        if red.add_row({j: ONE}):
            basis_rows.append(tuple(algebra.basis_element(j)))
    # f(r_k) = theta(a_k, a_k) on the axes and 0 on the completion: with the
    # basis as the rows of R and those values as the rows of F, R f = F
    fvals = [theta.evaluate(a, a) for a in axes]
    fvals += [(ZERO,) * theta.s] * (n - len(axes))
    f = (Matrix(tuple(basis_rows), algebra.tag, ncols=n).inverse()
         * Matrix(tuple(fvals), algebra.tag, ncols=theta.s))
    vectors = []
    for v, d in zip(theta.vectors, coboundary(algebra, f).vectors):
        v = dict(v)
        for t, c in d.items():
            sparse_add(v, t, -c)
        vectors.append(v)
    out = Cocycle(vectors, n, algebra.tag)
    for a in axes:
        if any(v for v in out.evaluate(a, a)):
            raise ExtensionError("normalization failed to vanish on an axis")
    return out


def is_split(algebra, theta):
    """'split', 'non_split', or 'indeterminate'.

    Dependent classes [theta_1..theta_s] modulo coboundaries give a split
    extension.  With independent classes, the extension is non-split when the
    annihilator of A_theta is exactly the adjoined space V = F^s; otherwise
    the criterion is silent and 'indeterminate' is returned.

    The annihilator is read in A, without building A_theta: x + v, for x in
    A and v in V, annihilates A_theta iff xy = 0 and theta(x, y) = 0 for
    every y in A.  So Ann(A_theta) = (Ann(A) cap theta-perp) + V, where
    theta-perp is theta.radical(), and it is V iff Ann(A) cap theta-perp is
    zero.
    """
    _require_on(algebra, theta)
    red = RowReducer(len(_sym_pairs(algebra.dim)), algebra.tag)
    for b in coboundary_space(algebra).matrix.num:
        red.add_int_row(b)
    if not all(red.add_row(v) for v in theta.vectors):
        return "split"
    ann = algebra.annihilator()
    if not ann.is_zero():
        # theta-perp is built only when A has annihilator of its own
        ann = ann.intersect(theta.radical())
    if ann.is_zero():
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
    and (2) row of every axis vanishes on each coordinate of theta.  Z is
    defined for F-axes only, so the axes pass _f_axis, one at a time in list
    order, before the extension is built."""
    axes = [tuple(a) for a in axes]
    eigens = [_f_axis(algebra, a, law) for a in axes]
    ext, lifted = build_extension(algebra, theta, axes)
    vectors = theta.vectors
    cond1 = {algebra.render_element(a): _rows_vanish(
        condition1_rows(algebra, a, eigen.eigenspace(ZERO)), vectors)
        for a, eigen in zip(axes, eigens)}
    all_ok = all(cond1.values())
    in_z = all_ok and all(_rows_vanish(condition2_rows(algebra, a, law, eigen), vectors)
                          for a, eigen in zip(axes, eigens))
    induced = minimal_law(ext, lifted) if all_ok else None
    return ExtensionReport(ext, lifted, cond1, all_ok, induced, is_split(algebra, theta), in_z)


def _f_axis(algebra, a, law):
    """The Eigenbasis of a, or a refusal unless a is an axis for law: the one
    gate of cocycle_space and extension_axiality.  axis_eigenbasis with the
    law's values as hints raises NotIdempotentError, before L_a is
    decomposed, or NotSemisimpleError; then law_refusal raises
    ExtensionError.  The 0-eigenspace of the Eigenbasis is ker L_a, since 0
    is tried whenever the hinted eigenspaces do not fill the space."""
    eigen = axis_eigenbasis(algebra, a, law.values)
    if refusal := law_refusal(eigen, a, law):
        raise ExtensionError(refusal)
    return eigen


def _rows_vanish(rows, vectors):
    """Does every sparse row vanish on every sparse vector?"""
    return not any(sum((c * v[col] for col, c in row.items() if col in v), ZERO)
                   for v in vectors for row in rows)


def decompose_by_annihilator(bigebra, axes=()):
    """Invert build_extension: split off the annihilator.

    Returns (A, theta, X): A is the product algebra on the RREF-pivot
    complement of Ann(B), theta the component of the product falling in
    Ann(B) (coordinates in its RREF basis), X the projections of the given
    axes.  Raises when the annihilator is zero.

    Lemma: every RREF row r_g of Ann(B) is 1 at its own pivot p_g and 0 at
    the other pivots, and the complement basis vectors are 0 at every pivot.
    So x = sum_a y_a b_a + sum_g z_g r_g, a over the complement, has
    z_g = x[p_g], and its complement part is x - sum_g x[p_g] r_g, read
    at the complement indices.
    """
    ann = bigebra.annihilator()
    if ann.is_zero():
        raise ExtensionError("annihilator is zero; nothing to split off")
    tag = bigebra.tag
    pivots = ann.pivots
    comp_idx = [j for j in range(bigebra.dim) if j not in pivots]
    position = {j: a for a, j in enumerate(comp_idx)}

    def split_coords(x):
        """(complement part as {a: element}, Ann(B) coordinates) of sparse x."""
        annc = tuple(x.get(p, ZERO) for p in pivots)
        comp = dict(x)
        for c, r in zip(annc, ann.rows):
            for j, v in r.items():
                sparse_add(comp, j, -c * v)
        return {position[j]: v for j, v in comp.items()}, annc

    m = len(comp_idx)
    products = {}
    theta_entries = {}
    for a in range(m):
        for b in range(a, m):
            # both constructors drop the zero entries
            products[(a, b)], theta_entries[(a, b)] = split_coords(
                bigebra.basis_product(comp_idx[a], comp_idx[b]))
    labels = tuple(bigebra.labels[j] for j in comp_idx)
    small = Algebra(m, products, tag, labels)
    theta = Cocycle.from_entries(m, theta_entries, tag, s=ann.dim)
    projected = []
    for y in axes:
        if len(y) != bigebra.dim:
            raise DimensionMismatchError("vector length mismatch")
        comp, _annc = split_coords(_checked_sparse(y, tag))
        projected.append(tuple(comp.get(a, ZERO) for a in range(m)))
    return small, theta, projected


def aut_action(theta, phi):
    """Pullback of theta along an invertible matrix: (phi.theta)(x,y) =
    theta(phi x, phi y), read on the columns of phi."""
    phi.inverse()  # raises when singular
    cols = phi.transpose().rows
    n = theta.dim
    entries = {(i, j): theta.evaluate(cols[i], cols[j])
               for i in range(n) for j in range(i, n)}
    return Cocycle.from_entries(n, entries, theta.tag, s=theta.s)
