"""Commutative algebras given by structure constants, with the exact
invariants needed downstream: annihilator, generated subalgebras and ideals,
the space of invariant (Frobenius) bilinear forms, and a Jordan-identity
checker based on full linearization.  Symmetric bilinear maps (Cocycle, and
BilinearForm, its one-coordinate case) are stored by their upper-triangle
coordinates (_sym_pairs).

Elements are tuples of field elements (see scalars) in the fixed basis of
the algebra.
"""

from __future__ import annotations

import functools

from .errors import AxialError, DimensionMismatchError, ExtensionError, FieldMismatchError
from .linalg import Matrix, RowReducer, Subspace, _checked_sparse, sparse_add, sparse_combine
from .scalars import ONE, ZERO, clear_denominators, common_denominator, over

# The largest dimension an algebra file may declare or a catalog series may
# build, checked before anything is allocated (the Albert algebra, the
# largest fixed catalog entry, has dim 27).
MAX_DIM = 1024


class Algebra:
    """Commutative algebra over QQ or QI with product given by structure
    constants: basis_i * basis_j = sum_k c[i][j][k] basis_k.

    products: dict mapping (i, j) with i <= j to a sparse dict {k: element};
    missing pairs multiply to zero.  Every structure constant must be an
    element of the field tag.  The constants are stored once, as integers
    (Gaussian integers over QI) over one common denominator: _int_rows[i][j]
    is {k: numerator} over _int_den, the one table every kernel reads.
    basis_product builds the field entries of one pair per call.

    symmetry: generators of a group of automorphisms, each a signed
    permutation of the basis given as the pairs (pi(j), s_j) of ints,
    s_j = +-1, with b_j -> s_j b_pi(j).  The constructor checks their shape
    (else DimensionMismatchError) and then that each is an automorphism
    (else AxialError), on the integer table, so every reader may rely on
    both.

    Lemma: a signed permutation g is an automorphism iff every nonzero
    stored pair i <= j has _int_rows[pi(i)][pi(j)] equal to
    {pi(k): s_i s_j s_k c} over the entries k: c of _int_rows[i][j].  That
    is g(b_i b_j) = g(b_i) g(b_j) on the pair.  g permutes the unordered
    pairs, and the check sends each nonzero pair onto a nonzero pair, so
    the nonzero pairs map onto the nonzero pairs and the zero pairs need no
    check.  g is invertible by its shape.  The cost is one pass over the
    nonzero constants per generator, with no products and no rank.
    """

    def __init__(self, dim, products, tag, labels=None, symmetry=()):
        if dim < 0:
            raise DimensionMismatchError(f"dimension must be nonnegative, got {dim}")
        self.dim = dim
        self.tag = tag
        self.labels = tuple(labels) if labels else tuple(f"b{k+1}" for k in range(dim))
        if len(self.labels) != dim:
            raise DimensionMismatchError("label count differs from dimension")
        try:
            self.symmetry = tuple(tuple((k, s) for k, s in g) for g in symmetry)
            signed = all(len(g) == dim
                         and all(type(k) is type(s) is int and s in (1, -1) for k, s in g)
                         and sorted(k for k, _ in g) == list(range(dim))
                         for g in self.symmetry)
        except (TypeError, ValueError):  # not pairs, or indices that do not sort
            signed = False
        if not signed:
            raise DimensionMismatchError(
                "a symmetry generator is not a signed permutation of the basis")
        entries = {}  # (lo, hi) -> {k: element}, lo <= hi
        check = tag.check
        for (i, j), entry in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError(f"basis index out of range in pair {(i, j)}")
            entry = {k: c for k, c in entry.items() if check(c)}
            for k in entry:
                if not (0 <= k < dim):
                    raise DimensionMismatchError(f"target index {k} out of range")
            lo, hi = min(i, j), max(i, j)
            if entries.setdefault((lo, hi), entry) != entry:
                raise DimensionMismatchError(
                    f"conflicting products for basis pair ({lo}, {hi})")
        pairs = [p for p, entry in entries.items() if entry]
        nums, self._int_den = common_denominator([entries[p] for p in pairs])
        empty = {}
        irows = [[empty] * dim for _ in range(dim)]
        for (i, j), num in zip(pairs, nums):
            irows[i][j] = irows[j][i] = num
        self._int_rows = irows
        for t, g in enumerate(self.symmetry, 1):
            for (i, j), num in zip(pairs, nums):
                (pi, si), (pj, sj) = g[i], g[j]
                image = {g[k][0]: c if si * sj * g[k][1] > 0 else -c for k, c in num.items()}
                if irows[pi][pj] != image:
                    raise AxialError(f"symmetry generator {t} is not an automorphism")

    # -- products -----------------------------------------------------------

    def basis_product(self, i, j):
        """Sparse product of two basis elements: a fresh dict {k: element},
        built from the integer table on each call."""
        den = self._int_den
        return {k: over(c, den) for k, c in self._int_rows[i][j].items()}

    def basis_element(self, k):
        return tuple(ONE if j == k else ZERO for j in range(self.dim))

    def zero(self):
        return (ZERO,) * self.dim

    def element(self, coeffs):
        """Build an element from {index: element} or a full sequence."""
        if isinstance(coeffs, dict):
            return tuple(coeffs.get(k, ZERO) for k in range(self.dim))
        out = tuple(coeffs)
        if len(out) != self.dim:
            raise DimensionMismatchError("element length differs from dimension")
        return out

    def product_sparse(self, x, y):
        """Product of sparse elements (dicts {index: element} without zero
        entries) as a sparse dict without zero entries.  It clears x and y
        to integers over dx and dy, runs product_int and builds an element
        over dx * dy * _int_den for each returned entry only."""
        x, dx = clear_denominators(x)
        y, dy = clear_denominators(y)
        den = dx * dy * self._int_den
        return {k: over(v, den) for k, v in _accumulate(self._int_rows, x, y).items() if v}

    def product_int(self, x, y):
        """The integer kernel of product_sparse: for sparse vectors x and y
        of integers or Gaussian integers, the zero-free integer vector p
        with x * y = p / _int_den.  Only integer operators touch the
        entries."""
        return {k: v for k, v in _accumulate(self._int_rows, x, y).items() if v}

    def _sparse(self, x):
        """The nonzero entries of the element x as {index: element}, after
        checking its length and that they lie in the field."""
        if len(x) != self.dim:
            raise DimensionMismatchError("element length differs from dimension")
        check = self.tag.check
        return {k: a for k, a in enumerate(x) if a and check(a)}

    def product(self, x, y):
        return self.element(self.product_sparse(self._sparse(x), self._sparse(y)))

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y in the algebra basis (columns are x*basis_j).
        It clears x to integers over dx, runs left_mult_int and builds an
        element over dx * _int_den for each entry."""
        x, dx = clear_denominators(self._sparse(x))
        return Matrix.from_int_rows(self.left_mult_int(x), dx * self._int_den, self.dim,
                                    self.tag)

    def left_mult_int(self, x):
        """The integer kernel of left_mult_matrix: for a sparse vector x of
        integers or Gaussian integers, the zero-free integer rows N with
        L_x = N / _int_den (row k holds the k-th coordinates of the x*b_j),
        accumulated from the nonzero entries of x."""
        rows = [{} for _ in range(self.dim)]
        for i, a in x.items():
            for j, entry in enumerate(self._int_rows[i]):
                for k, c in entry.items():
                    v = rows[k].get(j)
                    rows[k][j] = a * c if v is None else v + a * c
        return [{j: v for j, v in r.items() if v} for r in rows]

    def is_idempotent(self, x):
        return self.product(x, x) == tuple(x)

    def orbit_maps(self, axes):
        """Per member of the list axes: None when it is the first of its
        orbit in list order, else (r, g), r the position of that first member
        and g a signed permutation, in the generators' (pi(j), s_j) shape,
        with g(axes[r]) = axes[t].  The generators were verified when the
        algebra was built.  A breadth-first search from each first member
        walks the generator and inverse-generator images that are members:
        two members share an orbit when one is exactly a generator's image
        of the other, or equal to it.

        Lemma: an automorphism g with g(a) = b conjugates L_a to L_b and maps
        eigenvectors of a and their products to those of b.  So a and b have
        the same spectrum, eigenspace dimensions and observed cells, and pass
        or fail every axis check alike, with the same exception type.  A
        caller that analyses the first member of each orbit, and reaches a
        later member only after that one passed, may skip the later one: its
        errors and their order do not change.

        A member that fails the length or field check of _sparse, or raises
        anything else there, joins nothing, so its caller refuses it where
        the full path would.  The others are compared by their nonzero
        entries, in index order: an int or float entry, which equals and
        hashes like its Rat, never gets that far.  With no generators every
        member is first."""
        maps = [None] * len(axes)
        if not self.symmetry:
            return maps
        n = self.dim
        moves = []  # each generator and its inverse, b_pi(j) -> s_j b_j
        for g in self.symmetry:
            inverse = [None] * n
            for j, (t, s) in enumerate(g):
                inverse[t] = (j, s)
            moves += [g, tuple(inverse)]
        members = {}  # (index, entry) pairs of the nonzero entries -> positions
        for t, a in enumerate(axes):
            try:
                x = self._sparse(a)
            except Exception:  # the caller refuses it, at its place in the list
                continue
            members.setdefault(tuple(x.items()), []).append(t)
        # the members are met in order of first position, so the search
        # starts at the first member of each orbit; left holds the members
        # not reached yet
        left = dict(members)
        for first in members:
            positions = left.pop(first, None)
            if positions is None:
                continue
            r = positions[0]
            queue = [(first, positions, tuple((j, 1) for j in range(n)))]
            for v, equal, h in queue:
                for t in equal:
                    if t != r:
                        maps[t] = (r, h)
                for g in moves:
                    w = tuple(sorted((g[j][0], c if g[j][1] > 0 else -c) for j, c in v))
                    found = left.pop(w, None)
                    if found is not None:
                        # g after h sends b_j to s_j g(b_k), for h(b_j) = s_j b_k
                        queue.append((w, found, tuple((g[k][0], s * g[k][1]) for k, s in h)))
        return maps

    # -- invariants ----------------------------------------------------------

    def annihilator(self):
        """{x : x*A = 0} as a Subspace."""
        # x in Ann iff for all j, k: sum_i x_i c[i][j][k] = 0
        constraints = RowReducer(self.dim, self.tag)
        rows = self._int_rows
        for j in range(self.dim):
            for k in range(self.dim):
                row = {}
                for i in range(self.dim):
                    c = rows[i][j].get(k)
                    if c:
                        row[i] = c
                if row:
                    constraints.add_int_row(row)
        return constraints.kernel()

    def _span_is_closed(self, red):
        basis = list(red.rows.values())
        for s, x in enumerate(basis):
            for y in basis[s:]:
                if not red.contains_int(self.product_int(x, y)):
                    return False
        return True

    def subalgebra_closure(self, generators):
        """Smallest product-closed subspace containing the generators.

        Returns (subspace, m): m is the smallest word length such that the
        closure is spanned by products of generators of length <= m (m = 1
        when the generators' span is already product-closed).

        Word layers keep only words that enlarged the span; a dropped word is
        a combination of kept words of the same or shorter length, so spans of
        each word length are unaffected.  The words are kept as integer
        vectors, nonzero multiples of the words.
        """
        layers = [[clear_denominators(self._sparse(g))[0] for g in generators]]
        red = RowReducer(self.dim, self.tag)
        for g in layers[0]:
            red.add_int_row(g)
        m = 1
        while not (red.rank() == self.dim or self._span_is_closed(red)):
            d = len(layers) + 1  # build words of length d
            new_layer = []
            for split in range(1, d // 2 + 1):
                for x in layers[split - 1]:
                    for y in layers[d - split - 1]:
                        p = self.product_int(x, y)
                        if red.add_int_row(p):
                            new_layer.append(p)
            layers.append(new_layer)
            if new_layer:
                m = d
        return red.rref_form(), m

    def frobenius_space(self):
        """All symmetric bilinear forms with (xy, z) = (x, yz), as a list of
        BilinearForm: the RREF basis of the solution space, each row the
        upper-triangle vector of one form, without building Gram matrices."""
        n = self.dim
        cols = _sym_columns(n)
        size = len(_sym_pairs(n))
        red = RowReducer(size, self.tag)
        rows = self._int_rows
        # (b_i b_j, b_k) = (b_i, b_j b_k) for all i, j, k
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    row = {}
                    for l, c in rows[j][k].items():
                        sparse_add(row, cols[i][l], c)
                    for l, c in rows[i][j].items():
                        sparse_add(row, cols[l][k], -c)
                    if row:
                        red.add_int_row(row)
        space = red.kernel()
        return [BilinearForm([v], n, self.tag) for v in space.sparse_rows]

    def jordan_check(self):
        """Check the Jordan identity (xy)x^2 = x(yx^2) by full linearization.

        The identity holds iff, for all basis indices i <= j <= k and l,

            sum over (a, bc) in {(i, jk), (j, ik), (k, ij)} of
                (b_a b_l)(b_b b_c) - b_a (b_l (b_b b_c)) = 0.

        A term whose b_b b_c is zero vanishes, so a triple whose three pair
        products are all zero is skipped; (b_a b_l)(b_b b_c) is summed
        straight into the accumulator by _accumulate.  Each
        inner product b_l (b_b b_c) is computed once per call.

        The loops run only over the live indices x, ascending: those whose
        b_x does not annihilate A.  Lemma: a tuple holding an x with
        b_x A = 0 sums to zero.  As l, b_a b_x and b_x (b_b b_c) vanish.  As
        one of i, j, k, each term has x in b_b b_c, which is zero, or a = x,
        and then both its products vanish.  So the witness does not change,
        and on A_theta, whose adjoined central vectors annihilate it, the
        check costs about what it costs on A.

        Returns None when the identity holds, else the witness (i, j, k, l)
        of 0-based basis indices that fails first in the loop order: triples
        i <= j <= k lexicographically, then l ascending.
        """
        # the integer constants, D times the field ones: every term has
        # degree 3 in them, so the sums are D^3 times the field sums and
        # vanish exactly when those do
        rows = self._int_rows
        live = [x for x, row in enumerate(rows) if any(row)]
        inner = {}  # (l, b, c) -> b_l (b_b b_c)
        for p, i in enumerate(live):
            for q, j in enumerate(live[p:], p):
                for k in live[q:]:
                    terms = [(a, b, c, rows[b][c])
                             for a, b, c in ((i, j, k), (j, i, k), (k, i, j)) if rows[b][c]]
                    if not terms:
                        continue
                    for l in live:
                        acc = {}
                        for a, b, c, pbc in terms:
                            _accumulate(rows, rows[a][l], pbc, acc)
                            lbc = inner.get((l, b, c))
                            if lbc is None:
                                lbc = inner[(l, b, c)] = sparse_combine(rows[l], pbc)
                            row_a = rows[a]
                            for m, c_m in lbc.items():
                                for t, d in row_a[m].items():
                                    w = acc.get(t)
                                    acc[t] = -(c_m * d) if w is None else w - c_m * d
                        if any(acc.values()):
                            return (i, j, k, l)
        return None

    def direct_sum(self, other):
        """Orthogonal direct sum; labels of the second summand are suffixed."""
        if self.tag is not other.tag:
            raise FieldMismatchError("direct sum over different fields")
        n = self.dim
        products = {(i, j): self.basis_product(i, j) for i in range(n) for j in range(i, n)}
        for i in range(other.dim):
            for j in range(i, other.dim):
                products[(n + i, n + j)] = {n + k: c for k, c in other.basis_product(i, j).items()}
        labels = self.labels + tuple(f"{lab}'" for lab in other.labels)
        return Algebra(n + other.dim, products, self.tag, labels)

    def render_element(self, x):
        parts = []
        for a, lab in zip(x, self.labels):
            if not a:
                continue
            s = str(a)
            if s == "1":
                parts.append(lab)
            elif s == "-1":
                parts.append(f"-{lab}")
            else:
                parts.append(f"({s}){lab}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.tag.value})"


def is_automorphism(algebra, m):
    """Exact check of invertibility plus m(b_i b_j) = m(b_i) m(b_j) on every
    basis pair i <= j: on the integer columns cols of m over d, rank n and
    d * sum_k C_ijk cols[k] == cols[i] cols[j] (product_int), for the
    integer structure constants C."""
    n = algebra.dim
    if m.nrows != n or m.ncols != n:
        return False
    cols = m.transpose().num
    d = m.den
    red = RowReducer(n, algebra.tag)
    for c in cols:
        red.add_int_row(c)
    if red.rank() < n:
        return False
    rows = algebra._int_rows
    product = algebra.product_int
    for i in range(n):
        for j in range(i, n):
            lhs = sparse_combine(cols, rows[i][j])
            if {k: d * v for k, v in lhs.items()} != product(cols[i], cols[j]):
                return False
    return True


def _accumulate(rows, x, y, acc=None):
    """acc + x * y for sparse x and y over the structure-constant rows
    (rows[i][j] = b_i b_j as {k: constant}), acc a fresh dict when not given;
    sparse, with the entries that cancel kept as zeros."""
    if acc is None:
        acc = {}
    for i, a in x.items():
        row = rows[i]
        for j, b in y.items():
            ab = a * b
            for k, c in row[j].items():
                v = acc.get(k)
                acc[k] = ab * c if v is None else v + ab * c
    return acc


@functools.lru_cache(maxsize=8)
def _sym_pairs(n):
    """The upper-triangle pairs (i, j), i <= j, in row-major order: the pair
    at position t is the t-th coordinate of a symmetric form on an
    n-dimensional algebra."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


@functools.lru_cache(maxsize=8)
def _sym_columns(n):
    """cols[p][q]: the position in _sym_pairs(n) of the pair (p, q), in
    either order."""
    cols = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(_sym_pairs(n)):
        cols[i][j] = cols[j][i] = t
    return tuple(map(tuple, cols))


def _gram_rows(v, n):
    """The rows {i: v(b_i, b_j)} of the symmetric n x n matrix of an
    upper-triangle sparse vector {index: element}, each column-sorted."""
    pairs = _sym_pairs(n)
    rows = tuple({} for _ in range(n))
    for t, a in sorted(v.items()):
        # the row-major index order keeps every row column-sorted
        i, j = pairs[t]
        rows[i][j] = rows[j][i] = a
    return rows


class Cocycle:
    """Symmetric bilinear map A x A -> F^s on an n-dimensional algebra.

    Coordinate g is stored as vectors[g], the sparse upper-triangle vector
    {t: theta_g(b_i, b_j)} over the pairs i <= j in _sym_pairs order, without
    zero entries.  The constructor checks each index and each entry's field.
    radical() is theta-perp, which is_split and radical_axial both read.
    """

    def __init__(self, vectors, n, tag):
        size = len(_sym_pairs(n))
        check = tag.check
        out = []
        for v in vectors:
            for t in v:
                if not 0 <= t < size:
                    raise DimensionMismatchError(f"cocycle index {t} out of range")
            out.append({t: check(a) for t, a in v.items() if a})
        if not out:
            raise ExtensionError("a cocycle needs at least one coordinate")
        self.vectors = tuple(out)
        self.dim = n
        self.s = len(out)
        self.tag = tag

    @classmethod
    def from_entries(cls, n, entries, tag, s=1):
        """entries: {(i, j): element} or {(i, j): tuple of s elements}, in
        either index order; a pair given in both orders must have equal
        values (else DimensionMismatchError)."""
        cols = _sym_columns(n)
        vectors = [{} for _ in range(s)]
        given = {}  # position in _sym_pairs -> the values of its pair
        for (i, j), val in entries.items():
            vals = tuple(val) if isinstance(val, (tuple, list)) else (val,)
            if len(vals) != s:
                raise DimensionMismatchError("entry arity differs from coordinate count")
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatchError(f"cocycle entry {(i, j)} outside dim {n}")
            t = cols[i][j]
            if given.setdefault(t, vals) != vals:
                raise DimensionMismatchError(
                    f"conflicting entries for basis pair ({min(i, j)}, {max(i, j)})")
            for vec, a in zip(vectors, vals):
                vec[t] = a
        return cls(vectors, n, tag)

    @property
    def mats(self):
        """The symmetric n x n Gram matrices, one per coordinate, built on
        each access.  The lcm L of the entries' denominators has gcd 1 with
        the numerators scaled to L, so from_int_rows keeps that form."""
        return tuple(Matrix.from_int_rows(*common_denominator(_gram_rows(v, self.dim)),
                                          self.dim, self.tag)
                     for v in self.vectors)

    def evaluate(self, x, y):
        """theta(x, y) as a tuple of s elements, for vectors x and y of field
        elements (else FieldMismatchError)."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("vector length mismatch")
        cols = _sym_columns(n)
        x, y = _checked_sparse(x, self.tag), _checked_sparse(y, self.tag)
        terms = [(cols[p][q], a * b) for p, a in x.items() for q, b in y.items()]
        out = []
        for v in self.vectors:
            acc = ZERO
            for t, ab in terms:
                g = v.get(t)
                if g is not None:
                    acc = acc + ab * g
            out.append(acc)
        return tuple(out)

    def radical(self):
        """theta-perp = {x : theta(x, A) = 0}, as a Subspace: the kernel of
        the Gram rows of all s coordinates, stacked.  Row j of coordinate g
        is {i: theta_g(b_i, b_j)}, cleared of denominators."""
        rows = [clear_denominators(r)[0] for v in self.vectors for r in _gram_rows(v, self.dim)]
        return Matrix.from_int_rows(rows, 1, self.dim, self.tag).kernel()

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.tag is other.tag and self.dim == other.dim
                and self.vectors == other.vectors)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, s={self.s})"


class BilinearForm(Cocycle):
    """A symmetric bilinear form: the Cocycle with s = 1.  evaluate returns
    a 1-tuple, and radical() is {x : (x, A) = 0}."""

    @property
    def gram(self):
        """The Gram matrix, built on each access."""
        return self.mats[0]


def radical_axial(algebra, axes):
    """Radical with respect to an axis set: the radical of the unique
    invariant form normalized to (a, a) = 1 on every axis.

    The forms of frobenius_space are combined as upper-triangle vectors,
    and the radical is BilinearForm.radical(), as theta-perp in is_split.

    The combination is read off one kernel.  With k forms, a RowReducer on
    k + 1 columns takes the row [(a, a)_f for each form f | -1] of each
    axis, so (x, t) lies in its kernel iff sum_f x_f (a, a)_f = t on every
    axis: a combination with (a, a) = 1 on every axis exists iff column k
    is free.  Then the last kernel_basis() vector, at free column k, is L
    at k and -c_p L / p_p at each pivot p; over L it is the solution x that
    is 0 at the other free columns.  Column k is no pivot, so the vectors
    at the free columns below k have no entry at k: they span the kernel
    of the (a, a) rows, the shifts that keep (a, a) = 1.

    Returns (subspace, form).  Raises ValueError when no invariant form is
    nonzero on every axis or the normalized form is not unique.
    """
    forms = algebra.frobenius_space()
    if not forms:
        raise ValueError("no nonzero invariant bilinear form exists")
    n, tag, k = algebra.dim, algebra.tag, len(forms)
    vectors = [f.vectors[0] for f in forms]
    axes = [tuple(a) for a in axes]
    red = RowReducer(k + 1, tag)
    for a in axes:  # evaluate checks the axis against the field
        row = dict(enumerate(f.evaluate(a, a)[0] for f in forms))
        row[k] = -ONE
        red.add_row(row)
    if k in red.rows:
        raise ValueError("no invariant form takes value 1 on every axis")
    *shifts, last = red.kernel_basis()
    sol = tuple(over(last.get(f, 0), last[k]) for f in range(k))
    form = BilinearForm([sparse_combine(vectors, dict(enumerate(sol)))], n, tag)
    rad = form.radical()
    # projectively unique normalization required: combinations in the
    # kernel must not change the radical
    for v in Subspace.spanned(shifts, k, tag).sparse_rows:
        shifted = {t: c + v.get(t, ZERO) for t, c in enumerate(sol)}
        if BilinearForm([sparse_combine(vectors, shifted)], n, tag).radical() != rad:
            raise ValueError("axis-normalized invariant form is not unique")
    for a in axes:
        if rad.contains_vector(a):
            raise ValueError("an axis lies in the radical of its own form")
    return rad, form
