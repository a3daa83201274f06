"""Exact row reduction, kernels, inverses, and subspace arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from axial import catalog
from axial.algebra import Cocycle
from axial.errors import AxialError, DimensionMismatchError, FieldMismatchError
from axial.extension import cocycle_space
from axial.fusion import find_c2_gradings
from axial.linalg import Matrix, RowReducer, Subspace
from axial.miyamoto import is_automorphism, tau_automorphism
from axial.scalars import (ONE, ZERO, FieldTag, Rat, Scalar, clear_denominators,
                           common_denominator, over, sort_key)
from axial.spectral import char_poly, eigen_decompose


def q(n, d=1):
    return Rat(n, d)


def mat(rows):
    return Matrix(tuple(tuple(q(x) if isinstance(x, int) else x for x in r)
                        for r in rows), FieldTag.QQ)


def reducer_of(m):
    """The RowReducer of the rows of the matrix m: its rank(), rref_form()
    and pivot_columns() are those of m."""
    red = RowReducer(m.ncols, m.tag)
    for r in m.num:
        red.add_int_row(r)
    return red


class TestInverseRegression:
    def test_zero_leading_entry(self):
        # Regression: incremental row reduction must clear *every* pivot
        # column of an incoming row, not only the leading one.  This matrix
        # used to produce a wrong inverse.
        m = mat([[0, 1], [1, q(3, 2)]])
        inv = m.inverse()
        assert m * inv == Matrix.identity(2, FieldTag.QQ)
        assert inv * m == Matrix.identity(2, FieldTag.QQ)
        assert inv == mat([[q(-3, 2), 1], [1, 0]])

    def test_randomized_inverses(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[q(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)]
            m = Matrix(tuple(tuple(r) for r in rows), FieldTag.QQ)
            try:
                inv = m.inverse()
            except Exception:
                continue  # singular sample
            assert m * inv == Matrix.identity(n, FieldTag.QQ)


class TestRowReducer:
    def test_rref_invariant_random(self):
        # After any insertion order, every stored pivot row must be free of
        # all other pivot columns.
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 6)
            red = RowReducer(n, FieldTag.QQ)
            for _ in range(rng.randint(1, 8)):
                row = {j: q(rng.randint(-3, 3)) for j in range(n)
                       if rng.random() < 0.6}
                red.add_row({j: c for j, c in row.items() if c})
            pivots = set(red.rows)
            for lead, row in red.rows.items():
                for j in row:
                    assert j == lead or j not in pivots

    def test_kernel_matches_matrix_kernel(self):
        m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        ker = m.kernel()
        assert ker.dim == 1
        v = ker.basis[0]
        assert all(not c for c in m.apply(v))

    def test_dependent_row_rejected(self):
        red = RowReducer(3, FieldTag.QQ)
        assert red.add_row({0: q(1), 1: q(2)})
        assert red.add_row({1: q(1), 2: q(1)})
        assert not red.add_row({0: q(2), 1: q(5), 2: q(1)})


class TestSubspace:
    def test_membership_and_intersection(self):
        s1 = Subspace([(q(1), q(0), q(1)), (q(0), q(1), q(0))], 3, FieldTag.QQ)
        s2 = Subspace([(q(1), q(1), q(1))], 3, FieldTag.QQ)
        assert s1.contains_vector((q(2), q(3), q(2)))
        assert not s1.contains_vector((q(1), q(0), q(0)))
        inter = s1.intersect(s2)
        assert inter.dim == 1
        assert inter.contains_vector((q(1), q(1), q(1)))

    def test_membership_checks_length(self):
        # neither truncated nor padded: a vector of another length is refused
        s = Subspace([(q(1), q(0))], 2, FieldTag.QQ)
        for v in [(q(1),), (q(1), q(0), q(0)), (q(1), q(0), q(5))]:
            with pytest.raises(DimensionMismatchError):
                s.contains_vector(v)

    def test_full_and_zero(self):
        assert Subspace([(q(1), q(0)), (q(1), q(1))], 2, FieldTag.QQ).is_full()
        assert Subspace([], 2, FieldTag.QQ).is_zero()

    def test_kernel_solution_space(self):
        rng = random.Random(99)
        for _ in range(50):
            n, m = rng.randint(2, 5), rng.randint(1, 4)
            rows = tuple(tuple(q(rng.randint(-3, 3)) for _ in range(n))
                         for _ in range(m))
            mtx = Matrix(rows, FieldTag.QQ, ncols=n)
            ker = mtx.kernel()
            for v in ker.basis:
                assert all(not c for c in mtx.apply(v))
            # rank-nullity
            red = RowReducer(n, FieldTag.QQ)
            rank = sum(1 for r in rows if red.add_row(
                {j: c for j, c in enumerate(r) if c}))
            assert rank + ker.dim == n


# ---------------------------------------------------------------------------
# sparse Matrix against naive dense references

def _entry(rng, tag):
    """A small entry that is zero about half the time, so rows vanish and
    products cancel."""
    if rng.random() < 0.5:
        return ZERO
    re = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 3]))
    im = rng.choice([0, 0, -1, 1]) if tag is FieldTag.QI else 0
    return Scalar(re, im)


def _dense(rng, nrows, ncols, tag):
    rows = [[_entry(rng, tag) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [ZERO] * ncols
    return rows


def _scalar_matrix(n, c, tag):
    """c I as an n x n Matrix, built from its entries."""
    return Matrix([[c if i == j else ZERO for j in range(n)] for i in range(n)], tag)


def _naive_mul(a, b, tag):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            s = ZERO
            for k in range(len(b)):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def _naive_rref(rows, ncols, tag):
    """Dense Gauss-Jordan elimination; returns (nonzero rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_sparse_matrix_matches_dense_reference(tag):
    rng = random.Random(31 if tag is FieldTag.QQ else 37)
    singular = 0
    for _ in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b, c = _dense(rng, n, k, tag), _dense(rng, k, m, tag), _dense(rng, n, k, tag)
        ma, mb, mc = Matrix(a, tag), Matrix(b, tag), Matrix(c, tag)
        # one canonical integer form from every constructor: the integer
        # rows over their lcm denominator, times a factor, come back in lowest
        # terms
        den = math.lcm(1, *(x.denominator for r in a for x in r))
        factor = rng.choice([2, 3, 6, 35])
        scaled = [{j: factor * x.numerator * (den // x.denominator)
                   for j, x in enumerate(r) if x} for r in a]
        cols = [tuple(r[j] for r in a) for j in range(k)]
        for other in (Matrix(cols, tag, ncols=n).transpose(),
                      Matrix.from_int_rows(*common_denominator(_sparse_rows(a)), k, tag),
                      Matrix.from_int_rows(scaled, factor * den, k, tag)):
            assert other == ma and hash(other) == hash(ma) and other.rows == ma.rows
        # the integer kernel basis: integral, positive at its own free column,
        # zero at the other free columns, and inside the kernel
        red = RowReducer(k, tag)
        for r in a:
            red.add_row(_dict(r))
        free = red.free_columns()
        basis = red.kernel_basis()
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert all(b == int(b) for x in v.values() for b in _parts(x))
            assert type(v[f]) is not Scalar and v[f] > 0
            assert all(g == f or g not in v for g in free)
            assert all(not sum((r[j] * x for j, x in v.items()), ZERO) for r in a)
        assert (ma * mb).rows == tuple(map(tuple, _naive_mul(a, b, tag)))
        x = tuple(_entry(rng, tag) for _ in range(k))
        assert ma.apply(x) == tuple(r[0] for r in _naive_mul(a, [[v] for v in x], tag))
        assert (ma == mc) == (a == c)
        s = _entry(rng, tag)
        assert (_scalar_matrix(n, s, tag) * ma).rows == tuple(tuple(s * v for v in r)
                                                              for r in a)
        # rref and kernel
        red, pivots = _naive_rref(a, k, tag)
        reducer = reducer_of(ma)
        assert reducer.pivot_columns() == pivots
        assert reducer.rref_form().rows == tuple(map(tuple, red))
        ker = []
        for f in (j for j in range(k) if j not in pivots):
            v = [ZERO] * k
            v[f] = ONE
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            ker.append(tuple(v))
        assert ma.kernel() == Subspace(ker, k, tag)
        assert ma.kernel().dim == len(ker)
        # inverse of a square sample
        sq = _dense(rng, n, n, tag)
        msq = Matrix(sq, tag)
        red, pivots = _naive_rref([r + [ONE if i == j else ZERO for j in range(n)]
                                   for i, r in enumerate(sq)], 2 * n, tag)
        if pivots[:n] != list(range(n)):
            singular += 1
            with pytest.raises(DimensionMismatchError):
                msq.inverse()
            continue
        inv = msq.inverse()
        assert inv.rows == tuple(tuple(r[n:]) for r in red)
        assert msq * inv == Matrix.identity(n, tag) == inv * msq
    assert 0 < singular < 60


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_equal_matrices_from_different_routes(tag):
    rng = random.Random(41)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        a = _dense(rng, n, k, tag)
        ma = Matrix(a, tag)
        cols = [tuple(r[j] for r in a) for j in range(k)]
        routes = [
            Matrix(cols, tag, ncols=n).transpose(),
            ma.transpose().transpose(),
            ma * Matrix.identity(k, tag),
            Matrix.identity(n, tag) * ma,
            _scalar_matrix(n, ONE, tag) * ma,
            _scalar_matrix(n, Rat(2), tag) * ma * _scalar_matrix(k, Rat(1, 2), tag),
            Matrix(ma.rows, tag, ncols=k),
        ]
        for other in routes:
            assert other == ma and hash(other) == hash(ma)
            assert other.rows == ma.rows
        form = reducer_of(ma).rref_form()
        assert Matrix(form.rows, tag, ncols=k) == form
        assert ma.transpose().rows == tuple(cols)


def _augmented_solve(rows, rhs, ncols, tag):
    """(x, kernel) with M x = rhs for the dense rows of M, as radical_axial
    reads it off one kernel; None when there is no solution.  A reducer fed
    [row | -b] for each row and entry b of rhs has column ncols free exactly
    when M x = rhs is solvable; its last kernel vector over its entry at
    ncols is then x, and the vectors before it span the kernel of M."""
    red = RowReducer(ncols + 1, tag)
    for row, b in zip(rows, rhs):
        red.add_row({**dict(enumerate(row)), ncols: -b})
    if ncols in red.rows:
        return None
    *kernel, last = red.kernel_basis()
    return (tuple(over(last.get(j, 0), last[ncols]) for j in range(ncols)),
            Subspace.spanned(kernel, ncols, tag))


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_augmented_kernel_solves(tag):
    rng = random.Random(43 if tag is FieldTag.QQ else 47)
    inconsistent = 0
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(_dense(rng, n, k, tag), tag)
        x0 = tuple(_entry(rng, tag) for _ in range(k))
        sol, ker = _augmented_solve(m.rows, m.apply(x0), k, tag)
        assert ker == m.kernel()
        assert m.apply(sol) == m.apply(x0)
        rhs = tuple(_entry(rng, tag) for _ in range(n))
        got = _augmented_solve(m.rows, rhs, k, tag)
        if got is None:
            inconsistent += 1
        else:
            sol, extra = got
            assert extra == m.kernel() and m.apply(sol) == rhs
    assert inconsistent > 0


def _sparse_rows(rows):
    return tuple({k: a for k, a in enumerate(r) if a} for r in rows)


@pytest.mark.parametrize("tag", [FieldTag.QQ, FieldTag.QI])
def test_subspace_matches_dense_reference(tag):
    rng = random.Random(53 if tag is FieldTag.QQ else 59)
    outside = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        u = _dense(rng, rng.randint(0, 4), n, tag)
        w = _dense(rng, rng.randint(0, 4), n, tag)
        red, pivots = _naive_rref(u, n, tag)
        # the dense public constructor and the sparse one give one RREF
        su = Subspace(u, n, tag)
        sparse = Subspace.spanned([clear_denominators(dict(r))[0] for r in _sparse_rows(u)],
                                  n, tag)
        for s in (su, sparse):
            assert s.basis == tuple(map(tuple, red))
            assert s.sparse_rows == _sparse_rows(red)
            assert s.pivots == tuple(pivots)
            assert s.dim == len(red) and s.ambient == n and s.tag is tag
        assert su == sparse and hash(su) == hash(sparse)
        # intersect: inside both spaces, dim(U + W) = dim U + dim W - dim(U cap W)
        sw = Subspace(w, n, tag)
        inter = su.intersect(sw)
        assert all(su.contains_vector(b) and sw.contains_vector(b) for b in inter.basis)
        assert inter.dim == su.dim + sw.dim - len(_naive_rref(u + w, n, tag)[0])
        assert inter == sw.intersect(su)
        # contains_vector: combinations of u are members; another vector is
        # one exactly when it leaves the naive rank unchanged
        coeffs = [_entry(rng, tag) for _ in u]
        member = tuple(sum((c * r[k] for c, r in zip(coeffs, u)), ZERO)
                       for k in range(n))
        assert su.contains_vector(member)
        x = tuple(_entry(rng, tag) for _ in range(n))
        inside = len(_naive_rref(u + [list(x)], n, tag)[0]) == len(red)
        assert su.contains_vector(x) == inside
        outside += not inside
    assert outside > 0


# ---------------------------------------------------------------------------
# vectors from outside are checked against the field, as entries are

class TestOutsideVectorsAreChecked:
    def test_apply_refuses_a_gaussian_over_the_rationals(self):
        with pytest.raises(FieldMismatchError):
            mat([[1, 0], [0, 2]]).apply((Scalar(1, 1), q(0)))

    def test_contains_vector_refuses_a_gaussian_over_the_rationals(self):
        s = Subspace([(q(1), q(0))], 2, FieldTag.QQ)
        with pytest.raises(FieldMismatchError):
            s.contains_vector((Scalar(1, 1), q(0)))

    def test_elements_of_the_field_still_pass(self):
        m = Matrix([[Scalar(1, 1), q(0)], [q(0), q(2)]], FieldTag.QI)
        assert m.apply((Scalar(0, 1), q(1))) == (Scalar(-1, 1), q(2))


# ---------------------------------------------------------------------------
# the fraction-free reducer over QQ and QI against the dense reference

BIG_PRIMES = (7919, 104729, 2 ** 31 - 1)
ORACLE_PRIME = 2 ** 64 - 59  # divides no denominator drawn here; 1 mod 4
# a square root of -1 mod ORACLE_PRIME: the image of i in the oracle
ORACLE_I = next(r for c in range(2, 50)
                if (r := pow(c, (ORACLE_PRIME - 1) // 4, ORACLE_PRIME)) ** 2 % ORACLE_PRIME
                == ORACLE_PRIME - 1)
# Gaussian-integer factors: Scalars with integer parts, as the kernels
# carry them
GAUSSIAN_FACTORS = (Scalar(1, 1).numerator, Scalar(2, -3).numerator, Scalar(0, -1).numerator)


def _qq_entry(rng):
    """Zero a third of the time, else a small numerator over 1, a small
    denominator or a large prime."""
    if rng.random() < 0.35:
        return q(0)
    return q(rng.choice([-9, -4, -3, -2, -1, 1, 2, 3, 5, 9]),
             rng.choice((1, 1, 2, 3, 6) + BIG_PRIMES))


def _qi_entry(rng):
    """A Gaussian rational whose two parts are drawn by _qq_entry."""
    return Scalar(_qq_entry(rng), _qq_entry(rng))


def _random_rows(rng, nrows, ncols, entry):
    """Random rows with negative leads (over QI, leads with a negative first
    part), a cancelling combination of two rows and a zero row mixed in."""
    rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    for r in rows:
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is not None and rng.random() < 0.5 and sort_key(r[lead]) > (0, 0):
            r[lead] = -r[lead]
    if nrows >= 2 and rng.random() < 0.6:
        i, j = rng.sample(range(nrows), 2)
        c = entry(rng) or q(1)
        rows.append([a - c * b for a, b in zip(rows[i], rows[j])])
    if rng.random() < 0.3:
        rows.append([q(0)] * ncols)
    rng.shuffle(rows)
    return rows


def _parts(a):
    return (a.re, a.im) if type(a) is Scalar else (a,)


def _mod_p(a):
    """The image of a rational or Gaussian rational in GF(ORACLE_PRIME),
    with i sent to ORACLE_I."""
    p = ORACLE_PRIME
    if type(a) is Scalar:
        return (_mod_p(a.re) + _mod_p(a.im) * ORACLE_I) % p
    return a.numerator * pow(a.denominator, -1, p) % p


def _rank_mod_p(rows):
    """Rank of the rows over GF(p), p = ORACLE_PRIME dividing no
    denominator: the image under a ring map, so at most the rank over QQ or
    QI, and equal to it unless p divides every maximal nonzero minor (over
    QI, a prime above p does).  A row is a dense sequence or a sparse dict
    {column: entry}; each is reduced against a reduced echelon basis mod p,
    kept sparse, so a row costs one step per basis pivot it holds."""
    p = ORACLE_PRIME
    basis = {}  # pivot column -> row with 1 there and 0 at the other pivots

    def subtract(row, f, piv):
        for j, b in piv.items():
            v = (row.get(j, 0) - f * b) % p
            if v:
                row[j] = v
            else:
                row.pop(j, None)

    for r in rows:
        row = {}
        for k, a in (r.items() if isinstance(r, dict) else enumerate(r)):
            if v := _mod_p(a):
                row[k] = v
        for c in [c for c in row if c in basis]:
            subtract(row, row[c], basis[c])
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        row = {j: v * inv % p for j, v in row.items()}
        for other in basis.values():
            if lead in other:
                subtract(other, other[lead], row)
        basis[lead] = row
    return len(basis)


def _naive_kernel(red, pivots, ncols):
    ker = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [q(0)] * ncols
        v[f] = q(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        ker.append(tuple(v))
    return ker


def _dict(v):
    return {k: a for k, a in enumerate(v) if a}


def _int_row(row, factor):
    """The row cleared of denominators, as integers or Gaussian integers,
    times factor."""
    den = math.lcm(1, *(a.denominator for a in row))
    return {k: a.numerator * (den // a.denominator) * factor for k, a in enumerate(row) if a}


def _reducer_matches_dense_reference(tag):
    rng = random.Random(61 if tag is FieldTag.QQ else 62)
    entry = _qq_entry if tag is FieldTag.QQ else _qi_entry
    seen = {"cancel": 0, "outside": 0, "singular": 0, "inconsistent": 0}
    nonreal = 0  # rows whose leading entry is not real
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(0, 6)
        rows = _random_rows(rng, m, n, entry)
        nonreal += sum(type(next((a for a in r if a), q(0))) is Scalar for r in rows)
        red, pivots = _naive_rref(rows, n, tag)
        mtx = Matrix(rows, tag, ncols=n)
        # rank, with the mod-p oracle; rref; kernel
        reducer = reducer_of(mtx)
        assert reducer.rank() == len(red) == _rank_mod_p(rows)
        seen["cancel"] += len(red) < len(rows)
        assert reducer.pivot_columns() == pivots
        assert reducer.rref_form().rows == tuple(map(tuple, red))
        assert mtx.kernel() == Subspace(_naive_kernel(red, pivots, n), n, tag)
        # the stored rows: primitive rows of integers or Gaussian integers
        # (content 1 over all parts) with a positive integer pivot
        reducer = RowReducer(n, tag)
        for row in rows:
            reducer.add_row(_dict(row))
        for p, row in reducer.rows.items():
            parts = [b for a in row.values() for b in _parts(a)]
            assert type(row[p]) is not Scalar and row[p] > 0
            assert all(b == int(b) for b in parts)
            assert math.gcd(*(int(b) for b in parts)) == 1
        assert reducer.rref_form().sparse_rows == _sparse_rows(red)
        # membership: combinations of the rows are members; x is one exactly
        # when its residue, x less x_p times the unit pivot row p, vanishes
        span = Subspace(rows, n, tag)
        coeffs = [entry(rng) for _ in rows]
        member = [sum((c * row[k] for c, row in zip(coeffs, rows)), q(0)) for k in range(n)]
        assert span.contains_sparse(_dict(member))
        x = [entry(rng) for _ in range(n)]
        residue = list(x)
        for row, p in zip(red, pivots):
            residue = [a - x[p] * b for a, b in zip(residue, row)]
        assert span.contains_sparse(_dict(x)) == (not any(residue))
        seen["outside"] += any(residue)
        # the augmented kernel of radical_axial, against the RREF of the
        # augmented rows: column n is free exactly when the naive RREF has
        # no pivot there, and the solution is the one that is 0 at the free
        # columns
        for rhs in (mtx.apply(x), tuple(entry(rng) for _ in rows)):
            aug, apiv = _naive_rref([row + [b] for row, b in zip(rows, rhs)], n + 1, tag)
            got = _augmented_solve(rows, rhs, n, tag)
            if n in apiv:
                seen["inconsistent"] += 1
                assert got is None
                continue
            want = [q(0)] * n
            for row, p in zip(aug, apiv):
                want[p] = row[n]
            assert got == (tuple(want), mtx.kernel())
        # inverse of a square sample
        sq = _random_rows(rng, n, n, entry)[:n]
        sq += [[q(0)] * n] * (n - len(sq))
        aug, apiv = _naive_rref([row + [q(int(i == j)) for j in range(n)]
                                 for i, row in enumerate(sq)], 2 * n, tag)
        if apiv[:n] != list(range(n)):
            seen["singular"] += 1
            with pytest.raises(DimensionMismatchError):
                Matrix(sq, tag).inverse()
        else:
            assert Matrix(sq, tag).inverse().rows == tuple(tuple(row[n:]) for row in aug)
    assert all(seen.values()), seen
    assert (nonreal > 0) == (tag is FieldTag.QI)


def test_fraction_free_reducer_matches_dense_reference():
    for tag in (FieldTag.QQ, FieldTag.QI):
        _reducer_matches_dense_reference(tag)


def _integer_row_entry_matches_add_row(tag):
    # add_int_row takes each row as integers times a nonzero factor, either
    # sign, and over QI also times a Gaussian factor; the stored rows, the
    # returned gains and every reading agree with add_row on the field rows
    rng = random.Random(89 if tag is FieldTag.QQ else 90)
    entry, signs = _qq_entry, (1, -1)
    if tag is FieldTag.QI:
        entry, signs = _qi_entry, (1, -1) + GAUSSIAN_FACTORS
    scaled = 0
    for _ in range(150):
        n, m = rng.randint(1, 7), rng.randint(0, 8)
        rows = _random_rows(rng, m, n, entry)
        plain, cleared = RowReducer(n, tag), RowReducer(n, tag)
        for row in rows:
            factor = rng.choice([1, 1, 2, 6, 35, 7919]) * rng.choice(signs)
            scaled += factor != 1
            assert cleared.add_int_row(_int_row(row, factor)) == plain.add_row(_dict(row))
            assert cleared.rows == plain.rows
        assert cleared.rank() == plain.rank() == _rank_mod_p(rows)
        assert cleared.rref_form() == plain.rref_form()
        assert cleared.kernel_basis() == plain.kernel_basis()
    assert scaled > 100


def test_integer_row_entry_matches_add_row():
    for tag in (FieldTag.QQ, FieldTag.QI):
        _integer_row_entry_matches_add_row(tag)


def test_mod_p_rank_oracle_on_larger_systems():
    # wider and taller systems than above, every denominator a large prime
    rng = random.Random(71)
    for _ in range(12):
        n, m = rng.randint(8, 20), rng.randint(8, 24)
        rows = [[q(rng.randint(-30, 30), rng.choice(BIG_PRIMES)) if rng.random() < 0.4
                 else q(0) for _ in range(n)] for _ in range(m)]
        for _ in range(3):  # dependent rows lower the rank
            i, j = rng.sample(range(m), 2)
            rows.append([a + q(rng.randint(-3, 3), 5) * b for a, b in zip(rows[i], rows[j])])
        mtx = Matrix(rows, FieldTag.QQ, ncols=n)
        rank = reducer_of(mtx).rank()
        assert rank == _rank_mod_p(rows)
        assert rank + mtx.kernel().dim == n


def _row_state(m):
    """The rows of m, in order, over both views, and the hash of a matrix
    built afresh from them, next to m's own."""
    return ([list(r.items()) for r in m.num], [list(r.items()) for r in m.sparse_rows],
            hash(m), hash(Matrix.from_int_rows(m.num, m.den, m.ncols, m.tag)))


@pytest.mark.parametrize("name,params,key,law_key", [
    ("B", {}, "X12", "FB"), ("JordanD", {"n": 4}, "family", "J12")])
def test_operations_never_mutate_rows(name, params, key, law_key):
    # rows are shared between matrices, subspaces and their readers, never
    # copied: no operation may change an operand's rows, their order or hash
    entry = catalog.build(name, params)
    alg, law = entry.algebra, entry.laws[law_key]
    tag, n, a = alg.tag, alg.dim, entry.axis_sets[key][0]
    grading = entry.gradings.get(law_key) or next(
        g for g in find_c2_gradings(law) if g.minus)
    rng = random.Random(83)
    m = alg.left_mult_matrix(a)
    t = tau_automorphism(alg, a, law, grading).matrix
    r = Matrix(_dense(rng, 3, n, tag), tag, ncols=n)
    u, w = (Subspace(_dense(rng, 2, n, tag), n, tag) for _ in range(2))
    eigen = eigen_decompose(alg, a, hints=law.values)
    operands = [m, t, r, u, w] + [sp for _, sp in eigen.pairs]
    before = [_row_state(o) for o in operands]
    x = tuple(_entry(rng, tag) for _ in range(n))
    m * t, t * m, m * _scalar_matrix(n, Rat(-3, 2), tag), r.transpose(), r.apply(x), t.inverse()
    reducer_of(r).rref_form(), r.kernel()
    char_poly(m), is_automorphism(alg, t), eigen.products()
    u.intersect(w), u.contains_vector(x)
    assert [_row_state(o) for o in operands] == before


def _assert_canonical(s):
    """s is a Subspace in canonical RREF: unit pivots in increasing columns,
    zero above and below each, and equal to the span of its own basis."""
    assert type(s) is Subspace
    pivots = s.pivots
    assert list(pivots) == sorted(set(pivots))
    for row, p in zip(s.basis, pivots):
        assert row[p] == ONE and not any(row[:p])
        assert not any(row[q] for q in pivots if q != p)
    assert s == Subspace(s.basis, s.ambient, s.tag)


CANONICAL_CASES = [pytest.param(item["name"], {}, id=item["name"])
                   for item in catalog.list_catalog() if not item["stub"]]
CANONICAL_CASES.append(pytest.param("JordanD", {"n": 6}, id="JordanD-n6"))


@pytest.mark.parametrize("name,params", CANONICAL_CASES)
def test_every_returned_subspace_is_canonical(name, params):
    # every route into Subspace the package takes builds the canonical RREF
    entry = catalog.build(name, params)
    alg = entry.algebra
    assert alg.dim <= 27
    ann = alg.annihilator()
    spaces = [ann]
    for form in alg.frobenius_space():
        spaces += [form.radical(), ann.intersect(form.radical())]
    for key, axes in entry.axis_sets.items():
        spaces.append(alg.subalgebra_closure(axes)[0])
        for a in axes:
            spaces.append(alg.left_mult_matrix(a).kernel())
            spaces += [sp for _, sp in eigen_decompose(alg, a).pairs]
        for law in entry.laws.values():
            try:
                cs = cocycle_space(alg, axes, law)
            except AxialError:
                continue
            spaces += [cs.space, cs.coboundaries, cs.space.intersect(cs.coboundaries)]
            spaces += [Cocycle([v], alg.dim, alg.tag).radical() for v in cs.space.sparse_rows]
    assert any(not s.is_zero() for s in spaces)
    for s in spaces:
        _assert_canonical(s)
