"""Eigen-analysis of multiplication operators and axis verification.

Eigenvalue discovery: candidate values from the fusion law and, when their
eigenspaces do not fill the space, every root in the base field of the
characteristic polynomial, rescaled to a monic polynomial over the
(Gaussian) integers: its roots modulo one Proth prime above twice a bound on
them give candidates, each tested exactly (field_roots).  An element whose
eigenspaces do not fill the space is not semisimple.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .algebra import _accumulate
from .errors import DimensionMismatchError, NotIdempotentError, NotSemisimpleError
from .fusion import FusionLaw
from .linalg import Matrix, RowReducer, Subspace, sparse_combine
from .scalars import (ONE, FieldTag, Rat, Scalar, clear_denominators, over,
                      render_scalar, sort_key)


# ---------------------------------------------------------------------------
# characteristic polynomial and its roots in the field

def char_poly(m):
    """Monic characteristic polynomial of a square matrix via the
    Faddeev-LeVerrier recursion; returns [1, c1, ..., cn] with
    p(t) = t^n + c1 t^(n-1) + ... + cn.

    The recursion runs on the integer (Gaussian-integer) form N = s m:
    M_1 = N, c_k = -tr(M_k) / k and M_(k+1) = N (M_k + c_k I).  The c_k are
    the coefficients of the characteristic polynomial of N, which are
    integers (Gaussian integers), so the division by k is exact; the
    coefficients of m are c_k / s^k."""
    if m.nrows != m.ncols:
        raise DimensionMismatchError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    rows, s = m.num, m.den
    coeffs = [ONE]
    mk = rows
    for k in range(1, n + 1):
        ck = -sum(r.get(i, 0) for i, r in enumerate(mk)) // k
        coeffs.append(over(ck, s ** k))
        if k < n:
            # M_k + c_k I, in new rows: M_1's rows are m's, shared
            shifted = [{**r, i: r.get(i, 0) + ck} for i, r in enumerate(mk)]
            mk = [sparse_combine(shifted, r) for r in rows]
    return coeffs


def _parts(c):
    """(re, im) of a field element, an integer or a Gaussian integer."""
    return (c.re, c.im) if type(c) is Scalar else (c, 0)


def _trim(a):
    """a without its top zero coefficients (lists lowest degree first)."""
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a, g, p):
    """(quotient, remainder) of the integer coefficient list a by the monic g
    over F_p, lists lowest degree first, both reduced mod p."""
    a, d = a[:], len(g) - 1
    quotient = []
    for k in range(len(a) - d - 1, -1, -1):
        c = a.pop() % p
        quotient.append(c)
        if c:
            for j in range(d):
                a[k + j] -= c * g[j]
    return quotient[::-1], [c % p for c in a]


def _mulmod(a, b, g, p):
    """a b mod the monic g over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _divmod(out, g, p)[1]


def _powmod(d, e, g, p):
    """(x + d)^e mod the monic g over F_p, for e >= 1: left to right, each
    step a square and, on a set bit, a product with x + d."""
    out = _divmod([d, 1], g, p)[1]
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, g, p)
        if bit == "1":
            out = _divmod([a + d * b for a, b in zip([0] + out, out + [0])], g, p)[1]
    return out


def _gcd(a, b, p):
    """The monic gcd over F_p of the monic a and of b, with no top zeros."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _trim(_divmod(a, b, p)[1])
    return a


def _split(g, p):
    """The roots in F_p of the monic g, a product of distinct linear factors:
    h = gcd(g, (x + d)^((p - 1) / 2) - 1) holds the roots r with r + d a
    nonzero square, and two distinct roots are separated by (p - 1) / 2 of
    the values of d, so some d = 1, 2, ... splits g."""
    if len(g) < 3:
        return [-g[0] % p] if len(g) == 2 else []
    for d in itertools.count(1):
        w = _powmod(d, p >> 1, g, p)
        w[0] = (w[0] - 1) % p
        h = _gcd(g, _trim(w), p)
        if 1 < len(h) < len(g):
            return _split(h, p) + _split(_divmod(g, h, p)[0], p)


def _roots_mod(f, p):
    """The distinct roots in F_p of the monic f, those of gcd(x^p - x, f):
    x^p - x = x (w - 1) (w + 1) for w = x^((p - 1) / 2), so they are 0 when
    f(0) = 0 and the roots of gcd(f, w - 1) and of gcd(f, w + 1)."""
    w = _powmod(0, p >> 1, f, p) or [0]  # [] when f = 1
    roots = [] if f[0] else [0]
    for c in (1, -1):
        roots += _split(_gcd(f, _trim([(w[0] - c) % p, *w[1:]]), p), p)
    return roots


def _proth_prime(bound):
    """(p, iota): the least prime p > bound of the form k 2^e + 1 with k odd,
    k < 2^e and e >= 2, and iota with iota^2 = -1 mod p.  Proth's theorem:
    such a p is prime when a^((p - 1) / 2) = -1 mod p for some a, and then
    iota = a^((p - 1) / 4).  A prime p has such an a, a quadratic
    non-residue; for a composite p the least prime factor a of p leaves
    a^((p - 1) / 2) neither 1 nor -1, which ends the witness loop."""
    lo = bound + 1
    for p in heapq.merge(*(range(lo + ((1 << e) + 1 - lo) % (2 << e), 1 << 2 * e, 2 << e)
                           for e in range(2, lo.bit_length() + 2))):
        for a in itertools.count(2):
            r = pow(a, p >> 1, p)
            if r == p - 1:
                return p, pow(a, p >> 2, p)
            if r != 1:
                break


def _is_root(coeffs, x, y):
    """Whether x + iy is a root of the polynomial with Gaussian-integer
    coefficients (re, im), high degree first: Horner in Z[i]."""
    ar = ai = 0
    for cr, ci in coeffs:
        ar, ai = ar * x - ai * y + cr, ar * y + ai * x + ci
    return not (ar or ai)


def field_roots(m):
    """The roots in the field m.tag of char_poly(m), once each in sort_key
    order.

    Lemma.  With s = m.den, P(u) = s^n p(u / s) = sum c_k u^(n - k) is monic
    over Z[i], its coefficients the integers (Gaussian integers) c_k of
    char_poly's recursion.  Z[i] is integrally closed, so every root of P in
    the field is a Gaussian integer x + iy, s times a root of p, with
    |x|, |y| <= M, the largest row sum of |re| + |im| over the entries of
    N = s m (Gershgorin).  Let p be the prime of _proth_prime above 2M + 1
    and iota^2 = -1 mod p.  The ring maps Z[i] -> F_p that send i to iota
    and to -iota take x + iy to r1 = x + iota y and r2 = x - iota y, roots
    of the images P_iota and P_-iota, so x = (r1 + r2) / 2 and
    y = (r1 - r2) / (2 iota) mod p; as |x|, |y| < p / 2 they are the
    residues of least absolute value.  So the candidates read so from every
    pair of distinct roots of P_iota and P_-iota mod p hold every root, and
    those that are roots of P in Z[i] are all of them.  Over the rationals
    y = 0 and r1 = r2 = x: each root of P mod p is one candidate.  Each
    root is divided by s once."""
    s = m.den
    coeffs = [(int(a.numerator * (s ** k // a.denominator)),
               int(b.numerator * (s ** k // b.denominator)))
              for k, (a, b) in enumerate(map(_parts, char_poly(m)))]
    bound = max((sum(abs(a) + abs(b) for a, b in map(_parts, r.values())) for r in m.num),
                default=0)
    p, iota = _proth_prime(2 * int(bound) + 1)
    p_iota, p_minus_iota = ([(a + j * b) % p for a, b in reversed(coeffs)] for j in (iota, -iota))
    firsts = _roots_mod(p_iota, p)
    pairs = (zip(firsts, firsts) if m.tag is FieldTag.QQ
             else itertools.product(firsts, _roots_mod(p_minus_iota, p)))
    half, half_iota, h = pow(2, -1, p), pow(2 * iota, -1, p), p // 2
    roots = []
    for r1, r2 in pairs:
        x, y = ((r1 + r2) * half + h) % p - h, ((r1 - r2) * half_iota + h) % p - h
        if _is_root(coeffs, x, y):
            roots.append(Scalar(over(x, s), over(y, s)) if y else over(x, s))
    return sorted(roots, key=sort_key)


# ---------------------------------------------------------------------------

def eigen_decompose(algebra, x, hints=()):
    """The Eigenbasis of the multiplication operator of x.

    Candidates: hints, then (if they do not already fill the space) every
    root of the characteristic polynomial in the base field.
    """
    n = algebra.dim
    tag = algebra.tag
    # L_x = N / den; ker(L_x - (p/q) I) is the kernel of the integer rows
    # q N_k - p den e_k
    xs, dx = clear_denominators(algebra._sparse(x))
    rows, den = algebra.left_mult_int(xs), dx * algebra._int_den
    spaces = {}
    candidates = sorted(set(hints), key=sort_key)
    for roots_found in (False, True):
        for lam in candidates:
            if lam in spaces:  # a root that was a hint
                continue
            tag.check(lam)
            q, shift = lam.denominator, lam.numerator * den
            red = RowReducer(n, tag)
            for k, row in enumerate(rows):
                row = {j: q * a for j, a in row.items()}
                row[k] = row.get(k, 0) - shift
                red.add_int_row(row)
            if red.rank() < n:
                spaces[lam] = red.kernel()
        if roots_found or sum(space.dim for space in spaces.values()) == n:
            break
        candidates = field_roots(Matrix.from_int_rows(rows, den, n, tag))  # L_x
    return Eigenbasis(algebra, sorted(spaces.items(), key=lambda p: sort_key(p[0])))


class Eigenbasis:
    """The one analysis of an element x that the axis check, the minimal
    law, the cocycle conditions and the Miyamoto map share: x's eigenvalues
    with their eigenspaces, pairs = [(eigenvalue, Subspace)] in eigenvalue
    order, each eigenspace the Matrix of its RREF.

    When x is semisimple it also keeps two Matrix objects, on whose integer
    forms components(), products() and the Miyamoto map run, touching only
    nonzero entries: eigenvectors, whose row r is the eigenvector v_r at
    eigenbasis position r, and its inverse coordinates, whose row j holds
    the eigenbasis coordinates of b_j.  eigenvectors is built from the
    eigenspace forms over their lcm; should lowest terms divide those by
    g > 1, every coordinate of products() and every condition (2) row scales
    by one positive constant, so no position and no answer changes.  The
    field view eigenvectors.sparse_rows is built only for a law violation.
    products() is computed once, on first use."""

    def __init__(self, algebra, pairs):
        self.algebra = algebra
        self.pairs = pairs
        self.semisimple = self.total_dim() == algebra.dim
        self._products = None
        if not self.semisimple:
            return
        dvec = math.lcm(1, *(space.den for _, space in pairs))
        vectors = self.eigenvectors = Matrix.from_int_rows(
            [{j: a * (dvec // space.den) for j, a in r.items()}
             for _, space in pairs for r in space.num], dvec, algebra.dim, algebra.tag)
        inverse = self.coordinates = vectors.inverse()
        self.product_den = inverse.den * vectors.den ** 2 * algebra._int_den
        self.owner = []   # position -> index of its eigenvalue in blocks
        self.blocks = []  # (eigenvalue, range of its positions)
        for t, (lam, space) in enumerate(pairs):
            start = len(self.owner)
            self.owner.extend([t] * space.dim)
            self.blocks.append((lam, range(start, len(self.owner))))

    def spectrum(self):
        return [lam for lam, _ in self.pairs]

    def eigenspace(self, lam):
        """The lam-eigenspace; the zero Subspace when lam is no eigenvalue."""
        for mu, space in self.pairs:
            if mu == lam:
                return space
        return Subspace.zero_space(self.algebra.dim, self.algebra.tag)

    def total_dim(self):
        return sum(space.dim for _, space in self.pairs)

    def _require_semisimple(self):
        if not self.semisimple:
            raise DimensionMismatchError("eigenbasis of a non-semisimple element")

    def components(self, y):
        """Split the sparse element y; returns {eigenvalue: sparse component}
        with zero components omitted, in eigenvalue order.  With y cleared
        to integers over dy, its coordinates sum y_j coordinates[j], and each
        component sums coords[r] eigenvectors[r] over the positions r of its
        eigenvalue, integers over dy and the two denominators."""
        self._require_semisimple()
        vectors, inverse = self.eigenvectors, self.coordinates
        y, dy = clear_denominators(y)
        coords = sparse_combine(inverse.num, y)
        den = inverse.den * dy * vectors.den
        out = {}
        for lam, rs in self.blocks:
            comp = sparse_combine(vectors.num, {r: coords[r] for r in rs if r in coords})
            if comp:
                out[lam] = {k: over(v, den) for k, v in comp.items()}
        return out

    def eigenvalues_at(self, coords):
        """The eigenvalues of the positions of coords, once each and in
        eigenvalue order: by the lemma of products(), the components that
        the vector with these eigenbasis coordinates has."""
        return [self.blocks[t][0] for t in sorted({self.owner[r] for r in coords})]

    def products(self):
        """[(lam, mu, nus, [(r, q, coords)])]: one entry per eigenvalue pair
        lam <= mu in eigenvalue order, listing every pair of eigenbasis
        positions r of lam and q of mu with coords, the eigenbasis
        coordinates of v_r v_q: the zero-free integer dict {p: c} (Gaussian
        integers over QI) with the product equal to sum c v_p / product_den.
        nus is the frozenset of the eigenvalues of the positions that occur.

        Lemma: the eigenvectors are independent, so the nu-component of the
        product, sum c v_p over the positions p of nu, is nonzero iff
        some coordinate at a position of nu is nonzero.  So the components
        that occur are read off owner[p], and only condition2_rows rebuilds
        component vectors.

        coords sums p_k coordinates[k] over the integer product p of the
        integer eigenvectors, left with its cancelled entries by _accumulate,
        so product_den is the coordinates' denominator times the square of
        the eigenvectors' times _int_den.  (Spreading each term of p over
        coordinates[k] at once would save p, but costs dim^4 per pair on a
        dense algebra, where this costs dim^3.)  The product is commutative,
        so within a block lam = mu each unordered pair is computed once and
        both orders share its dict.  Computed on first call and kept."""
        self._require_semisimple()
        if self._products is not None:
            return self._products
        rows, vectors = self.algebra._int_rows, self.eigenvectors.num
        inverse = self.coordinates.num
        out = []
        for s, (lam, rs) in enumerate(self.blocks):
            for mu, qs in self.blocks[s:]:
                items = []
                seen = {}  # (r, q) -> coords, when lam = mu
                same = mu == lam
                for r in rs:
                    x = vectors[r]
                    for q in qs:
                        if same and q < r:  # the pair (q, r), computed already
                            coords = seen[(q, r)]
                        else:
                            coords = seen[(r, q)] = sparse_combine(
                                inverse, _accumulate(rows, x, vectors[q]))
                        items.append((r, q, coords))
                positions = set().union(*(coords for *_, coords in items))
                out.append((lam, mu, frozenset(self.eigenvalues_at(positions)), items))
        self._products = out
        return out


@dataclass
class AxisReport:
    idempotent: bool     # a is a nonzero idempotent
    eigen: Eigenbasis
    primitive: bool = False
    violations: list = field(default_factory=list)

    @property
    def is_axis(self):
        return not self.violations


def check_axis(algebra, a, law):
    """Verify that a is an axis for the law: a nonzero idempotent (the zero
    element is recorded as not_idempotent), semisimple, Spec inside the law
    values, and eigenspace products inside star cells (law_violations)."""
    a = tuple(a)
    report_violations = []
    idem = any(a) and algebra.is_idempotent(a)
    if not idem:
        report_violations.append(("not_idempotent", a))
    eigen = eigen_decompose(algebra, a, hints=law.values)
    if not eigen.semisimple:
        report_violations.append(("not_semisimple", eigen.total_dim()))
    primitive = eigen.semisimple and eigen.eigenspace(ONE).dim == 1
    return AxisReport(idem, eigen, primitive, report_violations + law_violations(eigen, law))


def law_violations(eigen, law):
    """The law verdict on an Eigenbasis, which check_axis reports and
    extension_axiality refuses on: spectrum_outside_law, else one
    fusion_violation (lam, mu, nu, x, y) per component nu of an eigenvector
    product xy outside lam*mu, in products() order."""
    extra = [lam for lam in eigen.spectrum() if lam not in law.value_set]
    if extra or not eigen.semisimple:
        return [("spectrum_outside_law", extra)] if extra else []
    found = [(lam, mu, nu, r, q) for lam, mu, nus, items in eigen.products()
             if not nus <= (cell := law.star(lam, mu))
             for r, q, coords in items for nu in eigen.eigenvalues_at(coords) if nu not in cell]
    if not found:  # a passing axis builds no field view of its eigenvectors
        return []
    vectors, element = eigen.eigenvectors.sparse_rows, eigen.algebra.element
    return [("fusion_violation", (lam, mu, nu, element(vectors[r]), element(vectors[q])))
            for lam, mu, nu, r, q in found]


def law_refusal(eigen, a, law):
    """The refusal of the axis a on the first entry of law_violations, or
    None: its eigenvalues outside the law, or the cell that an eigenspace
    product escapes, with every component of that product outside it."""
    if not (violations := law_violations(eigen, law)):
        return None
    kind, found = violations[0]
    if kind == "spectrum_outside_law":
        return (f"axis {eigen.algebra.render_element(a)} has eigenvalues outside the "
                f"law: [{', '.join(map(render_scalar, found))}]")
    bad = [v[2] for _, v in violations if v[:2] + v[3:] == found[:2] + found[3:]]
    return (f"eigenspace product escapes the law cell ({render_scalar(found[0])}, "
            f"{render_scalar(found[1])}): components at [{', '.join(map(render_scalar, bad))}]")


def render_violation(algebra, violation):
    """A violation tuple as a list of strings: scalars by render_scalar,
    algebra elements by render_element, other lists and tuples bracketed."""
    def item(x):
        if isinstance(x, (Rat, Scalar)):
            return render_scalar(x)
        if (isinstance(x, tuple) and len(x) == algebra.dim
                and all(isinstance(c, (Rat, Scalar)) for c in x)):
            return algebra.render_element(x)
        if isinstance(x, (tuple, list)):
            return "[" + ", ".join(item(c) for c in x) + "]"
        return str(x)
    return [item(x) for x in violation]


def axis_eigenbasis(algebra, a, hints=()):
    """The Eigenbasis of the axis candidate a, from eigen_decompose with the
    given hints: the one check that raises for a candidate that is not an
    axis.  Raises NotIdempotentError unless a is a nonzero idempotent, then
    NotSemisimpleError unless L_a is semisimple."""
    a = tuple(a)
    if not any(a) or not algebra.is_idempotent(a):
        raise NotIdempotentError(
            f"axis candidate {algebra.render_element(a)} is not a nonzero idempotent")
    eigen = eigen_decompose(algebra, a, hints)
    if not eigen.semisimple:
        raise NotSemisimpleError(
            f"axis candidate {algebra.render_element(a)} is not semisimple")
    return eigen


def minimal_law(algebra, axes):
    """The smallest fusion law making every member of axes an axis:
    values = union of spectra, cells = observed product components.  The
    first member of each orbit under algebra.symmetry passes
    axis_eigenbasis, without hints, in list order; by the lemma of
    Algebra.orbit_maps the other members add no value and no cell, and
    raise nothing that their first member did not."""
    values = set()
    table = {}
    axes = list(axes)
    for a, orbit in zip(axes, algebra.orbit_maps(axes)):
        if orbit is not None:
            continue
        eigen = axis_eigenbasis(algebra, a)
        values.update(eigen.spectrum())
        for lam, mu, nus, _items in eigen.products():
            if nus:
                table[(lam, mu)] = table.get((lam, mu), frozenset()).union(nus)
    return FusionLaw(values, table, algebra.tag)


@dataclass
class AxialCertificate:
    reports: list
    closure_dim: int
    max_word_length: int
    violations: list

    @property
    def certified(self):
        return not self.violations


def check_axial_algebra(algebra, axes, law):
    """Full certification: every axis passes check_axis and the axes generate
    the whole algebra."""
    reports = [check_axis(algebra, a, law) for a in axes]
    violations = []
    for a, rep in zip(axes, reports):
        for v in rep.violations:
            violations.append((algebra.render_element(a), *v))
    closure, m = algebra.subalgebra_closure(axes)
    if not closure.is_full():
        violations.append(("generation_fails", closure.dim, algebra.dim))
    return AxialCertificate(reports, closure.dim, m, violations)
