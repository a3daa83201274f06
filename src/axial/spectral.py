"""Eigen-analysis of multiplication operators and axis verification.

Eigenvalue discovery: candidate values from the fusion law plus an integer
root scan of the characteristic polynomial, rescaled to a monic polynomial
over the (Gaussian) integers.  Over the Gaussian rationals the scan covers
its rational roots and the roots of the linear/quadratic factor left after
deflating by already-found eigenvalues; when the eigenspaces found still do
not fill the space, the spectrum is reported as undetermined (and the element
as not semisimple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import _accumulate
from .errors import DimensionMismatchError, NotIdempotentError, NotSemisimpleError
from .fusion import FusionLaw
from .linalg import Matrix, RowReducer, Subspace, sparse_combine
from .scalars import (ONE, FieldTag, Rat, Scalar, clear_denominators, over,
                      render_scalar, scalar_sqrt, sort_key)


# ---------------------------------------------------------------------------
# characteristic polynomial and root scans

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


def root_bound(m):
    """A rational B >= |lam| for every eigenvalue lam of the square matrix m:
    the largest row sum of |re| + |im| over its entries (Gershgorin)."""
    return over(max((sum(abs(a) + abs(b) for a, b in map(_parts, r.values()))
                     for r in m.num), default=0), m.den)


def _scale_divisors(dens):
    """The divisors, ascending, of the least t > 0 with dens[k - 1] | t^k
    for every k, so t is the last: t has each prime q of the lcm of dens,
    found by trial division, to the power max ceil(v / k) over the q-adic
    valuations v of dens[k - 1]."""
    rest = math.lcm(1, *dens)
    divisors, q = [1], 2
    while rest > 1:
        if q * q > rest:
            q = rest  # the rest is prime
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            e = 0
            for k, d in enumerate(dens, 1):
                v = 0
                while d % q == 0:
                    d //= q
                    v += 1
                e = max(e, -(-v // k))
            divisors = [d * q ** j for j in range(e + 1) for d in divisors]
        q += 1
    return sorted(divisors)


def _divisors(n, bound):
    """The divisors d <= bound of the integer n > 0, ascending, in
    O(min(bound, sqrt n)) steps: a divisor above sqrt n that is at most
    bound has its cofactor below both."""
    low, high = [], []
    d = 1
    while d <= bound and d * d <= n:
        if n % d == 0:
            low.append(d)
            e = n // d
            if e != d and e <= bound:
                high.append(e)
        d += 1
    return low + high[::-1]


def _deflate(re, im, x, y):
    """Divide P = re + i im (coefficient lists of integers) by t - (x + i y)
    by Horner's rule: (quotient re, quotient im, whether the remainder
    P(x + i y) is zero)."""
    qr, qi = [], []
    ar = ai = 0
    for cr, ci in zip(re, im):
        ar, ai = ar * x - ai * y + cr, ar * y + ai * x + ci
        qr.append(ar)
        qi.append(ai)
    return qr[:-1], qi[:-1], not (qr[-1] or qi[-1])


def field_roots(coeffs, bound, tag, known=()):
    """The roots inside the field tag of the monic polynomial p = [1, a1,
    ..., an] (high degree first), given a rational bound >= |lam| for every
    root lam: (roots, complete), the roots once each in sort_key order;
    complete means p certainly has no further roots in the field.

    For the least t > 0 that makes a_k t^k integral for every k,
    P(u) = t^n p(u / t) is monic over Z[i], which is integrally closed: its
    roots t lam in the field lie in Z[i] (Gauss's lemma).  A rational root
    lam = p / q in lowest terms has q | t, as t lam is an integer, and p | D
    a_m for the trailing nonzero coefficient a_m and the lcm D of the
    denominators of the a_k (the rational root theorem on D p, over Z[i]).
    The scan tries +-(t / q) p for those q and those p <= t bound, keeping a
    candidate where the real and the imaginary parts of P both vanish; over
    the rationals that finds every root.  Over the Gaussian rationals P is
    then deflated in Z[i] by the roots found and by every known value lam
    with t lam in Z[i], and a remaining monic linear or quadratic factor is
    solved there.  Each root is divided by t once, at the end."""
    dens = [math.lcm(*(a.denominator for a in _parts(c))) for c in coeffs]
    scales = _scale_divisors(dens[1:])
    t = scales[-1]
    re, im = [], []
    for k, c in enumerate(coeffs):
        x, y = (a * t ** k for a in _parts(c))
        re.append(x.numerator)
        im.append(y.numerator)
    roots = set()  # (re, im) of the roots of P
    while len(re) > 1 and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
        roots.add((0, 0))
    if len(re) > 1:
        top = bound.numerator * t // bound.denominator  # >= |t lam|
        last = (a.numerator for a in _parts(coeffs[len(re) - 1] * math.lcm(*dens)))
        for r in {e * p for p in _divisors(math.gcd(*last), top) for e in scales if e * p <= top}:
            for x in (r, -r):
                if _deflate(re, im, x, 0)[2]:
                    roots.add((x, 0))
    complete = tag is FieldTag.QQ
    if not complete:
        hinted = set()
        for lam in known:
            x, y = (a * t for a in _parts(lam))
            if x.denominator == 1 and y.denominator == 1:
                hinted.add((x.numerator, y.numerator))
        for x, y in roots | hinted:
            while len(re) > 1:
                qr, qi, exact = _deflate(re, im, x, y)
                if not exact:
                    break
                re, im = qr, qi
                roots.add((x, y))
        if len(re) == 2:
            roots.add((-re[1], -im[1]))
        elif len(re) == 3:
            # t^2 + b t + c: its roots (-b +- w) / 2 lie in Z[i], and so does
            # w, a square root of b^2 - 4c
            (_, br, cr), (_, bi, ci) = re, im
            w = scalar_sqrt(Scalar(br * br - bi * bi - 4 * cr, 2 * br * bi - 4 * ci), tag)
            if w is not None:
                wr, wi = (a.numerator for a in _parts(w))
                roots.add(((-br + wr) // 2, (-bi + wi) // 2))
                roots.add(((-br - wr) // 2, (-bi - wi) // 2))
        complete = len(re) <= 3
    return sorted((Scalar(over(x, t), over(y, t)) for x, y in roots), key=sort_key), complete


# ---------------------------------------------------------------------------

def eigen_decompose(algebra, x, hints=()):
    """The Eigenbasis of the multiplication operator of x.

    Candidates: hints, then (if they do not already fill the space) all roots
    of the characteristic polynomial discoverable in the base field.
    """
    n = algebra.dim
    tag = algebra.tag
    # L_x = N / den; ker(L_x - (p/q) I) is the kernel of the integer rows
    # q N_k - p den e_k
    xs, dx = clear_denominators(algebra._sparse(x))
    rows, den = algebra.left_mult_int(xs), dx * algebra._int_den
    pairs = []
    seen = set()
    complete = True
    candidates = sorted(set(hints), key=sort_key)
    for roots_scanned in (False, True):
        for lam in candidates:
            if lam in seen:
                continue
            seen.add(lam)
            tag.check(lam)
            q, shift = lam.denominator, lam.numerator * den
            red = RowReducer(n, tag)
            for k, row in enumerate(rows):
                row = {j: q * a for j, a in row.items()}
                row[k] = row.get(k, 0) - shift
                red.add_int_row(row)
            if red.rank() < n:
                pairs.append((lam, red.kernel()))
        if roots_scanned or sum(space.dim for _, space in pairs) == n:
            break
        m = Matrix.from_int_rows(rows, den, n, tag)  # L_x
        candidates, complete = field_roots(char_poly(m), root_bound(m), tag, known=seen)
    pairs.sort(key=lambda p: sort_key(p[0]))
    return Eigenbasis(algebra, pairs, complete)


class Eigenbasis:
    """The one analysis of an element x that the axis check, the minimal
    law, the cocycle conditions and the Miyamoto map share: x's eigenvalues
    with their eigenspaces, pairs = [(eigenvalue, Subspace)] in eigenvalue
    order, each eigenspace the Matrix of its RREF.  spectrum_complete is
    False when root finding over the Gaussian rationals may have missed
    values.

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

    def __init__(self, algebra, pairs, complete):
        self.algebra = algebra
        self.pairs = pairs
        self.semisimple = self.total_dim() == algebra.dim
        self.spectrum_complete = complete or self.semisimple
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
        kind = "spectrum_undetermined" if not eigen.spectrum_complete else "not_semisimple"
        report_violations.append((kind, eigen.total_dim()))
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
    Algebra.orbit_firsts the other members add no value and no cell, and
    raise nothing that their first member did not."""
    values = set()
    table = {}
    axes = list(axes)
    for a, first in zip(axes, algebra.orbit_firsts(axes)):
        if not first:
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
