"""Miyamoto involutions from C2-graded fusion laws, verified automorphism
matrices, bounded group and axis-set closures, and flip detection for
two-generated algebras."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import is_automorphism
from .errors import AxialError, DimensionMismatchError, FieldMismatchError
from .linalg import Matrix, sparse_combine
from .spectral import axis_eigenbasis, law_refusal


@dataclass(frozen=True)
class AutMatrix:
    matrix: Matrix

    def apply(self, x):
        return self.matrix.apply(x)


def tau_automorphism(algebra, a, law, grading):
    """The involution acting as +1 on plus-graded and -1 on minus-graded
    eigenspaces of the axis; verified multiplicative before returning.  The
    axis passes axis_eigenbasis with the law's values as hints, so the zero
    element, whose sign map would be the identity, is refused."""
    eigen = axis_eigenbasis(algebra, a, law.values)
    signs = [grading.sign(lam) for lam, _ in eigen.blocks]
    # column j is tau(e_j) = sum +-c_r eigenvectors[r] over the coordinates
    # c_r of e_j, row j of coordinates, signed by r's eigenvalue: integers
    # over the two denominators
    vectors, inverse = eigen.eigenvectors, eigen.coordinates
    cols = [sparse_combine(vectors.num, {r: signs[eigen.owner[r]] * c for r, c in row.items()})
            for row in inverse.num]
    m = Matrix.from_int_rows(cols, inverse.den * vectors.den, algebra.dim, algebra.tag).transpose()
    if not is_automorphism(algebra, m):
        # an axis that fails the law is refused as the cocycle gate refuses
        # it; otherwise the grading is invalid for the law
        raise AxialError(law_refusal(eigen, a, law) or
                         "eigenspace sign map is not an automorphism (grading "
                         "incompatible with the observed products)")
    return AutMatrix(m)


@dataclass
class GroupClosure:
    elements: list      # AutMatrix, BFS order, identity first
    completed: bool

    @property
    def order(self):
        return len(self.elements)


def group_closure(generators, cap=200):
    """Breadth-first closure of the generated matrix group, up to cap
    elements; completed=False when the cap is hit.  The matrices, keyed by
    their canonical integer forms, are multiplied on those forms."""
    if not generators:
        raise AxialError("group closure needs at least one generator")
    tag = generators[0].matrix.tag
    n = generators[0].matrix.nrows
    # each generator and its inverse: the errors are those of inverting
    # every generator and then multiplying by each
    pairs = [(g.matrix, g.matrix.inverse()) for g in generators]
    for g in generators:
        if g.matrix.tag is not tag:
            raise FieldMismatchError("matrices over different fields")
        if g.matrix.nrows != n:
            raise DimensionMismatchError("inner dimensions differ")
    # a repeated generator (an involution is its own inverse) only repeats
    # products already seen
    gens = list(dict.fromkeys(m for pair in pairs for m in pair))
    # BFS order is insertion order: the list grows while it is walked
    elements = [Matrix.identity(n, tag)]
    seen = set(elements)
    completed = True
    for m in elements:
        for g in gens:
            prod = m * g
            if prod in seen:
                continue
            if len(seen) >= cap:
                completed = False
                break
            seen.add(prod)
            elements.append(prod)
        if not completed:
            break
    return GroupClosure([AutMatrix(m) for m in elements], completed)


@dataclass
class AxisClosure:
    axes: list
    completed: bool
    taus: dict  # axis -> its AutMatrix, for every axis whose map was built


def axis_closure(algebra, axes, law, grading, cap=200):
    """Repeatedly apply the Miyamoto maps of the current axes to the current
    axes until stable, or report cap_exceeded with the partial set.  The
    maps of the given axes are built first, in list order."""
    current = []
    seen = set()
    for a in axes:
        a = tuple(a)
        if a not in seen:
            seen.add(a)
            current.append(a)
    taus = {}
    # a round starts while some axis has no map: the axes of current keep
    # their order, so those are the last len(current) - len(taus)
    while len(taus) < len(current):
        for a in current[len(taus):]:
            taus[a] = tau_automorphism(algebra, a, law, grading)
        for a in current:
            for t in taus.values():
                img = t.apply(a)
                if img not in seen:
                    if len(seen) >= cap:
                        return AxisClosure(current, False, taus)
                    seen.add(img)
                    current.append(img)
    return AxisClosure(current, True, taus)


def find_flip(algebra, a1, a2):
    """Automorphism swapping two generating axes, or None.

    A linear map phi is an automorphism iff its graph {(x, phi x)} is a
    subalgebra of A + A.  The subalgebra S generated by (a1, a2) and
    (a2, a1) is the set of pairs (w, mirror w), for w a combination of words
    in a1 and a2 and mirror w the same combination with a1 and a2 swapped.
    So a flip exists iff S is a graph: its projection to the first summand
    is onto (else a1 and a2 do not generate A, and AxialError is raised) and
    it meets the second summand in zero (else None).  Row i of the RREF of
    S is then (e_i, phi e_i).  The map is verified before it is returned.
    """
    a1, a2 = tuple(a1), tuple(a2)
    n = algebra.dim
    if a1 == a2:
        return AutMatrix(Matrix.identity(n, algebra.tag))
    span, _ = algebra.direct_sum(algebra).subalgebra_closure([a1 + a2, a2 + a1])
    rows = span.matrix.num
    if sum(next(iter(row)) < n for row in rows) < n:
        raise AxialError("the two elements do not generate the algebra")
    if len(rows) > n:
        return None
    images = [{j - n: c for j, c in row.items() if j >= n} for row in rows]
    m = Matrix.from_int_rows(images, span.matrix.den, n, algebra.tag).transpose()
    if not is_automorphism(algebra, m):
        return None
    if m.apply(a1) != a2 or m.apply(a2) != a1:
        return None
    return AutMatrix(m)
