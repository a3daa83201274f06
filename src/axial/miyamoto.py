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
    maps are built in the order of the axes, the given axes first.

    Lemma: an automorphism g carries the maps along.  L_g(a) = g L_a g^-1,
    so g maps the lambda-eigenspace of a onto that of g(a), and
    tau_g(a) = g tau_a g^-1.  So tau_automorphism runs only on the first
    given axis of each orbit (Algebra.orbit_maps).  A later member g(a) of
    an orbit gets g tau_a g^-1, g a signed permutation, and a closure image
    tau_c(a) gets tau_c tau_a tau_c, tau_c being an involution.  Each map
    is a product of automorphisms already verified: the generators, verified
    when the algebra was built, and the maps of tau_automorphism.  It equals
    the map tau_automorphism would build, and a member is reached only after
    its first member passed, so the answers, the refusals and their order
    are those of building every map directly."""
    current = []
    seen = set()
    for a in axes:
        a = tuple(a)
        if a not in seen:
            seen.add(a)
            current.append(a)
    orbits = algebra.orbit_maps(current)
    # every axis past the given ones is a closure image: image -> (c, a),
    # with tau_c(a) the image
    carried = {}
    taus = {}
    # a round starts while some axis has no map: the axes of current keep
    # their order, so those are the last len(current) - len(taus)
    while len(taus) < len(current):
        # the last round applied the maps of current[:old] to every axis of
        # current[:met]; the image of such a pair is in seen, so a round
        # applies only the pairs whose map or axis is new, in the same order
        old, met = len(taus), len(current)
        for t in range(old, met):
            b = current[t]
            if b in carried:
                c, a = (taus[x].matrix for x in carried[b])
                taus[b] = AutMatrix(c * a * c)
            elif orbits[t] is not None:
                r, g = orbits[t]
                taus[b] = AutMatrix(_conjugate(taus[current[r]].matrix, g))
            else:
                taus[b] = tau_automorphism(algebra, b, law, grading)
        maps = list(taus.items())
        for t, a in enumerate(current):
            for c, tau in maps[old if t < met else 0:]:
                img = tau.matrix.apply(a)
                if img not in seen:
                    if len(seen) >= cap:
                        return AxisClosure(current, False, taus)
                    seen.add(img)
                    current.append(img)
                    carried[img] = (c, a)
    return AxisClosure(current, True, taus)


def _conjugate(m, g):
    """g m g^-1 for the signed permutation g, b_j -> s_j b_pi(j), on the
    integer form: entry [pi(i)][pi(j)] is s_i s_j m[i][j]."""
    rows = [None] * m.nrows
    for (pi, si), row in zip(g, m.num):
        rows[pi] = {g[j][0]: v if si * g[j][1] > 0 else -v for j, v in row.items()}
    return Matrix.from_int_rows(rows, m.den, m.ncols, m.tag)


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
    rows = span.num
    if sum(next(iter(row)) < n for row in rows) < n:
        raise AxialError("the two elements do not generate the algebra")
    if len(rows) > n:
        return None
    images = [{j - n: c for j, c in row.items() if j >= n} for row in rows]
    m = Matrix.from_int_rows(images, span.den, n, algebra.tag).transpose()
    if not is_automorphism(algebra, m):
        return None
    if m.apply(a1) != a2 or m.apply(a2) != a1:
        return None
    return AutMatrix(m)
