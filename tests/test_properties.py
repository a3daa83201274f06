"""Randomized invariant suites: each runs at least 100 seeded instances with
exact assertions and must record zero failures."""

import random

import pytest

from axial import catalog
from axial.algebra import Algebra, radical_axial
from axial.errors import CatalogError
from axial.extension import (Cocycle, aut_action, build_extension, coboundary,
                             cocycle_space, decompose_by_annihilator,
                             extension_axiality)
from axial.linalg import Matrix, sparse_add, sparse_vector
from axial.miyamoto import tau_automorphism
from axial.scalars import ONE, ZERO, FieldTag, Rat, Scalar
from axial.spectral import check_axis, eigen_decompose

TAG = FieldTag.QQ


def q(n, d=1):
    return Rat(n, d)


def _rand_theta(rng, n, lo=-4, hi=4):
    entries = {}
    for i in range(n):
        for j in range(i, n):
            c = rng.randint(lo, hi)
            if c:
                entries[(i, j)] = q(c)
    return Cocycle.from_entries(n, entries, TAG)


def _rand_param_entry(rng):
    name = rng.choice(["B", "C", "D", "E", "G", "H", "I"])
    params = {
        "B": {}, "C": {"alpha": rng.randint(2, 9)},
        "D": {"beta": rng.randint(2, 9)},
        "E": {"alpha": rng.randint(2, 6), "beta": rng.randint(2, 6)},
        "G": {"beta": rng.randint(2, 9)}, "H": {"gamma": rng.randint(2, 9)},
        "I": {},
    }[name]
    try:
        return catalog.build(name, params)
    except CatalogError:
        return None


def _naive_condition1(algebra, theta, axes):
    """Condition (1) by its definition: theta(a, k) = 0 for every k in a
    basis of ker L_a."""
    return {algebra.render_element(a): all(
        not any(theta.evaluate(a, k)) for k in algebra.left_mult_matrix(a).kernel().basis)
        for a in axes}


def _lin_comb(basis, coeffs, n):
    vec = [ZERO] * len(basis[0]) if basis else []
    for c, b in zip(coeffs, basis):
        for j in range(len(vec)):
            vec[j] = vec[j] + c * b[j]
    return tuple(vec)


# ---------------------------------------------------------------------------
# the seven suites; each callable takes the instance count


def run_class_invariance(count=100, seed=11):
    """Membership in Z and triviality of the class are unchanged by adding a
    coboundary."""
    rng = random.Random(seed)
    spaces = []
    for name, axkey in (("B", "X12"), ("D", "X16"), ("I", "Xab")):
        entry = catalog.build(name)
        law = entry.law_for(axkey)
        spaces.append((entry, cocycle_space(entry.algebra,
                                            entry.axis_sets[axkey], law)))
    for _ in range(count):
        entry, cs = spaces[rng.randrange(len(spaces))]
        n = entry.algebra.dim
        if rng.random() < 0.7 and cs.space.dim:
            coeffs = [q(rng.randint(-4, 4)) for _ in cs.space.basis]
            theta = Cocycle([sparse_vector(_lin_comb(cs.space.basis, coeffs, n))], n, TAG)
        else:
            theta = _rand_theta(rng, n)
        f = Matrix(tuple((q(rng.randint(-4, 4)),) for _ in range(n)),
                   TAG, ncols=1)
        shifted = dict(theta.vectors[0])
        for t, c in coboundary(entry.algebra, f).vectors[0].items():
            sparse_add(shifted, t, c)
        shifted = Cocycle([shifted], n, TAG)
        assert cs.contains(shifted) == cs.contains(theta)
        if cs.contains(theta):
            assert cs.class_is_zero(shifted) == cs.class_is_zero(theta)


def run_eigenvalue_lift(count=100, seed=12):
    """In an axial extension, each lifted axis has spectrum Spec(a) + {0}.
    Along the way, extension_axiality's theta_in_z and condition (1) agree
    with membership in Z and with the definition of condition (1), over Q
    here and over Q(i) below."""
    rng = random.Random(seed)
    done = 0
    guard = 0
    while done < count:
        guard += 1
        assert guard < 20 * count, "sampling starved"
        entry = _rand_param_entry(rng)
        if entry is None:
            continue
        axkey = rng.choice(sorted(entry.axis_sets))
        theta = _rand_theta(rng, entry.algebra.dim)
        rep = extension_axiality(entry.algebra, theta,
                                 entry.axis_sets[axkey], entry.law_for(axkey))
        cs = cocycle_space(entry.algebra, entry.axis_sets[axkey], entry.law_for(axkey))
        assert rep.theta_in_z == cs.contains(theta)
        assert rep.condition1 == _naive_condition1(entry.algebra, theta,
                                                   entry.axis_sets[axkey])
        if not rep.axial:
            continue
        for a, lifted in zip(entry.axis_sets[axkey], rep.lifted_axes):
            base = eigen_decompose(entry.algebra, a)
            hints = base.spectrum() + [ZERO]
            ext = eigen_decompose(rep.extension, lifted, hints=hints)
            assert ext.semisimple
            assert set(ext.spectrum()) == set(base.spectrum()) | {ZERO}
        done += 1
    # over Q(i): JordanD, whose axes have imaginary coordinates, with
    # Gaussian cocycles inside Z, outside it, and a Z cocycle plus one entry
    gaussian = []
    for n in (3, 4):
        entry = catalog.build("JordanD", {"n": n})
        axes, law = entry.axis_sets["family"], entry.laws["J12"]
        gaussian.append((entry.algebra, axes, law, cocycle_space(entry.algebra, axes, law)))
    axial = 0
    for _ in range(count // 4):
        alg, axes, law, cs = gaussian[rng.randrange(len(gaussian))]
        n = alg.dim
        coeffs = [Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in cs.space.basis]
        vec = list(_lin_comb(cs.space.basis, coeffs, n))
        kind = rng.randrange(3)
        if kind:
            vec[rng.randrange(len(vec))] += Scalar(rng.randint(-3, 3), rng.randint(1, 2))
        if kind == 2:
            vec = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in vec]
        theta = Cocycle([sparse_vector(vec)], n, FieldTag.QI)
        rep = extension_axiality(alg, theta, axes, law)
        assert rep.theta_in_z == cs.contains(theta)
        assert rep.condition1 == _naive_condition1(alg, theta, axes)
        axial += rep.axial
    assert 0 < axial < count // 4


def _rand_cocycle(rng, n, s, tag, density=1.0):
    """A random cocycle with s coordinates, each entry drawn with the given
    probability, with non-real entries over QI."""
    vectors = []
    for _ in range(s):
        v = {}
        for t in range(n * (n + 1) // 2):
            c = q(rng.randint(-4, 4)) if rng.random() < density else ZERO
            if tag is FieldTag.QI and rng.random() < 0.5:
                c = Scalar(c, q(rng.randint(-2, 2)))
            if c:
                v[t] = c
        vectors.append(v)
    return Cocycle(vectors, n, tag)


def _with_radical_in_zero(rng, theta, base):
    """theta on A + 0, dim A = base, with a vector of 0 in its radical: the
    entries at one index d of 0 cleared, then, when 0 has a second index z,
    pulled back along e_d -> e_d + c e_z, which puts e_d - c e_z there."""
    n = theta.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    d = rng.randrange(base, n)
    theta = Cocycle([{t: c for t, c in v.items() if d not in pairs[t]} for v in theta.vectors],
                    n, theta.tag)
    if n - base < 2:
        return theta
    z = base + n - 1 - d
    c = q(rng.choice([1, -2, 3]))
    phi = Matrix([[c if (i, j) == (z, d) else ONE if i == j else ZERO for j in range(n)]
                  for i in range(n)], theta.tag)
    return aut_action(theta, phi)


def _assert_split_basis(big, axes):
    """Read decompose_by_annihilator(big, axes) back: build_extension(small,
    theta2) is big in the split basis (the complement basis vectors of
    Ann(big), then its RREF rows), and each axis is its projection plus a
    vector of Ann(big).  Returns dim Ann(big)."""
    small, theta2, proj = decompose_by_annihilator(big, axes)
    ann = big.annihilator()
    comp = [j for j in range(big.dim) if j not in ann.pivots]
    rebuilt, _ = build_extension(small, theta2)
    images = [{j: ONE} for j in comp] + [dict(r) for r in ann.sparse_rows]
    assert rebuilt.dim == big.dim
    for i in range(rebuilt.dim):
        for j in range(i, rebuilt.dim):
            want = {}
            for k, c in rebuilt.basis_product(i, j).items():
                for col, v in images[k].items():
                    sparse_add(want, col, c * v)
            assert big.product_sparse(images[i], images[j]) == want, (i, j)
    for y, p in zip(axes, proj):
        rest = list(y)
        for a, j in enumerate(comp):
            rest[j] -= p[a]
        assert ann.contains_vector(tuple(rest))
    return ann.dim


def _rebased(rng, alg, axes):
    """alg and the axes in the basis of the columns of a random upper
    unitriangular matrix."""
    n = alg.dim
    cols = [{k: q(rng.randint(-2, 2)) for k in range(i)} | {i: ONE} for i in range(n)]
    cols = [{k: c for k, c in col.items() if c} for col in cols]

    def coords(x):
        # back-substitution: the last entry of x comes from the last column
        x, y = dict(x), {}
        for k in reversed(range(n)):
            c = x.get(k)
            if c:
                y[k] = c
                for m, v in cols[k].items():
                    sparse_add(x, m, -c * v)
        return y

    products = {(i, j): coords(alg.product_sparse(cols[i], cols[j]))
                for i in range(n) for j in range(i, n)}
    return (Algebra(n, products, alg.tag),
            [alg.element(coords(sparse_vector(a))) for a in axes])


def run_round_trip(count=100, seed=13):
    """decompose_by_annihilator inverts build_extension exactly, for s = 1
    and 2 and over QI.  On A + 0, a sum with a zero algebra, Ann(B) may
    exceed the adjoined space V; there, and in a random basis of B,
    build_extension(small, theta2) reproduces every product of B in the
    split basis."""
    rng = random.Random(seed)
    pool = [catalog.build(n) for n in ("A", "B", "C", "D", "E", "F", "G",
                                       "H", "I")]
    pool += [catalog.build("S", {"n": 3}), catalog.build("J", {"n": 3}),
             catalog.build("JordanD", {"n": 3})]
    larger = 0
    for _ in range(count):
        entry = pool[rng.randrange(len(pool))]
        alg = entry.algebra
        axes = entry.axis_sets[sorted(entry.axis_sets)[0]]
        summed = rng.random() < 1 / 3
        if summed:
            alg = alg.direct_sum(Algebra(rng.randint(1, 2), {}, alg.tag))
            axes = [tuple(a) + (ZERO,) * (alg.dim - len(a)) for a in axes]
        s = rng.randint(1, 2)
        # sparse on A + 0, so that some vectors of 0 stay in Ann(B)
        theta = _rand_cocycle(rng, alg.dim, s, alg.tag, 0.3 if summed else 1.0)
        if summed and rng.random() < 2 / 3:
            theta = _with_radical_in_zero(rng, theta, entry.algebra.dim)
        if not any(theta.vectors):
            continue
        ext, lifted = build_extension(alg, theta, axes)
        if summed:
            larger += _assert_split_basis(ext, lifted) > s
            _assert_split_basis(*_rebased(rng, ext, lifted))
            continue
        small, theta2, proj = decompose_by_annihilator(ext, lifted)
        assert small.dim == alg.dim
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                assert small.basis_product(i, j) == alg.basis_product(i, j)
        assert theta2 == theta
        assert [tuple(p) for p in proj] == [tuple(a) for a in axes]
    assert larger > 5


def run_frobenius_lift(count=100, seed=14):
    """The degenerate lift of a Frobenius form (adjoined line isotropic and
    orthogonal to everything) associates with the extension product for any
    symmetric cocycle."""
    rng = random.Random(seed)
    pool = [catalog.build(n) for n in ("B", "C", "D", "E", "G", "H", "I")]
    for _ in range(count):
        entry = pool[rng.randrange(len(pool))]
        alg = entry.algebra
        theta = _rand_theta(rng, alg.dim)
        ext, _ = build_extension(alg, theta)
        g = entry.frobenius.gram.rows

        def bil(x, y):
            tot = ZERO
            for i in range(alg.dim):
                for j in range(alg.dim):
                    if g[i][j]:
                        tot = tot + x[i] * g[i][j] * y[j]
            return tot

        for i in range(ext.dim):
            for j in range(ext.dim):
                for k in range(ext.dim):
                    x, y, z = (ext.basis_element(t) for t in (i, j, k))
                    assert bil(ext.product(x, y), z) == \
                        bil(x, ext.product(y, z))


def run_radical_lift(count=100, seed=15):
    """For an axial extension, the radical is the base radical plus the
    adjoined line."""
    rng = random.Random(seed)
    done = 0
    guard = 0
    while done < count:
        guard += 1
        assert guard < 20 * count, "sampling starved"
        beta = rng.randint(2, 12)
        try:
            entry = catalog.build("D", {"beta": beta})
        except CatalogError:
            continue
        axes = entry.axis_sets["X16"]
        theta = _rand_theta(rng, 2)
        rep = extension_axiality(entry.algebra, theta, axes,
                                 entry.law_for("X16"))
        if not rep.axial:
            continue
        base_rad, _ = radical_axial(entry.algebra, axes)
        try:
            ext_rad, _ = radical_axial(rep.extension, rep.lifted_axes)
        except ValueError:
            # some cocycles leave the extension without a unique
            # axis-normalized form; the radical is undefined there
            continue
        assert ext_rad.dim == base_rad.dim + 1
        assert ext_rad.contains_vector((q(0), q(0), q(1)))
        for r in base_rad.basis:
            assert ext_rad.contains_vector(tuple(r) + (q(0),))
        done += 1


def run_primitivity_transfer(count=100, seed=16):
    """Lifted axes of an axial extension are primitive exactly when the base
    axes are."""
    rng = random.Random(seed)
    done = 0
    guard = 0
    while done < count:
        guard += 1
        assert guard < 20 * count, "sampling starved"
        entry = _rand_param_entry(rng)
        if entry is None:
            continue
        axkey = rng.choice(sorted(entry.axis_sets))
        law = entry.law_for(axkey)
        theta = _rand_theta(rng, entry.algebra.dim)
        rep = extension_axiality(entry.algebra, theta,
                                 entry.axis_sets[axkey], law)
        assert rep.theta_in_z == cocycle_space(entry.algebra, entry.axis_sets[axkey],
                                               law).contains(theta)
        if not rep.axial or rep.induced_law is None:
            continue
        for a, lifted in zip(entry.axis_sets[axkey], rep.lifted_axes):
            base_rep = check_axis(entry.algebra, a, law)
            ext_rep = check_axis(rep.extension, lifted, rep.induced_law)
            assert ext_rep.primitive == base_rep.primitive
        done += 1


def run_stability(count=100, seed=17):
    """The relative cocycle space of B and of I is stable under the Miyamoto
    involutions, and the action preserves triviality of the class."""
    rng = random.Random(seed)
    setups = []
    for name, axkey, lawkey in (("B", "X12", "FB"), ("I", "Xab", "FI")):
        entry = catalog.build(name)
        law, grad = entry.laws[lawkey], entry.gradings[lawkey]
        taus = [tau_automorphism(entry.algebra, a, law, grad)
                for a in entry.axis_sets[axkey]]
        cs = cocycle_space(entry.algebra, entry.axis_sets[axkey], law)
        setups.append((entry, taus, cs))
    for _ in range(count):
        entry, taus, cs = setups[rng.randrange(len(setups))]
        coeffs = [q(rng.randint(-5, 5)) for _ in cs.space.basis]
        theta = Cocycle([sparse_vector(_lin_comb(cs.space.basis, coeffs, 2))], 2, TAG)
        g = taus[rng.randrange(len(taus))]
        moved = aut_action(theta, g.matrix)
        assert cs.contains(moved)
        assert cs.class_is_zero(moved) == cs.class_is_zero(theta)


PROPERTY_SUITES = {
    "class_invariance": run_class_invariance,
    "eigenvalue_lift": run_eigenvalue_lift,
    "round_trip": run_round_trip,
    "frobenius_lift": run_frobenius_lift,
    "radical_lift": run_radical_lift,
    "primitivity_transfer": run_primitivity_transfer,
    "stability": run_stability,
}


@pytest.mark.parametrize("name", sorted(PROPERTY_SUITES))
def test_property_suite(name):
    PROPERTY_SUITES[name](100)
