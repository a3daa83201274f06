"""Named, parameterized constructors for the benchmark algebras used by the
test suites and the CLI: the nine two-dimensional families A..I, the
four-dimensional Monster-type algebra, the diagonal / half-action / nilpotent
series S / J / T, three four-dimensional Jordan algebras (J25, J53, J59), and
the simple Jordan matrix algebras (full, symmetric, and J-symmetric matrices,
a bilinear-form algebra over the Gaussian rationals, and the 27-dimensional
octonion-hermitian algebra).

Each entry bundles the algebra with named axis sets, the fusion laws the axis
sets obey (materialized at the chosen parameters), the expected fusion laws of
the canonical one-dimensional central extension where one exists, an invariant
bilinear form, gradings, and idempotent families used by the cocycle suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import MAX_DIM, Algebra, BilinearForm, Cocycle
from .errors import CatalogError
from .fusion import C2Grading, FusionLaw, jordan_half_law, monster_law, unit_row
from .scalars import ONE, ZERO, FieldTag, Rat, Scalar

QQ = FieldTag.QQ
QI = FieldTag.QI


def _q(a, b=1):
    return Rat(a, b)


@dataclass
class CatalogEntry:
    name: str
    params: dict
    algebra: Algebra
    axis_sets: dict = field(default_factory=dict)        # key -> tuple of elements
    laws: dict = field(default_factory=dict)             # law name -> FusionLaw
    axis_laws: dict = field(default_factory=dict)        # axis-set key -> law name
    extension_laws: dict = field(default_factory=dict)   # axis-set key -> FusionLaw
    cocycle: Cocycle | None = None                       # canonical 1-dim cocycle
    frobenius: BilinearForm | None = None
    gradings: dict = field(default_factory=dict)         # law name -> C2Grading
    expected: dict = field(default_factory=dict)

    def law_for(self, axis_key):
        return self.laws[self.axis_laws[axis_key]]


# ---------------------------------------------------------------------------
# helpers

def _mk_law(values, cells):
    """Law over QQ with the unit row of fusion.unit_row plus the supplied
    nonunit cells."""
    if len(set(values)) != len(values):
        raise CatalogError("fusion-law values collide at these parameters")
    return FusionLaw(values, {**unit_row(values), **cells}, QQ)


def _jordan_entry(name, params, alg, axis_sets, **expected):
    """An entry of a Jordan algebra: every axis set obeys the law J12 of
    Jordan-algebra idempotents."""
    return CatalogEntry(
        name, params, alg, axis_sets=axis_sets,
        laws={"J12": jordan_half_law(alg.tag)},
        axis_laws={key: "J12" for key in axis_sets},
        expected={"jordan": True, **expected})


def _two_dim(c1, c2):
    """Two-dimensional commutative algebra over QQ: e1*e1 = e1, e2*e2 = e2,
    e1*e2 = c1*e1 + c2*e2."""
    prods = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    entry = {}
    if c1:
        entry[0] = c1
    if c2:
        entry[1] = c2
    if entry:
        prods[(0, 1)] = entry
    return Algebra(2, prods, QQ, ("e1", "e2"))


def _gram(g11, g12, g22):
    """The form over QQ with (e1, e1) = g11, (e1, e2) = g12, (e2, e2) = g22."""
    return BilinearForm.from_entries(2, {(0, 0): g11, (0, 1): g12, (1, 1): g22}, QQ)


def _theta_e1e2():
    """The canonical cocycle with value 1 on (e1, e2) and 0 on the diagonal."""
    return Cocycle.from_entries(2, {(0, 1): ONE}, QQ)


def _as_scalar(v):
    """A rational parameter: a Rat, or an integer coerced to one."""
    if isinstance(v, Scalar):
        raise CatalogError("parameter from the wrong field")
    if isinstance(v, Rat):
        return v
    return Rat(v, 1)


# ---------------------------------------------------------------------------
# two-dimensional families

def _build_A():
    one, zero = _q(1), _q(0)
    alg = _two_dim(zero, zero)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    a3 = (one, one)
    law = _mk_law([one, zero], {(zero, zero): {zero}})
    return CatalogEntry(
        "A", {}, alg,
        axis_sets={"X12": (e1, e2), "X13": (e1, a3), "X23": (e2, a3)},
        laws={"FA": law},
        axis_laws={"X12": "FA", "X13": "FA", "X23": "FA"},
        frobenius=_gram(one, zero, one),
        expected={
            "symmetric": {"X12": True, "X13": False, "X23": False},
            "primitive": {"X12": True, "X13": False, "X23": False},
            "admits_extension": False,
        })


def _build_B():
    one, zero = _q(1), _q(0)
    mone = -one
    alg = _two_dim(mone, mone)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    a4 = (mone, mone)
    law = _mk_law([one, mone], {(mone, mone): {one}})
    ext = _mk_law([one, mone, zero], {(mone, mone): {one, zero}})
    grad = C2Grading(frozenset({one}), frozenset({mone}), None)
    return CatalogEntry(
        "B", {}, alg,
        axis_sets={"X12": (e1, e2), "X14": (e1, a4), "X24": (e2, a4)},
        laws={"FB": law},
        axis_laws={"X12": "FB", "X14": "FB", "X24": "FB"},
        extension_laws={"X12": ext, "X14": ext, "X24": ext},
        cocycle=_theta_e1e2(),
        frobenius=_gram(_q(-2), one, _q(-2)),
        gradings={"FB": grad},
        expected={
            "symmetric": {"X12": True, "X14": True, "X24": True},
            "primitive": {"X12": True, "X14": True, "X24": True},
            "radical": {"X12": "zero", "X14": "zero", "X24": "zero"},
            "admits_extension": True,
            "miyamoto_order": 6,
            "axis_closure": (e1, e2, a4),
        })


def _build_C(alpha):
    one, zero = _q(1), _q(0)
    if alpha in (zero, one, -one, _q(1, 2), _q(-1, 2)):
        raise CatalogError("parameter alpha of family C must avoid 0, 1, -1, 1/2, -1/2")
    alg = _two_dim(alpha, alpha)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    lam = ONE / (one + alpha + alpha)
    a5 = (lam, lam)
    law1 = _mk_law([one, alpha], {(alpha, alpha): {one, alpha}})
    law2 = _mk_law([one, alpha, lam],
                   {(alpha, alpha): {one, alpha}, (lam, lam): {one}})
    ext1 = _mk_law([one, alpha, zero], {(alpha, alpha): {one, alpha, zero}})
    ext2 = _mk_law([one, alpha, lam, zero],
                   {(alpha, alpha): {one, alpha, zero}, (lam, lam): {one, zero}})
    gram_d = (one - alpha) / alpha
    grad = C2Grading(frozenset({one, alpha}), frozenset({lam}), None)
    return CatalogEntry(
        "C", {"alpha": alpha}, alg,
        axis_sets={"X12": (e1, e2), "X15": (e1, a5), "X25": (e2, a5)},
        laws={"FC1": law1, "FC2": law2},
        axis_laws={"X12": "FC1", "X15": "FC2", "X25": "FC2"},
        extension_laws={"X12": ext1, "X15": ext2, "X25": ext2},
        cocycle=_theta_e1e2(),
        frobenius=_gram(gram_d, one, gram_d),
        gradings={"FC2": grad},
        expected={
            "symmetric": {"X12": True, "X15": False, "X25": False},
            "primitive": {"X12": True, "X15": True, "X25": True},
            "radical": {"X12": "zero", "X15": "zero", "X25": "zero"},
            "admits_extension": True,
            "miyamoto_order": 2,
            "axis_closure": (e1, e2, a5),
        })


def _build_D(beta):
    one, zero, two = _q(1), _q(0), _q(2)
    if beta in (zero, one, _q(1, 2)):
        raise CatalogError("parameter beta of family D must avoid 0, 1/2, 1")
    alg = _two_dim(zero, beta)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    comp = one - beta
    a6 = (one, one - two * beta)
    law1 = _mk_law([one, beta, zero],
                   {(beta, beta): {beta}, (zero, zero): {one, zero}})
    law2 = _mk_law([one, beta, comp],
                   {(beta, beta): {beta}, (comp, comp): {comp}})
    law3 = _mk_law([one, comp, zero],
                   {(comp, comp): {comp}, (zero, zero): {one, zero}})
    ext2 = _mk_law([one, beta, comp, zero],
                   {(beta, beta): {beta, zero}, (comp, comp): {comp, zero}})
    return CatalogEntry(
        "D", {"beta": beta}, alg,
        axis_sets={"X12": (e1, e2), "X16": (e1, a6), "X26": (e2, a6)},
        laws={"FD1": law1, "FD2": law2, "FD3": law3},
        axis_laws={"X12": "FD1", "X16": "FD2", "X26": "FD3"},
        extension_laws={"X16": ext2},
        cocycle=_theta_e1e2(),
        frobenius=_gram(one, zero, zero),
        expected={
            "symmetric": {"X12": False, "X16": False, "X26": False},
            "primitive": {"X12": True, "X16": True, "X26": True},
            "radical": {"X16": (zero, one)},
            "admits_extension": True,   # only with respect to X16
            "extension_axes": ("X16",),
        })


def _build_E(alpha, beta):
    one, zero = _q(1), _q(0)
    four = _q(4)
    if alpha in (zero, one) or beta in (zero, one) or alpha == beta:
        raise CatalogError("parameters of family E must be distinct and avoid 0, 1")
    if alpha + beta == one or four * alpha * beta == one:
        raise CatalogError("parameters of family E must satisfy a+b != 1 and 4ab != 1")
    denom = one - four * alpha * beta
    lam = (one - alpha - beta) / denom
    if lam in (one, alpha, beta):
        raise CatalogError("derived eigenvalue of family E collides with 1, alpha, beta")
    alg = _two_dim(alpha, beta)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    two = _q(2)
    a7 = ((one - two * alpha) / denom, (one - two * beta) / denom)
    law12 = _mk_law([one, alpha, beta],
                    {(alpha, alpha): {one, alpha}, (beta, beta): {one, beta}})
    law17 = _mk_law([one, beta, lam],
                    {(beta, beta): {one, beta}, (lam, lam): {one, lam}})
    law27 = _mk_law([one, alpha, lam],
                    {(alpha, alpha): {one, alpha}, (lam, lam): {one, lam}})
    ext12 = _mk_law([one, alpha, beta, zero],
                    {(alpha, alpha): {one, alpha, zero}, (beta, beta): {one, beta, zero}})
    ext17 = _mk_law([one, beta, lam, zero],
                    {(beta, beta): {one, beta, zero}, (lam, lam): {one, lam, zero}})
    ext27 = _mk_law([one, alpha, lam, zero],
                    {(alpha, alpha): {one, alpha, zero}, (lam, lam): {one, lam, zero}})
    return CatalogEntry(
        "E", {"alpha": alpha, "beta": beta}, alg,
        axis_sets={"X12": (e1, e2), "X17": (e1, a7), "X27": (e2, a7)},
        laws={"FE12": law12, "FE17": law17, "FE27": law27},
        axis_laws={"X12": "FE12", "X17": "FE17", "X27": "FE27"},
        extension_laws={"X12": ext12, "X17": ext17, "X27": ext27},
        cocycle=_theta_e1e2(),
        frobenius=_gram((one - beta) / alpha, one, (one - alpha) / beta),
        expected={
            "symmetric": {"X12": False, "X17": False, "X27": False},
            "primitive": {"X12": True, "X17": True, "X27": True},
            "radical": {"X12": "zero", "X17": "zero", "X27": "zero"},
            "admits_extension": True,
        })


def _build_F():
    one, zero, half = _q(1), _q(0), _q(1, 2)
    alg = _two_dim(half, zero)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    law = _mk_law([one, half, zero],
                  {(half, half): {half}, (zero, zero): {one, zero}})
    return CatalogEntry(
        "F", {}, alg,
        axis_sets={"X12": (e1, e2)},
        laws={"FF": law},
        axis_laws={"X12": "FF"},
        frobenius=_gram(zero, zero, one),
        expected={
            "symmetric": {"X12": False},
            "primitive": {"X12": True},
            "radical": {"X12": "unavailable"},
            "admits_extension": False,
        })


def _build_G(beta):
    one, zero, half = _q(1), _q(0), _q(1, 2)
    if beta in (zero, half, one):
        raise CatalogError("parameter beta of family G must avoid 0, 1/2, 1")
    alg = _two_dim(half, beta)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    law = _mk_law([one, beta, half],
                  {(beta, beta): {one, beta}, (half, half): {one, half}})
    ext = _mk_law([one, beta, half, zero],
                  {(beta, beta): {one, beta, zero}, (half, half): {one, half, zero}})
    two = _q(2)
    return CatalogEntry(
        "G", {"beta": beta}, alg,
        axis_sets={"X12": (e1, e2)},
        laws={"FG": law},
        axis_laws={"X12": "FG"},
        extension_laws={"X12": ext},
        cocycle=_theta_e1e2(),
        frobenius=_gram(two * (one - beta), one, ONE / (two * beta)),
        expected={
            "symmetric": {"X12": False},
            "primitive": {"X12": True},
            "radical": {"X12": "zero"},
            "admits_extension": True,
        })


def _build_H(gamma):
    one, zero, two = _q(1), _q(0), _q(2)
    if gamma in (zero, one, two):
        raise CatalogError("parameter gamma of family H must avoid 0, 1, 2")
    v1 = ONE / (two * gamma)   # 1/(2*gamma)
    v2 = gamma / two
    alg = _two_dim(v2, v1)
    e1, e2 = alg.basis_element(0), alg.basis_element(1)
    if v1 == v2:
        # gamma = -1: the two nonunit eigenvalues coincide at -1/2
        law = _mk_law([one, v1], {(v1, v1): {one, v1}})
        ext = _mk_law([one, v1, zero], {(v1, v1): {one, v1, zero}})
    else:
        law = _mk_law([one, v1, v2],
                      {(v1, v1): {one, v1}, (v2, v2): {one, v2}})
        ext = _mk_law([one, v1, v2, zero],
                      {(v1, v1): {one, v1, zero}, (v2, v2): {one, v2, zero}})
    g11 = (two * gamma - one) / (gamma * gamma)
    g22 = (two - gamma) * gamma
    return CatalogEntry(
        "H", {"gamma": gamma}, alg,
        axis_sets={"X12": (e1, e2)},
        laws={"FH": law},
        axis_laws={"X12": "FH"},
        extension_laws={"X12": ext},
        cocycle=_theta_e1e2(),
        frobenius=_gram(g11, one, g22),
        expected={
            "symmetric": {"X12": gamma == -one},
            "primitive": {"X12": True},
            "radical": {"X12": "zero"},
            "admits_extension": True,
        })


def _i_axis(alpha):
    """The idempotent alpha*e1 + (1-alpha)*e2 of the half-sum algebra."""
    one = _q(1)
    alpha = _as_scalar(alpha)
    return (alpha, one - alpha)


def _build_I(alpha, beta):
    one, zero, half = _q(1), _q(0), _q(1, 2)
    if alpha == beta:
        raise CatalogError("the two axis parameters of family I must differ")
    alg = _two_dim(half, half)
    a1, a2 = _i_axis(alpha), _i_axis(beta)
    law = _mk_law([one, half], {})
    ext = _mk_law([one, half, zero], {(half, half): {zero}})
    grad = C2Grading(frozenset({one}), frozenset({half}), None)
    return CatalogEntry(
        "I", {"alpha": alpha, "beta": beta}, alg,
        axis_sets={"Xab": (a1, a2)},
        laws={"FI": law},
        axis_laws={"Xab": "FI"},
        extension_laws={"Xab": ext},
        cocycle=_theta_e1e2(),
        frobenius=_gram(one, one, one),
        gradings={"FI": grad},
        expected={
            # with n = e1 - e2, e1 -> e1 + (t1 + t2) n, n -> -n swaps the
            # axes e1 + t n, t = alpha - 1 and beta - 1
            "symmetric": {"Xab": True},
            "primitive": {"Xab": True},
            "radical": {"Xab": (one, -one)},
            "admits_extension": True,
        })


# ---------------------------------------------------------------------------
# the four-dimensional Monster-type algebra

def _build_monster4():
    one = _q(1)
    h = _q(1, 2)
    alg = Algebra(4, {
        (0, 0): {0: one}, (1, 1): {1: one}, (2, 2): {2: one}, (3, 3): {3: one},
        (0, 1): {0: _q(3, 2), 1: one, 2: -one, 3: -h},
        (1, 2): {0: -h, 1: one, 2: one, 3: -h},
        (2, 3): {0: -h, 1: -one, 2: one, 3: _q(3, 2)},
        (0, 3): {0: h, 3: h},
        (0, 2): {1: -one, 2: one, 3: one},
        (1, 3): {0: one, 1: one, 2: -one},
    }, QQ, ("am1", "a0", "a1", "a2"))
    a0, a1 = alg.basis_element(1), alg.basis_element(2)
    law = monster_law(QQ)
    # the normalized class generator: zero on the diagonal, zero on the two
    # "long" pairs, one on the four "short" pairs
    theta = Cocycle.from_entries(4, {
        (0, 1): one, (0, 3): one, (1, 2): one, (2, 3): one,
    }, QQ)
    u = (one, _q(2), -one, _q(-2))
    v = (one, _q(0), -one, _q(0))
    w = (one, _q(0), _q(0), -one)
    u2 = (_q(2), one, _q(-2), -one)
    v2 = (_q(0), one, _q(0), -one)
    return CatalogEntry(
        "Monster4", {}, alg,
        axis_sets={"X01": (a0, a1),
                   "all": tuple(alg.basis_element(k) for k in range(4))},
        laws={"M2half": law},
        axis_laws={"X01": "M2half"},
        extension_laws={"X01": law},  # the canonical cocycle preserves the law
        cocycle=theta,
        expected={
            "eigenvectors": {"a0": {"0": u, "2": v, "1/2": w},
                             "a1": {"0": u2, "2": v2, "1/2": w}},
            "admits_extension": True,
        })


# ---------------------------------------------------------------------------
# diagonal / half-action / nilpotent series

def _build_S(n):
    if n < 1:
        raise CatalogError("the diagonal series needs n >= 1")
    one = _q(1)
    alg = Algebra(n, {(i, i): {i: one} for i in range(n)}, QQ,
                  tuple(f"e{i+1}" for i in range(n)))
    standard = tuple(alg.basis_element(i) for i in range(n))
    stair = tuple(tuple(one if j <= i else _q(0) for j in range(n)) for i in range(n))
    return _jordan_entry("S", {"n": _q(n)}, alg,
                         {"standard": standard, "staircase": stair})


def _build_J(n):
    if n < 1:
        raise CatalogError("the half-action series needs n >= 1")
    one, half = _q(1), _q(1, 2)
    prods = {(0, 0): {0: one}}
    for i in range(1, n):
        prods[(0, i)] = {i: half}
    alg = Algebra(n, prods, QQ, ("e",) + tuple(f"n{i}" for i in range(1, n)))
    e = alg.basis_element(0)
    axes = [e]
    for i in range(1, n):
        axes.append(tuple(one if j in (0, i) else _q(0) for j in range(n)))
    return _jordan_entry("J", {"n": _q(n)}, alg, {"standard": tuple(axes)})


def _build_T(n):
    if n < 2:
        raise CatalogError("the nilpotent series needs n >= 2")
    one, half = _q(1), _q(1, 2)
    prods = {(0, 0): {0: one}, (0, 1): {1: one}}
    if n >= 3:
        prods[(2, 2)] = {1: one}
    for i in range(2, n):
        prods[(0, i)] = {i: half}
    alg = Algebra(n, prods, QQ, ("e",) + tuple(f"n{i}" for i in range(1, n)))
    e = alg.basis_element(0)
    if n == 2:
        axes = (e,)
        generates = False
    else:
        a = list(alg.zero())
        a[0], a[1], a[2] = one, -one, one      # e - n1 + n2
        axes = [e, tuple(a)]
        for i in range(3, n):
            axes.append(tuple(one if j in (0, i) else _q(0) for j in range(n)))
        axes = tuple(axes)
        generates = True
    return _jordan_entry("T", {"n": _q(n)}, alg, {"standard": axes},
                         axes_generate=generates)


# ---------------------------------------------------------------------------
# the three four-dimensional Jordan algebras studied individually

def _build_J25():
    one, half = _q(1), _q(1, 2)
    alg = Algebra(4, {
        (0, 0): {0: one}, (1, 1): {1: one},
        (0, 2): {2: half}, (1, 2): {2: half},
        (0, 3): {3: one}, (2, 2): {3: one},
    }, QQ, ("e1", "e2", "n1", "n2"))

    def a_of(t):
        t = _as_scalar(t)
        return (one, _q(0), t, -(t * t))

    def b_of(t):
        t = _as_scalar(t)
        return (_q(0), one, t, t * t)

    unity = (one, one, _q(0), _q(0))
    return _jordan_entry("J25", {}, alg, {"with_unity": (unity, a_of(1), a_of(2)),
                                          "no_unity": (a_of(1), b_of(1))})


def _build_J53():
    one, half = _q(1), _q(1, 2)
    alg = Algebra(4, {
        (0, 0): {0: one}, (0, 1): {1: half}, (0, 2): {2: one},
        (1, 1): {2: one, 3: one},
    }, QQ, ("e", "n1", "n2", "n3"))
    e = alg.basis_element(0)
    a1 = (one, one, -one, one)  # e + n1 - n2 + n3
    return _jordan_entry("J53", {}, alg, {"standard": (e, a1)}, quotient_dim=0)


def _build_J59():
    one, half = _q(1), _q(1, 2)
    alg = Algebra(4, {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: half}, (0, 3): {3: half},
        (2, 3): {1: one}, (3, 3): {1: one},
    }, QQ, ("e", "n1", "n2", "n3"))
    e = alg.basis_element(0)
    ax2 = (one, _q(0), one, _q(0))     # e + n2       (alpha=1, beta=0)
    ax3 = (one, -one, _q(0), one)      # e - n1 + n3  (alpha=0, beta=1)
    return _jordan_entry("J59", {}, alg, {"standard": (e, ax2, ax3)})


# ---------------------------------------------------------------------------
# Jordan matrix algebras

# The octonion units e_1..e_7: e_q e_r = e_s for each triple (q, r, s) and its
# cyclic shifts, e_r e_q = -e_s, and e_q e_q = -1.
_OCT_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
                (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _unit_table():
    """(q, r) -> (s, sign) with e_q e_r = sign * e_s, for the real unit
    e_0 = 1 and the imaginary octonion units e_1..e_7."""
    t = {}
    for q in range(8):
        t[(0, q)] = t[(q, 0)] = (q, 1)
    for q in range(1, 8):
        t[(q, q)] = (0, -1)
    for (a, b, c) in _OCT_TRIPLES:
        for (q, r, s) in ((a, b, c), (b, c, a), (c, a, b)):
            t[(q, r)] = (s, 1)
            t[(r, q)] = (s, -1)
    if len(t) != 64:
        raise CatalogError("inconsistent octonion sign table")
    return t


_UNITS = _unit_table()


def _cycle_gens(n):
    """The transposition (0 1) and the n-cycle k -> k + 1 mod n, as tuples
    of images, each once; none for n < 2.  They generate the symmetric
    group on range(n)."""
    if n < 2:
        return ()
    return tuple(dict.fromkeys([(1, 0, *range(2, n)), (*range(1, n), 0)]))


def _signed_images(basis, move):
    """The signed permutation [(k, s)] of the basis matrices under the
    entrywise map move(row, col, unit) -> (row, col, unit): basis[j] moves
    onto s * basis[k]; raises when it lands on no signed basis matrix."""
    owner = {key: k for k, x in enumerate(basis) for key in x}
    out = []
    for x in basis:
        image = {move(*key): a for key, a in x.items()}
        lead, a = next(iter(image.items()))
        k = owner.get(lead)
        # the entries are +-1, so a / basis[k][lead] = a * basis[k][lead]
        s = 0 if k is None else a * basis[k][lead]
        if not s or image != {key: s * b for key, b in basis[k].items()}:
            raise CatalogError("a basis symmetry does not permute the basis matrices")
        out.append((k, s))
    return out


def matrix_model(basis, labels, moves=()):
    """Commutative algebra on a basis of matrices over the reals or the
    octonions, with the product (XY + YX)/2.

    moves are entrywise maps (row, col, unit) -> (row, col, unit) that
    permute the basis matrices up to sign, such as X -> PXP^T for a
    permutation matrix P; they become the symmetry of the algebra
    (_signed_images), verified where they are read.

    A basis matrix is a sparse dict {(row, col, unit): coefficient} with
    integer or rational coefficients; unit 0 is the real unit and units 1..7
    the imaginary octonion units, so a real matrix uses unit 0 only.  The
    supports must be disjoint: a product's coordinate on basis[k] is read off
    the first entry of basis[k], and the whole product is then compared
    exactly with the combination read off; raises when it differs (the basis
    is not closed), when two supports overlap or when two labels are
    equal."""
    if not basis:
        raise CatalogError("matrix basis must be nonempty")
    if len(set(labels)) != len(labels):
        raise CatalogError("matrix basis labels must be distinct")
    owner = {}  # key -> (k, entry of basis[k], lead key of basis[k], lead entry)
    rows = []  # per basis matrix: {row: [(col, unit, coefficient)]}
    for k, x in enumerate(basis):
        if not x or not all(x.values()):
            raise CatalogError("basis matrix is zero or has a zero entry")
        lead = next(iter(x.items()))
        by_row = {}
        for (i, j, q), a in x.items():
            if (i, j, q) in owner:
                raise CatalogError("matrix basis supports overlap")
            owner[(i, j, q)] = (k, a) + lead
            by_row.setdefault(i, []).append((j, q, a))
        rows.append(by_row)

    def mul_into(acc, x, y_rows):
        for (i, m, q), a in x.items():
            for j, r, b in y_rows.get(m, ()):
                s, sign = _UNITS[(q, r)]
                key = (i, j, s)
                acc[key] = acc.get(key, 0) + sign * a * b

    products = {}
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            acc = {}
            mul_into(acc, x, rows[j])
            mul_into(acc, basis[j], rows[i])
            acc = {key: v for key, v in acc.items() if v}
            # acc is XY + YX; its entry at a key of basis[k] must be the
            # coordinate on basis[k] (read at the lead key) times the entry
            coords = {}
            covered = 0
            for key, v in acc.items():
                k, a, lead_key, lead = owner.get(key, (None, 0, None, 0))
                w = acc.get(lead_key)  # None also when key lies in no support
                if w is None or v * lead != w * a:
                    raise CatalogError("matrix basis is not closed under the product")
                if k not in coords:
                    coords[k] = Rat(w) / (2 * lead)
                    covered += len(basis[k])
            if covered != len(acc):
                raise CatalogError("matrix basis is not closed under the product")
            if coords:
                products[(i, j)] = dict(sorted(coords.items()))
    return Algebra(len(basis), products, QQ, labels,
                   symmetry=[_signed_images(basis, move) for move in moves])


def _conjugations(perms):
    """The moves X -> PXP^T of the row and column permutations perms."""
    return [lambda i, j, q, p=p: (p[i], p[j], q) for p in perms]


def _pair_label(kind, i, j, n):
    """The label of the basis matrix of kind at the 0-based pair (i, j):
    kind, then i + 1 and j + 1, joined by "_" from n = 10 on, where the
    bare digits of (1, 11) and (11, 1) would collide."""
    return f"{kind}{i+1}_{j+1}" if n >= 10 else f"{kind}{i+1}{j+1}"


def _build_jordan_full(n):
    """All n x n matrices with the symmetrized product."""
    if n < 1:
        raise CatalogError("matrix algebras need n >= 1")
    basis = [{(i, j, 0): 1} for i in range(n) for j in range(n)]
    labels = [_pair_label("E", i, j, n) for i in range(n) for j in range(n)]
    alg = matrix_model(basis, labels, _conjugations(_cycle_gens(n)))
    fam = []
    for i in range(n):
        fam.append(alg.element({i * n + i: ONE}))
    for i in range(n):
        for j in range(n):
            if i != j:
                fam.append(alg.element({i * n + i: ONE, i * n + j: ONE}))
    return _jordan_entry("JordanA", {"n": _q(n)}, alg, {"family": tuple(fam)},
                         quotient_dim=0)


def _build_jordan_sym(n):
    """Symmetric n x n matrices with the symmetrized product."""
    if n < 1:
        raise CatalogError("matrix algebras need n >= 1")
    basis = []
    labels = []
    index = {}
    for i in range(n):
        index[(i, i)] = len(basis)
        basis.append({(i, i, 0): 1})
        labels.append(_pair_label("E", i, i, n))
    for i in range(n):
        for j in range(i + 1, n):
            index[(i, j)] = len(basis)
            basis.append({(i, j, 0): 1, (j, i, 0): 1})
            labels.append(_pair_label("F", i, j, n))
    alg = matrix_model(basis, labels, _conjugations(_cycle_gens(n)))
    one, half = ONE, Rat(1, 2)
    fam = [alg.element({index[(i, i)]: one}) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            fam.append(alg.element({index[(i, i)]: half, index[(j, j)]: half,
                                    index[(i, j)]: half}))
    return _jordan_entry("JordanB", {"n": _q(n)}, alg, {"family": tuple(fam)},
                         quotient_dim=0)


def _skew_mirror(x, n):
    """J^-1 X^T J for J = [[0, I], [-I, 0]] of size 2n, on a sparse matrix:
    the entry at (a, b) moves to (b + n, a + n) mod 2n, negated when exactly
    one of a, b lies in the second half."""
    size = 2 * n
    return {((b + n) % size, (a + n) % size, q): -c if (a < n) != (b < n) else c
            for (a, b, q), c in x.items()}


def _build_jordan_skew(n):
    """2n x 2n matrices fixed by X -> J^-1 X^T J for the standard skew form,
    with the symmetrized product."""
    if n < 1:
        raise CatalogError("matrix algebras need n >= 1")
    basis = []
    labels = []
    idx_d = {}
    idx_u = {}
    for i in range(n):
        for j in range(n):
            idx_d[(i, j)] = len(basis)
            basis.append({(i, j, 0): 1, (n + j, n + i, 0): 1})
            labels.append(_pair_label("D", i, j, n))
    for i in range(n):
        for j in range(i + 1, n):
            idx_u[(i, j)] = len(basis)
            basis.append({(i, n + j, 0): 1, (j, n + i, 0): -1})
            labels.append(_pair_label("U", i, j, n))
    for i in range(n):
        for j in range(i + 1, n):
            basis.append({(n + i, j, 0): 1, (n + j, i, 0): -1})
            labels.append(_pair_label("L", i, j, n))
    if any(_skew_mirror(x, n) != x for x in basis):
        raise CatalogError("skew-fixed basis matrix fails the defining identity")
    # diag(P, P) commutes with J, so it permutes the skew-fixed matrices; a
    # U or L unit whose pair P reverses moves onto minus its mirror
    alg = matrix_model(basis, labels, _conjugations(
        p + tuple(n + k for k in p) for p in _cycle_gens(n)))
    # Diagonal idempotents a_i, then for each ordered pair (i, j) the
    # idempotents a_i + D_ij +/- (upper or lower skew unit); both the upper
    # and the mirrored lower variant are needed to pin the cocycle space down
    # to coboundaries.  The sign making each variant idempotent is selected
    # exactly.
    one = ONE
    fam = [alg.element({idx_d[(i, i)]: one}) for i in range(n)]
    nu = n * (n - 1) // 2
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            base = {idx_d[(i, i)]: one, idx_d[(i, j)]: one}
            for off in (idx_u[(lo, hi)], idx_u[(lo, hi)] + nu):
                for sgn in (one, -one):
                    cand = dict(base)
                    cand[off] = sgn
                    el = alg.element(cand)
                    if alg.is_idempotent(el):
                        fam.append(el)
    return _jordan_entry("JordanC", {"n": _q(n)}, alg, {"family": tuple(fam)},
                         quotient_dim=0)


def _build_jordan_form(n):
    """The rank-n algebra over the Gaussian rationals with product
    xy = (x^T e_n) y + (y^T e_n) x - (x^T y) e_n."""
    if n < 2:
        raise CatalogError("the bilinear-form algebra needs n >= 2")
    last = n - 1
    prods = {}
    for i in range(n):
        for j in range(i, n):
            entry = {}
            if i == last:
                entry[j] = entry.get(j, ZERO) + ONE
            if j == last:
                entry[i] = entry.get(i, ZERO) + ONE
            if i == j:
                entry[last] = entry.get(last, ZERO) - ONE
            entry = {k: c for k, c in entry.items() if c}
            if entry:
                prods[(i, j)] = entry
    # the permutations of e_1 .. e_(n-1) keep x^T e_n and x^T y
    alg = Algebra(n, prods, QI, tuple(f"e{i+1}" for i in range(n)),
                  symmetry=[[(k, 1) for k in p + (last,)] for p in _cycle_gens(last)])
    half = Rat(1, 2)
    imag = Scalar.i()
    fam = [alg.element({i: half * imag, last: half}) for i in range(n - 1)]
    return _jordan_entry("JordanD", {"n": _q(n)}, alg, {"family": tuple(fam)},
                         quotient_dim=0)


# ---------------------------------------------------------------------------
# the 27-dimensional octonion-hermitian algebra

def _build_albert():
    """Hermitian 3 x 3 octonion matrices: three diagonal units, then for each
    index pair (i < j) the eight elements with octonion unit q at (i, j) and
    its conjugate at (j, i)."""
    pairs = ((0, 1), (0, 2), (1, 2))
    basis = [{(i, i, 0): 1} for i in range(3)]
    labels = [f"D{i+1}" for i in range(3)]
    for (i, j) in pairs:
        for q in range(8):
            basis.append({(i, j, q): 1, (j, i, q): 1 if q == 0 else -1})
            labels.append(f"F{q}_{i+1}{j+1}")
    # X -> PXP^T, which moves a unit q > 0 onto minus the conjugate slot
    # when P reverses its pair, and the octonion automorphism that permutes
    # the imaginary units along 1 2 4 5 7 3 6, mapping each triple of
    # _OCT_TRIPLES onto a cyclic shift of one, on every entry
    unit = (0, 2, 4, 6, 5, 7, 1, 3)
    alg = matrix_model(basis, labels, _conjugations(_cycle_gens(3))
                       + [lambda i, j, q: (i, j, unit[q])])
    half = _q(1, 2)
    fam = [alg.element({i: ONE}) for i in range(3)]
    offset = {pair: 3 + 8 * t for t, pair in enumerate(pairs)}
    for pair in pairs:
        i, j = pair
        for q in range(8):
            fam.append(alg.element({i: half, j: half, offset[pair] + q: half}))
    return _jordan_entry("Albert", {}, alg, {"family": tuple(fam)}, quotient_dim=0)


# ---------------------------------------------------------------------------
# registry

# Entries whose product tables are defined only in the external classification
# these names point to; included so the names resolve, but not buildable.
STUB_ENTRIES = {
    "F1F1": "{e1, e2}",
    "B2": "{e1, e1+n1}",
    "F1F1F1": "{e1, e2, e3}",
    "B2F1": "{e1, e1+n1, e2}",
    "T5": "{e1, (e1+e2+e3)/2}",
    "T7": "{e1, e1+n1, e1+n2}",
    "T8": "{e1, e1+n1+n2}",
    "T10": "{e1+n1, e2+n1}",
    "J1": "{e1, (e1+e2+e3)/2, e4}",
    "J2": "{e1+e3, e1+e4, e2}",
    "J7": "{e1+n1, e2+n1, e3}",
    "J9": "{e1, (e1+e2+e3)/2, e1+n1}",
    "J16": "{e1+n1, e1+n2, e2}",
    "J18": "{e1+n1, e1+n2, e2}",
    "J23": "{e1, e1+n1+n2, e2}",
    "J48": "{e1, e1+n1+n3, e1+n2}",
    "J49": "{e1, e1+n1+n3, e1+n2}",
}


# Each buildable entry: its builder and parameter defaults, and for a series
# (whose one parameter is n) also its algebra dimension at n.
_ENTRIES = {
    "A": (_build_A, {}),
    "B": (_build_B, {}),
    "C": (_build_C, {"alpha": 3}),
    "D": (_build_D, {"beta": 5}),
    "E": (_build_E, {"alpha": 3, "beta": 5}),
    "F": (_build_F, {}),
    "G": (_build_G, {"beta": 5}),
    "H": (_build_H, {"gamma": 3}),
    "I": (_build_I, {"alpha": 1, "beta": 2}),
    "Monster4": (_build_monster4, {}),
    "S": (_build_S, {"n": 4}, lambda n: n),
    "J": (_build_J, {"n": 4}, lambda n: n),
    "T": (_build_T, {"n": 4}, lambda n: n),
    "J25": (_build_J25, {}),
    "J53": (_build_J53, {}),
    "J59": (_build_J59, {}),
    "JordanA": (_build_jordan_full, {"n": 3}, lambda n: n * n),
    "JordanB": (_build_jordan_sym, {"n": 3}, lambda n: n * (n + 1) // 2),
    "JordanC": (_build_jordan_skew, {"n": 2}, lambda n: n * (2 * n - 1)),
    "JordanD": (_build_jordan_form, {"n": 4}, lambda n: n),
    "Albert": (_build_albert, {}),
}


def default_params(name):
    entry = _ENTRIES.get(name)
    return dict(entry[1]) if entry else {}


def build(name, params=None):
    """Instantiate a catalog entry by name; missing parameters take the
    documented defaults, integers are coerced to exact scalars."""
    if name in STUB_ENTRIES:
        raise CatalogError(
            f"entry {name!r} is a named stub (products not available); "
            f"published generating axes: {STUB_ENTRIES[name]}")
    if name not in _ENTRIES:
        raise CatalogError(f"unknown catalog name {name!r}")
    builder, defaults, *size = _ENTRIES[name]
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if k not in defaults:
            raise CatalogError(f"entry {name!r} takes no parameter {k!r}")
        merged[k] = v
    if not size:
        return builder(**{k: _as_scalar(v) for k, v in merged.items()})
    nval = merged["n"]
    try:
        n = int(nval)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != nval:
        raise CatalogError(f"entry {name!r} needs an integer n, got {nval}")
    dim = size[0](n)
    if n > 0 and dim > MAX_DIM:
        raise CatalogError(f"{name} n={n} has dim {dim}, above the limit {MAX_DIM}")
    return builder(n)


def list_catalog():
    """All names with their parameter slots; stubs are flagged."""
    out = []
    for name in sorted(_ENTRIES):
        out.append({"name": name, "params": list(_ENTRIES[name][1]), "stub": False})
    for name in sorted(STUB_ENTRIES):
        out.append({"name": name, "params": [], "stub": True,
                    "note": "products not available; "
                            f"published generating axes {STUB_ENTRIES[name]}"})
    return out


TWO_DIM_FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "H", "I")
