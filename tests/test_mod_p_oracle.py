"""Mod-p oracle for the cocycle space Z and the coboundaries B.

For every catalog entry, axis set and law on which cocycle_space returns,
the integer condition (1) and (2) rows of every axis and the coboundary
generators are reduced mod ORACLE_PRIME (i sent to ORACLE_I, see
test_linalg): dim Z is the number of unknowns less the rank of the
condition rows, and dim B the rank of the generators.
"""

import pytest

from axial import catalog
from axial.algebra import _sym_pairs
from axial.errors import ExtensionError
from axial.extension import cocycle_space, condition1_rows, condition2_rows
from axial.linalg import RowReducer
from axial.scalars import ZERO
from axial.spectral import check_axis

from test_linalg import _rank_mod_p


def _condition_rows(algebra, axes, law):
    rows = []
    for a in axes:
        rep = check_axis(algebra, a, law)
        rows += condition1_rows(algebra, a, rep.eigen.eigenspace(ZERO))
        rows += condition2_rows(algebra, a, law, rep.eigen)
    return rows


def _coboundary_generators(algebra):
    """The coordinates of delta(identity): vector g holds the g-th structure
    constant of every pair i <= j, read off basis_product."""
    vectors = [{} for _ in range(algebra.dim)]
    for t, (i, j) in enumerate(_sym_pairs(algebra.dim)):
        for g, c in algebra.basis_product(i, j).items():
            vectors[g][t] = c
    return vectors


@pytest.mark.parametrize("name", [item["name"] for item in catalog.list_catalog()
                                  if not item["stub"]])
def test_cocycle_and_coboundary_dims_match_mod_p_ranks(name):
    entry = catalog.build(name)
    alg = entry.algebra
    unknowns = len(_sym_pairs(alg.dim))
    b_rank = _rank_mod_p(_coboundary_generators(alg))
    covered = 0
    for axes in entry.axis_sets.values():
        for law in entry.laws.values():
            try:
                cs = cocycle_space(alg, axes, law)
            except ExtensionError:
                continue  # no cocycle space for this law on these axes
            covered += 1
            rows = _condition_rows(alg, axes, law)
            assert unknowns - _rank_mod_p(rows) == cs.space.dim
            assert b_rank == cs.coboundaries.dim
    assert covered


# the series past their catalog defaults, and Albert
SERIES = ([("JordanA", n) for n in range(1, 6)] + [("JordanB", n) for n in range(1, 6)]
          + [("JordanC", n) for n in range(1, 4)] + [("JordanD", n) for n in range(2, 9)]
          + [("Albert", None)])


@pytest.mark.parametrize("name, n", SERIES)
def test_every_axis_with_its_own_rows_gives_the_cocycle_dimension(name, n):
    """The rows of every family axis, each built from its own Eigenbasis,
    with no Z = B exit and no orbit transport: dim Z mod p equals that of
    cocycle_space.  A rank mod p never exceeds the exact rank, so on a
    mismatch the exact rank of the same rows tells whether cocycle_space or
    the prime is at fault."""
    entry = catalog.build(name, {} if n is None else {"n": n})
    alg, law = entry.algebra, entry.laws["J12"]
    axes = entry.axis_sets["family"]
    unknowns = len(_sym_pairs(alg.dim))
    rows = _condition_rows(alg, axes, law)
    dim_z = cocycle_space(alg, axes, law).space.dim
    got = unknowns - _rank_mod_p(rows)
    if got != dim_z:
        red = RowReducer(unknowns, alg.tag)
        for row in rows:
            red.add_int_row(row)
        culprit = "the prime" if unknowns - red.rank() == dim_z else "cocycle_space"
        pytest.fail(f"dim Z is {got} mod p and {dim_z} by cocycle_space: {culprit} is at fault")
