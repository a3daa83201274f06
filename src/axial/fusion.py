"""Fusion laws: a finite value set with a symmetric set-valued product,
containment, and exhaustive C2-grading search."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import AxialError
from .scalars import ONE, ZERO, FieldTag, Rat, sort_key


def _cell_key(lam, mu):
    return (lam, mu) if sort_key(lam) <= sort_key(mu) else (mu, lam)


class FusionLaw:
    """(values, star): star maps unordered value pairs to subsets of values.

    table: {(lam, mu): iterable of field elements}; missing cells are empty.
    The table is symmetrized on construction and membership is validated;
    each value is checked against the field tag.  value_set is the values
    as a frozenset, built once.
    """

    def __init__(self, values, table, tag):
        values = tuple(sorted(set(values), key=sort_key))
        if not values:
            raise AxialError("fusion law needs at least one value")
        for v in values:
            tag.check(v)
        vset = frozenset(values)
        canon = {}
        for (lam, mu), cell in table.items():
            if lam not in vset or mu not in vset:
                raise AxialError(f"cell index ({lam}, {mu}) outside the value set")
            cell = frozenset(cell)
            for v in cell:
                if v not in vset:
                    raise AxialError(f"cell entry {v} outside the value set")
            key = _cell_key(lam, mu)
            prev = canon.get(key)
            if prev is not None and prev != cell:
                raise AxialError(f"asymmetric cells for pair ({key[0]}, {key[1]})")
            canon[key] = cell
        self.values = values
        self.value_set = vset
        self.table = {k: c for k, c in canon.items() if c}

    def star(self, lam, mu):
        return self.table.get(_cell_key(lam, mu), frozenset())

    def __eq__(self, other):
        if not isinstance(other, FusionLaw):
            return NotImplemented
        return self.values == other.values and self.table == other.table

    def __hash__(self):
        return hash((self.values, frozenset(self.table.items())))

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values)
        return f"FusionLaw({{{vals}}}, {len(self.table)} nonempty cells)"


def law_contains(small, big):
    """True iff small's values and every star cell sit inside big's."""
    if not small.value_set <= big.value_set:
        return False
    return all(cell <= big.star(*key) for key, cell in small.table.items())


@dataclass(frozen=True)
class C2Grading:
    plus: frozenset
    minus: frozenset
    sigma0: int | None  # sign of 0 when 0 is a law value, else None

    def sign(self, v):
        if v in self.plus:
            return 1
        if v in self.minus:
            return -1
        raise AxialError(f"value {v} not covered by the grading")


def grading_is_valid(law, plus, minus):
    for key, cell in law.table.items():
        lam, mu = key
        s = 1 if lam in plus else -1
        t = 1 if mu in plus else -1
        part = plus if s * t == 1 else minus
        if not cell <= part:
            return False
    return True


# find_c2_gradings tries all 2^(values - 1) sign partitions
GRADING_SEARCH_CAP = 16


def find_c2_gradings(law):
    """All sign partitions with 1 in the plus part satisfying
    star(F_s, F_t) subset of F_{st}."""
    if len(law.values) > GRADING_SEARCH_CAP:
        raise AxialError(f"value set larger than the search cap {GRADING_SEARCH_CAP}")
    rest = [v for v in law.values if v != ONE]
    out = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            minus = frozenset(combo)
            plus = frozenset(v for v in law.values if v not in minus)
            if ONE not in plus:
                continue
            if grading_is_valid(law, plus, minus):
                sigma0 = None
                if ZERO in law.value_set:
                    sigma0 = 1 if ZERO in plus else -1
                out.append(C2Grading(plus, minus, sigma0))
    return out


# ---------------------------------------------------------------------------
# canonical small laws

def unit_row(values):
    """The unit row of a law on values, when 1 is a value: 1*1 = {1} and
    1*v = {v} for each v not in {0, 1}, so 1*0 stays empty; no cells
    otherwise."""
    if ONE not in values:
        return {}
    return {(ONE, v): {v} for v in values if v != ZERO}


def jordan_half_law(tag=FieldTag.QQ):
    """The law on {1, 0, 1/2} obeyed by Jordan-algebra idempotents."""
    one, zero, half = ONE, ZERO, Rat(1, 2)
    values = (one, zero, half)
    table = unit_row(values)
    table.update({
        (zero, zero): {zero},
        (zero, half): {half},
        (half, half): {one, zero},
    })
    return FusionLaw(values, table, tag)


def monster_law(tag=FieldTag.QQ):
    """The law on {1, 0, 2, 1/2} of the four-dimensional highly symmetric
    example: 2*2={1,0}, 2*1/2={1/2}, 1/2*1/2={1,0,2}, 0*2={2}, 0*1/2={1/2},
    0*0={0}, plus unit rows."""
    one, zero, two, half = ONE, ZERO, Rat(2), Rat(1, 2)
    values = (one, zero, two, half)
    table = unit_row(values)
    table.update({
        (zero, zero): {zero},
        (zero, two): {two},
        (zero, half): {half},
        (two, two): {one, zero},
        (two, half): {half},
        (half, half): {one, zero, two},
    })
    return FusionLaw(values, table, tag)
