"""Built-in groups and their unitary irreps.

Groups come from permutation generators (except Q8, whose table is
written out from the quaternion relations since it has no faithful
small-degree permutation model worth the trouble).  Every irrep is
induced from a linear character of a subgroup (irreps.induced_irrep),
one row of IRREPS each, so its matrices are monomial with roots of unity
at the group exponent as entries; a linear character is the case of the
whole group.  Degrees 1, 2 and 3 all occur, with both real and complex
character fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .groups import Group, build_group_from_permutations, build_group_from_table, exponent, perm_from_cycles
from .irreps import IrrepSet, induced_irrep

CATALOG = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
           "V4", "S3", "D4", "Q8", "A4", "S4")


def catalog_names() -> tuple[str, ...]:
    return CATALOG


@lru_cache(maxsize=None)
def catalog_group(name: str) -> Group:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog group {name!r}")
    if name == "C1":
        return build_group_from_permutations("C1", 1, [])
    if name.startswith("C"):
        n = int(name[1:])
        return build_group_from_permutations(name, n, [perm_from_cycles(n, [tuple(range(1, n + 1))])])
    if name == "V4":
        return build_group_from_permutations(
            "V4", 4, [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(1, 3), (2, 4)])]
        )
    if name == "S3":
        return build_group_from_permutations(
            "S3", 3, [perm_from_cycles(3, [(1, 2, 3)]), perm_from_cycles(3, [(1, 2)])]
        )
    if name == "D4":
        return build_group_from_permutations(
            "D4", 4, [perm_from_cycles(4, [(1, 2, 3, 4)]), perm_from_cycles(4, [(1, 3)])]
        )
    if name == "Q8":
        return _quaternion_group()
    if name == "A4":
        return build_group_from_permutations(
            "A4", 4, [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(2, 3, 4)])]
        )
    if name == "S4":
        return build_group_from_permutations(
            "S4", 4, [perm_from_cycles(4, [(1, 2)]), perm_from_cycles(4, [(1, 2, 4, 3)])]
        )
    raise KeyError(name)


def _quaternion_group() -> Group:
    # units +-1, +-i, +-j, +-k with i^2 = j^2 = k^2 = ijk = -1
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    base = {"1": 0, "i": 2, "j": 4, "k": 6}
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def mul(a: int, b: int) -> int:
        sa, ua = (-1 if a % 2 else 1), names[a - a % 2][-1]
        sb, ub = (-1 if b % 2 else 1), names[b - b % 2][-1]
        sign, unit = prod[(ua, ub)]
        sign *= sa * sb
        return base[unit] + (0 if sign > 0 else 1)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return build_group_from_table("Q8", names, table)


_HALF, _THIRD, _QUARTER = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)


def _linear(generators, *characters, identity="e"):
    """Rows of linear characters: H = G from `generators`, one coset.
    Each character is (label, turn of each generator)."""
    return [(label, generators, turns, (identity,)) for label, *turns in characters]


def _cyclic(n):
    """chi_k of C_n turns the generator (12...n) by k/n."""
    cycle = "(" + "".join(map(str, range(1, n + 1))) + ")"
    return _linear((cycle,), *[("triv" if k == 0 else f"chi{k}", Fraction(k, n)) for k in range(n)])


# Every catalog irrep is Ind_H^G chi (irreps.induced_irrep): a row gives its
# label, the generators of H, chi on them in turns, and the coset
# representatives t_1 = identity, ..., t_r, elements named as in the group.
IRREPS = {
    "C1": _linear((), ("triv",)),
    **{f"C{n}": _cyclic(n) for n in range(2, 9)},
    "V4": _linear(("(12)(34)", "(13)(24)"), ("triv", 0, 0), ("chi10", _HALF, 0),
                  ("chi01", 0, _HALF), ("chi11", _HALF, _HALF)),
    "S3": _linear(("(123)", "(12)"), ("triv", 0, 0), ("sgn", 0, _HALF)) + [
        ("std", ("(123)",), (_THIRD,), ("e", "(12)")),
    ],
    "D4": _linear(("(1234)", "(13)"), ("triv", 0, 0), ("sgn_s", 0, _HALF),
                  ("sgn_r", _HALF, 0), ("sgn_rs", _HALF, _HALF)) + [
        ("std", ("(1234)",), (_QUARTER,), ("e", "(13)")),
    ],
    "Q8": _linear(("i", "j"), ("triv", 0, 0), ("chi_i", 0, _HALF), ("chi_j", _HALF, 0),
                  ("chi_k", _HALF, _HALF), identity="1") + [
        ("std", ("i",), (_QUARTER,), ("1", "-j")),
    ],
    "A4": _linear(("(12)(34)", "(234)"), ("triv", 0, 0), ("omega", 0, _THIRD),
                  ("omega_sq", 0, 2 * _THIRD)) + [
        # rotations of the cube permuting its four space diagonals, from V4
        ("std", ("(12)(34)", "(13)(24)"), (0, _HALF), ("e", "(234)", "(243)")),
    ],
    "S4": _linear(("(12)", "(1243)"), ("triv", 0, 0), ("sgn", _HALF, _HALF)) + [
        # through the quotient onto the pairings of {1,2,3,4}, from A4
        ("dim2", ("(243)", "(14)(23)"), (2 * _THIRD, 0), ("e", "(14)")),
        # the cube rotations, twisted by sign and not, from a D4
        ("std_sgn", ("(12)", "(1423)"), (_HALF, 0), ("e", "(1243)", "(243)")),
        ("std", ("(12)", "(1423)"), (0, _HALF), ("e", "(234)", "(243)")),
    ],
}


@lru_cache(maxsize=None)
def catalog_irreps(name: str) -> IrrepSet:
    group = catalog_group(name)
    index = {element: g for g, element in enumerate(group.element_names)}
    return IrrepSet(group, tuple(
        induced_irrep(group, label, [index[h] for h in generators], turns,
                      [index[t] for t in cosets])
        for label, generators, turns, cosets in IRREPS[name]))


def catalog_summary() -> list[dict]:
    from .groups import conjugacy_classes

    rows = []
    for name in CATALOG:
        group = catalog_group(name)
        irreps = catalog_irreps(name)
        rows.append(
            {
                "name": name,
                "order": group.order,
                "exponent": exponent(group),
                "classes": len(conjugacy_classes(group)),
                "degrees": sorted(r.degree for r in irreps.irreps),
            }
        )
    return rows
