"""Irreps induced from linear characters of subgroups.

The catalog's irreps are compared entry for entry with the generator
images they were first written as (helpers.catalog_by_generators).  Two
groups outside the catalog are built the same way: F20 = AGL(1, 5), whose
degree-4 irrep is the first at m = 4, and C7 x| C3 with two of degree 3.
"""

from fractions import Fraction

import pytest

from capelli_lab.catalog import catalog_group, catalog_irreps, catalog_names
from capelli_lab.cli import run_checks
from capelli_lab.groups import build_group_from_permutations, cycle_name, perm_from_cycles
from capelli_lab.irreps import IrrepSet, induced_irrep, validate, validate_complete
from helpers import catalog_by_generators


def entries(irrep):
    return [(v.num, v.den) for mat in irrep.matrices for row in mat for v in row]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_irreps_equal_generator_image_oracle(name):
    induced = catalog_irreps(name).irreps
    oracle = catalog_by_generators(name)
    assert [r.label for r in induced] == [r.label for r in oracle]
    for got, want in zip(induced, oracle):
        assert (got.degree, got.conductor) == (want.degree, want.conductor)
        assert {v.conductor for mat in got.matrices for row in mat for v in row} == {
            want.conductor}
        assert entries(got) == entries(want), got.label


def test_induced_irrep_refuses_cosets_that_miss_the_order():
    s3 = catalog_group("S3")
    index = {element: g for g, element in enumerate(s3.element_names)}
    c3 = [index["(123)"]]
    for cosets in (["e"], ["e", "(12)", "(13)"]):
        with pytest.raises(ValueError, match="cosets"):
            induced_irrep(s3, "std", c3, [Fraction(1, 3)], [index[t] for t in cosets])


def test_induced_irrep_refuses_bad_turns():
    s3 = catalog_group("S3")
    with pytest.raises(ValueError, match="zeta_6"):
        induced_irrep(s3, "chi", [s3.generators[0]], [Fraction(1, 4)], [s3.identity])
    with pytest.raises(ValueError):  # one turn per generator
        induced_irrep(s3, "chi", [s3.generators[0]], [0, 0], [s3.identity])


def semidirect(name, degree, rotation, twist, order_of_twist, rotation_turns):
    """<rotation, twist>, with twist normalizing the cyclic group of the
    rotation: the linear characters through the quotient by it, then one
    irrep induced from each of `rotation_turns`, with the powers of twist
    as coset representatives."""
    generators = [perm_from_cycles(degree, rotation), perm_from_cycles(degree, twist)]
    group = build_group_from_permutations(name, degree, generators)
    a, b = (group.element_names.index(cycle_name(p)) for p in generators)
    powers = [group.identity]
    for _ in range(order_of_twist - 1):
        powers.append(group.mul(powers[-1], b))
    irreps = [induced_irrep(group, "triv" if k == 0 else f"chi{k}", [a, b],
                            [0, Fraction(k, order_of_twist)], [group.identity])
              for k in range(order_of_twist)]
    irreps += [induced_irrep(group, f"ind{turn.numerator}", [a], [turn], powers)
               for turn in rotation_turns]
    return IrrepSet(group, tuple(irreps))


def f20():
    return semidirect("F20", 5, [(1, 2, 3, 4, 5)], [(2, 3, 5, 4)], 4, [Fraction(1, 5)])


def c7_c3():
    return semidirect("C7xC3", 7, [(1, 2, 3, 4, 5, 6, 7)], [(2, 3, 5), (4, 7, 6)], 3,
                      [Fraction(1, 7), Fraction(3, 7)])


NEW_GROUPS = {"F20": (f20, 20, [1, 1, 1, 1, 4]), "C7xC3": (c7_c3, 21, [1, 1, 1, 3, 3])}
CHECKED = ["closed-form", "schur", "e-basis", "central", "conj-inv", "basis-capelli",
           "basis-char"]


@pytest.mark.parametrize("name", NEW_GROUPS)
def test_new_groups_by_induction_validate(name):
    build, conductor, degrees = NEW_GROUPS[name]
    irrep_set = build()
    assert irrep_set.group.order == sum(d * d for d in degrees)
    assert [r.degree for r in irrep_set.irreps] == degrees
    assert irrep_set.conductor == conductor
    for irrep in irrep_set.irreps:
        assert validate(irrep).ok, irrep.label
    assert validate_complete(irrep_set).ok


@pytest.mark.parametrize("name", NEW_GROUPS)
def test_new_groups_pass_the_group_algebra_checks(name):
    # det-variants at m = 4 and the derived Weyl rows at degree 4 stay out:
    # the first is slow here, the second skipped by GENERIC_SIZE_LIMIT
    irrep_set = NEW_GROUPS[name][0]()
    names = CHECKED + (["weyl-relations", "weyl-capelli"] if name == "C7xC3" else [])
    for check, _, rows in run_checks(irrep_set, names):
        assert rows, check
        bad = [(r["check"], r["irrep"], r["status"], r["detail"]) for r in rows
               if r["status"] != "pass"]
        assert not bad, (check, bad)
    if name == "F20":
        assert irrep_set.by_label("ind1").alpha == 5
