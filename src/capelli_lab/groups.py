"""Finite groups as explicit multiplication tables.

Elements are dense indices 0..n-1; the Cayley table is the whole group.
Construction always validates, so everything downstream may assume it is
holding an actual group: entries must be ints (one type test each, so
neither True nor 1.0 nor "1" passes), each row and column is put into
one set that decides its shape, range and whether it is a permutation,
then identity, inverses, and associativity by Light's test over a greedy
generating set S, which is exact and costs O(n^2 |S|) with
|S| <= log2(n) + 1 for a group; that test is the remaining cost.  The
generating set is kept on the group, so that irrep validation can check
the homomorphism property over generators only.  Loading a
table from JSON compares its size to the order limit before any of this
validation runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter


class NotAGroup(ValueError):
    """Table fails a group axiom; carries a witness when there is one."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosureTooLarge(ValueError):
    """A generated or loaded group exceeds the configured order limit."""


DEFAULT_ORDER_LIMIT = 10000


@dataclass(frozen=True)
class Group:
    name: str
    order: int
    element_names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    generators: tuple[int, ...]  # generate the table as a semigroup; see _greedy_generators

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, h: int) -> int:
        """g * h * g^-1"""
        return self.table[self.table[g][h]][self.inverses[g]]

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.table[x][g]
            k += 1
        return k

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class ClassPartition:
    classes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_of(self, g: int) -> int:
        for i, cls in enumerate(self.classes):
            if g in cls:
                return i
        raise ValueError(f"element {g} not in partition")


def build_group_from_table(name, element_names, table) -> Group:
    if not all(isinstance(row, (list, tuple)) and {int}.issuperset(map(type, row)) for row in table):
        raise ValueError("field 'table' must be a list of rows of integers")
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    element_names = tuple(str(x) for x in element_names)
    if len(element_names) != n:
        raise NotAGroup(f"{len(element_names)} names for {n} elements")
    table = tuple(map(tuple, table))
    # one set per row decides its range and, with every row in range, whether
    # it is a permutation: a line of n entries in 0..n-1 is one exactly when
    # they are distinct
    span = set(range(n))
    row_distinct = []
    for row in table:
        entries = set(row)
        if len(row) != n or not entries <= span:
            raise NotAGroup("table is not n x n over 0..n-1")
        row_distinct.append(len(entries) == n)
    columns = tuple(zip(*table))
    for i in range(n):
        if not row_distinct[i]:
            raise NotAGroup("row is not a permutation", witness=i)
        if len(set(columns[i])) != n:
            raise NotAGroup("column is not a permutation", witness=i)

    # in a Latin square at most one row (and one column) is the identity map
    ident = tuple(range(n))
    identity = next((e for e in range(n) if table[e] == ident and columns[e] == ident), None)
    if identity is None:
        raise NotAGroup("no two-sided identity element")

    # the one right inverse g*h = e must also be a left inverse
    inverses = []
    for g in range(n):
        h = table[g].index(identity)
        if table[h][g] != identity:
            raise NotAGroup("missing inverse", witness=g)
        inverses.append(h)

    generators = _greedy_generators(table)
    witness = _associativity_witness(table, columns, generators)
    if witness is not None:
        raise NotAGroup("associativity fails", witness=witness)

    return Group(str(name), n, element_names, table, identity, tuple(inverses), generators)


def _associativity_witness(table, columns, generators):
    """Light's test: a triple (x, s, y) with s a generator and
    (x*s)*y != x*(s*y), or None when the table is associative.

    A = {s : (x*s)*y == x*(s*y) for all x, y} is closed under products: for
    a, b in A, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The
    generators lie in A and every element is a product of generators, so A
    is the whole table.
    """
    n = len(table)
    if n == 1:
        return None  # ((0,),) is associative; itemgetter of one index returns no tuple
    for s in generators:
        xs_rows = list(map(table.__getitem__, columns[s]))  # row of x*s, per x
        x_s_y = list(map(itemgetter(*table[s]), table))  # x*(s*y) over y, per x
        if xs_rows != x_s_y:
            x = next(x for x in range(n) if xs_rows[x] != x_s_y[x])
            y = next(y for y in range(n) if xs_rows[x][y] != x_s_y[x][y])
            return (x, s, y)
    return None


def _greedy_generators(table) -> tuple[int, ...]:
    """A generating set S in index order: each element not yet reached joins
    S.  The reached set is the closure of S (not of the identity) under
    right multiplication by S, so every element is a product of elements of
    S in some bracketing; no associativity is assumed.  For a group,
    each new generator at least doubles the reached subgroup, so
    |S| <= log2(n) + 1."""
    n = len(table)
    reached = [False] * n
    elements = []
    generators = []
    for s in range(n):
        if reached[s]:
            continue
        generators.append(s)
        reached[s] = True
        # earlier elements times the new generator, then everything new
        # times every generator
        frontier = [s]
        for x in elements:
            y = table[x][s]
            if not reached[y]:
                reached[y] = True
                frontier.append(y)
        for x in frontier:
            row = table[x]
            for t in generators:
                y = row[t]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
        elements.extend(frontier)
    return tuple(generators)


# -- permutation groups ---------------------------------------------------
#
# Permutations are given in one-line notation on points 1..degree; the
# product g*h acts by h first, then g, so matrix models with column
# vectors compose the same way.


def perm_from_cycles(degree: int, cycles) -> tuple[int, ...]:
    image = list(range(1, degree + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return tuple(image)


def _compose(p, q):
    # (p*q)(x) = p(q(x)), 1-based one-line notation
    return tuple(p[q[x] - 1] for x in range(len(p)))


def cycle_name(perm) -> str:
    seen = set()
    parts = []
    for start in range(1, len(perm) + 1):
        if start in seen or perm[start - 1] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start - 1]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x - 1]
        parts.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(parts) or "e"


def build_group_from_permutations(name, degree, generators, max_order=DEFAULT_ORDER_LIMIT) -> Group:
    """Close a generating set of permutations under composition.

    Elements are ordered by breadth-first discovery, identity first.
    """
    identity = tuple(range(1, degree + 1))
    gens = []
    for g in generators:
        g = tuple(int(v) for v in g)
        if sorted(g) != list(range(1, degree + 1)):
            raise ValueError(f"not a permutation of 1..{degree}: {g}")
        gens.append(g)

    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in index:
                    if len(elements) >= max_order:
                        raise ClosureTooLarge(
                            f"closure of {name} exceeds order limit {max_order}"
                        )
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt

    n = len(elements)
    table = tuple(
        tuple(index[_compose(elements[a], elements[b])] for b in range(n)) for a in range(n)
    )
    names = tuple(cycle_name(p) for p in elements)
    return build_group_from_table(name, names, table)


# -- structure ------------------------------------------------------------


def conjugacy_classes(group: Group) -> ClassPartition:
    n = group.order
    assigned = [None] * n
    classes = []
    for g in range(n):
        if assigned[g] is not None:
            continue
        orbit = sorted({group.conj(h, g) for h in range(n)})
        idx = len(classes)
        for x in orbit:
            assigned[x] = idx
        classes.append(tuple(orbit))
    # identity class first, then by least member
    classes.sort(key=lambda cls: (group.identity not in cls, cls[0]))
    return ClassPartition(tuple(classes))


def exponent(group: Group) -> int:
    """Least N with g^N = identity for all g: the lcm of element orders."""
    result = 1
    for g in range(group.order):
        result = math.lcm(result, group.element_order(g))
    return result


# -- JSON interface --------------------------------------------------------


def group_to_dict(group: Group) -> dict:
    return {
        "name": group.name,
        "order": group.order,
        "elements": list(group.element_names),
        "table": [list(row) for row in group.table],
    }


def group_from_dict(data, max_order=DEFAULT_ORDER_LIMIT) -> Group:
    """A group from its JSON form.  A table with more rows than max_order
    is refused before any work that scales with the table; data of the
    wrong shape raises ValueError naming the field."""
    if not isinstance(data, dict) or not isinstance(data.get("table"), list):
        raise ValueError("a group is an object with a 'table' list")
    table = data["table"]
    n = len(table)
    if n > max_order:
        raise ClosureTooLarge(f"group order {n} exceeds limit {max_order}")
    if type(data["order"]) is not int:
        raise ValueError("field 'order' must be an integer")
    if n != data["order"]:
        raise NotAGroup(f"declared order {data['order']} but table has {n}")
    if not isinstance(data["name"], str):
        raise ValueError("field 'name' must be a string")
    elements = data["elements"]
    if not (isinstance(elements, list) and all(isinstance(e, str) for e in elements)):
        raise ValueError("field 'elements' must be a list of strings")
    return build_group_from_table(data["name"], elements, table)


def load_group(path, max_order=DEFAULT_ORDER_LIMIT) -> Group:
    """Read a group JSON file; see group_from_dict."""
    with open(path) as fh:
        return group_from_dict(json.load(fh), max_order)
