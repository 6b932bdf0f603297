"""Finite groups as explicit multiplication tables.

Elements are dense indices 0..n-1; the Cayley table is the whole group.
Construction always validates, so everything downstream may assume it is
holding an actual group.  The rows are checked one at a time, as they are
read (read_table): the first row's length is the order n, and each row
must be a list of ints (neither True nor 1.0 nor "1" passes) of length n
over 0..n-1 forming a permutation; the first row that is not, or an
(n+1)-th row, is refused before any later row is looked at.  Then come
the columns, identity, inverses, and associativity by Light's test over
a greedy generating set S, which is exact and costs O(n^2 |S|) with
|S| <= log2(n) + 1 for a group.  A table of order n <= 256 is checked as
one bytes object per line, so that the Latin scan and each (s, x) pair of
Light's test are single C-level byte operations; a larger table keeps
tuples, sets and itemgetter.  The two line types share the order of the
checks, the messages and the witnesses.  The generating set is kept on
the group, so that irrep validation can check the homomorphism property
over generators only.

A group file is read one member at a time, and its element names and
table rows one item at a time (jsonread), so a file is refused at its
first fault, or as soon as its first row or its names exceed the order
limit, without decoding what follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

from .jsonread import array_items, read_object


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


def build_group_from_table(name, element_names, table) -> Group:
    """The group of a Cayley table, validated.  table is an iterable of
    rows, checked one row at a time as read_table reads them, or the lines
    read_table returned for the rows of a file; the names, columns,
    identity, inverses and associativity are checked after the rows."""
    lines = table if isinstance(table, _Lines) else read_table(table)
    n = lines.n
    element_names = tuple(str(x) for x in element_names)
    if len(element_names) != n:
        raise NotAGroup(f"{len(element_names)} names for {n} elements")
    rows = lines.rows
    columns = lines.columns()
    for i in range(n):
        if not lines.permutes(columns[i]):
            raise NotAGroup("column is not a permutation", witness=i)

    # in a Latin square at most one row (and one column) is the identity map
    ident = lines.ident
    identity = next((e for e in range(n) if rows[e] == ident and columns[e] == ident), None)
    if identity is None:
        raise NotAGroup("no two-sided identity element")

    # the one right inverse g*h = e must also be a left inverse
    inverses = []
    for g in range(n):
        h = rows[g].index(identity)
        if rows[h][g] != identity:
            raise NotAGroup("missing inverse", witness=g)
        inverses.append(h)

    generators = _greedy_generators(rows)
    witness = _associativity_witness(rows, columns, generators, lines.left_products())
    if witness is not None:
        raise NotAGroup("associativity fails", witness=witness)

    return Group(str(name), n, element_names, lines.table(), identity, tuple(inverses),
                 generators)


_NOT_INTEGER_ROWS = "field 'table' must be a list of rows of integers"
_NOT_N_BY_N = "table is not n x n over 0..n-1"
_END = object()


def read_table(table, max_order=None, line_type=None):
    """The rows of a Cayley table, checked in order as they are read and
    returned as lines of one type.  The first row's length n is the order:
    it is compared with max_order before any row is checked, and picks the
    line type (bytes for n <= 256, tuples above) unless line_type is given.
    Then each row must be a list of integers (ValueError), of length n with
    entries in 0..n-1 (NotAGroup), forming a permutation (NotAGroup with
    the row as witness).  The first row that fails raises, and so do an
    (n+1)-th row and a missing one, before any later row is taken from
    table."""
    rows = iter(table)
    first = next(rows, _END)
    if first is _END:
        raise NotAGroup("empty table")
    if not isinstance(first, (list, tuple)):
        raise ValueError(_NOT_INTEGER_ROWS)
    n = len(first)
    if max_order is not None and n > max_order:
        raise ClosureTooLarge(f"group order {n} exceeds limit {max_order}")
    lines = (line_type or (_ByteLines if n <= 256 else _TupleLines))(n)
    append, line = lines.rows.append, lines.line
    for i, row in enumerate(chain((first,), rows)):
        if i == n:
            raise NotAGroup(_NOT_N_BY_N)
        append(line(row, i))
    if len(lines.rows) != n:
        raise NotAGroup(_NOT_N_BY_N)
    return lines


class _Lines:
    """The rows read so far, as lines of one type (a subclass), which
    checks each row as it arrives, builds the columns and answers the
    per-line questions.  Both types give the same messages and witnesses."""

    def __init__(self, n):
        self.n = n
        self.rows = []


class _ByteLines(_Lines):
    """Each line as one bytes object, for n <= 256 (a byte holds 0..255):
    every per-line check is a C-level byte operation.  With ident the bytes
    0..n-1, a line has every entry below n exactly when
    line.translate(None, ident) is empty, and a line of length n is a
    permutation exactly when ident.translate(None, line) is."""

    def __init__(self, n):
        super().__init__(n)
        self.ident = bytes(range(n))
        self._pad = bytes(range(n, 256))  # completes a row to a 256-byte translate table

    def line(self, row, i):
        """Row i as bytes, checked.  bytes() refuses an entry outside 0..255
        and every JSON value but ints and bools, and in a permutation of
        0..n-1 a bool can stand only where 0 or 1 is, so a permutation row
        needs two type tests; any other row gets one per entry.  (Other
        integer types with __index__, which JSON cannot produce, pass as
        their value.)"""
        if not isinstance(row, (list, tuple)):
            raise ValueError(_NOT_INTEGER_ROWS)
        n = self.n
        try:
            line = bytes(row)  # TypeError on float, str, None, list, dict
        except (TypeError, ValueError):
            line = None
        permutation = line is not None and len(line) == n and self.permutes(line)
        if permutation:
            typed = (type(row[line.index(0)]) is int
                     and (n == 1 or type(row[line.index(1)]) is int))
        else:
            typed = {int}.issuperset(map(type, row))
        if not typed:
            raise ValueError(_NOT_INTEGER_ROWS)
        if permutation:
            return line
        if line is None or len(line) != n or line.translate(None, self.ident):
            raise NotAGroup(_NOT_N_BY_N)
        raise NotAGroup("row is not a permutation", witness=i)

    def columns(self):
        flat = b"".join(self.rows)
        return [flat[j::self.n] for j in range(self.n)]

    def permutes(self, line):
        return not self.ident.translate(None, line)

    def left_products(self):
        """For the row of s, the lines y -> x*(s*y), one per x: the row of s
        translated through the row of x."""
        padded = [line + self._pad for line in self.rows]
        return lambda s_row: list(map(s_row.translate, padded))

    def table(self):
        return tuple(map(tuple, self.rows))


class _TupleLines(_Lines):
    """Each line as a tuple of ints, for n >= 2 of any size (itemgetter of
    one index returns no tuple); one set per row decides its shape, range
    and distinctness."""

    def __init__(self, n):
        super().__init__(n)
        self.ident = tuple(range(n))
        self._span = set(self.ident)

    def line(self, row, i):
        if not (isinstance(row, (list, tuple)) and {int}.issuperset(map(type, row))):
            raise ValueError(_NOT_INTEGER_ROWS)
        entries = set(row)
        if len(row) != self.n or not entries <= self._span:
            raise NotAGroup(_NOT_N_BY_N)
        # a line of n entries in 0..n-1 is a permutation when they are distinct
        if len(entries) != self.n:
            raise NotAGroup("row is not a permutation", witness=i)
        return tuple(row)

    def columns(self):
        return tuple(zip(*self.rows))

    def permutes(self, line):
        return len(set(line)) == self.n

    def left_products(self):
        """For the row of s, the lines y -> x*(s*y), one per x."""
        return lambda s_row: list(map(itemgetter(*s_row), self.rows))

    def table(self):
        return tuple(self.rows)


def _associativity_witness(rows, columns, generators, left_products):
    """Light's test: a triple (x, s, y) with s a generator and
    (x*s)*y != x*(s*y), or None when the table is associative; the first
    failing s in generator order, then x, then y.  left_products maps the
    row of s to the lines y -> x*(s*y), one per x.

    A = {s : (x*s)*y == x*(s*y) for all x, y} is closed under products: for
    a, b in A, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The
    generators lie in A and every element is a product of generators, so A
    is the whole table.
    """
    n = len(rows)
    for s in generators:
        xs_rows = list(map(rows.__getitem__, columns[s]))  # row of x*s, per x
        x_s_y = left_products(rows[s])
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


def conjugacy_classes(group: Group) -> tuple[tuple[int, ...], ...]:
    """The conjugacy classes, each a sorted tuple of elements: the
    identity's class first, then by least member."""
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
    classes.sort(key=lambda cls: (group.identity not in cls, cls[0]))
    return tuple(classes)


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


_NOT_A_GROUP = "a group is an object with a 'table' list"
_NOT_NAMES = "field 'elements' must be a list of strings"


def group_from_dict(data, max_order=DEFAULT_ORDER_LIMIT) -> Group:
    """A group from its decoded JSON form, checked as load_group checks a
    file; data of the wrong shape raises ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError(_NOT_A_GROUP)
    return _group_from_members(data.items(), max_order)


def load_group(path, max_order=DEFAULT_ORDER_LIMIT) -> Group:
    """Read a group JSON file one member at a time, and the elements and
    the table one item at a time (jsonread.read_object), so that a file is
    refused at its first fault, or as soon as its order is seen to exceed
    max_order, without decoding the rest."""
    with open(path, "rb") as fh:
        return _group_from_members(read_object(fh, ("elements", "table"), _NOT_A_GROUP),
                                   max_order)


def _group_from_members(members, max_order):
    """The group of (key, value) members in file order.  Each member is
    checked as it arrives: a string name, an integer order, element names
    that are strings and at most max_order of them, and the table's rows
    as read_table reads them.  Then every field must be there, the
    declared order must be the table's, and build_group_from_table checks
    the rest."""
    fields = {}
    for key, value in members:
        if key == "table":
            rows = array_items(value)
            if rows is None:
                raise ValueError(_NOT_A_GROUP)
            value = read_table(rows, max_order)
        elif key == "elements":
            value = _element_names(value, max_order)
        elif key == "name" and not isinstance(value, str):
            raise ValueError("field 'name' must be a string")
        elif key == "order" and type(value) is not int:
            raise ValueError("field 'order' must be an integer")
        fields[key] = value
    if "table" not in fields:
        raise ValueError(_NOT_A_GROUP)
    for key in ("order", "name", "elements"):
        if key not in fields:
            raise ValueError(f"field {key!r} is missing")
    lines = fields["table"]
    if fields["order"] != lines.n:
        raise NotAGroup(f"declared order {fields['order']} but table has {lines.n}")
    return build_group_from_table(fields["name"], fields["elements"], lines)


def _element_names(value, max_order):
    """The element names, at most max_order of them: name max_order + 1 is
    refused before any later one is decoded."""
    names = array_items(value)
    if names is None:
        raise ValueError(_NOT_NAMES)
    names = list(islice(names, max(max_order, 0) + 1))
    if len(names) > max_order:
        raise ClosureTooLarge(f"more than {max_order} element names: "
                              f"group order exceeds limit {max_order}")
    if not all(isinstance(name, str) for name in names):
        raise ValueError(_NOT_NAMES)
    return names
