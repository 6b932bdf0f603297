import functools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capelli_lab import groups
from capelli_lab.catalog import catalog_group, catalog_names
from capelli_lab.cli import main
from capelli_lab.groups import (
    ClosureTooLarge,
    NotAGroup,
    build_group_from_permutations,
    build_group_from_table,
    conjugacy_classes,
    cycle_name,
    exponent,
    group_from_dict,
    group_to_dict,
    perm_from_cycles,
)
from helpers import brute_associative, brute_closure, compose, table_lines_reference


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def test_cyclic_table_of_order_4():
    group = build_group_from_table("C4", ["0", "1", "2", "3"], cyclic_table(4))
    assert group.identity == 0
    assert group.inverses == (0, 3, 2, 1)
    assert group.order == 4


def test_s3_from_composition_table_oracle():
    # table built entirely with the oracle's permutation composition
    elements = sorted(brute_closure(3, [(2, 1, 3), (2, 3, 1)]))
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    group = build_group_from_table("S3", [str(p) for p in elements], table)
    assert group.order == 6
    assert group.table[group.identity] == tuple(range(6))


# An order-5 Latin square with two-sided identity and all elements
# self-inverse.  A group with every element of order <= 2 is an
# elementary abelian 2-group, so no order-5 group looks like this and
# associativity has to fail somewhere.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_nonassociative_loop_rejected_with_witness():
    with pytest.raises(NotAGroup) as exc:
        build_group_from_table("loop", list("abcde"), LOOP5)
    witness = exc.value.witness
    assert witness is not None
    a, b, c = witness
    assert LOOP5[LOOP5[a][b]][c] != LOOP5[a][LOOP5[b][c]]


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    square = [[0] * n for _ in range(n)]
    square[0] = list(range(n))
    for i in range(n):
        square[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, square))
            return
        i, j = cells[k]
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                yield from fill(k + 1)

    yield from fill(0)


def _outcome(build):
    """The accepted group, or the refusal's class, message and witness."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def assert_line_types_agree(table):
    """Every line type that can hold the table gives the outcome of
    build_group_from_table: bytes up to order 256, tuples from order 2
    (itemgetter of one index returns no tuple), the order being the first
    row's length.  Returns that outcome."""
    n = len(table[0]) if table and isinstance(table[0], (list, tuple)) else len(table)
    names = [str(i) for i in range(n)]
    expected = _outcome(lambda: build_group_from_table("G", names, table))
    line_types = [lines for lines, fits in ((groups._ByteLines, n <= 256),
                                            (groups._TupleLines, n >= 2)) if fits]
    for lines in line_types:
        assert _outcome(lambda: build_group_from_table(
            "G", names, groups.read_table(table, line_type=lines))) == expected
    return expected


def assert_build_matches_oracle(table):
    """Accepted exactly when the full scan finds the table associative; an
    associativity rejection names a triple that really fails; both line
    types agree.  Returns the rejection message, or None when accepted."""
    names = [str(i) for i in range(len(table))]
    assert_line_types_agree(table)
    if brute_associative(table):
        build_group_from_table("loop", names, table)
        return None
    with pytest.raises(NotAGroup) as exc:
        build_group_from_table("loop", names, table)
    if str(exc.value) == "associativity fails":
        x, s, y = exc.value.witness
        assert table[table[x][s]][y] != table[x][table[s][y]]
    return str(exc.value)


def test_every_loop_up_to_order_6_matches_full_scan():
    # all 9,471 reduced Latin squares of order <= 6; 93 are groups, and
    # 1,730 have two-sided inverses but are not associative, so they reach
    # the associativity test
    messages = [assert_build_matches_oracle(sq) for n in range(1, 7)
                for sq in reduced_latin_squares(n)]
    assert messages.count(None) == 1 + 1 + 1 + 4 + 6 + 80
    assert messages.count("associativity fails") == 2 + 1728


@st.composite
def catalog_loops(draw):
    """A catalog group table under a random relabelling (so the identity
    need not be element 0), with up to two intercalates swapped: an
    intercalate is a 2 x 2 subsquare [[p, q], [q, p]], and exchanging p and
    q in it keeps the square Latin.  Intercalates off the identity's row and
    column keep the identity two-sided."""
    group = catalog_group(draw(st.sampled_from([n for n in catalog_names()
                                                if catalog_group(n).order >= 4])))
    n = group.order
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    e = perm[group.identity]
    for _ in range(draw(st.integers(0, 2))):
        intercalates = [
            (a, b, c, d)
            for a in range(n) for b in range(a + 1, n) for c in range(n)
            for d in [table[b].index(table[a][c])]
            if c < d and table[a][d] == table[b][c] and e not in (a, b, c, d)
        ]
        if not intercalates:
            break
        a, b, c, d = draw(st.sampled_from(intercalates))
        table[a][c], table[a][d] = table[a][d], table[a][c]
        table[b][c], table[b][d] = table[b][d], table[b][c]
    return table


@settings(max_examples=60, deadline=None)
@given(catalog_loops())
def test_catalog_loops_match_full_scan(table):
    assert_build_matches_oracle(table)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_generators_reach_the_group(name):
    group = catalog_group(name)
    gens = group.generators
    assert len(gens) <= math.log2(group.order) + 1
    # closure of the generators (not of the identity) under right multiplication
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        frontier = [y for x in frontier for y in {group.mul(x, s) for s in gens}
                    if y not in reached]
        reached.update(frontier)
    assert reached == set(range(group.order))


TABLE_MUTATIONS = ("none", "short-row", "long-row", "entry-n", "entry-minus-1", "true",
                   "float", "string", "row-duplicate", "column-duplicate", "swap-in-row")


@st.composite
def mutated_catalog_tables(draw):
    """A relabelled catalog group table with one mutation at a drawn cell.
    A single changed entry leaves its row no permutation; swapping two
    entries of a row (swap-in-row) keeps the row a permutation and breaks
    two columns, so only the column check can refuse it."""
    group = catalog_group(draw(st.sampled_from(catalog_names())))
    n = group.order
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    kind = draw(st.sampled_from(TABLE_MUTATIONS))
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    other = draw(st.integers(0, n - 1).filter(lambda k: n == 1 or k != c))
    if kind == "short-row":
        table[r].pop()
    elif kind == "long-row":
        table[r].append(table[r][c])
    elif kind in ("entry-n", "entry-minus-1", "true", "float", "string"):
        table[r][c] = {"entry-n": n, "entry-minus-1": -1, "true": True, "float": 1.0,
                       "string": "1"}[kind]
    elif kind == "row-duplicate" and n > 1:
        table[r][c] = table[r][other]
    elif kind == "column-duplicate" and n > 1:
        table[r][c] = table[other][c]
    elif kind == "swap-in-row":
        table[r][c], table[r][other] = table[r][other], table[r][c]
    return kind, table


def _table_outcome(build):
    """The accepted table as tuples, or the refusal's class, message and witness."""
    result = _outcome(build)
    return getattr(result, "table", result)


def _true_at_a_one_cell():
    # True equals 1, so only a type test at the cell holding 1 refuses it;
    # a drawn case lands there only when the 'true' kind (one in ten) hits
    # the one cell in n of its row that holds 1
    table = cyclic_table(4)
    table[2][table[2].index(1)] = True
    return "true", table


@settings(max_examples=200, deadline=None)
@given(mutated_catalog_tables())
@example(_true_at_a_one_cell())
def test_table_checks_match_reference(case):
    # in-memory tables and decoded files go through the same row-by-row checks
    kind, table = case
    names = [str(i) for i in range(len(table))]
    data = {"name": "G", "order": len(table), "elements": names, "table": table}
    expected = _table_outcome(lambda: table_lines_reference(table))
    loaded = _table_outcome(lambda: group_from_dict(data))
    built = _table_outcome(lambda: assert_line_types_agree(table))
    assert loaded == built == expected
    if kind == "none":
        assert loaded == tuple(map(tuple, table))


@pytest.mark.parametrize("value", [0, 1])
def test_a_short_first_row_wins_over_a_type_error_in_a_later_row(value):
    # the first row sets the order: row 1 is then too long, and row 3 is
    # never read
    table = cyclic_table(4)
    table[0].pop()
    table[3][table[3].index(value)] = True
    assert assert_line_types_agree(table) == (NotAGroup, "table is not n x n over 0..n-1", None)


# -- tables at the edge of the byte lines (order 256) --------------------------------


def _xor_table(n):
    return [[a ^ b for b in range(n)] for a in range(n)]


def _d4_times_c2_5():
    d4, m = catalog_group("D4").table, 32
    return [[d4[a // m][b // m] * m + (a % m ^ b % m) for b in range(8 * m)]
            for a in range(8 * m)]


BOUNDARY_GROUPS = {"C2^8": lambda: _xor_table(256), "D4xC2^5": _d4_times_c2_5,
                   "C255": lambda: cyclic_table(255), "C257": lambda: cyclic_table(257)}


@functools.cache
def _relabelled(name):
    table = BOUNDARY_GROUPS[name]()
    n = len(table)
    perm = list(range(n))
    random.Random(name).shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(map(tuple, relabelled))


def relabelled_group_table(name):
    """A boundary group's table under a seeded relabelling that moves the
    identity off index 0, as a fresh list of lists."""
    return list(map(list, _relabelled(name)))


def swap_intercalate(table, rng):
    """Swap the entries of an intercalate [[p, q], [q, p]] that avoids the
    identity in its rows, columns and entries, so that the identity and
    every inverse survive.  In a group, rows a and a*u with columns u*d and
    d form one for every involution u; a group of odd order has none."""
    n = len(table)
    e = next(g for g in range(n) if table[g][g] == g)
    involutions = [u for u in range(n) if u != e and table[u][u] == e]
    while True:
        u, a, d = rng.choice(involutions), rng.randrange(n), rng.randrange(n)
        b, c = table[a][u], table[u][d]
        if e not in (a, b, c, d, table[a][c], table[a][d]):
            break
    table[a][c], table[a][d] = table[a][d], table[a][c]
    table[b][c], table[b][d] = table[b][d], table[b][c]


BOUNDARY_MUTATIONS = ("none", "entry-n", "entry-255", "entry-256", "entry-minus-1", "true-at-0",
                      "true-at-1", "float", "row-duplicate", "column-duplicate", "intercalate")


def mutate_boundary_table(name, kind):
    table = relabelled_group_table(name)
    n = len(table)
    rng = random.Random(f"{name}/{kind}")
    r, c, other = rng.randrange(n), rng.randrange(n), rng.randrange(1, n)
    if kind.startswith("entry-"):
        table[r][c] = {"entry-n": n, "entry-255": 255, "entry-256": 256, "entry-minus-1": -1}[kind]
    elif kind.startswith("true-at-"):
        table[r][table[r].index(int(kind[-1]))] = True
    elif kind == "float":
        table[r][c] = float(table[r][c])
    elif kind == "row-duplicate":
        table[r][c] = table[r][(c + other) % n]
    elif kind == "column-duplicate":
        table[r][c] = table[(r + other) % n][c]
    elif kind == "intercalate":
        swap_intercalate(table, rng)
    return table


def assert_first_associativity_failure(table, witness):
    """(x, s, y) fails, and no triple fails before it: none with an earlier
    generator, none with s and a smaller x, none with s, x and a smaller y."""
    def fails(x, s, y):
        return table[table[x][s]][y] != table[x][table[s][y]]

    x, s, y = witness
    n = len(table)
    generators = groups._greedy_generators(table)
    assert fails(x, s, y)
    assert not any(fails(xx, t, yy) for t in generators[:generators.index(s)]
                   for xx in range(n) for yy in range(n))
    assert not any(fails(xx, s, yy) for xx in range(x) for yy in range(n))
    assert not any(fails(x, s, yy) for yy in range(y))


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in BOUNDARY_GROUPS for kind in BOUNDARY_MUTATIONS
    if not (kind == "intercalate" and name in ("C255", "C257"))  # odd order: none
])
def test_boundary_tables_match_reference(name, kind):
    table = mutate_boundary_table(name, kind)
    outcome = assert_line_types_agree(table)
    reference = _table_outcome(lambda: table_lines_reference(table))
    if kind == "none":
        assert outcome.table == reference == tuple(map(tuple, table))
    elif kind == "intercalate":
        assert reference == tuple(map(tuple, table))
        assert outcome[:2] == (NotAGroup, "associativity fails")
        assert_first_associativity_failure(table, outcome[2])
    else:
        assert outcome == reference


def test_order_256_files_through_main(tmp_path, capsys):
    n = 256
    irrep = {"label": "triv", "group": "G", "degree": 1, "conductor": 1,
             "matrices": [[[{"conductor": 1, "coeffs": ["1"]}]]] * n}
    (tmp_path / "irrep.json").write_text(json.dumps(irrep))
    for name, kind, code, message in (("C2^8", "none", 0, ""),
                                      ("D4xC2^5", "intercalate", 2,
                                       "error: cannot load group file: associativity fails")):
        group = {"name": "G", "order": n, "elements": [f"g{i}" for i in range(n)],
                 "table": mutate_boundary_table(name, kind)}
        (tmp_path / "group.json").write_text(json.dumps(group))
        try:
            result = main(["verify", "--group-file", str(tmp_path / "group.json"), "--irrep-file",
                           str(tmp_path / "irrep.json"), "--checks", "closed-form"])
        except SystemExit as exc:
            result = exc.code
        assert result == code
        assert capsys.readouterr().err.strip() == message


def test_malformed_table_rejected():
    with pytest.raises(NotAGroup):
        build_group_from_table("bad", ["x", "y"], [[0, 1], [1, 5]])
    with pytest.raises(NotAGroup):
        build_group_from_table("bad", ["x", "y"], [[0, 0], [1, 1]])


def test_closure_of_transposition_and_three_cycle():
    gens = [perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(1, 2, 3)])]
    group = build_group_from_permutations("S3", 3, gens)
    assert group.order == len(brute_closure(3, [tuple(g) for g in gens])) == 6
    assert group.element_names[group.identity] == "e"


def test_closure_of_four_cycle():
    group = build_group_from_permutations("C4", 4, [perm_from_cycles(4, [(1, 2, 3, 4)])])
    assert group.order == 4


def test_closure_of_empty_generating_set():
    group = build_group_from_permutations("C1", 1, [])
    assert group.order == 1
    assert group.identity == 0


def test_closure_respects_order_limit():
    gens = [perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(1, 2, 3)])]
    with pytest.raises(ClosureTooLarge):
        build_group_from_permutations("S3", 3, gens, max_order=3)


def test_cycle_name():
    assert cycle_name((1, 2, 3)) == "e"
    assert cycle_name(perm_from_cycles(4, [(1, 2), (3, 4)])) == "(12)(34)"
    assert cycle_name(perm_from_cycles(4, [(1, 2, 4, 3)])) == "(1243)"


def test_trivial_group_has_one_class():
    assert len(conjugacy_classes(catalog_group("C1"))) == 1


def brute_classes(group):
    classes = set()
    for g in range(group.order):
        orbit = frozenset(
            group.table[group.table[h][g]][group.inverses[h]] for h in range(group.order)
        )
        classes.add(orbit)
    return classes


def test_s3_classes_against_brute_force():
    group = catalog_group("S3")
    classes = conjugacy_classes(group)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert {frozenset(c) for c in classes} == brute_classes(group)


def test_q8_classes_against_brute_force():
    group = catalog_group("Q8")
    classes = conjugacy_classes(group)
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    assert {frozenset(c) for c in classes} == brute_classes(group)


def test_identity_class_is_first_singleton():
    for name in catalog_names():
        group = catalog_group(name)
        first = conjugacy_classes(group)[0]
        assert first == (group.identity,)


def test_exponent_examples():
    assert exponent(catalog_group("C4")) == 4
    # lcm oracle over element orders
    s3 = catalog_group("S3")
    orders = [s3.element_order(g) for g in range(s3.order)]
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]
    assert exponent(s3) == math.lcm(*orders) == 6
    q8 = catalog_group("Q8")
    assert sorted(q8.element_order(g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert exponent(q8) == 4


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_group_axioms_full_scan(name):
    group = catalog_group(name)
    n = group.order
    table = group.table
    e = group.identity
    assert all(table[e][g] == g and table[g][e] == g for g in range(n))
    assert all(table[g][group.inverses[g]] == e for g in range(n))
    for a in range(n):
        assert sorted(table[a]) == list(range(n))
        assert sorted(table[b][a] for b in range(n)) == list(range(n))
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                assert table[ab][c] == table[a][table[b][c]]


@pytest.mark.parametrize("name", catalog_names())
def test_class_partition_properties(name):
    group = catalog_group(name)
    classes = conjugacy_classes(group)
    seen = [g for cls in classes for g in cls]
    assert sorted(seen) == list(range(group.order))
    for cls in classes:
        assert group.order % len(cls) == 0
    assert group.order % exponent(group) == 0  # exponent divides order


def test_json_round_trip():
    group = catalog_group("S3")
    data = group_to_dict(group)
    again = group_from_dict(json.loads(json.dumps(data)))
    assert again.table == group.table
    assert again.element_names == group.element_names


def test_json_identity_need_not_be_first():
    # relabel C3 so the identity sits at index 2
    relabel = [2, 0, 1]
    inverse_relabel = [relabel.index(i) for i in range(3)]
    base = cyclic_table(3)
    table = [
        [relabel[base[inverse_relabel[a]][inverse_relabel[b]]] for b in range(3)]
        for a in range(3)
    ]
    group = group_from_dict({"name": "C3-shifted", "order": 3, "elements": ["a", "b", "e"], "table": table})
    assert group.identity == 2


@given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
def test_permutation_closure_matches_oracle(p, q):
    p, q = tuple(p), tuple(q)
    group = build_group_from_permutations("frag", 4, [p, q], max_order=100)
    assert group.order == len(brute_closure(4, [p, q]))
    idx = {name: i for i, name in enumerate(group.element_names)}
    a, b = idx[cycle_name(p)], idx[cycle_name(q)]
    assert group.element_names[group.mul(a, b)] == cycle_name(compose(p, q))
