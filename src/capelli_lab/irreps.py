"""Matrix irreps with cyclotomic entries, in any matrix form.

An irrep here is the full table g -> matrix(g).  induced_irrep builds
one as Ind_H^G chi from a linear character chi of a subgroup H, by table
lookups; every catalog irrep is built that way.  Validation checks the
homomorphism property on every pair (g, s) with s in the group's
generating set, which implies it on every pair, and irreducibility
through the character inner product.  No matrix form is required: none
of the identities checked downstream needs a unitary matrix(g), since
every sum over the group pairs matrix(g) with matrix(g^-1), which a
homomorphism determines.  Complete sets are additionally checked for the
degree-square sum and pairwise character orthogonality.  Nothing is ever
repaired: invalid input is rejected.

Every sum over the group is taken here, on one integer layout that no
other module sees: validation, the character inner product and the
Schur orthogonality sums of matrix coefficients (orthogonality_witness,
behind weyl.verify_rep_relations).  With D the lcm of the entry
denominators, entry (i, j) becomes one list over g per power-basis index
t < phi(N), holding the numerators of D * matrix(g)[i][j] (_coordinates).
The values at g^-1 are the same lists permuted through group.inverses.
Every check is then an equality of integer lists built elementwise by
one product kernel, _products, which sums products of coordinate lists
and reduces them through the power table once, with no Cyclo object per
element and no gcd reduction along the way.

Loading reads a file one member and one matrix block at a time
(jsonread): the count is refused at block group.order + 1 and each
block's shape as it arrives, before the next block is decoded.  Each
distinct serialized scalar is parsed once per file, and the resulting
(immutable) Cyclo is shared among the entries that repeat it.

E_matrix builds the matrix of algebra elements whose (i, j) entry is the
sum over g of matrix(g)[i][j] * g; the Schur product relations these
satisfy are what every later Capelli computation leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import add, mul

from . import linalg, ncdet
from .algebra import AlgebraElement
from .cyclo import CONDUCTOR_LIMIT, ConductorMismatch, Cyclo, power_table
from .groups import Group, exponent
from .jsonread import array_items, read_object
from .reports import Report


@dataclass(frozen=True)
class Irrep:
    label: str
    group: Group
    degree: int
    matrices: tuple  # per element index, an m x m tuple of Cyclo

    @property
    def alpha(self) -> Fraction:
        """|G| / degree; a positive integer for genuine irreps."""
        return Fraction(self.group.order, self.degree)

    @property
    def conductor(self) -> int:
        return self.matrices[0][0][0].conductor

    def character(self, g: int) -> Cyclo:
        mat = self.matrices[g]
        tr = mat[0][0]
        for i in range(1, self.degree):
            tr = tr + mat[i][i]
        return tr

    def __repr__(self):
        return f"Irrep({self.group.name}/{self.label}, degree={self.degree})"


@dataclass(frozen=True)
class IrrepSet:
    """Irreps of one group, all in one conductor (ConductorMismatch
    otherwise), so that the set-level checks need no promotion."""

    group: Group
    irreps: tuple[Irrep, ...]

    def __post_init__(self):
        conductors = sorted({r.conductor for r in self.irreps})
        if len(conductors) > 1:
            raise ConductorMismatch(f"irreps of {self.group.name} in conductors {conductors}")

    @property
    def conductor(self) -> int:
        return self.irreps[0].conductor

    def by_label(self, label: str) -> Irrep:
        for irrep in self.irreps:
            if irrep.label == label:
                return irrep
        raise KeyError(f"no irrep {label!r} for {self.group.name}")


def induced_irrep(group, label, subgroup_generators, turns, cosets) -> Irrep:
    """Ind_H^G chi, for chi a linear character of the subgroup H.

    H is closed from `subgroup_generators` through the Cayley table.  chi
    takes the generators to the given rational numbers of turns and is kept
    as an exponent of zeta_N, N the group exponent (also the conductor),
    added up along the closure: chi(h*s) = chi(h) * chi(s).  With
    t_1, ..., t_r the coset representatives of the cosets t*H, entry (i, j)
    of matrix(g) is chi(t_i^-1 * g * t_j) when that element lies in H and 0
    otherwise, so the build is table lookups with no Cyclo products.  A
    linear character of G is the case H = G with one coset.  When t_1 is
    the identity, matrix(t_j) takes the first basis vector to the j-th.

    ValueError when the turns and generators differ in number, a turn is
    not a multiple of 1/N, or r * |H| != |G|.
    That chi is a character, that the t_i lie in distinct cosets and that
    the result is irreducible (Mackey's criterion) are left to validate.
    """
    n = exponent(group)
    powers = []
    for s, turn in zip(subgroup_generators, turns, strict=True):
        k = Fraction(turn) * n
        if k.denominator != 1:
            raise ValueError(f"{turn} turns is not a power of zeta_{n}")
        powers.append((s, int(k) % n))
    chi = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for s, k in powers:
                x = group.mul(h, s)
                if x not in chi:
                    chi[x] = (chi[h] + k) % n
                    nxt.append(x)
        frontier = nxt
    if len(cosets) * len(chi) != group.order:
        raise ValueError(f"{len(cosets)} cosets of a subgroup of order {len(chi)} "
                         f"do not cover {group.name} of order {group.order}")
    roots, zero = [Cyclo.zeta(n, k) for k in range(n)], Cyclo.zero(n)
    mul, inv = group.table, group.inverses
    mats = tuple(
        tuple(tuple(roots[chi[x]] if x in chi else zero
                    for x in (mul[mul[inv[ti]][g]][tj] for tj in cosets)) for ti in cosets)
        for g in range(group.order))
    return Irrep(str(label), group, len(cosets), mats)


# -- validation ---------------------------------------------------------------


def validate(irrep: Irrep) -> Report:
    """Identity image, homomorphism, irreducibility; any matrix form.

    The homomorphism property is checked as matrix(g*s) == matrix(g) *
    matrix(s) for every g and every s in group.generators.  That is exact:
    B = {b : matrix(a*b) == matrix(a) * matrix(b) for all a} is closed under
    products, since matrix(a(bc)) = matrix((ab)c) = matrix(ab) matrix(c) =
    matrix(a) matrix(b) matrix(c) = matrix(a) matrix(bc) for b, c in B; it
    contains the generators, so it is the whole group.

    The checks run on the integer coordinate lists of _coordinates, over
    every g at once, through the one product kernel _products.  A value
    of Q(zeta_N) is zero exactly when all its power-basis coordinates
    are.  With D the common denominator, matrix(g*s) == matrix(g)
    matrix(s) is D * A_ij[g*s] == sum over k of A_ik[g] * D*matrix(s)_kj,
    where D*matrix(s)_kj enters as one constant list per coordinate.
    Irreducibility is the character inner product, on the sums of the
    diagonal lists.  For each s in generator order the failing pair
    reported is the one with the smallest g: the witness of the
    pair-by-pair matrix check.  No matrix form is required: a
    homomorphism need not be unitary.
    """
    report = Report()
    group = irrep.group
    names = group.element_names
    n, m, conductor = group.order, irrep.degree, irrep.conductor
    coords, den = _coordinates(irrep)
    rows = power_table(conductor)
    units = range(len(rows[0]))

    e = group.identity
    report.add("identity-image", irrep.label, all(
        coords[i][j][t][e] == (den if i == j and t == 0 else 0)
        for i in range(m) for j in range(m) for t in units))

    witness = None
    for s in group.generators:
        image = [row[s] for row in group.table]  # g -> g*s
        first = n
        for i in range(m):
            for j in range(m):
                # matrix(s)_kj enters as one constant list per coordinate
                products = _products([(coords[i][k], [[c[s]] * n for c in coords[k][j]])
                                      for k in range(m)], rows)
                for t, values in enumerate(products):
                    at_gs = list(map(coords[i][j][t].__getitem__, image))
                    first = min(first, _first_difference(values, _scale(at_gs, den)))
        if first < n:
            witness = (names[first], names[s])
            break
    report.add("homomorphism", irrep.label, witness is None,
               f"fails at pair {witness}" if witness else "")

    norm = _character_inner_product(coords, den, coords, den, group, conductor)
    report.add("irreducibility", irrep.label, norm == 1, f"<chi,chi> = {norm}")
    return report


def _coordinates(irrep: Irrep):
    """(A, D): D is the lcm of the entry denominators, and A[i][j][t] is the
    list over g of the t-th power-basis coordinate of D * matrix(g)[i][j],
    an integer.  Entries of more than one conductor raise ConductorMismatch."""
    conductor = irrep.conductor
    mats = irrep.matrices
    entries = [v for mat in mats for row in mat for v in row]
    if any(v.conductor != conductor for v in entries):
        raise ConductorMismatch(f"irrep {irrep.label!r} mixes conductors; promote first")
    den = math.lcm(*{v.den for v in entries})
    m = irrep.degree
    return [[_scaled_coordinates([mat[i][j] for mat in mats], den) for j in range(m)]
            for i in range(m)], den


def _scaled_coordinates(values, den):
    """Per power-basis index t, the list over the values of coordinate t of
    den * value; den is a common multiple of their denominators."""
    return [list(col) for col in zip(*(
        v.num if v.den == den else [c * (den // v.den) for c in v.num] for v in values
    ))]


def _products(pairs, rows):
    """Coordinate lists of the sum over (x, y) in pairs of x * y, taken
    element by element: the convolutions of all pairs are summed first and
    reduced through the power table once.  All-zero lists are skipped."""
    phi = len(rows[0])
    conv = [None] * (2 * phi - 1)
    for xs, ys in pairs:
        ys = [(v, y) for v, y in enumerate(ys) if any(y)]
        for u, x in enumerate(xs):
            if any(x):
                for v, y in ys:
                    conv[u + v] = _add(conv[u + v], list(map(mul, x, y)))
    out = conv[:phi]
    for w in range(phi, 2 * phi - 1):
        for t, r in enumerate(rows[w]):
            if r and conv[w] is not None:
                out[t] = _add(out[t], _scale(conv[w], r))
    return _zero_filled(out, len(pairs[0][0][0]))


def _zero_filled(lists, n):
    # None stands for the zero list of length n
    return [values if values is not None else [0] * n for values in lists]


def _scale(values, c):
    return values if c == 1 else [c * x for x in values]


def _add(acc, values):
    # None stands for the zero list
    return values if acc is None else list(map(add, acc, values))


def _first_difference(values, expected):
    """The least index at which `values` differs from `expected`, or
    len(expected) when they are equal."""
    if values == expected:
        return len(expected)
    return next(g for g, (x, y) in enumerate(zip(values, expected)) if x != y)


def _inverse_sums(xs_values, ys_values, inverses, conductor):
    """[[S(x, y) for y in ys_values] for x in xs_values], with S(x, y) the
    power-basis coordinates of the sum over g of x(g) * y(g^-1).  Each
    value is a function on the group as integer coordinate lists (per
    power-basis index, the list over g), as _coordinates gives them; y at
    g^-1 is each list permuted through the inverse table, once per y."""
    rows = power_table(conductor)
    at_inverse = [[list(map(values.__getitem__, inverses)) for values in ys] for ys in ys_values]
    return [[[sum(values) for values in _products([(xs, ys)], rows)] for ys in at_inverse]
            for xs in xs_values]


def _character_inner_product(xs, dx, ys, dy, group, conductor):
    """The character inner product of the irreps of `group` whose
    _coordinates are (xs, dx) and (ys, dy): each character's lists are
    the sums of the diagonal entries' lists."""
    def trace(coords):
        diagonal = (coords[i][i] for i in range(len(coords)))
        return [list(map(sum, zip(*values))) for values in zip(*diagonal)]

    [[total]] = _inverse_sums([trace(xs)], [trace(ys)], group.inverses, conductor)
    return Cyclo(conductor, [Fraction(v, dx * dy * group.order) for v in total])


def character_inner_product(a: Irrep, b: Irrep) -> Cyclo:
    """(1/|G|) * sum over g of chi_a(g) * chi_b(g^-1), summed over g on
    the integer coordinate lists of the two irreps; ConductorMismatch
    unless a and b share one conductor.  chi_b(g^-1) is the complex
    conjugate of chi_b(g) for every representation, unitary or not."""
    if a.conductor != b.conductor:
        raise ConductorMismatch(f"irreps {a.label!r} and {b.label!r} in conductors "
                                f"{a.conductor} and {b.conductor}")
    xs, dx = _coordinates(a)
    ys, dy = (xs, dx) if b is a else _coordinates(b)
    return _character_inner_product(xs, dx, ys, dy, a.group, a.conductor)


def orthogonality_witness(irrep: Irrep):
    """The first (i, j, k, l), in lexicographic order, at which the Schur
    orthogonality sum over g of matrix(g)_ij * matrix(g^-1)_lk differs
    from alpha * delta_ik * delta_jl, or None when every sum holds.  That
    is Serre's sum of matrix(g)_ij * matrix(g^-1)_kl = alpha * delta_il *
    delta_jk with k and l swapped, and it holds in any matrix form (Linear
    Representations of Finite Groups, 2.2); for a unitary irrep
    matrix(g^-1)_lk is conj(matrix(g)_kl).  The m^4 sums are taken on the
    lists of _coordinates, every entry scaled by the common denominator D,
    so each is an integer comparison: coordinate 0 equals
    alpha * D^2 * delta_ik * delta_jl and every other coordinate is 0."""
    m, alpha = irrep.degree, irrep.alpha
    coords, den = _coordinates(irrep)
    entries = [coords[i][j] for i, j in product(range(m), repeat=2)]
    transposed = [coords[l][k] for k, l in product(range(m), repeat=2)]
    sums = _inverse_sums(entries, transposed, irrep.group.inverses, irrep.conductor)
    zeros = [0] * (len(sums[0][0]) - 1)
    for i, j, k, l in product(range(m), repeat=4):
        target = alpha * den * den if (i, j) == (k, l) else 0
        if sums[i * m + j][k * m + l] != [target, *zeros]:
            return i, j, k, l
    return None


def validate_complete(irrep_set: IrrepSet) -> Report:
    """Degree-square count and pairwise character orthogonality."""
    report = Report()
    group = irrep_set.group
    total = sum(r.degree * r.degree for r in irrep_set.irreps)
    report.add("degree-squares", "set", total == group.order,
               f"sum of squared degrees {total} vs order {group.order}")
    for i, a in enumerate(irrep_set.irreps):
        for b in irrep_set.irreps[i + 1:]:
            ip = character_inner_product(a, b)
            report.add("orthogonality", f"{a.label}|{b.label}", ip == 0, f"<chi,chi'> = {ip}")
    return report


# -- the E matrices and their product relations --------------------------------


def E_matrix(irrep: Irrep) -> list[list[AlgebraElement]]:
    """(i, j) entry: the algebra element with coefficient matrix(g)[i][j] at g."""
    group = irrep.group
    m = irrep.degree
    return [
        [
            AlgebraElement(group, [irrep.matrices[g][i][j] for g in range(group.order)])
            for j in range(m)
        ]
        for i in range(m)
    ]


def verify_schur_products(irrep_set: IrrepSet) -> Report:
    """Product and commutator relations of the E entries.

    Within one irrep: E_ij * E_kl = alpha * delta_jk * E_il, and the
    commutator form it implies, the gl_m relations of
    `ncdet.gl_relation_witness`, read off the same products.  Across
    inequivalent irreps: all products vanish.
    """
    report = Report()
    zero = AlgebraElement.zero(irrep_set.group, irrep_set.conductor)
    ems = {r.label: E_matrix(r) for r in irrep_set.irreps}

    for irrep in irrep_set.irreps:
        alpha, em = irrep.alpha, ems[irrep.label]
        products = {}

        def mismatch(i, j, k, l):
            prod = products[i, j, k, l] = em[i][j] * em[k][l]
            return prod != (alpha * em[i][l] if j == k else zero)

        witness = next((t for t in product(range(irrep.degree), repeat=4) if mismatch(*t)), None)
        if witness is not None:
            i, j, k, l = (x + 1 for x in witness)
            report.add("schur-product", irrep.label, False,
                       f"E_{i}{j} E_{k}{l} != alpha*delta*E_{i}{l}")
            continue
        report.add("schur-product", irrep.label, True)
        witness = ncdet.gl_relation_witness(
            em, alpha, lambda i, j, k, l: products[i, j, k, l] - products[k, l, i, j])
        report.add("schur-commutator", irrep.label, witness is None, "" if witness is None
                   else "[E_{}{}, E_{}{}] mismatch".format(*(x + 1 for x in witness)))

    for a in irrep_set.irreps:
        for b in irrep_set.irreps:
            if a.label == b.label:
                continue
            ea, eb = ems[a.label], ems[b.label]
            w = next((t for t in product(range(a.degree), range(a.degree),
                                         range(b.degree), range(b.degree))
                      if ea[t[0]][t[1]] * eb[t[2]][t[3]] != zero), None)
            report.add("schur-cross", f"{a.label}|{b.label}", w is None, "" if w is None else
                       f"E^{a.label}_{w[0] + 1}{w[1] + 1} E^{b.label}_{w[2] + 1}{w[3] + 1} != 0")
    return report


def verify_E_basis(irrep_set: IrrepSet) -> Report:
    """All E entries together must span the group algebra: the |G| x |G|
    coordinate matrix has full exact rank."""
    report = Report()
    group = irrep_set.group
    rows = [[mat[i][j] for mat in irrep.matrices]
            for irrep in irrep_set.irreps for i in range(irrep.degree) for j in range(irrep.degree)]
    rk = linalg.rank(rows)
    report.add("e-basis-rank", "set", rk == group.order and len(rows) == group.order,
               f"rank {rk} of {len(rows)} rows, order {group.order}")
    return report


# -- JSON interface -------------------------------------------------------------


def irrep_to_dict(irrep: Irrep) -> dict:
    return {
        "label": irrep.label,
        "group": irrep.group.name,
        "degree": irrep.degree,
        "conductor": irrep.conductor,
        "matrices": [
            [[v.to_dict() for v in row] for row in mat] for mat in irrep.matrices
        ],
    }


_NOT_AN_IRREP = "an irrep is an object with a 'matrices' list"
_NOT_SQUARE = "matrix block is not degree x degree"


def irrep_from_dict(group: Group, data) -> Irrep:
    """An irrep of `group` from its decoded JSON form, checked as
    load_irrep checks a file; data of the wrong shape raises ValueError
    naming the field."""
    if not isinstance(data, dict):
        raise ValueError(_NOT_AN_IRREP)
    return _irrep_from_members(group, data.items())


def load_irrep(path, group: Group) -> Irrep:
    """Read an irrep JSON file one member at a time, and the matrices one
    block at a time (jsonread.read_object), so that a file is refused at
    its first fault, or at block group.order + 1, without decoding the
    rest."""
    with open(path, "rb") as fh:
        return _irrep_from_members(group, read_object(fh, ("matrices",), _NOT_AN_IRREP))


def _irrep_from_members(group, members):
    """The irrep of (key, value) members in file order.  Each member is
    checked as it arrives: label and group strings, the group's own name,
    positive integer conductor and degree, and the field the entries are
    promoted to, lcm(conductor, exponent), within CONDUCTOR_LIMIT, before
    any scalar is read.  The matrices are counted as they arrive, and each
    block's shape and scalars are checked then too, or after the last
    member when the degree or conductor comes after them.  Then every
    field must be there and the count must be the group order."""
    fields, blocks, block, target = {}, [], None, None
    for key, value in members:
        if key == "matrices":
            items = array_items(value)
            if items is None:
                raise ValueError(_NOT_AN_IRREP)
            if "degree" in fields and "conductor" in fields:
                block = _block_reader(fields["degree"], target)
            for mat in items:
                if len(blocks) == group.order:
                    raise ValueError(f"more than {group.order} matrices for group of order "
                                     f"{group.order}")
                blocks.append(block(mat) if block else mat)
        elif key in ("label", "group"):
            if not isinstance(value, str):
                raise ValueError(f"field '{key}' must be a string")
            if key == "group" and value != group.name:
                raise ValueError(f"irrep file is for group {value!r}, not {group.name!r}")
        elif key in ("conductor", "degree"):
            if not (type(value) is int and value > 0):
                raise ValueError("fields 'conductor' and 'degree' must be positive integers")
            if key == "conductor":
                target = math.lcm(value, exponent(group))
                if target > CONDUCTOR_LIMIT:
                    raise ValueError(f"field 'conductor': lcm({value}, group exponent) = {target} "
                                     f"exceeds {CONDUCTOR_LIMIT}")
        fields[key] = value
    if "matrices" not in fields:
        raise ValueError(_NOT_AN_IRREP)
    for key in ("label", "group", "degree", "conductor"):
        if key not in fields:
            raise ValueError(f"field {key!r} is missing")
    if len(blocks) != group.order:
        raise ValueError(f"{len(blocks)} matrices for group of order {group.order}")
    if block is None:
        blocks = list(map(_block_reader(fields["degree"], target), blocks))
    return Irrep(fields["label"], group, fields["degree"], tuple(blocks))


def _block_reader(degree, target):
    """The reader of one matrix block: its shape, then its scalars, each
    promoted to the conductor target.  A Cyclo is immutable, so a repeated
    scalar shares one parsed value; only exact JSON ints and strings make
    a key (1, 1.0 and true hash alike)."""
    parsed = {}

    def scalar(v):
        coeffs = v.get("coeffs") if isinstance(v, dict) else None
        if not (isinstance(coeffs, list) and type(v.get("conductor")) is int
                and {int, str}.issuperset(map(type, coeffs))):
            return Cyclo.from_dict(v).promote(target)
        key = (v["conductor"], *coeffs)
        if key not in parsed:
            parsed[key] = Cyclo.from_dict(v).promote(target)
        return parsed[key]

    def block(mat):
        if not (isinstance(mat, list) and len(mat) == degree):
            raise ValueError(_NOT_SQUARE)
        for row in mat:
            if not (isinstance(row, list) and len(row) == degree):
                raise ValueError(_NOT_SQUARE)
        return tuple(map(tuple, map(map, repeat(scalar), mat)))  # no Python frame per row

    return block
