"""The group algebra: dense coefficient vectors over a fixed group.

Coefficients are cyclotomic scalars sharing one conductor (the group
exponent unless a caller promoted everything to a larger field).
Multiplication is convolution through the Cayley table.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclo, format_sum
from .groups import Group, conjugacy_classes, exponent


class GroupMismatch(ValueError):
    pass


class NotAClass(ValueError):
    pass


class NotCentral(ValueError):
    """Element is not in the center; for a supposed theorem output this
    is a loud failure, never something to project away."""


class AlgebraElement:
    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector length != group order")
        self.group = group
        self.coeffs = coeffs

    @property
    def conductor(self) -> int:
        return self.coeffs[0].conductor

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(group: Group, conductor: int | None = None) -> "AlgebraElement":
        n = conductor if conductor is not None else exponent(group)
        return AlgebraElement(group, [Cyclo.zero(n)] * group.order)

    @staticmethod
    def basis(group: Group, g: int, conductor: int | None = None) -> "AlgebraElement":
        n = conductor if conductor is not None else exponent(group)
        coeffs = [Cyclo.zero(n)] * group.order
        coeffs[g] = Cyclo.one(n)
        return AlgebraElement(group, coeffs)

    @staticmethod
    def identity(group: Group, conductor: int | None = None) -> "AlgebraElement":
        return AlgebraElement.basis(group, group.identity, conductor)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"cannot combine AlgebraElement with {type(other).__name__}")
        if other.group is not self.group:
            raise GroupMismatch(f"{self.group.name} vs {other.group.name}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return AlgebraElement(self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._check(other)
        return AlgebraElement(self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AlgebraElement(self.group, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        other = self._check(other)
        table = self.group.table
        zero = Cyclo.zero(self.conductor)
        out = [zero] * self.group.order
        for g, ag in enumerate(self.coeffs):
            if not ag:
                continue
            row = table[g]
            for h, bh in enumerate(other.coeffs):
                if bh:
                    k = row[h]
                    out[k] = out[k] + ag * bh
        return AlgebraElement(self.group, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar) -> "AlgebraElement":
        if isinstance(scalar, Cyclo):
            s = scalar.promote(self.conductor) if scalar.conductor != self.conductor else scalar
        elif scalar == 1:
            return self
        else:
            s = Cyclo.rational(scalar, self.conductor)
        # s * 0 is the canonical zero already standing there
        return AlgebraElement(self.group, [s * a if a else a for a in self.coeffs])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.group is not other.group:
            return False
        if self.conductor == other.conductor:
            return all(a.num == b.num and a.den == b.den for a, b in zip(self.coeffs, other.coeffs))
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    # -- center -------------------------------------------------------------

    def is_central(self) -> bool:
        """True iff the element commutes with every group basis element."""
        return self.noncommuting_element() is None

    def noncommuting_element(self) -> int | None:
        """The first group element g, by index, with g*a != a*g, or None.
        At k, g*a has the coefficient a[g^-1 k] and a*g has a[k g^-1]."""
        table = self.group.table
        inv = self.group.inverses
        n = self.group.order
        for g in range(n):
            gi = inv[g]
            row = table[gi]
            for k in range(n):
                if self.coeffs[table[k][gi]] != self.coeffs[row[k]]:
                    return g
        return None

    def coordinates_in_class_sums(self, classes=None):
        """Coordinates over the class-sum basis; NotCentral when the
        coefficients are not constant on some conjugacy class."""
        classes = classes or conjugacy_classes(self.group)
        coords = []
        for cls in classes:
            first = self.coeffs[cls[0]]
            for g in cls[1:]:
                if self.coeffs[g] != first:
                    raise NotCentral(
                        f"coefficients differ within the class of {self.group.element_names[cls[0]]}"
                    )
            coords.append(first)
        return coords

    # -- rendering --------------------------------------------------------------

    def __str__(self):
        names = self.group.element_names
        return format_sum((c, names[g]) for g, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"AlgebraElement({self.group.name}: {self})"


def class_sum(group: Group, cls) -> AlgebraElement:
    """Sum of the basis elements of one conjugacy class."""
    cls = tuple(sorted(cls))
    if cls not in conjugacy_classes(group):
        raise NotAClass(f"{cls} is not a conjugacy class of {group.name}")
    n = exponent(group)
    coeffs = [Cyclo.zero(n)] * group.order
    one = Cyclo.one(n)
    for g in cls:
        coeffs[g] = one
    return AlgebraElement(group, coeffs)


def character_element(irrep) -> AlgebraElement:
    """Sum over the group of trace(matrix(g)) * g; always central."""
    return AlgebraElement(irrep.group, [irrep.character(g) for g in range(irrep.group.order)])
