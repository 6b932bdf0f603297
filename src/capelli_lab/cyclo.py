"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a polynomial in zeta_N reduced modulo the N-th cyclotomic
polynomial Phi_N, stored as integer numerators over one positive
denominator with all common factors removed.  The representation is
canonical, so equality of values is tuple equality, and every identity
check downstream is a decidable comparison instead of a floating-point
judgement call.

Conductor 1 embeds the rationals (Phi_1 = x - 1, so zeta_1 = 1).

The substitutions zeta_N -> zeta_M^k share one kernel over the power
table of M: promotion into a larger field (M a multiple of N, k = M/N)
and the Galois maps sigma_k (M = N, k coprime to N), whose product gives
the field norm and with it the inverse.  Serialized scalars are read under a fixed bound on the
conductor, checked before any Phi or power table is built.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


class ConductorMismatch(ValueError):
    """Arithmetic between values of unrelated conductors."""


class NotDivisible(ValueError):
    """Promotion target is not a multiple of the current conductor."""


# Largest conductor a serialized scalar or a loaded irrep may use.  The
# catalog needs 12; below 1000 the costliest power table to build (N = 997)
# takes about 0.07 s and any Phi_N under 0.01 s (2-vCPU VM, Python 3.11).
CONDUCTOR_LIMIT = 1000

# a JSON coefficient string: optional sign, digits, optional nonzero /digits
_COEFF = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _mobius(n: int) -> int:
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _times_binomial(poly, d):
    # poly * (x^d - 1)
    out = [0] * d + list(poly)
    for k, v in enumerate(poly):
        out[k] -= v
    return out


def _over_binomial(poly, d):
    # poly / (x^d - 1), which must divide exactly: poly_k = q_(k-d) - q_k
    quot = []
    for k in range(len(poly)):
        quot.append((quot[k - d] if k >= d else 0) - poly[k])
    assert not any(quot[len(poly) - d:]), "x^d - 1 divides exactly"
    return quot[:len(poly) - d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    By Moebius inversion of x^n - 1 = prod of Phi_d over d | n,
    Phi_n = prod over d | n of (x^d - 1)^mu(n/d).  The factors with
    mu = 1 are multiplied in first and those with mu = -1 divided out
    after; each step is one pass over the coefficients.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:
            poly = _times_binomial(poly, d)
    for d in divisors:
        if _mobius(n // d) == -1:
            poly = _over_binomial(poly, d)
    return tuple(poly)


@lru_cache(maxsize=None)
def cyclo_degree(n: int) -> int:
    """Degree of Phi_n, i.e. Euler's totient of n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds the power-basis coordinates of zeta_n^k, for
    0 <= k <= max(n - 1, 2*(phi(n) - 1)): every power a product of two
    canonical values or a substitution zeta_n -> zeta_n^k needs.  The rows
    are integer since Phi_n is monic over the integers."""
    phi = cyclotomic_polynomial(n)
    d = cyclo_degree(n)
    top = max(n - 1, 2 * (d - 1))
    rows = []
    row = [0] * d
    row[0] = 1
    rows.append(tuple(row))
    for _ in range(top):
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            for j in range(d):
                row[j] -= lead * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


def _substitute(nums, k, m):
    # sum of nums[i] * zeta_m^(i*k), reduced by the power table of m
    rows = power_table(m)
    out = [0] * len(rows[0])
    for i, c in enumerate(nums):
        if c:
            row = rows[i * k % m]
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def _int_pair(s):
    # a coefficient string that matched _COEFF, as integers (p, q) with q > 0
    p, _, q = s.partition("/")
    return int(p), int(q) if q else 1


def _make(conductor, nums, den):
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    c = object.__new__(Cyclo)
    c.conductor = conductor
    c.num = tuple(nums)
    c.den = den
    return c


class Cyclo:
    """An element of Q(zeta_N) in the canonical power basis mod Phi_N."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        d = cyclo_degree(conductor)
        nums = [0] * d
        common = 1
        fracs = []
        for c in coeffs:
            f = Fraction(c)
            fracs.append(f)
            common = common * f.denominator // math.gcd(common, f.denominator)
        if len(fracs) > d:
            raise ValueError("too many coefficients for conductor %d" % conductor)
        for i, f in enumerate(fracs):
            nums[i] = f.numerator * (common // f.denominator)
        made = _make(conductor, nums, common)
        self.conductor = made.conductor
        self.num = made.num
        self.den = made.den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(value, conductor: int = 1) -> "Cyclo":
        f = Fraction(value)
        d = cyclo_degree(conductor)
        return _make(conductor, [f.numerator] + [0] * (d - 1), f.denominator)

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclo":
        return _make(conductor, [0] * cyclo_degree(conductor), 1)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclo":
        return Cyclo.rational(1, conductor)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "Cyclo":
        """zeta_N^power, reduced into the canonical basis."""
        row = power_table(conductor)[power % conductor]
        return _make(conductor, list(row), 1)

    # -- helpers --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {other.conductor} != {self.conductor}; promote first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(other, self.conductor)
        return None

    # -- ring / field operations ----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = math.gcd(self.den, o.den)
        den = self.den // g * o.den
        fa = den // self.den
        fb = den // o.den
        return _make(self.conductor, [a * fa + b * fb for a, b in zip(self.num, o.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-v for v in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        d = len(a)
        if d == 1:
            return _make(self.conductor, [a[0] * b[0]], self.den * o.den)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        rows = power_table(self.conductor)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = rows[k]
                for j in range(d):
                    if row[j]:
                        out[j] += ck * row[j]
        return _make(self.conductor, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse through the field norm.

        The Galois group of Q(zeta_N) over Q is the set of maps sigma_k:
        zeta_N -> zeta_N^k with gcd(k, N) = 1.  Let P be the product of
        sigma_k(a) over those k other than 1.  Every sigma_j permutes the
        factors of the norm a * P, so the norm is fixed by the whole group
        and hence rational; it is nonzero since each sigma_k is injective
        and a != 0.  So a^-1 = P / (a * P).  A rational value p/q needs
        none of this and is returned as q/p.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.conductor
        if not any(self.num[1:]):
            return _make(n, [self.den] + [0] * (len(self.num) - 1), self.num[0])
        others = Cyclo.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * _make(n, _substitute(self.num, k, n), self.den)
        norm = self * others
        assert not any(norm.num[1:]), "the field norm is rational"
        return _make(n, [v * norm.den for v in others.num], others.den * norm.num[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def promote(self, conductor: int) -> "Cyclo":
        """Reinterpret in Q(zeta_M) for a multiple M via zeta_N = zeta_M^(M/N)."""
        n = self.conductor
        if conductor == n:
            return self
        if conductor % n:
            raise NotDivisible(f"{n} does not divide {conductor}")
        return _make(conductor, _substitute(self.num, conductor // n, conductor), self.den)

    # -- predicates and views ---------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other, self.conductor)
        if not isinstance(other, Cyclo):
            return NotImplemented
        if other.conductor == self.conductor:
            return self.num == other.num and self.den == other.den
        m = math.lcm(self.conductor, other.conductor)
        return self.promote(m) == other.promote(m)

    __hash__ = None  # canonical form is per-conductor; hashing would lie across fields

    def as_rational(self):
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def coefficients(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.num]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [str(Fraction(v, self.den)) for v in self.num],
        }

    @staticmethod
    def from_dict(data) -> "Cyclo":
        """A scalar from its JSON form.  The conductor is checked against
        CONDUCTOR_LIMIT and the coefficient count against phi(N) before any
        coefficient is parsed; a coefficient is an integer or a string of
        an optional sign, digits and an optional nonzero /denominator,
        read straight to the integers p and q; the numerators are brought
        to the lcm of the q's and reduced once.  Data of the wrong shape
        raises ValueError naming the field."""
        if not (isinstance(data, dict) and type(data.get("conductor")) is int
                and isinstance(data.get("coeffs"), list)):
            raise ValueError("a scalar is an object with an integer 'conductor' and a 'coeffs' list")
        n, raw = data["conductor"], data["coeffs"]
        if not 1 <= n <= CONDUCTOR_LIMIT:
            raise ValueError(f"field 'conductor': {n} is not in 1..{CONDUCTOR_LIMIT}")
        if len(raw) != cyclo_degree(n):
            raise ValueError(
                f"expected {cyclo_degree(n)} coefficients for conductor {n}, got {len(raw)}"
            )
        if not all(type(s) is int or (isinstance(s, str) and _COEFF.fullmatch(s)) for s in raw):
            raise ValueError("field 'coeffs' must hold integers or strings 'p' or 'p/q', q > 0")
        pairs = [(s, 1) if type(s) is int else _int_pair(s) for s in raw]
        den = math.lcm(*(q for _, q in pairs))
        return _make(n, [p * (den // q) for p, q in pairs], den)

    def __repr__(self):
        return f"Cyclo({self.conductor}, {self.__str__()!r})"

    def __str__(self):
        n = self.conductor
        powers = ["", f"ζ{n}"] + [f"ζ{n}^{i}" for i in range(2, len(self.num))]
        return format_sum((Fraction(v, self.den), powers[i]) for i, v in enumerate(self.num) if v)


def _int_text(n: int) -> str:
    """str(n), or <k-digits> when its k digits are more than str converts
    (sys.get_int_max_str_digits())."""
    try:
        return str(n)
    except ValueError:
        k = int(abs(n).bit_length() * math.log10(2)) - 1  # below the digit count
        while 10**k <= abs(n):
            k += 1
        return f"{'-' if n < 0 else ''}<{k}-digits>"


def format_sum(terms) -> str:
    """(coefficient, monomial) pairs, zeros left out and "" the monomial of
    a constant, as text: a coefficient holding a space is parenthesized, 1
    and -1 before a monomial are dropped to its sign, and a later term
    joins with " - " when it starts with "-", else " + "; "0" if empty.
    An integer too long for str is a placeholder that gives its size."""
    out = ""
    for coefficient, monomial in terms:
        if isinstance(coefficient, (int, Fraction)):
            cs = _int_text(coefficient.numerator)
            if coefficient.denominator != 1:
                cs += "/" + _int_text(coefficient.denominator)
        else:
            cs = str(coefficient)
        if " " in cs:
            cs = f"({cs})"
        if not monomial:
            term = cs
        elif cs == "1":
            term = monomial
        elif cs == "-1":
            term = "-" + monomial
        else:
            term = f"{cs}*{monomial}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"
