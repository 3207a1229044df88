"""Exact scalar arithmetic over Q and over prime fields GF(p).

Every value is kept in canonical form at all times: rationals fully
reduced with a positive denominator, prime-field residues in [0, p).
Equality is structural and exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, ParseError

# `[-]digits` or `[-]digits/digits`; no whitespace inside a token.
_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


# The first 13 primes. Every composite below MODULUS_LIMIT fails the strong
# probable-prime test to at least one of them; MODULUS_LIMIT itself is the
# least composite that passes to all 13 (Sorenson & Webster 2015).
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over _WITNESS_BASES; exact for n < MODULUS_LIMIT."""
    if n < 2:
        return False
    for p in _WITNESS_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _inv_mod(a: int, p: int) -> int:
    """Modular inverse of a nonzero residue, by the extended Euclid algorithm."""
    r0, r1 = p, a % p
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


class Field:
    """A coefficient field: the rationals or GF(p) for prime p."""

    def scalar(self, value, den: int = 1) -> "Scalar":
        raise NotImplementedError

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, token: str) -> "Scalar":
        """Parse a scalar token into canonical form.

        Raises ParseError on malformed syntax and DivisionByZero when the
        denominator is zero (or, over GF(p), divisible by p).
        """
        if not isinstance(token, str) or not _TOKEN.match(token):
            raise ParseError(f"bad scalar token {token!r}")
        num, sep, den = token.partition("/")
        if sep:
            return self.scalar(int(num), int(den))
        return self.scalar(int(num))


class RationalField(Field):
    """Arbitrary-precision rationals; the default field."""

    def scalar(self, value, den: int = 1) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field} used over {self}")
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot build a rational scalar from {type(value).__name__}")
        if den == 0:
            raise DivisionByZero("zero denominator")
        # Fraction keeps lowest terms with a positive denominator.
        return Scalar(self, Fraction(value, den))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __str__(self):
        return "Q"

    __repr__ = __str__


class PrimeField(Field):
    """Integers mod p for prime p; residues kept in [0, p).

    Primality is decided exactly, so the modulus must lie below
    MODULUS_LIMIT (about 3.3e24); a larger one raises ValueError.
    """

    def __init__(self, modulus: int):
        if isinstance(modulus, int) and modulus >= MODULUS_LIMIT:
            raise ValueError(f"modulus {modulus} is not below the limit {MODULUS_LIMIT}")
        if not isinstance(modulus, int) or not _is_prime(modulus):
            raise ValueError(f"modulus must be prime, got {modulus!r}")
        self.modulus = modulus

    def scalar(self, value, den: int = 1) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field} used over {self}")
            return value
        if not isinstance(value, int):
            raise TypeError(f"cannot build a GF({self.modulus}) scalar from {type(value).__name__}")
        residue = value % self.modulus
        if den != 1:
            d = den % self.modulus
            if d == 0:
                raise DivisionByZero(f"denominator {den} is zero mod {self.modulus}")
            residue = residue * _inv_mod(d, self.modulus) % self.modulus
        return Scalar(self, residue)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF", self.modulus))

    def __str__(self):
        return f"GF {self.modulus}"

    __repr__ = __str__


#: The field of rationals.
Q = RationalField()


def GF(p: int) -> PrimeField:
    """The prime field with p elements."""
    return PrimeField(p)


class Scalar:
    """An immutable field element.

    `value` is a Fraction over Q and an int residue over GF(p). Arithmetic
    accepts plain ints and coerces them into the same field; combining
    scalars of different fields raises FieldMismatch.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine {self.field} and {other.field} scalars")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(o.value - self.value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.value * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return self._make(-self.value)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; DivisionByZero on the zero element."""
        if self.is_zero():
            raise DivisionByZero(f"zero has no inverse over {self.field}")
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, _inv_mod(self.value, self.field.modulus))
        return Scalar(self.field, Fraction(1) / self.value)

    def _make(self, raw) -> "Scalar":
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, raw % self.field.modulus)
        return Scalar(self.field, raw)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field}, {self.value})"
