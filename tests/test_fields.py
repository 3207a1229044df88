import math
import time
from fractions import Fraction

import pytest

from nilwitness import GF, Q, DivisionByZero, FieldMismatch, ParseError
from nilwitness.fields import MODULUS_LIMIT

from helpers import random_rational, random_scalar


def test_rational_addition():
    assert Q.scalar(1, 2) + Q.scalar(1, 3) == Q.scalar(5, 6)


def test_gf5_multiplication():
    f = GF(5)
    assert f.scalar(3) * f.scalar(4) == f.scalar(2)  # 12 mod 5


def test_additive_inverse_cancels(rng):
    # oracle: integer arithmetic on the cross-multiplied forms, no Fraction
    for _ in range(100):
        num, den = rng.randint(-50, 50), rng.randint(1, 50)
        x = Q.scalar(num, den)
        total = x + (-x)
        assert num * den + (-num) * den == 0
        assert total.is_zero()


def test_rational_cross_multiplied_addition(rng):
    for _ in range(100):
        p, q = rng.randint(-20, 20), rng.randint(1, 20)
        r, s = rng.randint(-20, 20), rng.randint(1, 20)
        total = Q.scalar(p, q) + Q.scalar(r, s)
        # p/q + r/s == (ps + rq) / qs, compared by integer cross-multiplication
        assert total.value.numerator * (q * s) == (p * s + r * q) * total.value.denominator


def test_rational_inverse():
    assert Q.scalar(-2, 3).inverse() == Q.scalar(-3, 2)


def test_gf7_inverse():
    f = GF(7)
    assert f.scalar(4).inverse() == f.scalar(2)  # 4 * 2 = 8 = 1 mod 7


def test_inverse_round_trip(rng):
    for field in (Q, GF(101)):
        for _ in range(100):
            x = random_scalar(rng, field, nonzero=True)
            assert x.inverse().inverse() == x
            assert (x * x.inverse()).is_one()


def test_parse_reduces_to_lowest_terms():
    assert Q.parse("-4/6") == Q.scalar(-2, 3)
    assert str(Q.parse("-4/6")) == "-2/3"


def test_parse_gf_canonical_residue():
    assert GF(5).parse("7") == GF(5).scalar(2)
    assert GF(5).parse("-3") == GF(5).scalar(2)


def test_gf_parse_fraction_token():
    assert GF(5).parse("3/4") == GF(5).scalar(2)  # 3 * inv(4) = 12 = 2 mod 5
    with pytest.raises(DivisionByZero):
        GF(5).parse("2/5")  # denominator divisible by the modulus


def test_parse_format_round_trip(rng):
    for _ in range(200):
        num, den = rng.randint(-99, 99), rng.randint(1, 99)
        g = math.gcd(abs(num), den)  # canonical form computed without Fraction
        canonical = f"{num // g}/{den // g}" if den // g != 1 else str(num // g)
        token = f"{num}/{den}"
        assert str(Q.parse(token)) == canonical
        assert Q.parse(str(Q.parse(token))) == Q.parse(token)
    f = GF(11)
    for _ in range(100):
        x = random_scalar(rng, f)
        assert f.parse(str(x)) == x


@pytest.mark.parametrize("field", [Q, GF(2), GF(3), GF(5), GF(101)])
def test_field_axioms(field, rng):
    for _ in range(60):
        x, y, z = (random_scalar(rng, field) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x + (-x)).is_zero()
        if not x.is_zero():
            assert (x * x.inverse()).is_one()


def test_results_stay_canonical(rng):
    for _ in range(100):
        x, y = random_rational(rng), random_rational(rng, nonzero=True)
        for value in (x + y, x - y, x * y, -x, y.inverse(), x / y):
            assert isinstance(value.value, Fraction)
            assert value.value.denominator > 0
            assert math.gcd(abs(value.value.numerator), value.value.denominator) == 1
    f = GF(13)
    for _ in range(100):
        x, y = random_scalar(rng, f), random_scalar(rng, f, nonzero=True)
        for value in (x + y, x - y, x * y, -x, y.inverse(), x / y):
            assert 0 <= value.value < 13


def test_zero_is_zero_over_one():
    z = Q.scalar(0, 7)
    assert z.value == Fraction(0, 1)
    assert z.value.denominator == 1


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.scalar(1) + GF(5).scalar(1)
    with pytest.raises(FieldMismatch):
        GF(5).scalar(1) * GF(7).scalar(1)
    with pytest.raises(FieldMismatch):
        GF(5).scalar(Q.scalar(1))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.scalar(0).inverse()
    with pytest.raises(DivisionByZero):
        GF(5).scalar(10).inverse()
    with pytest.raises(DivisionByZero):
        Q.scalar(1) / Q.scalar(0)
    with pytest.raises(DivisionByZero):
        Q.parse("3/0")
    with pytest.raises(DivisionByZero):
        Q.scalar(3, 0)


@pytest.mark.parametrize("token", ["", "a", "+3", "1/2/3", "1 /2", "--3", "3.5", "1/-2", "/2"])
def test_parse_rejects_malformed(token):
    with pytest.raises(ParseError):
        Q.parse(token)


@pytest.mark.parametrize("modulus", [0, 1, 4, 6, -7, 91])
def test_nonprime_modulus_rejected(modulus):
    with pytest.raises(ValueError):
        GF(modulus)


def test_small_prime_fields_exist():
    for p in (2, 3, 5, 7, 101, 1000003):
        assert GF(p).modulus == p


def test_mersenne_61_is_fast():
    start = time.perf_counter()
    assert GF(2**61 - 1).modulus == 2**61 - 1
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "modulus",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_strong_pseudoprimes_rejected(modulus):
    with pytest.raises(ValueError, match="prime"):
        GF(modulus)


@pytest.mark.parametrize("modulus", [MODULUS_LIMIT, 2**89 - 1])
def test_modulus_limit(modulus):
    # the limit itself is a composite that passes every base; 2^89 - 1 is prime but too large
    with pytest.raises(ValueError, match="limit"):
        GF(modulus)


def test_scalar_division():
    assert Q.scalar(5, 6) / Q.scalar(5, 3) == Q.scalar(1, 2)
    f = GF(7)
    assert f.scalar(3) / f.scalar(4) == f.scalar(3) * f.scalar(2)


def test_int_coercion_in_arithmetic():
    assert Q.scalar(1, 2) * 2 == Q.scalar(1)
    assert 1 + GF(5).scalar(4) == GF(5).scalar(0)
    assert 1 - Q.scalar(1, 4) == Q.scalar(3, 4)


def test_equality_is_structural():
    assert Q.scalar(2, 4) == Q.scalar(1, 2)
    assert Q.scalar(1) != GF(5).scalar(1)
    assert hash(Q.scalar(2, 4)) == hash(Q.scalar(1, 2))


def test_str_matches_token_syntax():
    assert str(Q.scalar(-7, 2)) == "-7/2"
    assert str(Q.scalar(4, 2)) == "2"
    assert str(GF(5).scalar(9)) == "4"
