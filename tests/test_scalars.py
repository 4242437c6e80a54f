"""Scalar representation: a rational is an int when it is integral and a
Fraction in lowest terms otherwise; prime-field elements are ints in [0, p)."""

import random
from fractions import Fraction

import pytest

from corings.scalars import GF, QQ
from helpers import field_add, field_div, field_mul, field_sub

SAMPLES = (0, 1, -1, 2, -3, 7, Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2),
           Fraction(4, 2), Fraction(-6, 3), Fraction(5, 7))


def assert_canonical(x, value):
    """x equals value and is an int exactly when value is integral."""
    value = Fraction(value)
    assert x == value
    if value.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is Fraction and x.denominator > 1


def test_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@pytest.mark.parametrize("a", SAMPLES)
def test_coercion_is_canonical(a):
    assert_canonical(QQ.of(a), a)
    assert_canonical(QQ.of(str(Fraction(a))), a)
    assert_canonical(QQ.parse(f" {Fraction(a)} "), a)
    assert_canonical(QQ.reduce(Fraction(a)), a)


@pytest.mark.parametrize("a", SAMPLES)
@pytest.mark.parametrize("b", SAMPLES)
def test_every_operation_is_canonical(a, b):
    x, y = QQ.of(a), QQ.of(b)
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical(field_add(QQ, x, y), fa + fb)
    assert_canonical(field_sub(QQ, x, y), fa - fb)
    assert_canonical(field_mul(QQ, x, y), fa * fb)
    assert_canonical(QQ.neg(x), -fa)
    if fb:
        assert_canonical(field_div(QQ, x, y), fa / fb)
        assert_canonical(QQ.inv(y), 1 / fb)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_random_operation_sequence_agrees_with_fractions():
    rng = random.Random(20071)
    pool = [(QQ.of(v), Fraction(v)) for v in SAMPLES]
    for _ in range(3000):
        (x, fx), (y, fy) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("add", "sub", "mul", "neg", "div"))
        if op == "div" and not fy:
            continue
        z = QQ.neg(x) if op == "neg" else {"add": field_add, "sub": field_sub, "mul": field_mul,
                                           "div": field_div}[op](QQ, x, y)
        fz = {"add": fx + fy, "sub": fx - fy, "mul": fx * fy, "neg": -fx,
              "div": fx / fy if fy else None}[op]
        assert_canonical(z, fz)
        if abs(fz.numerator) < 10 ** 6 and fz.denominator < 10 ** 6:
            pool.append((z, fz))


def test_format_is_unchanged():
    assert QQ.format(0) == "0"
    assert QQ.format(-3) == "-3"
    assert QQ.format(Fraction(4, 2)) == "2"
    assert QQ.format(Fraction(1, 3)) == "1/3"
    assert QQ.format(QQ.of("-6/4")) == "-3/2"
    assert QQ.format(QQ.of(Fraction(4, 2))) == "2"


def test_equal_values_hash_alike_in_either_form():
    assert hash(QQ.of(Fraction(4, 2))) == hash(Fraction(2)) == hash(2)
    assert {QQ.of("2"): "a"}[Fraction(2)] == "a"


@pytest.mark.parametrize("p", [2, 101, 1000003])
def test_prime_field_matches_modular_arithmetic(p):
    F = GF(p)
    rng = random.Random(p)
    assert F.zero == 0 and F.one == 1
    for _ in range(500):
        a, b = rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)
        x, y = F.of(a), F.of(b)
        assert (x, y) == (a % p, b % p)
        assert F.of(Fraction(a)) == x and F.parse(str(a)) == x
        assert F.reduce(a) == x
        assert field_add(F, x, y) == (a + b) % p
        assert field_sub(F, x, y) == (a - b) % p
        assert field_mul(F, x, y) == (a * b) % p
        assert F.neg(x) == (-a) % p
        assert F.format(x) == str(a % p)
        if y:
            assert field_mul(F, F.inv(y), y) == 1
            assert field_div(F, x, y) == x * pow(y, p - 2, p) % p
    with pytest.raises(ValueError):
        F.of(Fraction(1, 2))
