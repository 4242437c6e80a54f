"""Exact scalar fields: the rationals and prime fields.

Every field element is stored in one canonical form:

* a rational is a plain `int` when it is integral and a
  `fractions.Fraction` in lowest terms (positive denominator) otherwise,
  so 0, 1 and the other small integers that fill most matrices cost
  machine-int arithmetic;
* a prime-field element is a plain `int` in the range [0, p).

`Field.reduce` maps any int or Fraction that plain `+`, `-` and `*` give
on canonical elements back to canonical form; every `Field` operation
returns canonical values.  The elimination and sums of `corings.linalg`
accumulate with plain operators and bring each entry they write to
canonical form once; its products accumulate ints over rows scaled by a
common denominator and make at most one Fraction per output entry.  An int and a Fraction of equal value compare and hash equal, so
the choice of form never shows in equality, hashing or `Field.format`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


class FieldMismatch(ValueError):
    """Raised when operands live in different scalar fields."""


class DimensionMismatch(ValueError):
    """Raised when matrix/vector shapes are incompatible."""


MODULUS_CAP = 2 ** 64

# Miller-Rabin with these bases is exact for every n below 3.18 * 10^23
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below MODULUS_CAP."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
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


def _rational(x):
    """An int or Fraction in canonical rational form (int when integral)."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


@dataclass(frozen=True)
class Field:
    """The rationals (p is None) or the prime field of order p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p >= MODULUS_CAP:
            raise ValueError(f"modulus {self.p} is not below 2^64")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # -- constants ---------------------------------------------------------

    zero = 0
    one = 1

    # -- coercion ----------------------------------------------------------

    @cached_property
    def reduce(self):
        """The function taking an int or Fraction to canonical form: x mod p
        over GF(p); over QQ an int when x is integral, else x itself."""
        return _rational if self.p is None else self.p.__rmod__

    def of(self, v):
        """Coerce an int, Fraction or "a/b" string into this field."""
        if type(v) is int:
            return v if self.p is None else v % self.p
        if isinstance(v, str):
            return self.parse(v)
        if self.p is not None:
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError(f"{v} is not an integer residue")
                v = v.numerator
            return v % self.p
        return _rational(Fraction(v))

    def parse(self, tok: str):
        tok = tok.strip()
        if self.p is not None:
            return int(tok) % self.p
        if "/" in tok:
            num, den = tok.split("/", 1)
            return _rational(Fraction(int(num), int(den)))
        return int(tok)

    def format(self, x) -> str:
        if self.p is not None:
            return str(x % self.p)
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    # -- arithmetic --------------------------------------------------------

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return _rational(1 / Fraction(a))

    def random(self, rng):
        """Small deterministic scalar from a seeded rng: an integer in [-3, 3]."""
        return self.of(rng.randrange(-3, 4))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)
