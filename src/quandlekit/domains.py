"""Exact coefficient domains for ring arithmetic.

Three kinds are supported: unbounded integers (Z), exact rationals (Q)
and prime fields (F_p).  Elements are plain Python numbers: int,
Fraction, and int in [0, p).
"""

from fractions import Fraction

from .errors import QuandleKitError


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Domain:
    """Common arithmetic interface; elements are plain Python objects."""

    kind = None
    char = 0

    def coerce(self, v):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == self.zero

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_json(self, a):
        return a

    def from_json(self, v):
        return self.coerce(v)

    def __repr__(self):
        return self.kind


class IntegerDomain(Domain):
    kind = "Z"
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise QuandleKitError("expected an integer, got %r" % (v,))
        return v

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise QuandleKitError("%r is not a unit in Z" % (a,))
        return a


class RationalDomain(Domain):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        return Fraction(v)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise QuandleKitError("division by zero in Q")
        return Fraction(1) / a

    def to_json(self, a):
        return "%d/%d" % (a.numerator, a.denominator)

    def from_json(self, v):
        if isinstance(v, str):
            return Fraction(v)
        return Fraction(v)


class PrimeField(Domain):
    """Integers mod p, elements stored as ints in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise QuandleKitError("modulus %r is not prime" % (p,))
        self.p = p
        self.kind = "Zp"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise QuandleKitError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return "F_%d" % self.p


ZZ = IntegerDomain()
QQ = RationalDomain()

_gf_cache = {}


def GF(p):
    """Prime field of order p (cached)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
