"""Exact coefficient domains for ring arithmetic.

Three kinds are supported: unbounded integers (Z), exact rationals (Q)
and prime fields (F_p).  Elements are plain Python numbers: int,
Fraction, and int in [0, p).  Arithmetic on them is plain Python
arithmetic; a domain only reads values in (``coerce``, ``from_json``),
writes them out (``to_json``), and brings a row of sums and products
back to normal form (``reduce``), which over F_p is the one place the
mod-p rule lives.
"""

import re
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
    """Reads, writes and normalises coefficients; elements are plain numbers."""

    kind = None
    char = 0

    def coerce(self, v):
        raise NotImplementedError

    def reduce(self, row):
        """The list row in normal form; in characteristic 0 it already is."""
        return row

    def to_json(self, a):
        return a

    def from_json(self, v):
        """A JSON integer; over Q also a string as `to_json` writes it."""
        return self.coerce(ZZ.coerce(v))

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


class RationalDomain(Domain):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        return Fraction(v)

    def to_json(self, a):
        return "%d/%d" % (a.numerator, a.denominator)

    def from_json(self, v):
        if isinstance(v, str) and re.fullmatch("-?[0-9]+/0*[1-9][0-9]*", v):
            return Fraction(v)
        return super().from_json(v)


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

    def reduce(self, row):
        p = self.p
        return [a % p for a in row]

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
