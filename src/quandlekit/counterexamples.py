"""The two cardinality-4 / cardinality-7 quandle pairs with isomorphic
rings but non-isomorphic quandles, and the singleton-padding generalization
of the first pair."""

from .domains import GF
from .errors import PreconditionError
from .quandles import Quandle, disjoint_union, trivial_quandle
from .rings import is_ring_isomorphism, quandle_ring

# 4-element pair.  Gated by the tests: PAIR4_MATRIX is a ring isomorphism
# over F_3 (acceptance criterion 06), PAIR4_Q_MATRIX one over Q, and
# find_ring_isomorphism returns a certified isomorphism over F_3, F_5 and
# F_7 and none over F_2 (tests/test_ring_iso.py).  So the rings are not
# isomorphic over Z: a Z-isomorphism would reduce mod 2 to one over F_2.
PAIR4_X = Quandle.from_table([
    [0, 0, 1, 1],
    [1, 1, 0, 0],
    [2, 2, 2, 2],
    [3, 3, 3, 3],
])
PAIR4_Y = Quandle.from_table([
    [0, 0, 1, 0],
    [1, 1, 0, 1],
    [2, 2, 2, 2],
    [3, 3, 3, 3],
])
PAIR4_MATRIX = [
    [1, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [0, 0, 0, 1],
]
# Determinant 2: invertible over Q, not over Z.
PAIR4_Q_MATRIX = [
    [0, 1, 0, 1],
    [1, 0, 0, 1],
    [0, 0, 1, 1],
    [0, 0, 0, -2],
]

# 7-element pair: rings isomorphic over characteristic 0.
PAIR7_X = Quandle.from_table([
    [0, 0, 0, 0, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 1],
    [2, 2, 2, 2, 2, 3, 2],
    [3, 3, 3, 3, 3, 2, 3],
    [4, 4, 4, 4, 4, 4, 4],
    [5, 5, 5, 5, 5, 5, 5],
    [6, 6, 6, 6, 6, 6, 6],
])
PAIR7_Y = Quandle.from_table([
    [0, 0, 0, 0, 1, 0, 0],
    [1, 1, 1, 1, 0, 1, 1],
    [2, 2, 2, 2, 2, 3, 2],
    [3, 3, 3, 3, 3, 2, 3],
    [4, 4, 4, 4, 4, 4, 4],
    [5, 5, 5, 5, 5, 5, 5],
    [6, 6, 6, 6, 6, 6, 6],
])
PAIR7_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, -1, 1],
]


def generalized_counterexample(n, p):
    """Pad the 4-element pair with n-4 singleton orbits.

    For prime p dividing n-1 the map sending e_i to e_i for i != 3 and
    e_3 to the sum of all basis elements is a ring isomorphism over F_p;
    it is verified here before being returned.
    """
    if n < 4:
        raise PreconditionError("need n >= 4")
    if p < 2 or (n - 1) % p != 0:
        raise PreconditionError("p = %d must be a prime dividing n - 1 = %d" % (p, n - 1))
    x, y = PAIR4_X, PAIR4_Y
    for _ in range(n - 4):
        x = disjoint_union(x, trivial_quandle(1))
        y = disjoint_union(y, trivial_quandle(1))
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        matrix[i][3] = 1
    dom = GF(p)
    if not is_ring_isomorphism(quandle_ring(x, dom), quandle_ring(y, dom), matrix):
        raise PreconditionError("padded map fails multiplicativity for (n=%d, p=%d)" % (n, p))
    return x, y, matrix
