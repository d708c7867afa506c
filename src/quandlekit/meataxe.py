"""Norton's irreducibility test for a subspace of F_p^n invariant under
coordinate permutations, with the polynomial arithmetic mod p it needs.

A right ideal of a quandle ring over F_p is a subspace closed under the
permutations R_j of the coordinates.  Whether it is simple is decided with
a few spin-ups and the characteristic polynomial of a random element of
the algebra the R_j generate, factored mod p, not one spin-up per line;
one that is not simple comes with a proper nonzero right ideal inside it.
`lattices` and `dihedral` import this module when they first decide a
simplicity, so the commands that never do are spared loading it.
"""

import itertools
import random

from .linalg import left_kernel, rref, spin


# Polynomials over F_p are coefficient lists, constant term first, with no
# trailing zeros; the zero polynomial is [].


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a, b, p):
    """(quotient, remainder) of a by b != 0 over F_p."""
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + len(b) - 1] * inv % p
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - c * bj) % p
    return _trim(q), _trim(r[: len(b) - 1])


def _mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _divmod([c % p for c in prod], f, p)[1]


def _powmod(a, e, f, p):
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, a, f, p)
        a, e = _mulmod(a, a, f, p), e >> 1
    return out


def _gcd(a, b, p):
    """The monic gcd; a and b not both zero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _minus(a, b, p):
    n = max(len(a), len(b))
    return _trim([(x - y) % p for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _equal_degree_split(g, k, p, rng):
    """The irreducible factors of a monic squarefree g over F_p whose
    irreducible factors all have degree k (Cantor and Zassenhaus): for a
    random a, the gcd of g with a^((p^k - 1)/2) - 1, or with the trace
    a + a^2 + ... + a^(2^(k-1)) when p = 2, is a proper factor about half
    the time."""
    if len(g) - 1 == k:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if p == 2:
            t = s = a
            for _ in range(k - 1):
                s = _mulmod(s, s, g, p)
                t = _minus(t, s, p)  # over F_2 a difference is a sum
        else:
            t = _minus(_powmod(a, (p**k - 1) // 2, g, p), [1], p)
        h = _gcd(g, t, p)
        if 1 < len(h) < len(g):
            return _equal_degree_split(h, k, p, rng) + _equal_degree_split(_divmod(g, h, p)[0], k, p, rng)


def _factors(f, p, rng):
    """The distinct monic irreducible factors of a monic f over F_p, by
    degree.  Distinct-degree splitting: once the factors of degree < k are
    divided out, every power of them too, gcd(f, x^(p^k) - x) is the
    product of the distinct factors of degree k; a rest of degree < 2k is
    irreducible.  Equal-degree splitting then separates each product."""
    out, h, k = [], [0, 1], 0  # h = x^(p^k) mod f
    while len(f) > 1:
        k += 1
        if len(f) - 1 < 2 * k:
            return out + [f]
        h = _powmod(h, p, f, p)
        g = _gcd(f, _minus(h, [0, 1], p), p)
        if len(g) > 1:
            out += sorted(_equal_degree_split(g, k, p, rng))
            while len(g) > 1:
                f = _divmod(f, g, p)[0]
                g = _gcd(f, g, p)
            h = _divmod(h, f, p)[1]
    return out


def _charpoly(a, p):
    """det(xI - A) over F_p for a square matrix A given by rows: a
    similarity brings A to upper Hessenberg form H, and the characteristic
    polynomials P_m of the leading m x m blocks of H follow from
    P_(m+1) = (x - H[m][m]) P_m - sum over i < m of
    H[i][m] H[i+1][i] ... H[m][m-1] P_i
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9)."""
    h, d = [list(row) for row in a], len(a)
    for m in range(1, d - 1):
        i = next((i for i in range(m, d) if h[i][m - 1]), None)
        if i is None:
            continue
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(d):
        new = _minus([0] + polys[m], [h[m][m] * c for c in polys[m]], p)
        t = 1
        for i in reversed(range(m)):
            t = t * h[i + 1][i] % p
            if not t:
                break
            new = _minus(new, [t * h[i][m] * c for c in polys[i]], p)
        polys.append(new)
    return polys[d]


def _evaluate(f, a, p):
    """f(A) for a square matrix A over F_p, by Horner's rule."""
    cols = list(zip(*a))
    out = [[f[-1] * (i == j) for j in range(len(a))] for i in range(len(a))]
    for c in reversed(f[:-1]):
        out = [
            [(sum(x * y for x, y in zip(row, col)) + c * (i == j)) % p for j, col in enumerate(cols)]
            for i, row in enumerate(out)
        ]
    return out


def _coordinate_matrix(sub, pivots, perm):
    """Matrix, in the coordinates of the reduced basis of the invariant
    subspace sub, of the move sending coordinate i to perm[i]: row r holds
    basis row r moved, read at the pivot columns, where a vector of the
    subspace has its coordinates."""
    inv = [0] * len(perm)
    for i, k in enumerate(perm):
        inv[k] = i
    return [[b[inv[c]] for c in pivots] for b in sub.basis]


# Seeded elements tried before falling back to Norton's criterion with the
# least kernel met, each a sum of this many words of this many moves
_ATTEMPTS, _WORDS, _WORD_LENGTH, _SEED = 8, 3, 3, 20190108


def _irreducible(domain, moves, sub):
    """(True, None) when the subspace sub of F_p^n, invariant under the
    coordinate moves, is a simple module for the algebra they generate;
    else (False, reduced basis of a proper nonzero invariant subspace).

    Norton's criterion (Parker, the Meat-Axe, 1984; Holt and Rees, Testing
    modules for irreducibility, 1994): take B in the algebra with kernel
    N != 0.  W is simple exactly when every nonzero v in N spins up to W
    under the moves and one nonzero w in ker B^T spins up to W* under
    their transposes.  If U is a proper nonzero submodule meeting N, a
    vector of U cap N spins up inside U.  If U meets N only in 0, B is
    injective on U, so U = UB lies in the image WB, whose annihilator is
    ker B^T: then w lies in the annihilator of U, a proper nonzero
    submodule of W*.  Conversely W* is simple with W, and ker B^T != 0.

    B = f(A) for a seeded random element A, a sum of random words with
    nonzero coefficients, and an irreducible factor f of its
    characteristic polynomial.  When ker f(A) has dimension deg f it is a
    line over the field F_p[x]/(f), so every nonzero v in it spins up to
    the submodule generated by any other, and one spin-up decides the
    first half.  When no tried A has such a factor, the criterion is
    applied to the least kernel met, one vector per line through 0.  An
    irreducible characteristic polynomial decides at once: the
    characteristic polynomial of A on an A-invariant subspace divides it.
    """
    p, d = domain.char, sub.rank
    rng = random.Random(_SEED)
    pivots = [next(c for c, v in enumerate(row) if v) for row in sub.basis]
    gens = [tuple(range(sub.ambient_dim))] + list(moves)
    least = None  # (kernel, f(A)) with the smallest kernel
    for _ in range(_ATTEMPTS):
        a = [[0] * d for _ in range(d)]
        for _ in range(_WORDS):
            word = gens[0]
            for _ in range(_WORD_LENGTH):
                g = rng.choice(gens)
                word = [g[k] for k in word]
            c = rng.randrange(1, p)
            for row, m_row in zip(a, _coordinate_matrix(sub, pivots, word)):
                for k, v in enumerate(m_row):
                    row[k] += c * v
        a = [[v % p for v in row] for row in a]
        factors = _factors(_charpoly(a, p), p, rng)
        if len(factors[0]) == d + 1:
            return True, None  # no proper subspace is even A-invariant
        for f in factors:
            fa = _evaluate(f, a, p)
            kernel = left_kernel(domain, fa)
            if len(kernel) == len(f) - 1:
                return _norton(domain, moves, sub, pivots, fa, kernel[:1])
            if least is None or len(kernel) < len(least[0]):
                least = (kernel, fa)
    kernel, fa = least
    lines = (c for c in itertools.product(range(p), repeat=len(kernel)) if next((x for x in c if x), 0) == 1)
    vectors = ([sum(x * y for x, y in zip(c, col)) % p for col in zip(*kernel)] for c in lines)
    return _norton(domain, moves, sub, pivots, fa, vectors)


def _norton(domain, moves, sub, pivots, fa, vectors):
    """Norton's criterion for B = fa given by its coordinate matrix: each
    of the vectors, coordinates of N = ker B, is spun up under the moves,
    then one vector u of ker B^T, a linear form on W = sub, is spun up
    to the part of the dual W* it generates.

    W* is F_p^n / W^perp, y giving the form w -> w . y.  A permutation
    matrix P is orthogonal, so the form w -> (w P) . y is given by
    y P^-1, and the moves and their inverses close to the same subspace:
    u spins up to W* exactly when W^perp and a y giving u spin up to all
    of F_p^n under the moves.  With b the reduced basis of W and p_r its
    pivots, W^perp has the row e_j - sum_r b_r[j] e_(p_r) for each other
    column j, and y holds u_r at p_r.  When the spin is smaller, the
    vectors orthogonal to it lie in W, as it holds W^perp, and are a
    proper nonzero invariant subspace: the witness."""
    p, n = domain.char, sub.ambient_dim

    def ambient(coords):
        return [sum(c * row[i] for c, row in zip(coords, sub.basis)) % p for i in range(n)]

    for v in vectors:
        basis = spin(domain, [ambient(v)], moves)
        if len(basis) < sub.rank:
            return False, basis
    at, u = dict(zip(pivots, sub.basis)), iter(left_kernel(domain, list(zip(*fa)))[0])
    perp = [[-at[k][j] if k in at else int(k == j) for k in range(n)] for j in range(n) if j not in at]
    dual = spin(domain, perp + [[next(u) if k in at else 0 for k in range(n)]], moves)
    if len(dual) == n:
        return True, None
    return False, tuple(rref(left_kernel(domain, list(zip(*dual))), domain))
