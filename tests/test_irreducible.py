"""Norton's irreducibility test (``meataxe._irreducible``) and the
polynomial arithmetic mod p behind it: the characteristic polynomial
against a Leibniz expansion of det(xI - A), the factors against brute
force, the fallback to Norton's criterion where no tried element of
the algebra has a factor whose kernel is as small as its degree, and
the dual half of the criterion, a spin-up of W^perp and one lifted form
in F_p^n, against the same half worked in the coordinates of W
(``oracle_dual_half``)."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_arithmetic_oracles import (
    augmentation_rows,
    oracle_is_proper_submodule,
    oracle_reduce,
    oracle_spins_to_all,
    right_translations,
)
from test_pair_kernel import dihedral_group, family_quandles, small_quandles

from quandlekit import meataxe
from quandlekit.domains import GF
from quandlekit.lattices import span
from quandlekit.linalg import echelon, left_kernel, rref, spin
from quandlekit.meataxe import _charpoly, _evaluate, _factors, _irreducible
from quandlekit.quandles import alexander_quandle, dihedral_quandle, inner_moves, orbits

PRIMES = (2, 3, 5, 7)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_divmod(a, b, p):
    """(quotient, remainder) of a by the monic b, zeros kept."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = c = a[i + len(b) - 1]
        for j, y in enumerate(b):
            a[i + j] = (a[i + j] - c * y) % p
    return q, a[: len(b) - 1]


def leibniz_charpoly(a, p):
    """det(xI - A), the sum over permutations of the signed products of
    the polynomial entries x [i = j] - a[i][j]."""
    d = len(a)
    total = [0] * (d + 1)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = [(-1) ** inversions % p]
        for i, j in enumerate(perm):
            term = poly_mul(term, [-a[i][j] % p, int(i == j)], p)
        total = [(s + t) % p for s, t in zip(total, term + [0] * (d + 1 - len(term)))]
    return total


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_charpoly_matches_leibniz_expansion(p, data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=0, max_value=p - 1)
    if data.draw(st.booleans()):  # mostly zeros, for the pivot search and early stops
        entries = st.sampled_from([0, 0, 0, 1, p - 1])
    a = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    assert _charpoly(a, p) == leibniz_charpoly(a, p)


def brute_force_irreducible(f, p):
    """No monic polynomial of degree 1..deg(f)/2 divides f."""
    return len(f) > 1 and all(
        any(poly_divmod(f, list(tail) + [1], p)[1])
        for k in range(1, (len(f) - 1) // 2 + 1)
        for tail in itertools.product(range(p), repeat=k)
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_factors_are_irreducible_and_multiply_back(p, data):
    """On a product of up to four random monic polynomials, repeats
    likely: the factors are distinct, monic, irreducible and by degree,
    and dividing the input by each as often as it goes leaves 1."""
    f = [1]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        degree = data.draw(st.integers(min_value=1, max_value=3))
        f = poly_mul(f, data.draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [1], p)
    factors = _factors(f, p, random.Random(data.draw(st.integers(0, 2**32))))
    assert len(set(map(tuple, factors))) == len(factors)
    assert [len(g) for g in factors] == sorted(len(g) for g in factors)
    rest = f
    for g in factors:
        assert g[-1] == 1 and brute_force_irreducible(g, p)
        assert not any(poly_divmod(rest, g, p)[1])
        while len(rest) >= len(g) and not any(poly_divmod(rest, g, p)[1]):
            rest = poly_divmod(rest, g, p)[0]
    assert rest == [1]


def test_fallback_on_two_copies_of_a_simple_module():
    """Over F_5 and F_7 the vectors of the regular module of S_3 that sum
    to 0 on the rotations and on the reflections are the two copies of
    its 2-dimensional simple module.  Every element of the algebra acts
    there as X + X, so each kernel of f(A) has at least twice the degree
    of f, and only Norton's criterion decides."""
    table = dihedral_group(3)  # element 1 is a rotation of order 3
    perms = [tuple(row[g] for row in table) for g in range(6)]  # f -> fg
    rotations = sorted({0, table[0][1], table[table[0][1]][1]})
    reflections = sorted(set(range(6)) - set(rotations))
    rows = [[int(k == a) - int(k == part[0]) for k in range(6)] for part in (rotations, reflections) for a in part[1:]]
    for p in (5, 7):
        domain = GF(p)
        simple, witness = _irreducible(domain, perms[1:], span(6, domain, rows))
        assert simple is False
        assert oracle_is_proper_submodule(perms, domain, oracle_reduce(domain, rows), witness)


def test_fallback_decides_like_exhaustive_spinup(monkeypatch):
    """With no words the random element is 0, its one factor x has the
    whole summand as kernel, and Norton's criterion runs on every line of
    it: both verdicts agree with exhaustive spin-up."""
    monkeypatch.setattr(meataxe, "_WORDS", 0)
    cases = [(dihedral_quandle(n), p) for n, p in ((5, 2), (5, 7), (7, 3), (9, 2), (9, 5), (11, 2))]
    cases += [(alexander_quandle(8, 3), 3), (alexander_quandle(9, 2), 2)]
    verdicts = set()
    for q, p in cases:
        domain, orb = GF(p), list(range(q.n))
        summand = oracle_reduce(domain, augmentation_rows(q, orb))
        simple, witness = _irreducible(domain, inner_moves(q), span(q.n, domain, augmentation_rows(q, orb)))
        assert simple == oracle_spins_to_all(right_translations(q), p, summand)
        assert witness is None if simple else oracle_is_proper_submodule(right_translations(q), domain, summand, witness)
        verdicts.add(simple)
    assert verdicts == {True, False}


def test_witnesses_repeat_from_call_to_call():
    for n, p in ((9, 5), (13, 3), (15, 2), (21, 5)):
        q, domain = dihedral_quandle(n), GF(p)
        sub = span(n, domain, augmentation_rows(q, list(range(n))))
        first = _irreducible(domain, inner_moves(q), sub)
        assert first[0] is False
        assert _irreducible(domain, inner_moves(q), sub) == first


def test_transposed_half_finds_the_submodule_the_kernel_misses():
    """Over F_3 the only proper submodule of the augmentation-zero plane of
    R_3 is the line of (1, 1, 1).  B = R_0 + 1 is 2 on that line and 0 on
    the plane modulo it, so ker B misses the line and its vector spins up
    to the whole plane: the half on the transposes must find the line."""
    q, domain = dihedral_quandle(3), GF(3)
    sub = span(3, domain, augmentation_rows(q, [0, 1, 2]))
    pivots = [next(c for c, v in enumerate(row) if v) for row in sub.basis]
    r0 = meataxe._coordinate_matrix(sub, pivots, right_translations(q)[0])
    b = [[(v + (i == j)) % 3 for j, v in enumerate(row)] for i, row in enumerate(r0)]
    kernel = left_kernel(domain, b)
    assert len(kernel) == 1
    simple, witness = meataxe._norton(domain, inner_moves(q), sub, pivots, b, kernel)
    assert simple is False
    assert oracle_reduce(domain, witness) == ((1, 1, 1),)


def oracle_dual_half(domain, moves, sub, pivots, fa):
    """The dual half of Norton's criterion in the coordinates of W = sub:
    one vector of ker B^T spun up under the transposed coordinate matrices
    of the moves by its own worklist.  (True, None) when the spin is all
    of W*, else (False, reduced basis of the vectors of W its forms all
    vanish on)."""
    p = domain.char
    mats = [meataxe._coordinate_matrix(sub, pivots, move) for move in moves]
    form, stack = echelon(domain), [left_kernel(domain, list(zip(*fa)))[0]]
    form.insert(stack[0])
    while stack:
        u = stack.pop()
        for m in mats:
            w = [sum(x * y for x, y in zip(u, row)) % p for row in m]
            if form.insert(w):
                stack.append(w)
    dual = form.rows()
    if len(dual) == sub.rank:
        return True, None
    annihilator = left_kernel(domain, list(zip(*dual)))
    ambient = [[sum(c * row[i] for c, row in zip(coords, sub.basis)) % p for i in range(sub.ambient_dim)]
               for coords in annihilator]
    return False, tuple(rref(ambient, domain))


def test_dual_half_matches_the_coordinate_spin():
    """On every quandle of order <= 6 and the relabeled families (R_3..R_15,
    Aff(Z_n, t), conjugation quandles and unions such as R_3 + R_5, where
    n > d + 1 and W^perp has several rows), over F_2, F_3, F_5 and F_7:
    W is each orbit's augmentation-zero summand and the spin of one seeded
    vector, and B = f(A) for each irreducible factor f of the
    characteristic polynomial of a seeded element A of the algebra.  With
    no vectors to spin, `_norton` runs its dual half alone; its verdict and
    witness equal the oracle's."""
    rng, cases, verdicts = random.Random(1994), 0, set()
    for q in small_quandles() + family_quandles():
        moves = inner_moves(q)
        gens = [tuple(range(q.n))] + list(moves)
        for p in PRIMES:
            domain = GF(p)
            subspaces = [span(q.n, domain, augmentation_rows(q, orb)) for orb in orbits(q) if len(orb) > 1]
            seed = [rng.randrange(p) for _ in range(q.n)]
            subspaces.append(span(q.n, domain, spin(domain, [seed], moves)))
            for sub in subspaces:
                if not sub.rank:
                    continue
                pivots = [next(c for c, v in enumerate(row) if v) for row in sub.basis]
                a = [[0] * sub.rank for _ in range(sub.rank)]
                for _ in range(3):
                    c, m = rng.randrange(1, p), meataxe._coordinate_matrix(sub, pivots, rng.choice(gens))
                    a = [[(x + c * y) % p for x, y in zip(row, m_row)] for row, m_row in zip(a, m)]
                for f in _factors(_charpoly(a, p), p, rng):
                    fa = _evaluate(f, a, p)
                    found = meataxe._norton(domain, moves, sub, pivots, fa, ())
                    assert found == oracle_dual_half(domain, moves, sub, pivots, fa), (q.table, p)
                    verdicts.add(found[0])
                    cases += 1
    assert verdicts == {True, False} and cases > 1000
