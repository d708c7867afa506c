"""Differential tests of the plain-arithmetic ring layer against the code
it replaced.

The oracles are the earlier implementations, kept here for small inputs:

- ``oracle_rref``: row reduction with every scalar step a call on a
  per-element arithmetic object (``ScalarOps``, the methods ``Domain``
  used to carry), the pivot inverse by Fermat over F_p;
- ``oracle_field_solve`` / ``oracle_field_in_span``: span membership by
  solving the augmented transpose system;
- ``oracle_generated_ideal``: fixpoint spin-up by ``rings.multiply`` against
  freshly built basis vectors, for both sides;
- ``oracle_verify_simple_decomposition``: the per-orbit report with
  multiply-based invariance and exhaustive spin-up of both summands from
  every nonzero vector (``oracle_simple_by_spinup``);
- ``oracle_spins_to_all``: the same exhaustive spin-up, each vector moved
  by every R_j as a permutation of coordinates, fast enough for summands
  of a few ten thousand vectors; the oracle for ``meataxe._irreducible``;
- ``oracle_is_proper_submodule``: the check of a ``not-simple`` witness,
  a nonzero subspace of the summand, smaller than it and closed under
  every R_j;
- ``oracle_hnf``: the integer HNF that swept every row at each column,
  pivoting on the smallest nonzero absolute value;
- ``oracle_delta_powers``: each Delta^k as one reduction (``oracle_hnf``
  over Z, ``oracle_rref`` over a field) of the products of all pairs of
  basis rows over its bracketings, the method ``delta_powers`` used before
  it spun up each power under Inn(X).
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_multiply_oracle import DOMAINS, SMALL_QUANDLES, coefficients, ring_and_oracle
from test_pair_kernel import cayley_table, dihedral_group, oracle_pair_orbit_count, shuffled

from quandlekit.domains import GF, QQ, ZZ
from quandlekit.lattices import (
    _displacements,
    _normalizes_cyclic,
    delta_powers,
    generated_left_ideal,
    generated_right_ideal,
    span,
    verify_simple_decomposition,
)
from quandlekit.linalg import hermite_normal_form, lattice_contains, rref
from quandlekit.meataxe import _irreducible
from quandlekit.quandles import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    dihedral_quandle,
    disjoint_union,
    inner_moves,
    orbits,
    right_translation,
)
from quandlekit.rings import multiply, quandle_ring
from quandlekit.symmetry import enumerate_quandles, quandles_isomorphic, restricted_action

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


class ScalarOps:
    """Per-element arithmetic of a domain, each result reduced mod p."""

    def __init__(self, domain):
        self.p = domain.char
        self.zero = domain.zero

    def _r(self, a):
        return a % self.p if self.p else a

    def add(self, a, b):
        return self._r(a + b)

    def sub(self, a, b):
        return self._r(a - b)

    def mul(self, a, b):
        return self._r(a * b)

    def is_zero(self, a):
        return a == self.zero

    def inv(self, a):
        if self.p:
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a


def oracle_rref(rows, domain):
    ops = ScalarOps(domain)
    work = [[domain.coerce(v) for v in r] for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if not ops.is_zero(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = ops.inv(work[r][c])
        work[r] = [ops.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and not ops.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [ops.sub(a, ops.mul(f, b)) for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]]


def oracle_field_solve(basis_rows, v, domain):
    """Express v as a combination of basis_rows over a field, or None."""
    ops = ScalarOps(domain)
    if not basis_rows:
        return None if any(not ops.is_zero(x) for x in v) else []
    k = len(basis_rows)
    aug = [[basis_rows[i][c] for i in range(k)] + [v[c]] for c in range(len(basis_rows[0]))]
    coords = [domain.zero] * k
    for row in oracle_rref(aug, domain):
        piv = next((j for j in range(k + 1) if not ops.is_zero(row[j])), None)
        if piv is None:
            continue
        if piv == k:
            return None  # inconsistent
        coords[piv] = row[k]
    return coords


def oracle_field_in_span(basis_rows, v, domain):
    return oracle_field_solve(basis_rows, v, domain) is not None


def oracle_hnf(rows):
    """Row-style HNF by repeated sweeps: at each column, pivot on the row
    with the smallest nonzero absolute value and reduce every row below
    it, until the pivot is the only nonzero entry left in the column."""
    work = [list(r) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(work[i][c]))
            work[r], work[piv] = work[piv], work[r]
            if work[r][c] < 0:
                work[r] = [-v for v in work[r]]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(work) and work[r][c] != 0:
            for i in range(r):
                q = work[i][c] // work[r][c]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
    return [tuple(row) for row in work[:r]]


def oracle_reduce(domain, rows):
    """Reduced basis rows, zero rows filtered out entry by entry first."""
    ops = ScalarOps(domain)
    rows = [list(r) for r in rows if any(not ops.is_zero(domain.coerce(c)) for c in r)]
    return tuple(oracle_hnf(rows) if domain is ZZ else oracle_rref(rows, domain))


def oracle_contains(domain, basis, v):
    if domain is ZZ:
        return lattice_contains(basis, v)
    return oracle_field_in_span(list(basis), [domain.coerce(c) for c in v], domain)


def oracle_generated_ideal(ring, generators, side):
    current = oracle_reduce(ring.domain, generators)
    while True:
        rows = list(current)
        for v in current:
            for e in map(ring.basis_vector, range(ring.dim)):
                rows.append(multiply(ring, v, e) if side == "right" else multiply(ring, e, v))
        nxt = oracle_reduce(ring.domain, rows)
        if nxt == current:
            return current
        current = nxt


def oracle_simple_by_spinup(ring, basis):
    """Every nonzero vector of the span of the basis rows over F_p
    generates it as a right ideal."""
    domain = ring.domain
    ops = ScalarOps(domain)
    if not basis:
        return False
    for coeffs in itertools.product(range(domain.char), repeat=len(basis)):
        if not any(coeffs):
            continue
        v = [domain.zero] * ring.dim
        for c, row in zip(coeffs, basis):
            for i, e in enumerate(row):
                v[i] = ops.add(v[i], ops.mul(domain.coerce(c), e))
        if oracle_generated_ideal(ring, [v], "right") != basis:
            return False
    return True


def oracle_verify_simple_decomposition(x, domain):
    """(verdict, [(orbit, dim_triv, dim_st, invariant, simple)])."""
    ring = quandle_ring(x, domain)
    char = domain.char

    def invariant(basis):
        return all(
            oracle_contains(domain, basis, multiply(ring, v, ring.basis_vector(j)))
            for v in basis
            for j in range(x.n)
        )

    translations = [right_translation(x, j) for j in range(x.n)]
    entries = []
    for orb in orbits(x):
        indicator = [domain.one if v in orb else domain.zero for v in range(x.n)]
        v_triv = oracle_reduce(domain, [indicator])
        st_rows = []
        for v in orb[1:]:
            row = [domain.zero] * x.n
            row[orb[0]] = domain.coerce(-1)
            row[v] = domain.one
            st_rows.append(row)
        v_st = oracle_reduce(domain, st_rows)
        inv = invariant(v_triv) and invariant(v_st)
        if not inv:
            simple = False
        elif len(orb) == 1:
            simple = True
        elif char:
            simple = oracle_simple_by_spinup(ring, v_triv) and oracle_simple_by_spinup(ring, v_st)
        else:
            gens = restricted_action(translations, orb)
            simple = True if oracle_pair_orbit_count(gens, len(orb)) == 1 else "unknown"
        entries.append((tuple(orb), len(v_triv), len(v_st), inv, simple))
    return oracle_verdict(entries), entries


def oracle_verdict(entries):
    if any(not e[3] for e in entries):
        return "failed"
    if all(e[4] is True for e in entries):
        return "verified"
    if any(e[4] is False for e in entries):
        return "not-simple"
    return "inconclusive"


def augmentation_rows(x, orb):
    """The e_v - e_o, v in the orbit, o its first element."""
    return [[int(k == v) - int(k == orb[0]) for k in range(x.n)] for v in orb[1:]]


def right_translations(x):
    """Every R_j as a tuple of images: v * e_j moves coordinate i to i > j."""
    return [tuple(row[j] for row in x.table) for j in range(x.n)]


def moved_by(perm, v):
    out = [0] * len(v)
    for i, a in enumerate(v):
        out[perm[i]] = a
    return out


def oracle_spins_to_all(perms, p, basis):
    """Every nonzero vector of the span of the basis rows over F_p spins up
    to all of it under the permutations; one vector per line through 0 is
    tried, and a spin-up stops once it has the full rank."""
    d = len(basis)

    def spin_rank(v):
        rows = []  # (pivot, row), each row cleared at the earlier pivots

        def insert(w):
            for c, row in rows:
                if w[c]:
                    w = [(a - w[c] * b) % p for a, b in zip(w, row)]
            c = next((c for c, a in enumerate(w) if a), None)
            if c is not None:
                inv = pow(w[c], -1, p)
                rows.append((c, [a * inv % p for a in w]))
            return c is not None

        stack = [v] if insert(v) else []
        while stack and len(rows) < d:
            u = stack.pop()
            for perm in perms:
                w = moved_by(perm, u)
                if insert(w):
                    stack.append(w)
        return len(rows)

    for coeffs in itertools.product(range(p), repeat=d):
        if next((c for c in coeffs if c), 0) == 1:
            v = [sum(c * row[i] for c, row in zip(coeffs, basis)) % p for i in range(len(basis[0]))]
            if spin_rank(v) < d:
                return False
    return True


def oracle_is_proper_submodule(perms, domain, summand, witness):
    """The witness rows span a nonzero subspace of the summand, smaller
    than it, that each of the permutations maps into itself."""
    witness = [list(w) for w in witness]
    return (
        0 < len(oracle_rref(witness, domain)) < len(summand)
        and all(oracle_field_in_span(list(summand), w, domain) for w in witness)
        and all(oracle_field_in_span(witness, moved_by(perm, w), domain) for w in witness for perm in perms)
    )


def matrices(draw, domain, ncols):
    rows = st.lists(coefficients(domain), min_size=ncols, max_size=ncols)
    return draw(st.lists(rows, min_size=0, max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rref_matches_scalar_ops_oracle(data):
    domain = data.draw(st.sampled_from(FIELDS))
    rows = matrices(data.draw, domain, data.draw(st.integers(min_value=1, max_value=6)))
    got, want = rref(rows, domain), oracle_rref(rows, domain)
    assert got == want
    assert [type(c) for r in got for c in r] == [type(c) for r in want for c in r]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contains_matches_field_in_span_oracle(data):
    domain = data.draw(st.sampled_from(FIELDS))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    sub = span(ncols, domain, matrices(data.draw, domain, ncols))
    vectors = st.lists(coefficients(domain), min_size=ncols, max_size=ncols)
    # a combination of the basis, plus a perturbation that is sometimes zero
    coeffs = data.draw(st.lists(coefficients(domain), min_size=sub.rank, max_size=sub.rank))
    noise = data.draw(st.one_of(st.just([0] * ncols), vectors))
    v = [sum((c * row[i] for c, row in zip(coeffs, sub.basis)), 0) + noise[i] for i in range(ncols)]
    assert sub.contains(v) == oracle_field_in_span(list(sub.basis), [domain.coerce(c) for c in v], domain)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generated_ideal_matches_multiply_oracle(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    ring, _ = ring_and_oracle(data.draw, domain, depth=1)
    vectors = st.lists(coefficients(domain), min_size=ring.dim, max_size=ring.dim)
    gens = data.draw(st.lists(vectors, min_size=1, max_size=2))
    assert generated_right_ideal(ring, gens).basis == oracle_generated_ideal(ring, gens, "right")
    assert generated_left_ideal(ring, gens).basis == oracle_generated_ideal(ring, gens, "left")


def test_field_in_span_oracle_known_case():
    basis = [(Fraction(1), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(1))]
    assert oracle_field_solve(basis, [Fraction(2), Fraction(3), Fraction(5)], QQ) == [2, 3]
    assert not oracle_field_in_span(basis, [Fraction(0), Fraction(0), Fraction(1)], QQ)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_decomposition_matches_parent_on_order_le5(p):
    checked = 0
    for q in SMALL_QUANDLES:
        if any(len(orb) % p == 0 for orb in orbits(q)):
            continue
        report = verify_simple_decomposition(q, GF(p))
        got = [(e.orbit, e.dim_triv, e.dim_st, e.invariant, e.simple) for e in report.entries]
        assert (report.verdict, got) == oracle_verify_simple_decomposition(q, GF(p))
        checked += 1
    assert checked > 0


def test_decomposition_matches_parent_over_q():
    """The parent's verdicts, except that a summand it left unknown may be
    simple by reduction mod l: exhaustive spin-up over F_l of the span of
    the e_v - e_o must then confirm it."""
    reduced = 0
    for q in SMALL_QUANDLES:
        report = verify_simple_decomposition(q, QQ)
        got = [(e.orbit, e.dim_triv, e.dim_st, e.invariant, e.simple) for e in report.entries]
        _, want = oracle_verify_simple_decomposition(q, QQ)
        for k, e in enumerate(report.entries):
            if e.reduction_prime is not None:
                domain = GF(e.reduction_prime)
                assert want[k][4] == "unknown"
                assert oracle_simple_by_spinup(quandle_ring(q, domain), oracle_reduce(domain, augmentation_rows(q, e.orbit)))
                want[k] = want[k][:4] + (True,)
                reduced += 1
        assert (report.verdict, got) == (oracle_verdict(want), want)
    assert reduced > 0


def test_not_simple_witnesses_are_proper_submodules():
    """Over F_2..F_7, on every quandle of order at most 6, each summand is
    decided, and each one that is not simple carries a witness that the
    test-side check accepts."""
    witnesses = 0
    for q in [q for n in range(1, 7) for q in enumerate_quandles(n)]:
        for p in (2, 3, 5, 7):
            if any(len(orb) % p == 0 for orb in orbits(q)):
                continue
            domain = GF(p)
            for e in verify_simple_decomposition(q, domain).entries:
                assert e.simple in (True, False)
                if e.simple:
                    assert e.witness is None
                    continue
                summand = oracle_reduce(domain, augmentation_rows(q, e.orbit))
                assert oracle_is_proper_submodule(right_translations(q), domain, summand, e.witness)
                witnesses += 1
    assert witnesses > 0


IRREDUCIBLE_BASES = (
    [dihedral_quandle(n) for n in range(3, 14)]
    + [alexander_quandle(n, t) for n, t in ((5, 2), (7, 3), (8, 3), (9, 2), (11, 2), (13, 2))]
    + [conjugation_quandle(dihedral_group(k)) for k in (3, 4, 5)]
    + [disjoint_union(dihedral_quandle(3), dihedral_quandle(5))]
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_irreducible_matches_exhaustive_spinup(data):
    """Norton's test against one spin-up per line, on the span of the
    e_v - e_o of an orbit of a relabeled quandle over F_p, p^dim <= 5 * 10^4;
    a witness must pass the test-side check."""
    q = shuffled(data.draw(st.sampled_from(IRREDUCIBLE_BASES)), random.Random(data.draw(st.integers(0, 2**32))))
    orb = data.draw(st.sampled_from([orb for orb in orbits(q) if len(orb) > 1]))
    p = data.draw(st.sampled_from([p for p in (2, 3, 5, 7) if p ** (len(orb) - 1) <= 5 * 10**4]))
    domain = GF(p)
    summand = oracle_reduce(domain, augmentation_rows(q, orb))
    simple, witness = _irreducible(domain, inner_moves(q), span(q.n, domain, augmentation_rows(q, orb)))
    assert simple == oracle_spins_to_all(right_translations(q), p, summand)
    assert witness is None if simple else oracle_is_proper_submodule(right_translations(q), domain, summand, witness)


@st.composite
def integer_matrices(draw):
    """Up to 12 rows of up to 8 entries in [-10^6, 10^6], small entries
    mixed in so that pivots often divide, plus zero, duplicate, negated and
    dependent rows."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    entry = st.one_of(st.integers(-(10**6), 10**6), st.integers(-4, 4))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "negated", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
            continue
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "duplicate":
            rows.append(list(u))
        elif kind == "negated":
            rows.append([-a for a in u])
        else:
            a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows.append([a * x + b * y for x, y in zip(u, v)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.booleans())
def test_hnf_matches_sweep_oracle(rows, as_generator):
    want = oracle_hnf(rows)
    h = hermite_normal_form((tuple(r) for r in rows) if as_generator else rows)
    assert h == want
    assert hermite_normal_form(h) == h


def filtration_bases():
    """The Alexander, conjugation and union quandles whose integer Delta
    filtration the filtration-z benchmark workload computes."""
    alexander = (
        (5, 2), (7, 3), (8, 3), (9, 2), (10, 3), (11, 2),
        (12, 5), (13, 2), (15, 2), (16, 3), (17, 3), (19, 2),
    )
    groups = [dihedral_group(k) for k in (3, 4, 5, 6, 7)] + [
        cayley_table([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),  # Q_8
        cayley_table([(1, 2, 0, 3), (0, 2, 3, 1)]),  # A_4
    ]
    r, a = dihedral_quandle, alexander_quandle
    unions = [
        disjoint_union(r(3), r(3)),
        disjoint_union(r(3), r(5)),
        disjoint_union(r(5), a(7, 3)),
        disjoint_union(r(9), r(9)),
        disjoint_union(disjoint_union(r(3), r(3)), r(3)),
        disjoint_union(r(7), r(11)),
    ]
    return [a(n, t) for n, t in alexander] + [conjugation_quandle(g) for g in groups] + unions


def delta_cases(max_n):
    """R_2..R_32, the filtration bases and one seeded relabeling of each,
    of order at most max_n."""
    base = [dihedral_quandle(n) for n in range(2, 33)] + filtration_bases()
    rng = random.Random(20190108)
    cases = base + [shuffled(q, rng) for q in base]
    return [q for q in cases if q.n <= max_n]


def oracle_hnf_in_chunks(rows, size=64):
    """oracle_hnf of the distinct nonzero rows, taken size at a time
    together with the basis of the ones before, which keeps sweeps short."""
    rows = [r for r in dict.fromkeys(map(tuple, rows)) if any(r)]
    basis = []
    for start in range(0, len(rows), size):
        basis = oracle_hnf(basis + rows[start : start + size])
    return basis


@functools.lru_cache(maxsize=None)
def oracle_delta_powers(x, domain, k_max, variant):
    """(bases of Delta^1..Delta^k_max, [(product rows, reduced basis)] of
    Delta^2..Delta^k_max) by product-and-reduce."""
    ring = quandle_ring(x, domain)
    reduce = oracle_hnf_in_chunks if domain is ZZ else functools.partial(oracle_rref, domain=domain)
    n = x.n
    powers = [tuple(reduce([[-1] + [int(k == i) for k in range(1, n)] for i in range(1, n)]))]
    inputs = []
    for k in range(2, k_max + 1):
        splits = [(k - 1, 1)] if variant == "left-normed" else [(i, k - i) for i in range(1, k)]
        rows = tuple(
            tuple(multiply(ring, list(u), list(v)))
            for i, j in splits
            for u in powers[i - 1]
            for v in powers[j - 1]
        )
        powers.append(tuple(reduce(rows)))
        inputs.append((rows, powers[-1]))
    return tuple(powers), tuple(inputs)


VARIANTS = ("all-bracketings", "left-normed")


@pytest.mark.parametrize(
    "domain, max_n", [(ZZ, 32), (QQ, 9), (GF(3), 9), (GF(2), 18)], ids=["Z", "Q", "F_3", "F_2"]
)
def test_delta_powers_match_product_oracle(domain, max_n):
    """The one Delta^k = Delta^(k-1) * Delta equals the sum over all
    bracketings and the left-normed product alike; over Z and F_2 also on
    the 107 quandles of order at most 6."""
    cases = delta_cases(max_n)
    if domain in (ZZ, GF(2)):
        cases += [q for n in range(1, 7) for q in enumerate_quandles(n)]
    for q in cases:
        got = tuple(p.basis for p in delta_powers(q, domain, 4))
        for variant in VARIANTS:
            assert got == oracle_delta_powers(q, domain, 4, variant)[0], (q.n, variant)


def tetrahedral_quandle():
    """Aff(F_4, w): x > y = w x + w^2 y, with a + b w in
    F_4 = F_2[w]/(w^2 + w + 1) stored as a + 2b."""

    def times(a, b):
        out = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return out ^ 0b111 if out & 0b100 else out  # w^2 = w + 1

    return Quandle.from_table([[times(2, x) ^ times(3, y) for y in range(4)] for x in range(4)])


def test_tetrahedral_quandle_needs_the_closure():
    """The tetrahedral quandle Aff(F_4, w) has one displacement d, an
    involution, but Dis(X) is the Klein four-group, so <d> is not normal
    and the (d - 1) b, b over the basis of Delta, span less than Delta^2.
    Of the quandles of order at most 6 with one displacement it is the
    only one where they do; where <d> is normal they never do."""
    tetra = tetrahedral_quandle()
    (d,) = _displacements(tetra)
    assert d != tuple(range(4)) and tuple(d[i] for i in d) == tuple(range(4))
    assert not _normalizes_cyclic(d, inner_moves(tetra))
    for domain in (ZZ, GF(2), QQ):
        got = tuple(p.basis for p in delta_powers(tetra, domain, 4))
        assert got == oracle_delta_powers(tetra, domain, 4, "left-normed")[0]
    for q in (q for n in range(1, 7) for q in enumerate_quandles(n)):
        shifts = _displacements(q)
        if len(shifts) == 1:
            d = shifts[0]
            delta1, delta2 = delta_powers(q, ZZ, 2)
            alone = span(q.n, ZZ, [[b[d[j]] - b[j] for j in range(q.n)] for b in delta1.basis]) == delta2
            assert alone == (quandles_isomorphic(q, tetra) is None), q.table
            assert alone or not _normalizes_cyclic(d, inner_moves(q))


def test_dihedral_filtration_needs_no_closure():
    """R_n, n >= 3, has one displacement, and <d> = Dis(R_n) is normal."""
    for n in range(3, 65):
        x = dihedral_quandle(n)
        (d,) = _displacements(x)
        assert _normalizes_cyclic(d, inner_moves(x)), n


def test_normalizes_cyclic_matches_the_powers_of_d():
    """Against the powers of d, for one d of each cycle type in S_n,
    n <= 6, and every m in S_n: m alone, and m after and before d, which
    always normalizes <d>."""
    for n in range(1, 7):
        types = {}
        for d in itertools.permutations(range(n)):
            seen, lengths = set(), []
            for v in range(n):
                size = 0
                while v not in seen:
                    seen.add(v)
                    v, size = d[v], size + 1
                if size:
                    lengths.append(size)
            types.setdefault(tuple(sorted(lengths)), d)
        for d in types.values():
            powers, p = set(), tuple(range(n))
            while p not in powers:
                powers.add(p)
                p = tuple(d[i] for i in p)
            for m in itertools.permutations(range(n)):
                c = [0] * n
                for i in range(n):
                    c[m[i]] = m[d[i]]
                want = tuple(c) in powers
                assert _normalizes_cyclic(d, [m]) == want, (d, m)
                assert _normalizes_cyclic(d, [d, m]) == _normalizes_cyclic(d, [m, d]) == want, (d, m)
    # m turns (0 1 2)(3 4 5) into d on the one cycle and d^2 on the other: no one power of d
    assert not _normalizes_cyclic((1, 2, 0, 4, 5, 3), [(0, 1, 2, 3, 5, 4)])


def test_hnf_matches_sweep_oracle_on_delta_power_inputs():
    """Every product-row matrix the product-and-reduce oracle reduces over
    Z, both variants, for R_3..R_12 to Delta^4 and the filtration-z bases
    to Delta^4."""
    quandles = [dihedral_quandle(n) for n in range(3, 13)] + filtration_bases()
    for q in quandles:
        for variant in VARIANTS:
            for rows, want in oracle_delta_powers(q, ZZ, 4, variant)[1]:
                assert tuple(hermite_normal_form(rows)) == want
