"""Acceptance gate: one test per criterion, one summary line each.

Gating criteria assert their expected values and time budgets; the one
exploratory criterion (the higher filtration quotients for even n) only
records what was observed.
"""

import itertools
import random
import time
from math import gcd

from conftest import ACCEPTANCE_LINES
from test_dihedral import e_product_generic
from test_linalg import fraction_rank, minors_gcd_factors, reduce_mod_hnf

from quandlekit import cli
from quandlekit.counterexamples import (
    PAIR4_MATRIX,
    PAIR4_X,
    PAIR4_Y,
    PAIR7_MATRIX,
    PAIR7_X,
    PAIR7_Y,
    generalized_counterexample,
)
from quandlekit.dihedral import (
    column_periodicity_holds,
    complex_decomposition_check,
    delta_series_shapes,
    e_product,
    verify_product_formulas,
)
from quandlekit.domains import GF, QQ
from quandlekit.lattices import AbelianGroupShape, verify_simple_decomposition
from quandlekit.linalg import hermite_normal_form, smith_normal_form
from quandlekit.quandles import orbits, trivial_quandle
from quandlekit.rings import (
    direct_sum,
    find_ring_isomorphism,
    is_ring_isomorphism,
    multiply,
    power_assoc_witness,
    quandle_ring,
    right_annihilator_count,
)
from quandlekit.symmetry import (
    enumerate_quandles,
    is_left_peak_2transitive,
    is_right_2transitive,
    is_right_orbit_2transitive,
    quandle_polynomial,
    quandles_isomorphic,
)


def record(num, ok, detail, elapsed):
    word = "PASS" if ok else "FAIL"
    line = "criterion %02d %s (%5.1fs)  %s" % (num, word, elapsed, detail)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def record_report(num, detail, elapsed):
    ACCEPTANCE_LINES.append("criterion %02d REPORT (%5.1fs)  %s" % (num, elapsed, detail))


def is_trivial(q):
    return all(q.op(i, j) == i for i in range(q.n) for j in range(q.n))


def test_criterion_01_enumeration_counts():
    start = time.monotonic()
    expected = cli.EXPECTED["enumeration"]
    actual = {}
    for n in expected:
        qs = enumerate_quandles(n)
        actual[n] = (
            len(qs),
            sum(is_right_orbit_2transitive(q) for q in qs),
            sum(is_left_peak_2transitive(q) for q in qs),
        )
    elapsed = time.monotonic() - start
    record(
        1,
        actual == expected and elapsed < 30,
        "classes/right-2t/left-2t for n=3,4,5: %s" % (sorted(actual.items()),),
        elapsed,
    )


def test_criterion_01_stretch_order6():
    start = time.monotonic()
    qs = enumerate_quandles(6)
    counts = (
        len(qs),
        sum(is_right_orbit_2transitive(q) for q in qs),
        sum(is_left_peak_2transitive(q) for q in qs),
    )
    elapsed = time.monotonic() - start
    record(
        1,
        counts == cli.EXPECTED["enumeration_stretch"][6] and elapsed < 30,
        "classes/right-2t/left-2t for n=6: %s" % (counts,),
        elapsed,
    )


def test_criterion_01_report_order7():
    start = time.monotonic()
    qs = enumerate_quandles(7)
    counts = (
        len(qs),
        sum(is_right_orbit_2transitive(q) for q in qs),
        sum(is_left_peak_2transitive(q) for q in qs),
    )
    elapsed = time.monotonic() - start
    record_report(1, "classes/right-2t/left-2t for n=7 (non-gating): %s" % (counts,), elapsed)


def test_criterion_01_report_order8():
    start = time.monotonic()
    qs = enumerate_quandles(8, bound=8)
    counts = (
        len(qs),
        sum(is_right_orbit_2transitive(q) for q in qs),
        sum(is_left_peak_2transitive(q) for q in qs),
    )
    # Inn(X) 2-transitive on X: the affine quandles over F_8, one per
    # Frobenius class of primitive elements, so 2 are expected
    affine = sum(is_right_2transitive(q) for q in qs)
    elapsed = time.monotonic() - start
    record_report(
        1,
        "classes/right-2t/left-2t for n=8 (non-gating; OEIS A057991 gives 1581 classes): %s; "
        "Inn(X) 2-transitive: %d (2 expected)" % (counts, affine),
        elapsed,
    )


def test_criterion_02_power_associativity():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 6):
        for q in enumerate_quandles(n):
            w = power_assoc_witness(q, QQ)
            if is_trivial(q):
                ok = ok and w is None
            else:
                ok = ok and w is not None
            checked += 1
    elapsed = time.monotonic() - start
    record(
        2,
        ok and elapsed < 60,
        "witness for every non-trivial quandle of order <= 5, none for trivial (%d quandles)"
        % checked,
        elapsed,
    )


def test_criterion_02_report_power_associative_counts():
    """How many quandle rings of each order 1..7 are power-associative;
    recorded, not gated, as PAPER.md holds only the abstract."""
    start = time.monotonic()
    counts = [
        "%r %s" % (d, [sum(power_assoc_witness(q, d) is None for q in enumerate_quandles(n)) for n in range(1, 8)])
        for d in (QQ, GF(2), GF(3), GF(5))
    ]
    elapsed = time.monotonic() - start
    record_report(2, "power-associative rings of order 1..7 (non-gating): %s" % "; ".join(counts), elapsed)


def test_criterion_03_delta_filtration_odd():
    start = time.monotonic()
    ok = all(
        delta_series_shapes(n, 3) == [AbelianGroupShape(0, (n,))] * 3 for n in (3, 5, 7, 9)
    )
    elapsed = time.monotonic() - start
    record(3, ok and elapsed < 60, "three quotients equal Z_n for n=3,5,7,9", elapsed)


def test_criterion_04_delta_filtration_even():
    start = time.monotonic()
    ok = all(
        delta_series_shapes(n, 1)[0] == AbelianGroupShape(1, (n // 2,)) for n in (4, 6, 8, 10)
    )
    elapsed = time.monotonic() - start
    record(4, ok and elapsed < 30, "first quotient equals Z + Z_(n/2) for n=4,6,8,10", elapsed)


def test_criterion_05_higher_even_quotients_reported():
    start = time.monotonic()
    square, others = 0, []
    for n in range(4, 65, 2):
        shapes = delta_series_shapes(n, 6)
        for k in range(2, 7):
            if shapes[k - 1] == AbelianGroupShape(0, (n // 2, n // 2)):
                square += 1
            else:
                others.append((n, k, str(shapes[k - 1])))
    elapsed = time.monotonic() - start
    record_report(
        5,
        "even-n higher quotients Delta^k/Delta^(k+1), n = 4..64, k = 2..6 (non-gating): "
        "%d of %d are Z_{n/2} + Z_{n/2}, order (n/2)^2; others: %s"
        % (square, square + len(others), others or "none"),
        elapsed,
    )


def test_criterion_06_counterexample_matrices():
    start = time.monotonic()
    ok = is_ring_isomorphism(quandle_ring(PAIR4_X, GF(3)), quandle_ring(PAIR4_Y, GF(3)), PAIR4_MATRIX)
    ok = ok and is_ring_isomorphism(quandle_ring(PAIR7_X, QQ), quandle_ring(PAIR7_Y, QQ), PAIR7_MATRIX)
    ok = ok and quandles_isomorphic(PAIR4_X, PAIR4_Y) is None
    ok = ok and quandles_isomorphic(PAIR7_X, PAIR7_Y) is None
    for n, p in ((6, 5), (12, 11)):
        x, y, matrix = generalized_counterexample(n, p)
        ok = ok and is_ring_isomorphism(quandle_ring(x, GF(p)), quandle_ring(y, GF(p)), matrix)
        ok = ok and quandles_isomorphic(x, y) is None
    elapsed = time.monotonic() - start
    record(6, ok and elapsed < 10, "both fixed pairs plus generalized (6,5) and (12,11)", elapsed)


def test_criterion_07_quandle_polynomials():
    start = time.monotonic()
    ok = quandle_polynomial(PAIR7_X).counts() == {
        (5, 7): 2,
        (6, 7): 2,
        (7, 3): 1,
        (7, 5): 1,
        (7, 7): 1,
    }
    ok = ok and quandle_polynomial(PAIR7_Y).counts() == {(6, 7): 4, (7, 5): 2, (7, 7): 1}
    elapsed = time.monotonic() - start
    record(7, ok, "order-7 pair polynomials match the reference term lists", elapsed)


def test_criterion_08_zero_columns():
    from quandlekit.quandles import Quandle, dihedral_quandle

    start = time.monotonic()
    two_orbit = Quandle.from_table([[0, 0, 1], [1, 1, 0], [2, 2, 2]])
    ok = True
    for p in (2, 5, 7):
        ok = ok and right_annihilator_count(trivial_quandle(3), p) == p * p
        ok = ok and right_annihilator_count(two_orbit, p) == p
        ok = ok and right_annihilator_count(dihedral_quandle(3), p) == 1
    p3 = tuple(
        right_annihilator_count(q, 3) for q in (trivial_quandle(3), two_orbit, dihedral_quandle(3))
    )
    elapsed = time.monotonic() - start
    record(8, ok, "counts p^2, p, 1 for p=2,5,7; p=3 observed %s (reported)" % (p3,), elapsed)


def test_criterion_09_direct_sum_not_isomorphic():
    start = time.monotonic()
    ok = True
    for p in (2, 3):
        pt = quandle_ring(trivial_quandle(1), GF(p))
        three_points = direct_sum(direct_sum(pt, pt), pt)
        ok = ok and find_ring_isomorphism(three_points, quandle_ring(trivial_quandle(3), GF(p))) is None
    elapsed = time.monotonic() - start
    record(9, ok and elapsed < 60, "no ring isomorphism over F_2 or F_3", elapsed)


def test_criterion_10_product_closed_forms():
    start = time.monotonic()
    ok = verify_product_formulas(8).ok and verify_product_formulas(10).ok
    for n in (8, 10):
        ok = ok and column_periodicity_holds(n)
        for i in range(1, n):
            for j in range(1, n):
                ok = ok and e_product(n, i, j) == e_product_generic(n, i, j)
    elapsed = time.monotonic() - start
    record(10, ok, "formula families, every cell, and column periodicity for n=8,10", elapsed)


def test_criterion_11_orbit_sum_zero_divisor():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 6):
        for q in enumerate_quandles(n):
            parts = orbits(q)
            if len(parts) < 2 or max(len(o) for o in parts) < 2:
                continue
            ring = quandle_ring(q, QQ)
            orbit = max(parts, key=len)
            indicator = [QQ.one if i in orbit else QQ.zero for i in range(n)]
            for x, y in itertools.permutations(range(n), 2):
                diff = [QQ.zero] * n
                diff[x] = QQ.one
                diff[y] = -QQ.one
                ok = ok and all(c == 0 for c in multiply(ring, indicator, diff))
            checked += 1
    elapsed = time.monotonic() - start
    record(
        11,
        ok and checked > 0,
        "orbit indicator annihilates every x - y (%d multi-orbit quandles)" % checked,
        elapsed,
    )


def test_criterion_12_decomposition():
    start = time.monotonic()
    ok = True
    certified = 0
    for n in range(2, 5):
        for q in enumerate_quandles(n):
            if not is_right_orbit_2transitive(q):
                continue
            report = verify_simple_decomposition(q, GF(5))
            ok = ok and report.verdict == "verified"
            certified += 1
    primes = set()
    for n in range(3, 17):
        report = complex_decomposition_check(n)
        ok = ok and report.ok and all(s.invariant and s.simple for s in report.summands)
        primes.add(report.prime)
    elapsed = time.monotonic() - start
    record(
        12,
        ok,
        "%d quandles certified over F_5; C[R_n] for n = 3..16 certified over F_p, p in %s"
        % (certified, sorted(primes)),
        elapsed,
    )


def test_criterion_13_normal_form_oracles():
    start = time.monotonic()
    rng = random.Random(13572468)
    ok = True
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        factors = smith_normal_form(a)
        ok = ok and all(d2 % d1 == 0 for d1, d2 in zip(factors, factors[1:]))
        ok = ok and factors == minors_gcd_factors(a)
        ok = ok and len(factors) == fraction_rank(a)
        h = hermite_normal_form(a)
        ok = ok and hermite_normal_form(h) == h
    # brute-force quotient equivalence on square full-rank instances
    cosets_checked = 0
    while cosets_checked < 40:
        n = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if fraction_rank(a) < n:
            continue
        cosets_checked += 1
        factors = [d for d in smith_normal_form(a) if d > 1]
        h = hermite_normal_form(a)
        residues = set()
        for combo in itertools.product(*[range(row[i]) for i, row in enumerate(h)]):
            residues.add(reduce_mod_hnf(h, combo))
        order = 1
        for d in factors:
            order *= d
        ok = ok and len(residues) == order
        for mmod in range(1, max(factors, default=1) + 1):
            expected = 1
            for d in factors:
                expected *= gcd(d, mmod)
            actual = sum(
                1 for r in residues if reduce_mod_hnf(h, [mmod * c for c in r]) == (0,) * n
            )
            ok = ok and actual == expected
    elapsed = time.monotonic() - start
    record(
        13,
        ok,
        "500 random normal-form cases plus %d coset enumerations agree with oracles" % cosets_checked,
        elapsed,
    )
