"""The Delta-filtration quotients with their stable point: `delta_quotients`
against the quotient shapes of every power `delta_powers` computes, and a
report of the stable quotients of R_3..R_128.

A quandle is principal when it has at most one displacement d and <d> is
normal in Inn(X); there `delta_quotients` stops at the first k with
rank Delta^(k+1) = rank Delta^k and repeats that quotient.  The oracle
here decides normality from the whole of Inn(X), not from the generators.
"""

import random
import time

from conftest import ACCEPTANCE_LINES
from test_arithmetic_oracles import filtration_bases, tetrahedral_quandle
from test_pair_kernel import shuffled

from quandlekit.domains import ZZ
from quandlekit.lattices import (
    AbelianGroupShape,
    _displacements,
    delta_powers,
    delta_quotients,
    quotient_shape,
)
from quandlekit.quandles import dihedral_quandle
from quandlekit.symmetry import enumerate_quandles, inner_group


def oracle_principal(x):
    """At most one displacement d, and g d g^-1 a power of d for every g in Inn(X)."""
    shifts = _displacements(x)
    if len(shifts) > 1:
        return False
    for d in shifts:
        powers, p = set(), tuple(range(x.n))
        while p not in powers:
            powers.add(p)
            p = tuple(d[i] for i in p)
        for g in inner_group(x):
            conj = [0] * x.n
            for i in range(x.n):
                conj[g[i]] = g[d[i]]
            if tuple(conj) not in powers:
                return False
    return True


def stable_cases():
    """Every quandle of order at most 6, R_2..R_40, and the filtration-z
    bases (Alexander, conjugation and union quandles) with one seeded
    relabeling of each."""
    rng = random.Random(20190109)
    bases = filtration_bases()
    return (
        [q for n in range(1, 7) for q in enumerate_quandles(n)]
        + [dihedral_quandle(n) for n in range(2, 41)]
        + bases
        + [shuffled(q, rng) for q in bases]
    )


def test_delta_quotients_match_every_power():
    """delta_quotients(x, k_0 + 4) equals the quotient shapes over
    delta_powers(x, ZZ, k_0 + 5), k_0 = 0 where nothing is proven;
    stable_from is set exactly on the principal quandles."""
    for x in stable_cases():
        principal = oracle_principal(x)
        k0 = delta_quotients(x, 8 if principal else 4)[1]
        assert (k0 is not None) == principal, x.table
        k_max = (k0 or 0) + 4
        shapes, stable_from = delta_quotients(x, k_max)
        assert stable_from == k0, x.table
        powers = delta_powers(x, ZZ, k_max + 1)
        assert shapes == [quotient_shape(powers[k - 1], powers[k]) for k in range(1, k_max + 1)], x.table


def test_tetrahedral_quotients_grow_after_equal_ranks():
    """Aff(F_4, w) has rank 3 at every Delta^k, yet its quotients go
    Z_2 + Z_2, then Z_2^3: equal ranks prove nothing without the one
    normal displacement, and its <d> is not normal."""
    two, three = AbelianGroupShape(0, (2, 2)), AbelianGroupShape(0, (2, 2, 2))
    assert delta_quotients(tetrahedral_quandle(), 3) == ([two, three, three], None)


def test_dihedral_stable_quotients_reported():
    """Non-gating: the quotients of R_3..R_128 to k = 20, with the k_0 from
    which each is proven constant, so a line that holds at k_0 holds for
    every k.  The statement checked: for odd n, Delta^k/Delta^(k+1) is Z_n
    at every k >= 1; for even n it is Z + Z_{n/2} at k = 1 and
    Z_{n/2} + Z_{n/2} at every k >= 2.  Bardakov, Passi and Singh
    ("Quandle rings", J. Algebra Appl. 18, 2019) work out these quotients
    for R_n; the line proves the statement per n, not as a theorem for
    every n."""
    start = time.monotonic()
    held, others = 0, []
    for n in range(3, 129):
        shapes, stable_from = delta_quotients(dihedral_quandle(n), 20)
        half = n // 2
        if n % 2:
            want, want_from = [AbelianGroupShape(0, (n,))] * 20, 1
        else:
            want, want_from = [AbelianGroupShape(1, (half,))] + [AbelianGroupShape(0, (half, half))] * 19, 2
        if shapes == want and stable_from == want_from:
            held += 1
        else:
            others.append((n, stable_from, [str(s) for s in shapes[:3]]))
    elapsed = time.monotonic() - start
    ACCEPTANCE_LINES.append(
        "stable quotients REPORT (%5.1fs)  R_n, n = 3..128, k = 1..20 (non-gating): %d of 126 proven "
        "constant from k_0 = 1 (odd n, Z_n) or k_0 = 2 (even n, Z + Z_{n/2} then Z_{n/2} + Z_{n/2}); "
        "others: %s" % (elapsed, held, others or "none")
    )
