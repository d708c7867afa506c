"""Submodules and one-sided ideals of quandle rings.

Submodules are stored with a reduced basis: Hermite normal form over the
integers, reduced row echelon form over a field.  Reduced bases are
unique for a given span, so equality of submodules is equality of bases.
Coefficients are plain numbers, read into the domain by the reduction.

Multiplying by a basis element only moves coordinates: v * e_j sends
coordinate i to i > j, so for a quandle ring it permutes them by R_j,
and a right ideal is a subspace closed under these permutations.  Each
R_j is a quandle automorphism, so v -> v * e_j is a ring automorphism
that keeps the augmentation, and every power Delta^k of the augmentation
ideal is closed under Inn(X).  Ideals are spun up (``_spin``) afresh on
every call, with no cache.  Delta^1 is the augmentation basis itself, and
each Delta^(k+1) is spun up from the (d - 1) b, d a displacement
R_s0^-1 R_s of two generators and b a basis row of Delta^k, with no ring
multiplication; when a single displacement generates a normal subgroup
of Inn(X) these rows already span Delta^(k+1), no move is applied, and
``delta_quotients`` stops at the first two powers of equal rank.

Whether an orbit summand over F_p is simple is decided by Norton's
irreducibility test, in `meataxe`, which a call imports on first use.
"""

from math import lcm

from ._record import Record
from .domains import GF, ZZ, _is_prime
from .errors import (
    ContainmentError,
    DomainMismatchError,
    NonSplitError,
    PreconditionError,
)
from .linalg import (
    echelon,
    hermite_normal_form,
    hnf_solve,
    lattice_contains,
    rref,
    smith_normal_form,
)
from .quandles import generating_set, inner_moves, orbits, right_translation
from .rings import multiply
from .symmetry import reaches_every_pair, restricted_action

class Submodule(Record):
    __slots__ = ("ambient_dim", "domain", "basis")  # basis: reduced basis rows, tuple of tuples

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise DomainMismatchError("vector length does not match ambient dimension")
        if self.domain is ZZ:
            return lattice_contains(self.basis, v)
        form = echelon(self.domain)
        form.extend(self.basis)
        return not form.insert(v)


def span(ambient_dim, domain, rows):
    """Submodule spanned by arbitrary generator rows."""
    basis = hermite_normal_form(rows) if domain is ZZ else rref(rows, domain)
    return Submodule(ambient_dim=ambient_dim, domain=domain, basis=tuple(basis))


def submodule_leq(a, b):
    """a contained in b: over Z one solve of a's rows in b's HNF, over a
    field one echelon of b that a's rows go into until one grows it."""
    if a.basis and a.ambient_dim != b.ambient_dim:
        raise DomainMismatchError("vector length does not match ambient dimension")
    if b.domain is ZZ:
        return None not in hnf_solve(b.basis, a.basis)
    form = echelon(b.domain)
    form.extend(b.basis)
    return not any(form.insert(v) for v in a.basis)


def augmentation_ideal(x, domain):
    """Span of a_i - a_(n-1) for i < n - 1, rank n - 1; the rows already are its HNF or RREF."""
    n, zero, one, minus = x.n, domain.zero, domain.one, domain.coerce(-1)
    rows = []
    for i in range(n - 1):
        row = [zero] * n
        row[i], row[-1] = one, minus
        rows.append(tuple(row))
    return Submodule(ambient_dim=n, domain=domain, basis=tuple(rows))


def submodule_product(ring, a, b):
    """Reduced span of all pairwise products of basis vectors."""
    if a.ambient_dim != ring.dim or b.ambient_dim != ring.dim:
        raise DomainMismatchError("submodules do not live in the given ring")
    rows = (multiply(ring, u, v) for u in a.basis for v in b.basis)
    return span(ring.dim, ring.domain, rows)


def _spin(domain, seeds, moves):
    """Reduced basis of the smallest submodule holding the seeds and closed
    under the linear moves; a move scatters coordinate i to move[i], index
    -1 (a spare slot) taking zero products.  Only rows that grew the span
    have their images inserted."""
    form = echelon(domain)
    for seed in seeds:
        if not form.insert(seed):
            continue
        stack = [seed]
        while stack:
            v = stack.pop()
            for move in moves:
                w = [domain.zero] * (len(v) + 1)
                for vi, k in zip(v, move):
                    w[k] += vi
                w.pop()
                if form.insert(w):
                    stack.append(w)
    return tuple(form.rows())


def _displacements(x):
    """The distinct d_s = R_s0^-1 R_s other than the identity, for s_0, s in
    `generating_set(x)`, as tuples of the d_s(j)."""
    first, *rest = (right_translation(x, a) for a in generating_set(x))
    back = [0] * x.n
    for i, j in enumerate(first):
        back[j] = i
    return [d for d in dict.fromkeys(tuple(back[j] for j in r) for r in rest) if d != tuple(range(x.n))]


def _normalizes_cyclic(d, moves):
    """Whether every move m conjugates the permutation d into <d>.
    c = m d m^-1 lies in <d> exactly when it turns each cycle of d onto
    itself as one rotation d^j, the j of the cycles agreeing modulo their
    lengths (Chinese remainders).  O(n) per move."""
    n = len(d)
    cycles, at = [], [None] * n  # at[v] = (cycle of v, position of v in it)
    for v in range(n):
        if at[v] is None:
            cycle = [v]
            while d[cycle[-1]] != v:
                cycle.append(d[cycle[-1]])
            for i, u in enumerate(cycle):
                at[u] = (len(cycles), i)
            cycles.append(cycle)
    for m in moves:
        c = [0] * n
        for i in range(n):
            c[m[i]] = m[d[i]]
        j, period = 0, 1  # c agrees with d^j on the cycles so far, j mod period
        for k, cycle in enumerate(cycles):
            size = len(cycle)
            ck, r = at[c[cycle[0]]]
            if ck != k or any(c[u] != cycle[(i + r) % size] for i, u in enumerate(cycle)):
                return False
            # a j' = j mod period with j' = r mod size, if any, is one of these
            j = next((t for t in range(j, j + period * size, period) if t % size == r), None)
            if j is None:
                return False
            period = lcm(period, size)
    return True


def _delta_chain(x, domain):
    """(principal, Delta^k) for k = 1, 2, ..., each power spun up when it
    is read; principal when there is at most one displacement d and <d> is
    normal, and then the spin has no moves (`delta_powers`)."""
    shifts, moves = _displacements(x), inner_moves(x)
    principal = len(shifts) < 2 and all(_normalizes_cyclic(d, moves) for d in shifts)
    basis = augmentation_ideal(x, domain).basis
    while True:
        yield principal, Submodule(ambient_dim=x.n, domain=domain, basis=basis)
        # last pivot first: a new pivot then mostly lies left of those placed,
        # whose rows it leaves alone (R_3..R_32 to Delta^4: 4,479 row
        # reductions in the HNF against 22,319 first pivot first)
        seeds = ([b[d[j]] - b[j] for j in range(x.n)] for d in shifts for b in reversed(basis))
        basis = _spin(domain, seeds, () if principal else moves)


def delta_powers(x, domain, k_max):
    """[Delta^1, ..., Delta^k_max] for the quandle ring of x, Delta^k =
    Delta^(k-1) * Delta, each spun up from displacements of the one before.

    Take s_0, s_1, ... = `generating_set(x)`, r_y(v) = v * e_y the move of
    R_y, and the displacements d_s = R_s0^-1 R_s other than the identity.
    Every r_y is a ring automorphism keeping the augmentation, so each
    Delta^k is Inn(X)-stable, and for u in Delta^k
    u * (e_y - e_z) = r_y(u) - r_z(u) = r_z((r_z^-1 r_y - 1) u).  The
    e_y - e_z span Delta and r_z keeps Delta^k and Delta^(k+1), so
    Delta^(k+1) is the span I * Delta^k of the (g - 1) u, u in Delta^k
    and g in Dis(X) = <R_z^-1 R_y>: gt - 1 = g(t - 1) + (g - 1) carries
    this from the generators to every g.  Dis(X) is the normal closure N
    in Inn(X) of the d_s: modulo N every R_s is R_s0, so Inn(X)/N is
    cyclic, and each R_y, a conjugate of some R_s as
    R_(a > b) = R_b R_a R_b^-1, is R_s0 too.  N is generated by the
    h d_s h^-1, h in Inn(X), and (h d_s h^-1 - 1) u = h (d_s - 1) h^-1 u,
    so Delta^(k+1) is the Inn(X)-spin of the (d_s - 1) b, b over a basis
    of Delta^k.  Nothing here needs more than a commutative coefficient
    ring: it holds over Z, Q and F_p alike.  A seed is written
    b[d(j)] - b[j] at j, which is (d^-1 - 1) b = (d - 1)(-d^-1 b); d^-1
    maps Delta^k onto itself, so the seeds span (d - 1) Delta^k all the
    same.

    When there is one displacement d and every move conjugates d into
    <d> (`_normalizes_cyclic`), <d> is normal in Inn(X), so N = <d>.  Then
    I * Delta^k = Z[<d>] (d - 1) Delta^k = (d - 1) Delta^k, as <d> is
    abelian and keeps Delta^k: the seeds span the Inn-stable Delta^(k+1)
    already, and the spin gets no moves.  With no displacement at all,
    Dis(X) = 1 and Delta^(k+1) = 0.

    Bracketing does not matter: Delta^i * Delta^j lies in Delta^(i+j), so
    the sum over all bracketings of a k-fold product is Delta^k too.  The
    r_y keep every Delta^k, which is spanned by the r_y(u) - r_z(u), u in
    Delta^(k-1).  Induct on j for all i; j = 1 is the definition.  For u
    in Delta^i, v in Delta^(j-1) and u_y = r_y^-1(u) in Delta^i,
    u * (r_y(v) - r_z(v)) = r_y(u_y * v) - r_z(u_z * v) =
    (u_y * v) * (e_y - e_z) + r_z((u_y - u_z) * v), and u_z - u_y =
    r_y^-1(w * (e_y - e_z)) with w = r_z^-1(u) lies in Delta^(i+1): both
    terms lie in Delta^(i+j).
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    chain = _delta_chain(x, domain)
    return [next(chain)[1] for _ in range(k_max)]


def delta_quotients(x, k_max):
    """(shapes, stable_from): the Z-shapes of Delta^k/Delta^(k+1), k = 1..k_max,
    and the k_0 <= k_max from which they are proven constant, or None.

    In the principal case Delta^(j+1) = t Delta^j for all j >= 1, t = d^-1 - 1
    the map the seeds apply (`delta_powers`), or t = 0 with no displacement.
    Let k = k_0 be the first with rank Delta^(k+1) = rank Delta^k = r: t
    maps Delta^k onto Delta^(k+1), a surjection Z^r -> Z^r, whose kernel
    has rank 0 and so is 0.  The isomorphism t carries Delta^(k+1) onto
    Delta^(k+2), so Delta^k/Delta^(k+1) ~ Delta^(k+1)/Delta^(k+2) and the
    ranks agree again: by induction every quotient from k_0 on is the one
    at k_0, and no power past Delta^(k_0+1) is computed."""
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    chain = _delta_chain(x, ZZ)
    principal, upper = next(chain)
    shapes = []
    for k in range(1, k_max + 1):
        lower = next(chain)[1]
        shapes.append(quotient_shape(upper, lower))
        if principal and lower.rank == upper.rank:
            return shapes + shapes[-1:] * (k_max - k), k
        upper = lower
    return shapes, None


class AbelianGroupShape(Record):
    __slots__ = ("free_rank", "torsion")  # torsion: invariant factors d_1 | d_2 | ..., each > 1

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z_%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def quotient_shape(a, b):
    """Shape of A/B from the relation matrix of basis(B) in A-coordinates.

    Over the integers the coordinates are solved through the HNF basis of
    A and the relation matrix is put in Smith normal form.  Over a field
    only the dimension difference is meaningful.
    """
    if a.ambient_dim != b.ambient_dim or a.domain is not b.domain:
        raise DomainMismatchError("quotient needs matching ambient space")
    if a.domain is not ZZ:
        if not submodule_leq(b, a):
            raise ContainmentError("denominator is not contained in numerator")
        return AbelianGroupShape(free_rank=a.rank - b.rank, torsion=())
    relations = hnf_solve(a.basis, b.basis)
    if None in relations:
        raise ContainmentError("denominator is not contained in numerator")
    factors = smith_normal_form(relations)
    free_rank = a.rank - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianGroupShape(free_rank=free_rank, torsion=torsion)


def _generated_ideal(ring, generators, side):
    """Smallest submodule containing the generators and closed under
    multiplication by every basis element on the given side ("right" or
    "left"), by one spin-up.

    v * e_j moves coordinate i of v to table[i][j], along column j of the
    table, and e_j * v moves it to table[j][i], along row j.
    """
    moves = tuple(zip(*ring.table)) if side == "right" else ring.table
    return Submodule(ambient_dim=ring.dim, domain=ring.domain, basis=_spin(ring.domain, generators, moves))


def generated_right_ideal(ring, generators):
    return _generated_ideal(ring, generators, "right")


def generated_left_ideal(ring, generators):
    return _generated_ideal(ring, generators, "left")


def orbit_summands(x, domain):
    """Per orbit: the rank-1 span of the orbit indicator and the
    augmentation-zero subspace supported on the orbit.

    The splitting needs the orbit size to be invertible, so Z and a field
    characteristic dividing an orbit size are rejected.  Over Z an orbit
    of size m > 1 does not split: the two summands span a sublattice of
    index m.
    """
    if domain is ZZ:
        raise PreconditionError("the orbit decomposition needs a field, not %r" % domain)
    char = domain.char
    out = []
    for orb in orbits(x):
        if char and len(orb) % char == 0:
            raise NonSplitError(
                "characteristic %d divides orbit size %d" % (char, len(orb))
            )
        v_triv = span(x.n, domain, [[int(k in orb) for k in range(x.n)]])
        st_rows = [[int(k == v) - int(k == orb[0]) for k in range(x.n)] for v in orb[1:]]
        v_st = span(x.n, domain, st_rows)
        out.append((orb, v_triv, v_st))
    return out


class OrbitSummandReport(Record):
    # simple is True, False or "unknown".  witness is the reduced basis of a
    # proper nonzero invariant subspace when not simple over F_p, and over Q
    # reduction_prime is the prime l when the summand was found simple by
    # reduction mod l; neither is written by to_json
    __slots__ = ("orbit", "dim_triv", "dim_st", "simple", "witness", "reduction_prime")
    _defaults = (None, None)
    # each R_j maps every orbit onto itself, so both summands of an orbit
    # are always right ideals
    invariant = True

    def to_json(self):
        return {
            "orbit": list(self.orbit),
            "dim_triv": self.dim_triv,
            "dim_st": self.dim_st,
            "invariant": self.invariant,
            "simple": self.simple,
        }


class DecompositionReport(Record):
    __slots__ = ("entries", "verdict")  # verdict: "verified" / "not-simple" / "inconclusive"

    def to_json(self):
        return {"verdict": self.verdict, "orbits": [e.to_json() for e in self.entries]}


# the primes l tried by the reduction mod l over Q
_REDUCTION_PRIMES = tuple(l for l in range(2, 50) if _is_prime(l))


def verify_simple_decomposition(x, domain):
    """Split the quandle ring per orbit into the indicator line and the
    augmentation-zero subspace on the orbit, and certify simplicity where
    possible.

    Both summands are right ideals, and the indicator line is simple.
    Over a prime field `meataxe._irreducible` decides the augmentation-zero
    summand, and a summand that is not simple carries its witness.  Over
    characteristic zero a 2-transitive restricted orbit action decides the
    positive case, and otherwise reduction mod a prime l < 50 may: the
    integer span L of the e_v - e_o on the orbit is Inn(X)-stable, and a
    proper nonzero submodule U over Q would make U cap L a pure invariant
    sublattice of L, whose reduction is a proper nonzero submodule of
    L (x) F_l.  So L (x) F_l simple for one l makes the summand simple;
    anything else is reported as unknown.

    Over Z there is nothing to certify: `orbit_summands` refuses Z, and
    no nonzero lattice W is simple, as 2W lies in W.
    """
    from .meataxe import _irreducible  # loaded on first use: most commands decide no simplicity

    summands = orbit_summands(x, domain)
    char = domain.char
    moves = inner_moves(x)
    entries = []
    for orb, v_triv, v_st in summands:
        witness = prime = None
        if len(orb) == 1:
            simple = True  # nothing beyond the trivial summand
        elif char:
            simple, witness = _irreducible(domain, moves, v_st)
        elif reaches_every_pair(restricted_action(moves, orb), len(orb)):
            simple = True
        else:
            # the reduced basis of the summand, rows e_v - e_z, is a Z-basis of L
            lifts = (l for l in _REDUCTION_PRIMES if _irreducible(GF(l), moves, span(x.n, GF(l), v_st.basis))[0])
            prime = next(lifts, None)
            simple = True if prime else "unknown"
        entries.append(
            OrbitSummandReport(
                orbit=tuple(orb), dim_triv=v_triv.rank, dim_st=v_st.rank, simple=simple,
                witness=witness, reduction_prime=prime,
            )
        )
    if all(e.simple is True for e in entries):
        verdict = "verified"
    elif any(e.simple is False for e in entries):
        verdict = "not-simple"
    else:
        verdict = "inconclusive"
    return DecompositionReport(entries=tuple(entries), verdict=verdict)
