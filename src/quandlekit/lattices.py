"""Submodules and one-sided ideals of quandle rings.

Submodules are stored with a reduced basis: Hermite normal form over the
integers, reduced row echelon form over a field.  Reduced bases are
unique for a given span, so equality of submodules is equality of bases.
"""

from dataclasses import dataclass
from functools import lru_cache

from .domains import ZZ
from .errors import (
    ContainmentError,
    DomainMismatchError,
    NonSplitError,
    PreconditionError,
)
from .linalg import (
    field_in_span,
    hermite_normal_form,
    hnf_coordinates,
    lattice_contains,
    rref,
    smith_normal_form,
)
from .quandles import dihedral_quandle, orbits, right_translation
from .rings import multiply, quandle_ring
from .symmetry import pair_components, restricted_action

VARIANT_ALL = "all-bracketings"
VARIANT_LEFT = "left-normed"


@dataclass(frozen=True)
class Submodule:
    ambient_dim: int
    domain: object
    basis: tuple  # reduced basis rows, tuple of tuples

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise DomainMismatchError("vector length does not match ambient dimension")
        if self.domain is ZZ:
            return lattice_contains(self.basis, v)
        return field_in_span(list(self.basis), [self.domain.coerce(c) for c in v], self.domain)


def _reduce(ambient_dim, domain, rows):
    rows = [list(r) for r in rows if any(not domain.is_zero(domain.coerce(c)) for c in r)]
    if domain is ZZ:
        basis = hermite_normal_form(rows)
    else:
        basis = rref(rows, domain)
    return Submodule(ambient_dim=ambient_dim, domain=domain, basis=tuple(basis))


def span(ambient_dim, domain, rows):
    """Submodule spanned by arbitrary generator rows."""
    return _reduce(ambient_dim, domain, rows)


def submodule_sum(a, b):
    if a.ambient_dim != b.ambient_dim or a.domain is not b.domain:
        raise DomainMismatchError("submodule sum needs matching ambient space")
    return _reduce(a.ambient_dim, a.domain, list(a.basis) + list(b.basis))


def submodule_leq(a, b):
    """a contained in b."""
    return all(b.contains(v) for v in a.basis)


def augmentation_ideal(x, domain):
    """Span of the differences a_i - a_0 for 1 <= i < n; rank n - 1."""
    n = x.n
    rows = []
    for i in range(1, n):
        row = [domain.zero] * n
        row[0] = domain.neg(domain.one)
        row[i] = domain.one
        rows.append(row)
    return _reduce(n, domain, rows)


def submodule_product(ring, a, b):
    """Reduced span of all pairwise products of basis vectors."""
    if a.ambient_dim != ring.dim or b.ambient_dim != ring.dim:
        raise DomainMismatchError("submodules do not live in the given ring")
    rows = [multiply(ring, u, v) for u in a.basis for v in b.basis]
    return _reduce(ring.dim, ring.domain, rows)


def delta_powers(x, domain, k_max, variant=VARIANT_ALL):
    """[Delta^1, ..., Delta^k_max] for the quandle ring of x.

    The default combines every bracketing: Delta^k is the sum of
    Delta^i * Delta^j over i + j = k.  The left-normed variant uses
    Delta^k = Delta^(k-1) * Delta only.
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    if variant not in (VARIANT_ALL, VARIANT_LEFT):
        raise PreconditionError("unknown variant %r" % variant)
    ring = quandle_ring(x, domain)
    powers = [augmentation_ideal(x, domain)]
    for k in range(2, k_max + 1):
        if variant == VARIANT_LEFT:
            nxt = submodule_product(ring, powers[k - 2], powers[0])
        else:
            nxt = None
            for i in range(1, k):
                term = submodule_product(ring, powers[i - 1], powers[k - i - 1])
                nxt = term if nxt is None else submodule_sum(nxt, term)
        powers.append(nxt)
    return powers


def delta_power(x, domain, k, variant=VARIANT_ALL):
    return delta_powers(x, domain, k, variant)[k - 1]


@dataclass(frozen=True)
class AbelianGroupShape:
    free_rank: int
    torsion: tuple  # invariant factors d_1 | d_2 | ..., each > 1

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
    relations = []
    for v in b.basis:
        coords = hnf_coordinates(a.basis, v)
        if coords is None:
            raise ContainmentError("denominator is not contained in numerator")
        relations.append(coords)
    if not relations:
        return AbelianGroupShape(free_rank=a.rank, torsion=())
    factors = smith_normal_form(relations)
    free_rank = a.rank - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianGroupShape(free_rank=free_rank, torsion=torsion)


def _generated_ideal(ring, generators, side):
    """Smallest submodule containing the generators and closed under
    multiplication by every basis element on the given side ("right" or
    "left"); fixpoint iteration."""
    current = _reduce(ring.dim, ring.domain, [list(g) for g in generators])
    while True:
        rows = list(current.basis)
        for v in current.basis:
            for e in map(ring.basis_vector, range(ring.dim)):
                rows.append(multiply(ring, v, e) if side == "right" else multiply(ring, e, v))
        nxt = _reduce(ring.dim, ring.domain, rows)
        if nxt.basis == current.basis:
            return current
        current = nxt


def generated_right_ideal(ring, generators):
    return _generated_ideal(ring, generators, "right")


def generated_left_ideal(ring, generators):
    return _generated_ideal(ring, generators, "left")


def orbit_summands(x, domain):
    """Per orbit: the rank-1 span of the orbit indicator and the
    augmentation-zero subspace supported on the orbit.

    The splitting needs the orbit size to be invertible, so a field
    characteristic dividing an orbit size is rejected.
    """
    char = domain.char
    out = []
    for orb in orbits(x):
        if char and len(orb) % char == 0:
            raise NonSplitError(
                "characteristic %d divides orbit size %d" % (char, len(orb))
            )
        indicator = [domain.zero] * x.n
        for v in orb:
            indicator[v] = domain.one
        v_triv = _reduce(x.n, domain, [indicator])
        st_rows = []
        for v in orb[1:]:
            row = [domain.zero] * x.n
            row[orb[0]] = domain.neg(domain.one)
            row[v] = domain.one
            st_rows.append(row)
        v_st = _reduce(x.n, domain, st_rows)
        out.append((orb, v_triv, v_st))
    return out


def permutation_rank(group, m):
    """Number of orbits on ordered pairs of distinct points, plus one for
    the diagonal; equals 2 exactly for a 2-transitive group action."""
    return pair_components(group.generators, m) + 1


@dataclass(frozen=True)
class OrbitSummandReport:
    orbit: tuple
    dim_triv: int
    dim_st: int
    invariant: bool
    simple: object  # True / False / "unknown"

    def to_json(self):
        return {
            "orbit": list(self.orbit),
            "dim_triv": self.dim_triv,
            "dim_st": self.dim_st,
            "invariant": self.invariant,
            "simple": self.simple,
        }


@dataclass(frozen=True)
class DecompositionReport:
    entries: tuple
    verdict: str  # "verified" / "failed" / "not-simple" / "inconclusive"

    def to_json(self):
        return {"verdict": self.verdict, "orbits": [e.to_json() for e in self.entries]}


def _is_right_invariant(ring, sub):
    for v in sub.basis:
        for j in range(ring.dim):
            w = multiply(ring, v, ring.basis_vector(j))
            if not sub.contains(w):
                return False
    return True


def _all_nonzero_vectors(domain, basis, p):
    """Every nonzero F_p-combination of the basis rows."""
    import itertools

    d = len(basis)
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        v = [domain.zero] * len(basis[0])
        for c, row in zip(coeffs, basis):
            for i, e in enumerate(row):
                v[i] = domain.add(v[i], domain.mul(domain.coerce(c), e))
        yield v


def _simple_by_spinup(ring, sub, p):
    """Over a prime field: every nonzero vector must regenerate the whole
    summand as a right ideal."""
    if sub.rank == 0:
        return False
    for v in _all_nonzero_vectors(ring.domain, sub.basis, p):
        if generated_right_ideal(ring, [v]).basis != sub.basis:
            return False
    return True


def verify_simple_decomposition(x, domain):
    """Check the per-orbit indicator/augmentation-zero splitting of the
    quandle ring into right ideals, certifying simplicity where possible.

    Over a prime field simplicity is decided by exhaustive spin-up from
    every nonzero vector.  Over characteristic zero the rank-2 criterion
    for the restricted orbit action decides the positive case; anything
    else is reported as unknown.
    """
    ring = quandle_ring(x, domain)
    char = domain.char
    translations = [right_translation(x, j) for j in range(x.n)]
    entries = []
    for orb, v_triv, v_st in orbit_summands(x, domain):
        invariant = _is_right_invariant(ring, v_triv) and _is_right_invariant(ring, v_st)
        if not invariant:
            simple = False
        elif len(orb) == 1:
            simple = True  # nothing beyond the trivial summand
        elif char:
            simple = _simple_by_spinup(ring, v_triv, char) and _simple_by_spinup(ring, v_st, char)
        else:
            gens = restricted_action(translations, orb)
            simple = True if pair_components(gens, len(orb)) == 1 else "unknown"
        entries.append(
            OrbitSummandReport(
                orbit=tuple(orb),
                dim_triv=v_triv.rank,
                dim_st=v_st.rank,
                invariant=invariant,
                simple=simple,
            )
        )
    if any(not e.invariant for e in entries):
        verdict = "failed"
    elif all(e.simple is True for e in entries):
        verdict = "verified"
    elif any(e.simple is False for e in entries):
        verdict = "not-simple"
    else:
        verdict = "inconclusive"
    return DecompositionReport(entries=tuple(entries), verdict=verdict)


@lru_cache(maxsize=None)
def dihedral_delta_powers(n, k_max, variant=VARIANT_ALL):
    """Integer Delta filtration of the dihedral quandle ring, cached."""
    return tuple(delta_powers(dihedral_quandle(n), ZZ, k_max, variant))
