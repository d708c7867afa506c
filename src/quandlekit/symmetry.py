"""Groups and semigroups of translations, transitivity predicates,
quandle polynomial, isomorphism testing and exhaustive enumeration.

Permutations and transformations are image tuples: ``f[i]`` is the image
of ``i``.  ``compose(f, g)`` applies ``g`` first.
"""

import itertools
from functools import lru_cache

from ._record import Record
from .errors import CapacityError, NotInvariantError, PreconditionError
from .quandles import (
    Quandle,
    derived,
    generating_set,
    inner_moves,
    left_translation,
    orbits,
    right_translation,
)

DEFAULT_CLOSURE_CAP = 10**7
DEFAULT_ENUM_BOUND = 7
CANONICAL_MAX_N = 8


def compose(f, g):
    """f after g."""
    return tuple(f[x] for x in g)


def _closure(gens, cap):
    """The group the permutations gens generate, breadth-first; it holds
    the identity, as each element has finite order.  CapacityError beyond
    cap elements.
    """
    gens = tuple(dict.fromkeys(gens))
    elements = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h not in elements:
                    elements.add(h)
                    new.append(h)
                    if len(elements) > cap:
                        raise CapacityError("closure exceeded cap %d" % cap)
        frontier = new
    return elements


def inner_group(x, cap=DEFAULT_CLOSURE_CAP):
    """Inn(X) as a frozenset: the closure of the right translations."""
    return frozenset(_closure([right_translation(x, j) for j in range(x.n)], cap))


def restricted_action(elements, subset):
    """Restrict each self-map to an invariant subset, reindexed to subset coordinates."""
    subset = tuple(subset)
    pos = {v: i for i, v in enumerate(subset)}
    out = []
    for f in elements:
        images = []
        for v in subset:
            w = f[v]
            if w not in pos:
                raise NotInvariantError("subset %r is not invariant under %r" % (subset, f))
            images.append(pos[w])
        out.append(tuple(images))
    return out


def reaches_every_pair(gens, m):
    """True when the maps in gens act 2-transitively on [0, m).

    The pair digraph has the ordered pairs (a, b) of distinct points as
    nodes and an edge (a, b) -> (g[a], g[b]) for each map g with
    g[a] != g[b].  The answer is whether (0, 1) reaches every pair and
    every pair reaches (0, 1).  A pair that collapses to (a, a) never
    becomes distinct again, so this is strong connectivity, and it
    decides groups and semigroups alike.  One search follows images and
    stops once it has seen every pair.  When every map is a permutation
    that search decides alone: the maps generate a group, and
    g^-1 = g^(ord g - 1) puts every edge on a cycle.  Otherwise a second
    search goes back through the fibres of each map, built in one pass
    over it.  Visited pairs are flagged at a * m + b in one flat
    bytearray, lighter than a set of tuples.  True when m < 2.
    """
    if m < 2:
        return True

    def spread(neighbours):
        seen = bytearray(m * m)
        seen[1] = 1
        stack, left = [(0, 1)], m * (m - 1) - 1
        while stack:
            for c, d in neighbours(*stack.pop()):
                if not seen[c * m + d]:
                    seen[c * m + d] = 1
                    left -= 1
                    if not left:
                        return True
                    stack.append((c, d))
        return False

    if not spread(lambda a, b: [(g[a], g[b]) for g in gens if g[a] != g[b]]):
        return False
    if all(len(set(g)) == m for g in gens):
        return True
    fibres = [[[] for _ in range(m)] for _ in gens]
    for g, fibre in zip(gens, fibres):
        for a, c in enumerate(g):
            fibre[c].append(a)
    return spread(lambda c, d: [(a, b) for fibre in fibres for a in fibre[c] for b in fibre[d]])


def is_right_2transitive(x):
    """Inn(X) 2-transitive on X (distinct ordered pairs)."""
    return reaches_every_pair(inner_moves(x), x.n)


def is_left_2transitive(x):
    """H_X 2-transitive on X (distinct ordered pairs)."""
    return reaches_every_pair([left_translation(x, i) for i in range(x.n)], x.n)


def is_right_orbit_2transitive(x):
    """Every restricted G_{X_i} 2-transitive on its orbit.

    G_{X_i} is the image of Inn(X) in the permutations of the orbit X_i,
    generated by the restrictions of the `inner_moves` of x; singleton
    orbits are vacuous.
    """
    moves = inner_moves(x)
    return all(reaches_every_pair(restricted_action(moves, orb), len(orb)) for orb in orbits(x))


def is_left_peak_2transitive(x):
    """2-transitivity of the row semigroup H_X at its peak idempotents,
    see `peak_2transitive`; for rows that generate a group, plain
    2-transitivity of that group on X."""
    return peak_2transitive([left_translation(x, i) for i in range(x.n)])


def peak_2transitive(gens):
    """Some idempotent of peak rank m in the semigroup S that the maps gens
    generate has a maximal subgroup 2-transitive on its image.

    m is the largest rank in gens, as composing never raises rank, and the
    rank-m elements of S are the products of rank-m generators.
    1. Kernels and images.  If f.g has rank m then ker f.g = ker g, one
       holding the other and both with m classes, and im f.g = im f, as
       f(im g) lies in im f and has m points.  So the peak images are the
       images of the rank-m generators, at most len(gens) of them, and
       the image graph has an edge J -> im g for each rank-m generator g
       injective on J.
    2. Group at e.  Let e be a rank-m idempotent with image I.  Its
       maximal subgroup acts on I as G_I = {h|I : h in S, h(I) = I}: a
       unit of eSe maps I onto I, and if h(I) = I then e.h.e lies in eSe,
       agrees with h on I, and (e.h.e)^k = e for k the order of h|I.  So
       G_I depends only on I.  A product h with h(I) = I walks a closed path
       through I, inside I's strongly connected component C.  Fix a path
       u_J: I -> J in C for each J of C.  By Schreier's lemma G_I is
       generated by u_K^-1.g.u_J over the edges J -> K = im g inside C:
       each lies in G_I, as u_K^-1 is a path from K back to I followed by
       the inverse of a permutation of I in G_I, and a closed path through
       I is their telescoping product.  The G_J for J in C are conjugate,
       so C is read once.
    3. Idempotent images.  I is the image of a rank-m idempotent exactly
       when some rank-m generator g0 is injective on I and I is reachable
       from im g0: an idempotent's first factor g0 has its kernel by 1,
       and a product w.g0 with image I permutes I and has an idempotent
       power.  An edge J -> im g inside C makes g such a g0 for J, so a
       component holds an idempotent image exactly when it holds an edge;
       one without an edge gives no Schreier generator and cannot pass,
       so it needs no test of its own.
    True when m < 2, since rank-1 maps are idempotent; False for no gens.
    """
    m = max((len(set(g)) for g in gens), default=0)
    if m < 2:
        return bool(gens)
    gens = [(frozenset(g), g) for g in dict.fromkeys(gens) if len(set(g)) == m]
    images = list(dict.fromkeys(image for image, _ in gens))
    index = {image: v for v, image in enumerate(images)}
    edges = [[(index[im], g) for im, g in gens if len({g[a] for a in image}) == m] for image in images]
    reach = [{v} for v in range(len(images))]  # reach[v]: the images v reaches, v included
    for v, seen in enumerate(reach):
        stack = [v]
        while stack:
            for w, _ in edges[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    done = set()
    for base in range(len(images)):
        if base in done:
            continue
        path = {base: tuple(sorted(images[base]))}  # path[J][i]: u_J of the i-th point of I
        where = {base: {a: i for i, a in enumerate(path[base])}}  # the inverse of path[J]
        stack, schreier = [base], set()
        while stack:
            v = stack.pop()
            for w, g in edges[v]:
                if base in reach[w]:
                    moved = tuple(g[a] for a in path[v])
                    if w not in path:
                        path[w] = moved
                        where[w] = {a: i for i, a in enumerate(moved)}
                        stack.append(w)
                    schreier.add(tuple(where[w][a] for a in moved))
        done.update(path)
        if reaches_every_pair(list(schreier), m):
            return True
    return False


def is_right_cyclic_type(x):
    """Every R_j is an (n-1)-cycle on the complement of j."""
    return all(_is_cycle_off(right_translation(x, j), j) for j in range(x.n))


def is_left_cyclic_type(x):
    """Every L_i is a bijection acting as an (n-1)-cycle off i."""
    rows = [left_translation(x, i) for i in range(x.n)]
    return all(len(set(f)) == x.n and _is_cycle_off(f, i) for i, f in enumerate(rows))


def _is_cycle_off(f, j):
    """The permutation f fixes j and is one cycle on the other points."""
    return f[j] == j and max(_cycle_lengths(f)) == max(len(f) - 1, 1)


class QuandlePolynomial(Record):
    """Multiset of (r(x), c(x)) exponent pairs, one per element."""

    __slots__ = ("terms",)  # sorted tuple of (r, c) pairs, with repetition

    def counts(self):
        out = {}
        for t in self.terms:
            out[t] = out.get(t, 0) + 1
        return out

    def to_json(self):
        return [
            {"r": r, "c": c, "mult": m}
            for (r, c), m in sorted(self.counts().items())
        ]

    def __str__(self):
        parts = []
        for (r, c), m in sorted(self.counts().items(), reverse=True):
            coeff = "" if m == 1 else str(m)
            parts.append("%ss^%dt^%d" % (coeff, r, c))
        return " + ".join(parts) if parts else "0"


def quandle_polynomial(x):
    """qp_X: one (r, c) term per element, see `_element_invariants`."""
    return QuandlePolynomial(terms=tuple(sorted((r, c) for r, c, _ in _element_invariants(x))))


@derived
def _element_invariants(x):
    """Per element v, as a tuple: (r, c, the size of the orbit of v), with
    r = #{j : v>j = v} and c = #{i : i>v = i}."""
    t, size = x.table, {v: len(orb) for orb in orbits(x) for v in orb}
    return tuple((row.count(v), sum(1 for i, r in enumerate(t) if r[v] == i), size[v]) for v, row in enumerate(t))


def quandles_isomorphic(x, y):
    """Return a relabeling sigma with sigma(i>j) = sigma(i)>sigma(j), or None.

    None for quandles of different orders, or whose sorted per-element
    invariants (which fix the partition type and the quandle polynomial)
    differ; otherwise the answer of `_find_isomorphism`.
    """
    if x.n != y.n or sorted(_element_invariants(x)) != sorted(_element_invariants(y)):
        return None
    return _find_isomorphism(x, y)


def _find_isomorphism(x, y):
    """An isomorphism sigma of x onto y, of equal order, or None.  As
    sigma(a>b) = sigma(a)>sigma(b), the images of `generating_set(x)` fix
    sigma.  Each generator in turn goes to each free w of equal
    invariants, and then each product a>b of placed elements must go to
    sigma(a)>sigma(b): an image held by another element, of other
    invariants, or unequal to one already set ends the branch.  With every
    generator placed, sigma is defined on all of X, one-to-one, and a
    homomorphism.
    """
    n, gens = x.n, generating_set(x)
    inv_x, inv_y = _element_invariants(x), _element_invariants(y)
    sigma, back = [None] * n, [None] * n  # back[w]: the element sigma maps to w
    placed = []

    def assign(v, w):
        """Set sigma(v) = w; False on a conflict."""
        if sigma[v] is not None:
            return sigma[v] == w
        if back[w] is not None or inv_x[v] != inv_y[w]:
            return False
        sigma[v], back[w] = w, v
        placed.append(v)
        return True

    def close(i):
        """Pair each placed element from the i-th on with every one before it."""
        while i < len(placed):
            a = placed[i]
            for b in placed[:i]:
                if not (assign(x.table[a][b], y.table[sigma[a]][sigma[b]])
                        and assign(x.table[b][a], y.table[sigma[b]][sigma[a]])):
                    return False
            i += 1
        return True

    def search(k):
        if k == len(gens):
            return True
        mark = len(placed)
        for w in range(n):
            if assign(gens[k], w) and close(mark) and search(k + 1):
                return True
            for v in placed[mark:]:
                back[sigma[v]] = None
                sigma[v] = None
            del placed[mark:]
        return False

    found = search(0)
    del search  # it refers to itself: unlink it so the search state is freed now
    return tuple(sigma) if found else None


def canonical_form(x):
    """The least leaf table of an individualisation-refinement search
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).

    The table is read as the ternary relation i>j = k, and the search
    works on ordered partitions of the elements.
    1. Start from the cells of equal `_element_invariants`, in sorted
       order of the invariant.
    2. Refine: split each cell by the signature of v, the sorted multiset
       of (cell(j), cell(v>j), cell(j>v)) over all j, new cells in
       signature order, until no cell splits (the partition is equitable).
    3. Branch: individualise each member of the first cell with more than
       one element, that is, put it in a cell of its own ahead of the rest
       of the cell, and refine again.
    4. A discrete partition numbers the elements by cell; the table in
       those labels is a leaf table, and the result is the least one.
    Cell order reads only cell indices, never labels, so every relabeling
    of x has the same leaf tables, and isomorphic quandles get equal
    results.  The automorphisms known start as the distinct non-identity
    columns R_j (axiom III makes each one an automorphism), and a leaf
    equal to the first leaf or to the least one so far adds one; only
    those two leaves are kept.  A member is skipped when the automorphisms
    known that fix the path pointwise map it onto a member already tried:
    such an automorphism maps the partition of the path onto itself, so
    the two subtrees have the same leaf tables, and the least leaf does
    not change.  The least leaf is in general not the lexicographically
    least table over all n! relabelings.
    """
    if x.n > CANONICAL_MAX_N:
        raise CapacityError("canonical_form limited to n <= %d" % CANONICAL_MAX_N)
    n, t, inv = x.n, x.table, _element_invariants(x)
    leaves = []  # the first leaf and the least later one: (table, the elements in label order)
    autos = [g for g in dict.fromkeys(zip(*t)) if g != tuple(range(n))]  # the distinct non-identity columns

    def search(cells, path):
        cells = _refine(t, cells)
        c = next((c for c, cell in enumerate(cells) if len(cell) > 1), None)
        if c is None:
            order = [cell[0] for cell in cells]
            label = [0] * n
            for a, v in enumerate(order):
                label[v] = a
            table = tuple(label[t[v][w]] for v in order for w in order)  # row-major
            for kept, kept_order in leaves:
                if kept == table:  # order[a] -> kept_order[a] maps x onto itself
                    autos.append(tuple(kept_order[label[v]] for v in range(n)))
                    return
            if len(leaves) < 2:
                leaves.append((table, order))
            elif table < leaves[1][0]:
                leaves[1] = (table, order)
            return
        tried = []
        for v in cells[c]:
            fixing = [g for g in autos if all(g[p] == p for p in path)]
            if _orbit(v, fixing).isdisjoint(tried):
                tried.append(v)
                rest = [w for w in cells[c] if w != v]
                search(cells[:c] + [[v], rest] + cells[c + 1:], path + [v])

    search([[v for v in range(n) if inv[v] == key] for key in sorted(set(inv))], [])
    del search  # it refers to itself: unlink it so the search state is freed now
    best = min(leaves)[0]
    return tuple(best[a * n:(a + 1) * n] for a in range(n))


def _refine(t, cells):
    """The equitable refinement of the ordered partition cells, see
    `canonical_form`."""
    n = len(t)
    while True:
        cell_of = [0] * n
        for c, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = c
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts = {}
            for v in cell:
                row = t[v]
                signature = tuple(sorted((cell_of[j], cell_of[row[j]], cell_of[t[j][v]]) for j in range(n)))
                parts.setdefault(signature, []).append(v)
            split.extend(parts[s] for s in sorted(parts))
        if len(split) == len(cells):
            return cells
        cells = split


def _orbit(v, gens):
    """The orbit of v under the group the permutations gens generate."""
    orbit, stack = {v}, [v]
    while stack:
        w = stack.pop()
        for g in gens:
            if g[w] not in orbit:
                orbit.add(g[w])
                stack.append(g[w])
    return orbit


def _diagonal_fixing_perms(n, j):
    """All permutations of [0,n) fixing j, as column candidates."""
    rest = [i for i in range(n) if i != j]
    out = []
    for perm in itertools.permutations(rest):
        col = [0] * n
        col[j] = j
        for src, dst in zip(rest, perm):
            col[src] = dst
        out.append(tuple(col))
    return out


def _partitions(m, largest):
    """Partitions of m into parts <= largest, as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _cycle_type_reps(n):
    """One permutation of [0,n) fixing 0 per cycle type on {1..n-1}.

    A partition (a, b, ...) of n-1 becomes the cycles (1 2 .. a),
    (a+1 .. a+b), ... on consecutive points.
    """
    reps = []
    for parts in _partitions(n - 1, n - 1):
        perm = [0] * n
        start = 1
        for size in parts:
            for i in range(start, start + size - 1):
                perm[i] = i + 1
            perm[start + size - 1] = start
            start += size
        reps.append(tuple(perm))
    return reps


def enumerate_quandles(n, bound=DEFAULT_ENUM_BOUND):
    """All isomorphism classes of quandles of order n, as canonical
    representatives sorted by table; PreconditionError when n or bound is
    below 1, CapacityError when n exceeds bound or `CANONICAL_MAX_N`.

    Calls with different bounds share one cached search per n, described
    at `_enumerate`.
    """
    if n < 1 or bound < 1:
        raise PreconditionError(
            "enumeration needs n >= 1 and bound >= 1 (got n = %d, bound = %d)" % (n, bound)
        )
    limit = min(bound, CANONICAL_MAX_N)
    if n > limit:
        raise CapacityError("enumeration bounded at n = %d (requested %d)" % (limit, n))
    return _enumerate(n)


def _cycle_lengths(perm):
    """Sorted cycle lengths of a permutation, fixed points included."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@lru_cache(maxsize=None)
def _enumerate(n):
    """The search behind `enumerate_quandles`, cached per n.

    The table is built column by column, column j being the permutation
    R_j, which fixes j (axioms I-II by construction).  The rank of a
    column is the place of its cycle type off its own fixed point in
    `_cycle_type_reps(n)`.

    1. Column 0 ranges over `_cycle_type_reps(n)`.  With column 0 of
       rank r, no column of rank below r is placed.  No class is lost:
       relabel an element v of least rank to 0 and conjugate R_v into its
       representative; every column of that table has rank r or more, so
       the search reaches it.
    2. Axiom III says R_{R_b(a)} = R_b R_a R_b^-1, that is
       R_{R_b(a)}[R_b[y]] = R_b[R_a[y]] for every y.  Placed columns wait
       on a stack.  A popped column a is checked against every column b
       popped before it, in both directions, so each pair is checked
       once.  A target column already set is compared point by point, up
       to the first mismatch.  An empty target is filled and pushed.  It
       is R_b R_a R_b^-1 or R_a R_b R_a^-1, a conjugate of a placed
       column, so its rank is that column's, r or more.  A branch places
       the lowest empty column, propagates until the stack is empty, and
       undoes its columns when it backtracks.  Every pair of placed
       columns has then been checked, so a complete table is a quandle.
    3. A complete table is dropped when some element v >= 1 has a column
       of rank r and `_element_invariants` below those of 0.  No class is
       lost: relabel to 0 an element of least invariants among those of
       the class's least rank r, as in step 1; that table is searched,
       and no element of rank r has invariants below those of its 0.  The
       other tables are bucketed by their sorted per-element invariants,
       which fix the partition type; one is kept only when
       `_find_isomorphism` matches no representative of its bucket.  The
       canonical form runs once per class, and the result is sorted by
       canonical table: the least leaf table of its search, a relabeling
       of the class, not in general its lex-min table.
    """
    type_reps = _cycle_type_reps(n)
    rank_of_type = {_cycle_lengths(rep): r for r, rep in enumerate(type_reps)}
    perms = [_diagonal_fixing_perms(n, j) for j in range(1, n)]
    rank = {col: rank_of_type[_cycle_lengths(col)] for js in perms for col in js}
    cols = [None] * n
    popped = []
    buckets = {}

    def place(j, col, filled):
        """Set column j and every column it forces; False on a contradiction."""
        cols[j] = col
        filled.append(j)
        stack = [j]
        while stack:
            a = stack.pop()
            ra = cols[a]
            for b in popped:
                rb = cols[b]
                for f, g, t in ((rb, ra, rb[a]), (ra, rb, ra[b])):
                    have = cols[t]
                    if have is None:
                        forced = [0] * n
                        for y in range(n):
                            forced[f[y]] = f[g[y]]
                        cols[t] = tuple(forced)
                        filled.append(t)
                        stack.append(t)
                    else:
                        for y in range(n):
                            if have[f[y]] != f[g[y]]:
                                return False
            popped.append(a)
        return True

    def keep():
        q = Quandle(n, tuple(zip(*cols)))
        inv = _element_invariants(q)
        if any(inv[v] < inv[0] and rank[cols[v]] == least for v in range(1, n)):  # step 3
            return
        reps = buckets.setdefault(tuple(sorted(inv)), [])
        if all(_find_isomorphism(q, r) is None for r in reps):
            reps.append(q)

    def search(c, col, candidates):
        """Place col as column c, search below it, and undo."""
        filled, mark = [], len(popped)
        if place(c, col, filled):
            if None not in cols:
                keep()
            else:
                nxt = cols.index(None)
                for cand in candidates[nxt]:
                    search(nxt, cand, candidates)
        for j in filled:
            cols[j] = None
        del popped[mark:]

    for least, rep in enumerate(type_reps):
        candidates = [None] + [[col for col in js if rank[col] >= least] for js in perms]
        search(0, rep, candidates)
    del search  # it refers to itself: unlink it so the search state is freed now
    found = sorted(canonical_form(q) for reps in buckets.values() for q in reps)
    return tuple(Quandle(n, tbl) for tbl in found)
