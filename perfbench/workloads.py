"""Inputs and job lists of the four benchmark workloads.

A job is a plain dict: a unique ``name``, an ``op`` that ``ops.py`` knows
how to run and check, and the op's parameters.  The list of jobs, their
order and their base quandles are fixed; the seed only chooses the
relabelings applied to the base quandles, so the library sees different
tables with identical invariants on every seed.
"""

import random

from quandlekit.quandles import (
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    trivial_quandle,
)
from quandlekit.counterexamples import PAIR4_MATRIX, PAIR4_X, PAIR4_Y, PAIR7_MATRIX, PAIR7_X, PAIR7_Y


def relabel(table, sigma):
    """The table of the same quandle with element i renamed sigma[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = table[i]
        for j in range(n):
            out[sigma[i]][sigma[j]] = sigma[row[j]]
    return tuple(tuple(r) for r in out)


def permutation(seed, key, n):
    """A seeded permutation of range(n); independent of job order."""
    sigma = list(range(n))
    random.Random("%s/%s" % (seed, key)).shuffle(sigma)
    return tuple(sigma)


def _group_cayley(generators):
    """Cayley table of the permutation group generated by the given
    permutations, elements sorted so that the labelling is fixed."""
    n = len(generators[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = []
        for f in frontier:
            for g in generators:
                h = tuple(g[f[i]] for i in range(n))
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    elements = sorted(seen)
    index = {g: i for i, g in enumerate(elements)}
    return [[index[tuple(b[a[i]] for i in range(n))] for b in elements] for a in elements]


def _dihedral_group(n):
    return _group_cayley([tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))])


def _abelian_group(*orders):
    """Z_{m1} x Z_{m2} x ... as a permutation group on the disjoint cycles."""
    size = sum(orders)
    gens, offset = [], 0
    for m in orders:
        gens.append(tuple(offset + (i - offset + 1) % m if offset <= i < offset + m else i for i in range(size)))
        offset += m
    return _group_cayley(gens)


GROUPS = {
    "S3": lambda: _group_cayley([(1, 0, 2), (1, 2, 0)]),
    "Q8": lambda: _group_cayley([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),
    "A4": lambda: _group_cayley([(1, 2, 0, 3), (0, 2, 3, 1)]),
    "S4": lambda: _group_cayley([(1, 0, 2, 3), (1, 2, 3, 0)]),
    "Z2xZ4": lambda: _abelian_group(2, 4),
    "Z3xZ3": lambda: _abelian_group(3, 3),
    "Z4xZ4": lambda: _abelian_group(4, 4),
}
for _m in range(4, 13):
    GROUPS["D%d" % _m] = (lambda m: lambda: _dihedral_group(m))(_m)


def _union(*parts):
    q = parts[0]
    for p in parts[1:]:
        q = disjoint_union(q, p)
    return q


def translation_bases():
    """Base quandles of order 6..29 checked by the `translations` workload."""
    R, A, T = dihedral_quandle, alexander_quandle, trivial_quandle
    bases = {}
    for n in list(range(6, 19)) + [20, 21, 24]:
        bases["R_%d" % n] = R(n)
    for n, t in (
        (7, 2), (7, 3), (7, 5), (8, 3), (8, 5), (9, 2), (9, 4), (9, 5), (10, 3),
        (11, 2), (11, 3), (11, 6), (12, 5), (12, 7), (13, 2), (13, 4), (14, 3),
        (15, 2), (16, 3), (16, 5), (17, 3), (18, 5), (19, 2), (20, 3), (21, 2),
        (22, 3), (23, 2), (25, 2), (27, 2), (29, 2),
    ):
        bases["A_%d_%d" % (n, t)] = A(n, t)
    for g in ("S3", "Q8", "D4", "D5", "D6", "A4", "D7", "D8", "D9", "D10", "Z2xZ4"):
        bases["Conj_%s" % g] = conjugation_quandle(GROUPS[g]())
    for g in ("S3", "Q8", "D4", "D5", "D6", "D7", "D8", "D10", "D12", "Z3xZ3", "Z4xZ4"):
        bases["Core_%s" % g] = core_quandle(GROUPS[g]())
    for name, parts in (
        ("R_3+R_3", (R(3), R(3))),
        ("T_3+R_3", (T(3), R(3))),
        ("T_1+R_5", (T(1), R(5))),
        ("R_3+R_5", (R(3), R(5))),
        ("T_2+R_7", (T(2), R(7))),
        ("R_3+R_3+R_3", (R(3), R(3), R(3))),
        ("R_5+A_7_3", (R(5), A(7, 3))),
        ("R_6+R_6", (R(6), R(6))),
        ("A_9_2+R_3", (A(9, 2), R(3))),
        ("Conj_S3+R_5", (conjugation_quandle(GROUPS["S3"]()), R(5))),
        ("R_11+T_2", (R(11), T(2))),
        ("R_7+R_7", (R(7), R(7))),
        ("R_5+R_5+R_5", (R(5), R(5), R(5))),
        ("R_3+R_5+R_7", (R(3), R(5), R(7))),
        ("R_15+T_1", (R(15), T(1))),
        ("R_9+R_9", (R(9), R(9))),
    ):
        bases[name] = _union(*parts)
    return bases


# Pairs compared with `quandlekit iso`: each base against a second relabeling
# of itself, plus pairs whose quandles are known not to be isomorphic.
TRANSLATION_ISO_SELF = (
    "R_7", "R_12", "R_13", "R_15", "A_13_2", "A_16_3", "A_19_2", "Conj_D5",
    "Conj_A4", "Conj_D8", "Core_Z3xZ3", "Core_D6", "R_9+R_9", "R_3+R_3+R_3",
    "R_5+A_7_3", "R_11+T_2",
)
PAPER_PAIRS = {"pair4": (PAIR4_X, PAIR4_Y), "pair7": (PAIR7_X, PAIR7_Y)}
TRANSLATION_ISO_OTHER = ("pair4", "pair7", "R_9|A_9_4", "Conj_D4|Core_D4", "T_2+R_7|R_3+R_3+R_3")


def translation_other_pairs():
    """(key, x, y) for the pairs of TRANSLATION_ISO_OTHER."""
    bases = translation_bases()
    for key in TRANSLATION_ISO_OTHER:
        x, y = PAPER_PAIRS[key] if key in PAPER_PAIRS else (bases[k] for k in key.split("|"))
        yield key, x, y


def ring_bases(reference):
    """Every quandle of order <= 5 (1, 1, 3, 7, 22 classes), as recorded
    tables, keyed Q<n>_<index>."""
    return {name: tuple(tuple(r) for r in t) for name, t in reference["small_quandles"].items()}


RING_ISO_SELF = (("Q3_0", "F2"), ("Q3_1", "F2"), ("Q3_2", "F2"), ("Q3_0", "F3"), ("Q3_1", "F3"), ("Q3_2", "F3"))
RING_ISO_OTHER = (("Q3_0", "Q3_1", "F3"), ("Q3_0", "Q3_2", "F3"), ("Q3_1", "Q3_2", "F3"), ("Q4_2", "Q4_5", "F2"))
DECOMPOSE = (("R_5", "F7"), ("R_7", "F3"), ("R_5", "F3"), ("R_6", "F5"), ("R_7", "F2"), ("A_5_2", "F3"), ("A_7_3", "F2"))


def decompose_base(name):
    """R_<n> or A_<n>_<t>, as named in DECOMPOSE."""
    family, *params = name.split("_")
    build = dihedral_quandle if family == "R" else alexander_quandle
    return build(*map(int, params))


GENERALIZED = ((6, 5), (7, 2), (7, 3), (9, 2), (10, 3), (12, 11), (13, 2), (13, 3))


def filtration_bases():
    """Non-dihedral quandles whose integer Delta filtration is computed."""
    A, R = alexander_quandle, dihedral_quandle
    bases = {}
    for n, t in ((5, 2), (7, 3), (8, 3), (9, 2), (10, 3), (11, 2), (12, 5), (13, 2), (15, 2), (16, 3), (17, 3), (19, 2)):
        bases["A_%d_%d" % (n, t)] = A(n, t)
    for g in ("S3", "Q8", "D4", "D5", "D6", "A4", "D7"):
        bases["Conj_%s" % g] = conjugation_quandle(GROUPS[g]())
    for name, parts in (
        ("R_3+R_3", (R(3), R(3))),
        ("R_3+R_5", (R(3), R(5))),
        ("R_5+A_7_3", (R(5), A(7, 3))),
        ("R_9+R_9", (R(9), R(9))),
        ("R_3+R_3+R_3", (R(3), R(3), R(3))),
        ("R_7+R_11", (R(7), R(11))),
    ):
        bases[name] = _union(*parts)
    return bases


def _relabeled(seed, key, q):
    sigma = permutation(seed, key, q.n)
    return relabel(q.table, sigma), sigma


def _census(seed):
    return [{"name": "verify", "op": "verify"}] + [
        {"name": "enumerate %d" % n, "op": "enumerate", "n": n} for n in (3, 4, 5, 6)
    ]


def _translations(seed):
    bases = translation_bases()
    jobs = []
    for name, q in bases.items():
        table, sigma = _relabeled(seed, "check " + name, q)
        jobs.append({"name": "check " + name, "op": "check", "base": name, "table": table, "sigma": sigma})
    for name in TRANSLATION_ISO_SELF:
        x, _ = _relabeled(seed, "iso x " + name, bases[name])
        y, _ = _relabeled(seed, "iso y " + name, bases[name])
        jobs.append({"name": "iso " + name, "op": "iso", "base": name, "x": x, "y": y})
    for key, qx, qy in translation_other_pairs():
        x, _ = _relabeled(seed, "iso x " + key, qx)
        y, _ = _relabeled(seed, "iso y " + key, qy)
        jobs.append({"name": "iso " + key, "op": "iso", "base": key, "x": x, "y": y})
    return jobs


def _ring_fp(seed, reference):
    small = ring_bases(reference)
    jobs = []
    for name, t in small.items():
        for domain in ("Q", "F5"):
            job = "power-assoc %s %s" % (name, domain)
            sigma = permutation(seed, job, len(t))
            jobs.append({"name": job, "op": "power_assoc", "base": name, "domain": domain,
                         "table": relabel(t, sigma)})
    for name, t in small.items():
        job = "annihilators " + name
        sigma = permutation(seed, job, len(t))
        jobs.append({"name": job, "op": "annihilator", "base": name, "table": relabel(t, sigma),
                     "primes": (2, 3, 5, 7)})
    for name, domain in RING_ISO_SELF:
        job = "ring-iso %s %s" % (name, domain)
        t = small[name]
        x = relabel(t, permutation(seed, job + " x", len(t)))
        y = relabel(t, permutation(seed, job + " y", len(t)))
        jobs.append({"name": job, "op": "ring_iso", "base": name, "x": x, "y": y, "domain": domain})
    for left, right, domain in RING_ISO_OTHER:
        key = "%s|%s" % (left, right)
        job = "ring-iso %s %s" % (key, domain)
        x = relabel(small[left], permutation(seed, job + " x", len(small[left])))
        y = relabel(small[right], permutation(seed, job + " y", len(small[right])))
        jobs.append({"name": job, "op": "ring_iso", "base": key, "x": x, "y": y, "domain": domain})
    for name, domain in DECOMPOSE:
        job = "decompose %s %s" % (name, domain)
        table, sigma = _relabeled(seed, job, decompose_base(name))
        jobs.append({"name": job, "op": "decompose", "base": name, "domain": domain,
                     "table": table, "sigma": sigma})
    for key, qx, qy, matrix, domain in (
        ("pair4", PAIR4_X, PAIR4_Y, PAIR4_MATRIX, "F3"),
        ("pair7", PAIR7_X, PAIR7_Y, PAIR7_MATRIX, "Q"),
    ):
        job = "certificate %s %s" % (key, domain)
        x, sx = _relabeled(seed, job + " x", qx)
        y, sy = _relabeled(seed, job + " y", qy)
        moved = [[0] * len(matrix) for _ in matrix]
        for i, row in enumerate(matrix):
            for j, c in enumerate(row):
                moved[sy[i]][sx[j]] = c
        jobs.append({"name": job, "op": "certificate", "base": key, "x": x, "y": y,
                     "matrix": moved, "domain": domain})
    for n, p in GENERALIZED:
        jobs.append({"name": "generalized %d %d" % (n, p), "op": "generalized", "n": n, "p": p})
    return jobs


def _filtration_z(seed):
    jobs = [{"name": "delta R_%d" % n, "op": "delta", "n": n} for n in range(3, 33)]
    for name, q in filtration_bases().items():
        table, _ = _relabeled(seed, "delta-powers " + name, q)
        jobs.append({"name": "delta-powers " + name, "op": "delta_powers", "base": name, "table": table})
    for n in range(4, 33, 2):
        jobs.append({"name": "formulas R_%d" % n, "op": "formulas", "n": n})
        jobs.append({"name": "star relations R_%d" % n, "op": "star_relations", "n": n})
    for n in range(3, 33, 2):
        jobs.append({"name": "odd relations R_%d" % n, "op": "odd_relations", "n": n})
    return jobs


def job_specs(workload, seed, reference):
    """The fixed job list of a workload, its inputs relabeled from the seed."""
    if workload == "census":
        return _census(seed)
    if workload == "translations":
        return _translations(seed)
    if workload == "ring-fp":
        return _ring_fp(seed, reference)
    if workload == "filtration-z":
        return _filtration_z(seed)
    raise ValueError("unknown workload %r" % (workload,))


def probe_specs(workload, seed):
    """Jobs known to fail at the commit that introduced the benchmark.

    They run once per measured run, outside the timed job list, and their
    outcome is reported next to the metrics.  ``known_failure`` is how the
    failure reason starts (the deadline, or exit 5 from a search budget);
    the day a probe passes, its output is checked like any other job's.
    """
    if workload == "translations":
        q = conjugation_quandle(GROUPS["S4"]())
        table, sigma = _relabeled(seed, "probe Conj_S4", q)
        return [{"name": "check Conj_S4", "op": "check", "base": "Conj_S4", "table": table, "sigma": sigma,
                 "known_failure": "passed its"}]
    if workload == "ring-fp":
        x, _ = _relabeled(seed, "probe pair4 x", PAIR4_X)
        y, _ = _relabeled(seed, "probe pair4 y", PAIR4_Y)
        return [{"name": "ring-iso pair4 F3", "op": "ring_iso", "base": "pair4", "x": x, "y": y, "domain": "F3",
                 "known_failure": "exit 5"}]
    return []
