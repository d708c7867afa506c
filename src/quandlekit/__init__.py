"""quandlekit: finite quandles, their rings, and the module structure of
augmentation ideals.

The package covers construction and validation of finite quandles,
translation groups and semigroups with transitivity predicates,
enumeration up to isomorphism, quandle rings over exact coefficient
domains, power-associativity probes, integer lattice computations for
the Delta filtration, and closed-form identities for dihedral quandle
rings.
"""

__version__ = "0.1.0"

from .domains import GF, QQ, ZZ
from .errors import QuandleKitError
from .quandles import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    disjoint_union,
    orbits,
    partition_type,
    trivial_quandle,
    validate_table,
)
from .rings import quandle_ring, power_assoc_witness
from .symmetry import (
    enumerate_quandles,
    inner_group,
    quandle_polynomial,
    quandles_isomorphic,
)

__all__ = [
    "GF",
    "QQ",
    "ZZ",
    "Quandle",
    "QuandleKitError",
    "alexander_quandle",
    "conjugation_quandle",
    "core_quandle",
    "dihedral_quandle",
    "disjoint_union",
    "enumerate_quandles",
    "inner_group",
    "orbits",
    "partition_type",
    "power_assoc_witness",
    "quandle_polynomial",
    "quandle_ring",
    "quandles_isomorphic",
    "trivial_quandle",
    "validate_table",
]
