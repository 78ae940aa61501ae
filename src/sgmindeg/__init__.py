"""sgmindeg: exact minimal degrees of faithful transformation representations
of finite semigroups, with an independent brute-force embedding oracle."""

from .action import (
    OrbitDecomposition,
    PartialAction,
    faithful_by_criterion,
    greens_quotient,
    is_faithful,
    orbits,
    tensor_action,
)
from . import errors
from .congruence import (
    Congruence,
    IrreducibilityReport,
    column_condition,
    is_rhodes_semisimple,
    rm_congruence_at,
    rm_irreducible_classes,
)
from .core import (
    FiniteSemigroup,
    GreensStructure,
    ReesCoordinatization,
    from_partial_maps,
    from_table,
    greens,
    opposite,
    rees_coordinatize,
)
from .grouptheory import (
    GroupAction,
    GroupTable,
    SubgroupLattice,
    coset_action,
    min_degree_faithful_on,
    subgroup_classes,
)
from .mindeg import MinDegReport, dj, left_degrees, min_partial_degree
from .oracle import OracleQuery, OracleResult, brute_min_degree, verify_embedding

__all__ = [
    "Congruence",
    "FiniteSemigroup",
    "GreensStructure",
    "GroupAction",
    "GroupTable",
    "IrreducibilityReport",
    "MinDegReport",
    "OracleQuery",
    "OracleResult",
    "OrbitDecomposition",
    "PartialAction",
    "ReesCoordinatization",
    "SubgroupLattice",
    "brute_min_degree",
    "column_condition",
    "coset_action",
    "dj",
    "errors",
    "faithful_by_criterion",
    "from_partial_maps",
    "from_table",
    "greens",
    "greens_quotient",
    "is_faithful",
    "is_rhodes_semisimple",
    "left_degrees",
    "min_degree_faithful_on",
    "min_partial_degree",
    "opposite",
    "orbits",
    "rees_coordinatize",
    "rm_congruence_at",
    "rm_irreducible_classes",
    "subgroup_classes",
    "tensor_action",
    "verify_embedding",
]

__version__ = "0.1.0"
