"""Free-space norms of finitely supported measures on metric meshes."""

from .mesh import TriMesh, geodesic_distances
from .primitives import generate_primitive
from .calculus import (
    divergence,
    gradient,
    l1_norm,
    linf_norm,
    lip_constant,
    pairing,
)
from .currents import CurrentClass, betti1, classify, d0, d1, solve_potential
from .freenorm import (
    FieldSolveParams,
    FreeNormReport,
    Molecule,
    beckmann_field,
    beckmann_graph,
    canonicalize,
    dual_lp,
    free_norm,
    transport_oracle,
)
from .experiments import (
    ExperimentReport,
    cutoff_decay,
    cutoff_field,
    extend_by_zero,
    refinement_study,
    weakstar_probe,
)

__version__ = "0.1.0"

__all__ = [
    "TriMesh",
    "geodesic_distances",
    "generate_primitive",
    "gradient",
    "divergence",
    "pairing",
    "l1_norm",
    "linf_norm",
    "lip_constant",
    "CurrentClass",
    "d0",
    "d1",
    "solve_potential",
    "classify",
    "betti1",
    "Molecule",
    "canonicalize",
    "dual_lp",
    "transport_oracle",
    "beckmann_graph",
    "beckmann_field",
    "free_norm",
    "FreeNormReport",
    "FieldSolveParams",
    "ExperimentReport",
    "cutoff_field",
    "cutoff_decay",
    "extend_by_zero",
    "weakstar_probe",
    "refinement_study",
    "__version__",
]
