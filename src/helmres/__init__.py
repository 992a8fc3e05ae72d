"""Scattering resonances of the one-dimensional Helmholtz operator.

Three formulations of the resonance problem on a truncated domain (a
Dirichlet-to-Neumann quadratic eigenproblem, a finite-thickness absorbing
layer linear eigenproblem, and a volume-integral nonlinear eigenproblem),
plus a pseudomode residual filter that tells true resonances from
discretization artifacts, pseudospectrum maps, and high-accuracy reference
eigenvalues for validation.
"""

__version__ = "0.1.0"

from .assembly import (DtnMatrices, PmlMatrices, assemble_dtn, assemble_pml,
                       assemble_resonator_mass)
from .eigen import (ContourConfig, EigenPair, NewtonConvergenceError,
                    ProbeTooSmallError, SolveDiagnostics, newton_root,
                    smallest_singular_value, solve_contour, solve_dtn, solve_pml)
from .lippmann import (FilterReport, LsContext, PseudospectrumGrid, apply_kernel,
                       build_ls_context, collocation_matrix, filter_epsilon, pseudospectrum)
from .media import (MediumProfile, PmlConfig, air_filled_cavity_profile,
                    bump_profile, critical_angle, sigma_eval, slab_profile)
from .mesh_fe import (BoundaryCondition, Mesh1D, MeshedSpace, ParityBlock, QuadratureRule,
                      build_mesh, build_space, evaluate_function, parity_blocks)
from .reference import (DegenerateRelationError, ReferenceSet,
                        general_dtn_relation_residual, layered_solutions,
                        reference_table, slab_dtn_eigenvalues, slab_pml_eigenvalues)

__all__ = [
    "__version__",
    "BoundaryCondition", "Mesh1D", "MeshedSpace", "QuadratureRule",
    "build_mesh", "build_space", "evaluate_function",
    "ParityBlock", "parity_blocks",
    "MediumProfile", "PmlConfig",
    "slab_profile", "air_filled_cavity_profile", "bump_profile",
    "sigma_eval", "critical_angle",
    "DtnMatrices", "PmlMatrices",
    "assemble_dtn", "assemble_pml", "assemble_resonator_mass",
    "EigenPair", "ContourConfig", "SolveDiagnostics",
    "NewtonConvergenceError", "ProbeTooSmallError",
    "solve_dtn", "solve_pml", "newton_root",
    "solve_contour", "smallest_singular_value",
    "LsContext", "FilterReport", "PseudospectrumGrid",
    "build_ls_context", "apply_kernel", "collocation_matrix", "filter_epsilon",
    "pseudospectrum",
    "ReferenceSet", "DegenerateRelationError",
    "slab_dtn_eigenvalues", "slab_pml_eigenvalues",
    "general_dtn_relation_residual", "layered_solutions", "reference_table",
]
