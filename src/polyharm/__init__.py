"""Boundary-value problems on finite absorbing Markov chains.

The package solves Dirichlet and higher-order Riquier problems for the
operator lam*I - P on a finite vertex set with absorbing boundary,
describes the global solution spaces through Jordan chains when lam hits
the interior spectrum, evaluates Martin-type kernels, specialises
everything in closed form on forward-only trees, and cross-validates the
analytic solvers by Monte Carlo simulation.
"""

from . import errors
from .bvp import (
    GreenMatrix,
    ResidualReport,
    RiquierProblem,
    Solution,
    delta_matrix,
    free_polyharmonic_space,
    green,
    polyharmonic_residual,
    solve_dirichlet,
    solve_riquier,
)
from .chain import (
    Chain,
    Network,
    SubChainView,
    boundary_distance,
    boundary_vector,
    build_chain,
    build_network,
    from_network,
    full_vector,
    nth_boundary,
    sub_chain,
)
from .linalg import (
    LUFactorization,
    Spectrum,
    eigenvalues,
    lu_factor,
    lu_solve,
    nullspace,
    nullspace_info,
)
from .martin import (
    MartinKernel,
    derivative_identity_check,
    martin_kernel,
    riquier_via_kernels,
)
from .simulate import (
    ComparisonReport,
    HittingEstimate,
    SimConfig,
    compare_to_analytic,
    simulate_hitting,
)
from .spectral import (
    InteriorSpectrum,
    JordanBasis,
    NetworkSpectrumReport,
    global_polyharmonic_basis,
    interior_spectrum,
    jordan_basis,
    network_spectrum_check,
)
from .tree import (
    BoundaryDistribution,
    ForwardTree,
    KernelConsistencyReport,
    audit_binomial_identities,
    binomial,
    boundary_kernel,
    build_tree,
    eval_polyharmonic,
    kernel_consistency_check,
    restrict_to_section,
    section_kernel,
    tree_green,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
