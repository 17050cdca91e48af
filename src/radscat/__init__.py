"""Radial Schrodinger scattering for piecewise-constant potentials.

Jost functions, the S matrix, delta-normalized continuum eigenfunction
families and Gamow resonance states, with verification tooling for the
distributional identities they satisfy.
"""

from .potential import PhysicalScale, Potential, make_shell, sqrt_branch
from .solution import (
    LayerSolution,
    evaluate_chi,
    evaluate_chi_derivative,
    solve_regular,
)
from .spectral import (
    Family,
    JostPair,
    PoleError,
    SMatrixValue,
    eigenfunction,
    energy_transform,
    jost,
    measure,
    s_matrix,
)
from .criterion import (
    NORMALIZATION,
    PHYSICALLY_DISTINCT,
    CriterionReport,
    GridSpec,
    NonFiniteGridError,
    check_symmetry,
    classify_eigensolution,
    eigensolution_factor,
)
from .resonance import (
    DECAYING,
    GROWING,
    GamowState,
    IllConditionedResidueError,
    MissedRootsError,
    Region,
    find_resonances,
    gamow_eigenfunction,
    growing_partner,
    residue_norm,
    winding_number,
)
from .verification import (
    SmearedDeltaReport,
    free_overlap_kernel,
    grid_scan_roots,
    rk_oracle,
    shell_jost_plus_grid,
    smeared_delta_check,
)

__version__ = "0.1.0"
