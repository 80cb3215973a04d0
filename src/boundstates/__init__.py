"""Bound states of the dimensionless 1D Schrodinger equation.

Two interchangeable characteristic-function methods over one canonical-pair
RK4 integrator: boundary-Wronskian quantization and canonical-function
endpoint ratios, plus a saturation analyzer that quantifies how the two
approach their shared limit.
"""

from .cfm import (
    SaturationProfile,
    box_characteristic_analytic,
    cfm_l_ratios,
    saturation_profile,
)
from .core import (
    AsymptoticModel,
    CharacteristicFunction,
    EigenResult,
    Evaluation,
    Grid,
    PotentialSpec,
    Problem,
    SolverError,
    make_grid,
    wronskian,
)
from .integrate import CanonicalPair, canonical_pair
from .oracle import (
    convergence_orders,
    fd_box_dispersion,
    fd_box_recurrence_eigenvalues,
    shooting_reference,
)
from .potentials import (
    anharmonic,
    box_exact_energy,
    infinite_well,
    poschl_teller,
    poschl_teller_critical_strengths,
    poschl_teller_exact_energies,
    radial,
)
from .roots import (
    Bracket,
    characteristic_for,
    dirichlet_determinant,
    find_eigenvalues,
    refine_root,
    scan_brackets,
)
from .wm import WmEndpointData, wm_eigenfunction, wm_endpoint_data

__version__ = "0.1.0"

__all__ = [
    "AsymptoticModel", "Bracket", "CanonicalPair", "CharacteristicFunction",
    "EigenResult", "Evaluation", "Grid", "PotentialSpec", "Problem",
    "SaturationProfile", "SolverError", "WmEndpointData",
    "anharmonic", "box_characteristic_analytic", "box_exact_energy",
    "canonical_pair", "cfm_l_ratios", "characteristic_for",
    "convergence_orders", "dirichlet_determinant", "fd_box_dispersion",
    "fd_box_recurrence_eigenvalues", "find_eigenvalues", "infinite_well",
    "make_grid", "poschl_teller", "poschl_teller_critical_strengths",
    "poschl_teller_exact_energies", "radial", "refine_root",
    "saturation_profile", "scan_brackets", "shooting_reference",
    "wm_eigenfunction", "wm_endpoint_data", "wronskian",
]
