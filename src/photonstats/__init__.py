"""Photon counting statistics of driven dissipative quantum systems.

Long-time photon fluxes, noise rates and full photon-number distributions
are computed from counting-field-dressed Lindblad generators, with
interchangeable back ends (spectral finite differences, characteristic
polynomials, closed-form oracles, perturbation theory, and periodic
numerics for driven systems).
"""

from .charpoly import CharPolyCoeffs, DegenerateRootError, char_poly, truncated_root
from .config import Scenario, ScenarioError, Task, load_scenario, parse_scenario
from .counting import (
    ConservationReport,
    CountingFields,
    CumulantReport,
    Method,
    conservation_check,
    cumulants,
    dynamical_mgf,
)
from .distributions import (
    GaussianLaw,
    PhotonDistribution,
    PoissonLaw,
    WindowOverflowError,
    closed_mgf,
    reconstruct,
    reconstruct_from_mgf,
)
from .models import (
    JaynesCummingsModel,
    JcParams,
    LambdaModel,
    LambdaParams,
    LambdaPeriodicModel,
)
from .perturbation import (
    NearDegeneracyError,
    PerturbationSplit,
    SubspacePartition,
    adiabatic_eliminate,
    nhpt_eigenvalue,
)
from .superop import SpectralDecomposition, propagate, spectral_decompose

__version__ = "0.1.0"

__all__ = [
    "CharPolyCoeffs",
    "ConservationReport",
    "CountingFields",
    "CumulantReport",
    "DegenerateRootError",
    "GaussianLaw",
    "JaynesCummingsModel",
    "JcParams",
    "LambdaModel",
    "LambdaParams",
    "LambdaPeriodicModel",
    "Method",
    "NearDegeneracyError",
    "PerturbationSplit",
    "PhotonDistribution",
    "PoissonLaw",
    "Scenario",
    "ScenarioError",
    "SpectralDecomposition",
    "SubspacePartition",
    "Task",
    "WindowOverflowError",
    "adiabatic_eliminate",
    "char_poly",
    "closed_mgf",
    "conservation_check",
    "cumulants",
    "dynamical_mgf",
    "load_scenario",
    "nhpt_eigenvalue",
    "parse_scenario",
    "propagate",
    "reconstruct",
    "reconstruct_from_mgf",
    "spectral_decompose",
    "truncated_root",
]
