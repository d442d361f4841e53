"""Photon counting statistics of driven dissipative quantum systems.

Long-time photon fluxes, noise rates and full photon-number distributions
are computed from counting-field-dressed Lindblad generators, with
interchangeable back ends (spectral finite differences, characteristic
polynomials, closed-form oracles, perturbation theory, and periodic
numerics for driven systems).

The exports below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that it needs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "CharPolyCoeffs": "charpoly",
    "DegenerateRootError": "charpoly",
    "char_poly": "charpoly",
    "truncated_root": "charpoly",
    "Scenario": "config",
    "ScenarioError": "config",
    "Task": "config",
    "WindowOverflowError": "config",
    "load_scenario": "config",
    "parse_scenario": "config",
    "ConservationReport": "counting",
    "CountingFields": "counting",
    "CumulantReport": "counting",
    "Method": "counting",
    "conservation_check": "counting",
    "cumulants": "counting",
    "dynamical_mgf": "counting",
    "GaussianLaw": "distributions",
    "PhotonDistribution": "distributions",
    "PoissonLaw": "distributions",
    "closed_mgf": "distributions",
    "reconstruct": "distributions",
    "reconstruct_from_mgf": "distributions",
    "JaynesCummingsModel": "models",
    "JcParams": "models",
    "LambdaModel": "models",
    "LambdaParams": "models",
    "LambdaPeriodicModel": "models",
    "NearDegeneracyError": "perturbation",
    "PerturbationSplit": "perturbation",
    "SubspacePartition": "perturbation",
    "adiabatic_eliminate": "perturbation",
    "nhpt_eigenvalue": "perturbation",
    "SpectralDecomposition": "superop",
    "propagate": "superop",
    "spectral_decompose": "superop",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
