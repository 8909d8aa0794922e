"""Driven emitter chains coupled to a waveguide: steady states, directional
emission, phase separation.

Four coupling models at mean-field level (unidirectional cascade UWM,
bidirectional BWM, its disorder average EAM, and the Dicke limit DM), a
second-order cumulant extension of the cascade, an exact few-emitter
master-equation oracle, Lambert-W thermodynamic-limit analytics, chain
ensemble statistics, and Doppler-broadened saturable propagation.
"""

from .analytic import (BistabilityWindow, DickeRoots, dicke_bistability_window,
                       dicke_cubic, dicke_steady_states, lambert_w0,
                       mean_polarization, thermodynamic_saturation,
                       uwm_inversion, uwm_saturation)
from .cumulant import (CE2_MAX_SITES, CumulantSolution, inelastic_saturation,
                       sigma_xx_cumulant, solve_ce2)
from .doppler import (DopplerParams, averaged_cross_section, doppler_profile,
                      doppler_recursion, doppler_width,
                      gauss_hermite_cross_section)
from .ensemble import EnsembleReport, run_ensemble
from .errors import (CascadiaError, DimensionCap, NonConvergence,
                     NoPhysicalRoot, NumericalInstability)
from .exact import (DensityState, build_generator, exact_observables,
                    exact_steady_state, flux_report)
from .meanfield import (FieldObservables, MeanFieldSolution, effective_drive,
                        field_observables, solve_collective,
                        solve_steady_state, uwm_cascade_fixed_point)
from .params import (DerivedQuantities, EmitterChain, ModelParams,
                     averaged_phase_factor, build_chain, derive)
from .steady import RampSpec, SolverOptions

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters & chains
    "ModelParams", "DerivedQuantities", "EmitterChain", "build_chain",
    "averaged_phase_factor", "derive",
    # solver controls
    "SolverOptions", "RampSpec",
    # mean-field
    "MeanFieldSolution", "FieldObservables", "solve_steady_state",
    "effective_drive", "field_observables", "solve_collective",
    "uwm_cascade_fixed_point",
    # analytics
    "lambert_w0", "uwm_saturation", "uwm_inversion", "mean_polarization",
    "thermodynamic_saturation", "dicke_cubic", "dicke_steady_states",
    "dicke_bistability_window", "DickeRoots", "BistabilityWindow",
    # cumulant
    "CumulantSolution", "solve_ce2", "sigma_xx_cumulant",
    "inelastic_saturation", "CE2_MAX_SITES",
    # exact oracle
    "DensityState", "build_generator", "exact_steady_state",
    "exact_observables", "flux_report",
    # ensembles
    "EnsembleReport", "run_ensemble",
    # Doppler
    "DopplerParams", "doppler_profile", "doppler_recursion", "doppler_width",
    "averaged_cross_section", "gauss_hermite_cross_section",
    # errors
    "CascadiaError", "NonConvergence", "NumericalInstability",
    "NoPhysicalRoot", "DimensionCap",
]
