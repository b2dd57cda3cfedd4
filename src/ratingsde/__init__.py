"""ratingsde: rating-transition matrices as an SDE on the group of
stochastic matrices — repair, calibration, simulation and XVA."""

__version__ = "0.7.0"

from .errors import NumericalError, RatingSdeError, ValidationError
from .lie import (BasisIndexMap, StochasticMatrix, ad, basis_index_map,
                  coeffs_to_matrices, dexp_L, expm_batch, n_coords,
                  validate_stochastic)
from .cohort import (CohortMatrix, WeightMatrix, adjusted_matrix,
                     distance_matrix, proportional_weights, reconstruct,
                     repair, uncertainty_target, uniform_weights,
                     withdrawal_rates)
from .sde import (HISTORICAL, MatrixPathBundle, MeasureChange, SdeParams,
                  TimeGrid, default_grid, draw_noise, girsanov_density,
                  kappa_from_h, mean_matrix, simulate_paths_threaded,
                  simulate_terminal, var_matrix)
from .calibrate import (HistCalibrationSpec, PdTargets, PropertyReport,
                        calibrate_historical, calibrate_risk_neutral,
                        hist_residual, property_report, rn_residual)
from .ctmc import (NestedPaths, empirical_transition, piecewise_generators,
                   sample_from_bundle, simulate_nested_paths, simulation_error)
from .xva import (CsaTerms, PortfolioSpec, XvaResult, compute_xva,
                  perfect_terms, predefault_distribution, simulate_portfolio,
                  simulate_xva_paths, uncollateralized_terms, xva_by_regime)

__all__ = [name for name in dir() if not name.startswith("_")]
