"""Simulation and stability certification of a 1-D thermoelastic system
with internally delayed stress and Kelvin-Voigt damping."""

from .constants import (LyapunovConstants, certify, check_conditions,
                        find_beta0, lyapunov_constants, n0_from_constants)
from .delay import HistoryBuffer, init_history
from .discretization import Grid, State, assemble_generator, build_operators
from .integrate import expm_oracle, factor_implicit, simulate, step_imex
from .observables import (Trajectory, check_decay_inequality, decay_rate_fit,
                          energy, lyapunov_components)
from .params import PhysParams
from .spectral import (dissipativity_test, spectral_abscissa, spectrum_dense)

__version__ = "0.1.0"
