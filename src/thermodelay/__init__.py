"""Simulation and stability certification of a 1-D thermoelastic system
with internally delayed stress and Kelvin-Voigt damping.

The names below are loaded on first use (PEP 562), so `import thermodelay`
and `import thermodelay.cli` import neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("LyapunovConstants", "certify", "check_conditions",
                  "find_beta0", "lyapunov_constants", "n0_from_constants"),
    "delay": ("HistoryBuffer", "init_history"),
    "discretization": ("Grid", "State", "assemble_generator", "build_operators"),
    "integrate": ("factor_implicit", "simulate", "step_imex"),
    "observables": ("Trajectory", "check_decay_inequality", "decay_rate_fit",
                    "energy", "lyapunov_components"),
    "params": ("PhysParams",),
    "spectral": ("dissipativity_test", "spectral_abscissa", "spectrum_dense"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:        # the submodules the names come from
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
