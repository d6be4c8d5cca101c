"""spdekit: spectral Galerkin SPDE simulation and verification on the 1-d torus.

The modules follow the pipeline: :mod:`spdekit.spectral` (fields, norms,
Fourier-multiplier operators), :mod:`spdekit.noise` (Q-Wiener increments and
diagonal covariance arithmetic), :mod:`spdekit.models` (the SPDE drift and
diffusion pairs and the coercivity/monotonicity/growth checkers),
:mod:`spdekit.integrators` (time-stepping schemes), :mod:`spdekit.burgers`
(the linear/remainder splitting for stochastic Burgers) and
:mod:`spdekit.verify` (the statistical verification harness behind the
``spdekit`` command line, :mod:`spdekit.cli`).
"""

from .spectral import (
    SpectralField,
    TorusGrid,
    dealias,
    derivative,
    field_from_modes,
    field_from_samples,
    h_inner,
    heat_semigroup,
    laplacian,
    lp_norm,
    physical_samples,
    sobolev_norm,
    zero_field,
)
from .noise import (
    CovarianceSpec,
    NoiseSampler,
    covariance_pairing,
    hs_norm_sq,
    trace,
)
from .models import (
    AdditiveHeat,
    Burgers,
    HypothesisReport,
    PorousMedium,
    ReactionDiffusion,
    TransportHeat,
    coercivity_check,
    diffusion_hs_norm_sq,
    drift,
    growth_check,
    monotonicity_check,
)
from .integrators import (
    BlowUpError,
    PicardError,
    SamplePath,
    SchemeSpec,
    simulate,
    step_blocks,
)

__version__ = "0.1.0"

# Every path steps in numpy; the constant stays because run records read it.
NUMBA_ENABLED = False

# The names of ``burgers`` and ``verify`` are imported on first use (PEP 562),
# so ``import spdekit`` and ``spdekit simulate`` never load those modules.
_LAZY = {
    "BurgersProblem": "burgers",
    "PicardWindow": "burgers",
    "SplitSolution": "burgers",
    "apriori_report": "burgers",
    "solve_split": "burgers",
    "split_windows": "burgers",
    "McConfig": "verify",
    "StatReport": "verify",
}


def __getattr__(name):
    import importlib

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
