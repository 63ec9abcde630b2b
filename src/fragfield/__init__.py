"""Two-stage online Bayesian updating of spatial fragility fields.

Stage 1: per-building conjugate updating of Probit-Normal fragility marginals
through moment-matched Beta surrogates, with reliability-weighted soft
observations.  Stage 2: global propagation of the updated latent field with a
heteroscedastic Gaussian process under a composite spatial/archetype/state
kernel.  A Rankine-vortex tornado scenario generator and a batched-update
experiment runner drive the end-to-end synthetic studies.
"""

__version__ = "0.1.0"

from .probit_normal import (  # noqa: F401
    PnMarginal,
    PnMoments,
    clip_ordinal_probit,
    latent_from_physics,
    pn_from_moments,
    pn_moments,
)
