"""Stationary Gaussian processes with a Markov derivative stack.

The package constructs the family of zero-mean stationary Gaussian
processes whose first k derivatives, stacked into a vector, form a
Markov diffusion. Three equivalent descriptions are implemented and
cross-checked against each other:

* a spectral density 1 / |P(z)|^2 with P described by upper-half-plane
  roots (``model``),
* the closed-form covariance obtained by residue calculus, with an
  independent quadrature oracle (``covariance``),
* the first-order Ito system for the derivative stack (``markov``).

``simulate`` draws paths by exact discretization, Euler-Maruyama and
spectral synthesis; ``validate`` ties everything together with
closed-form identities and statistical checks; ``cli`` exposes the whole
pipeline as the ``carkov`` command.
"""

from .covariance import (
    CovarianceModel,
    SpectralMoments,
    alpha_coeffs,
    eval_r,
    moments,
    one_sided_top,
    quadrature_r,
    residue_expansion,
)
from .markov import ItoSystem, StationaryLaw, assemble
from .model import RealPolynomial, RootSpec, abs_p_squared, ode_char_poly
from .simulate import (
    SamplePath,
    sample_euler,
    sample_exact,
    sample_spectral,
    spectral_replicates,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceModel",
    "ItoSystem",
    "RealPolynomial",
    "RootSpec",
    "SamplePath",
    "SpectralMoments",
    "StationaryLaw",
    "abs_p_squared",
    "alpha_coeffs",
    "assemble",
    "eval_r",
    "moments",
    "ode_char_poly",
    "one_sided_top",
    "quadrature_r",
    "residue_expansion",
    "sample_euler",
    "sample_exact",
    "sample_spectral",
    "spectral_replicates",
    "__version__",
]
