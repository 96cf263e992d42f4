"""Exception types raised across the package.

Every error derives from :class:`CarkovError` so callers can catch the
package's failures with a single except clause. The command line tool maps
these to exit code 2.
"""


class CarkovError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# model construction

class NonPositiveImaginaryPart(CarkovError):
    """A root was given with imaginary part <= 0."""


class UnpairedRoot(CarkovError):
    """The root multiset is not closed under reflection across the imaginary axis."""


class NonPositiveScale(CarkovError):
    """The polynomial scale factor must be strictly positive."""


# ---------------------------------------------------------------------------
# covariance analysis

class NearDegenerateRoots(CarkovError):
    """Two distinct roots are too close for a stable partial-fraction expansion.

    Merge them into a true multiplicity instead.
    """


class OrderTooHigh(CarkovError):
    """A derivative order was requested beyond what exists at the origin."""


class NotConverged(CarkovError):
    """The quadrature oracle could not certify the requested accuracy, the
    spectral grid could not resolve the density over the requested span
    within its panel cap (the message names the cap, the span and the map
    scale), or Durbin-Levinson on r did not settle at any validate gap."""


class SingularGram(CarkovError):
    """The Gram matrix of derivative moments is numerically singular."""


# ---------------------------------------------------------------------------
# Markov system assembly

class NonPositiveDiffusion(CarkovError):
    """The squared diffusion coefficient is not positive and finite."""


class NotPositiveDefinite(CarkovError):
    """The stationary covariance matrix is not positive definite."""


# ---------------------------------------------------------------------------
# simulation

class FactorizationFailure(CarkovError):
    """The stationary law has a variance that is not positive, so the exact
    step operator cannot scale the state by its standard deviations."""


class UnstableStep(CarkovError):
    """The Euler update matrix has spectral radius >= 1 at the requested dt,
    and no larger dt below the stability bound makes it a contraction."""


class StepTooSmall(CarkovError):
    """dt is below what double precision resolves for the model. The exact
    step e^{A dt} has a computed contraction 1 - radius, read from the
    eigenvalues of e^{A dt} - I, that is not positive or is more than a
    factor of 2 from the true 1 - e^{-alpha dt}; every dt >= 1e-12 tau
    passed on the shipped configs and 2,200 of the tests' regular models
    up to k = 10. Or the Euler step
    I + A dt rounds to radius 1 or above far below its stability bound.
    The message names a larger dt that it does resolve."""


# ---------------------------------------------------------------------------
# statistical validation

class PathTooShort(CarkovError):
    """The sample path is too short for the requested empirical check."""
