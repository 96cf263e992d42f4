"""Assembly of the first-order Ito system satisfied by the derivative stack.

The stack Z = (Y, Y', ..., Y^(k)) obeys dZ = A Z dt + b e_k dW with a
companion-form drift matrix A. Both come from the roots in closed form:
the last row a_0..a_k is minus the low coefficients of the characteristic
polynomial chi, and b^2 = 2 pi prod |zeta_j|^2 / scale^2. The stationary
covariance is the matrix of the residue expansion's derivative moments.
The moment route to a and b^2 (a Gram solve, and the jump of the
covariance's 2k+1-st derivative at the origin) is the verification
suite's cross-check, not the source of the system.

build is the one pipeline, roots -> covariance -> moments -> (system,
law); assemble, validate.run_suite and carkov analyze all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (CovarianceModel, SpectralMoments, _hankel_order,
                         moments, residue_expansion)
from .errors import NonPositiveDiffusion, NotPositiveDefinite
from .model import RootSpec, ode_char_poly


@dataclass(frozen=True)
class ItoSystem:
    """Drift row a_0..a_k and diffusion b of dZ = A Z dt + b e_k dW.

    The companion matrix A and the noise vector b e_k are derived from
    them. moments are the residue moments the stationary law came from,
    with their rounding bounds; the closed-form checks compare the system
    with them and refuse a system without them. They default to None only
    for the drift/diffusion-only system that simulate builds as a cache
    key, which never reaches a check.
    """

    drift: np.ndarray
    diffusion: float
    moments: SpectralMoments | None = None

    @property
    def k(self) -> int:
        return len(self.drift) - 1

    @property
    def companion(self) -> np.ndarray:
        """Drift matrix A: ones on the superdiagonal, the drift row at the bottom."""
        A = np.eye(self.k + 1, k=1)
        A[-1] = self.drift
        return A

    @property
    def noise_vector(self) -> np.ndarray:
        """b e_k."""
        noise = np.zeros(self.k + 1)
        noise[-1] = self.diffusion
        return noise


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary covariance of the stack, Sigma_ij = (-1)^i r^(i+j)(0)."""

    covariance: np.ndarray

    @property
    def k(self) -> int:
        return self.covariance.shape[0] - 1


def stationary_law(mom: SpectralMoments) -> StationaryLaw:
    """Stationary covariance of the stack, checked for positive definiteness
    (smallest eigenvalue above 1e-12 times the largest).

    Entry (i, j) with i + j odd is the odd moment r^(i+j)(0), zero by
    symmetry; moments keeps it as the rounding noise its terms sum to, so
    those entries are set to zero here, and the matrix is symmetric.
    """
    k = mom.k
    order = _hankel_order(k)[:, : k + 1]
    sigma = np.where(order % 2 == 1, 0.0,
                     (-1.0) ** np.arange(k + 1)[:, None] * mom.hankel[:, : k + 1])
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() <= 1e-12 * eigs.max():
        raise NotPositiveDefinite(
            f"stationary covariance has eigenvalue {eigs.min():.3e}"
        )
    return StationaryLaw(covariance=sigma)


def build(spec: RootSpec) -> tuple[CovarianceModel, ItoSystem, StationaryLaw]:
    """The one pipeline from a validated root spec: (cov, system, law).

    cov is the residue expansion of r. Its moments give the stationary
    law and travel with the system (system.moments) for the closed-form
    checks. The drift row is -chi and b^2 = 2 pi prod |zeta_j|^2 /
    scale^2. Errors come in pipeline order: the residue expansion's,
    then NonPositiveDiffusion if b^2 is not positive and finite (it
    underflows to 0 for six roots of size 1e-60), then
    NotPositiveDefinite.
    """
    cov = residue_expansion(spec)
    mom = moments(cov)
    b2 = float(2.0 * np.pi * np.prod([abs(z) ** 2 for z in spec.roots])
               / spec.scale**2)
    if not 0.0 < b2 < math.inf:
        raise NonPositiveDiffusion(f"b^2 = {b2} must be positive and finite")
    drift = -np.asarray(ode_char_poly(spec).coefficients[: spec.k + 1])
    system = ItoSystem(drift=drift, diffusion=math.sqrt(b2), moments=mom)
    return cov, system, stationary_law(mom)


def assemble(spec: RootSpec) -> tuple[ItoSystem, StationaryLaw]:
    """(system, law) of build(spec), for callers that do not need the
    covariance."""
    return build(spec)[1:]


# ---------------------------------------------------------------------------
# JSON config round trip

def ito_to_config(system: ItoSystem, law: StationaryLaw) -> dict:
    """Dict form: {"a": [...], "b": b, "sigma": [[...]]}."""
    return {
        "a": [float(x) for x in system.drift],
        "b": float(system.diffusion),
        "sigma": [[float(x) for x in row] for row in law.covariance],
    }

