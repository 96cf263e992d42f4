"""Assembly of the first-order Ito system satisfied by the derivative stack.

The stack Z = (Y, Y', ..., Y^(k)) obeys dZ = A Z dt + b e_k dW with a
companion-form drift matrix A. The last-row coefficients a_0..a_k solve a
linear system in the derivative moments of the covariance, and b^2 falls
out of the covariance's one-sided 2k+1-st derivative at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpectralMoments, moments, residue_expansion, solve_gram
from .errors import NonPositiveDiffusion, NotPositiveDefinite
from .model import RootSpec


@dataclass(frozen=True)
class ItoSystem:
    """Drift row a_0..a_k and diffusion b of dZ = A Z dt + b e_k dW.

    The companion matrix A and the noise vector b e_k are derived from
    them. moments are the ones the system was solved from, with their
    rounding bounds; the closed-form checks derive their rounding floors
    from them and refuse a system without them. They default to None only
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


def solve_drift(mom: SpectralMoments) -> np.ndarray:
    """Drift coefficients a_0..a_k from the moment system.

    Row i states r^(k+i+1)(0+) = sum_j a_j r^(i+j)(0); the right hand
    side of the last row is the one-sided top derivative.
    """
    return solve_gram(mom, mom.hankel[:, -1])


def solve_diffusion(mom: SpectralMoments, drift: np.ndarray) -> float:
    """Diffusion coefficient b > 0.

    b^2 = sum_j a_j r^(j+k)(0) (-1)^(j+1) + (-1)^k r^(2k+1)(0-), where the
    left limit of the top derivative is minus the right limit.
    """
    k = mom.k
    top_minus = -mom.top_plus
    b2 = float(
        sum(
            drift[j] * mom.even_moments[j + k] * (-1.0) ** (j + 1)
            for j in range(k + 1)
        )
        + (-1.0) ** k * top_minus
    )
    if not (b2 > 0):
        raise NonPositiveDiffusion(f"b^2 = {b2} must be positive")
    return math.sqrt(b2)


def stationary_law(mom: SpectralMoments) -> StationaryLaw:
    """Stationary covariance of the stack, checked for positive definiteness
    (smallest eigenvalue above 1e-12 times the largest).

    Entry (i, j) with i + j odd is the odd moment r^(i+j)(0), zero by
    symmetry, with opposite signs above and below the diagonal. That
    moment is kept as rounding noise (see moments), so the matrix is
    stored as (Sigma + Sigma^T) / 2, which makes those entries exactly
    zero and keeps the even ones as they are.
    """
    k = mom.k
    sigma = (-1.0) ** np.arange(k + 1)[:, None] * mom.hankel[:, : k + 1]
    sigma = (sigma + sigma.T) / 2.0
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() <= 1e-12 * eigs.max():
        raise NotPositiveDefinite(
            f"stationary covariance has eigenvalue {eigs.min():.3e}"
        )
    return StationaryLaw(covariance=sigma)


def _assemble_from_moments(
    mom: SpectralMoments,
) -> tuple[ItoSystem, StationaryLaw]:
    """Ito system, carrying mom, and stationary law from the moments."""
    a = solve_drift(mom)
    system = ItoSystem(drift=a, diffusion=solve_diffusion(mom, a), moments=mom)
    return system, stationary_law(mom)


def assemble(spec: RootSpec) -> tuple[ItoSystem, StationaryLaw]:
    """Full pipeline from a validated root spec to the Ito system.

    Runs residue expansion, takes moments and solves for drift and
    diffusion. The system carries the moments, whose rounding bounds the
    verification suite's closed-form checks use.
    """
    return _assemble_from_moments(moments(residue_expansion(spec)))


# ---------------------------------------------------------------------------
# JSON config round trip

def ito_to_config(system: ItoSystem, law: StationaryLaw) -> dict:
    """Dict form: {"a": [...], "b": b, "sigma": [[...]]}."""
    return {
        "a": [float(x) for x in system.drift],
        "b": float(system.diffusion),
        "sigma": [[float(x) for x in row] for row in law.covariance],
    }

