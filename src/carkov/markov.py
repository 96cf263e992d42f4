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

from .covariance import SpectralMoments, moments, residue_expansion
from .errors import NonPositiveDiffusion, NotPositiveDefinite, SingularGram
from .model import RootSpec


@dataclass(frozen=True)
class ItoSystem:
    """Drift row a_0..a_k, diffusion b, companion matrix, noise vector b*e_k.

    moments are the ones the system was solved from, with their rounding
    bounds, when it came from assemble; the closed-form checks derive
    their rounding floors from them. None (a system read from a config)
    holds the checks to CLOSED_FORM_TOL alone.
    """

    drift: np.ndarray
    diffusion: float
    companion: np.ndarray
    noise_vector: np.ndarray
    moments: SpectralMoments | None = None

    @property
    def k(self) -> int:
        return len(self.drift) - 1


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary covariance of the stack, Sigma_ij = (-1)^i r^(i+j)(0)."""

    covariance: np.ndarray

    @property
    def k(self) -> int:
        return self.covariance.shape[0] - 1


def _gram(mom: SpectralMoments) -> np.ndarray:
    k = mom.k
    return np.array(
        [[mom.even_moments[i + j] for j in range(k + 1)] for i in range(k + 1)]
    )


def solve_drift(mom: SpectralMoments) -> np.ndarray:
    """Drift coefficients a_0..a_k from the moment system.

    Row i states r^(k+i+1)(0+) = sum_j a_j r^(i+j)(0); the right hand
    side of the last row is the one-sided top derivative.
    """
    k = mom.k
    G = _gram(mom)
    rhs = np.array(
        [
            mom.top_plus if i == k else mom.even_moments[k + i + 1]
            for i in range(k + 1)
        ]
    )
    try:
        a = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"moment Gram matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(a)) or np.linalg.cond(G) > 1e14:
        raise SingularGram("moment Gram matrix is numerically singular")
    return a


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
    """Stationary covariance of the stack, checked for positive definiteness."""
    k = mom.k
    sigma = np.array(
        [
            [(-1.0) ** i * mom.even_moments[i + j] for j in range(k + 1)]
            for i in range(k + 1)
        ]
    )
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
    b = solve_diffusion(mom, a)
    k = mom.k
    companion = np.zeros((k + 1, k + 1))
    for i in range(k):
        companion[i, i + 1] = 1.0
    companion[k, :] = a
    noise = np.zeros(k + 1)
    noise[k] = b
    system = ItoSystem(
        drift=a, diffusion=b, companion=companion, noise_vector=noise,
        moments=mom,
    )
    return system, stationary_law(mom)


def assemble(spec: RootSpec) -> tuple[ItoSystem, StationaryLaw]:
    """Full pipeline from a validated root spec to the Ito system.

    Runs residue expansion, takes moments, solves for drift and diffusion
    and builds the companion matrix with ones on the superdiagonal and the
    drift row at the bottom. The system carries the moments, whose
    rounding bounds the verification suite's closed-form checks use.
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


def ito_from_config(cfg: dict) -> tuple[ItoSystem, StationaryLaw]:
    """Rebuild (ItoSystem, StationaryLaw) from the dict form."""
    a = np.asarray([float(x) for x in cfg["a"]], dtype=float)
    b = float(cfg["b"])
    sigma = np.asarray(cfg["sigma"], dtype=float)
    k = len(a) - 1
    if sigma.shape != (k + 1, k + 1):
        raise NotPositiveDefinite(
            f"sigma shape {sigma.shape} does not match drift length {k + 1}"
        )
    companion = np.zeros((k + 1, k + 1))
    for i in range(k):
        companion[i, i + 1] = 1.0
    companion[k, :] = a
    noise = np.zeros(k + 1)
    noise[k] = b
    return (
        ItoSystem(drift=a, diffusion=b, companion=companion, noise_vector=noise),
        StationaryLaw(covariance=sigma),
    )
