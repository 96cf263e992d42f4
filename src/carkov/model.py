"""Root-level description of the process family.

A model is a polynomial P(z) = scale * prod_j (1 - z / zeta_j) whose roots
zeta_j all lie in the open upper half plane and come in pairs symmetric
about the imaginary axis (a purely imaginary root is its own partner).
The process of interest is the stationary Gaussian process with spectral
density 1 / |P(z)|^2, normalized so that the covariance is the plain
Fourier integral of that density with no 2*pi prefactor.

With k + 1 roots, the process has k mean-square derivatives and the stack
(Y, Y', ..., Y^(k)) is a vector Markov diffusion; the rest of the package
builds that system from the spec assembled here.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CarkovError,
    NonPositiveImaginaryPart,
    NonPositiveScale,
    UnpairedRoot,
)

#: absolute tolerance on |zeta_j + conj(zeta_j')| used when checking that
#: the root multiset is closed under reflection across the imaginary axis
PAIRING_TOL = 1e-9


@dataclass(frozen=True)
class RootSpec:
    """Validated root set in canonical order plus the positive scale factor."""

    roots: tuple[complex, ...]
    scale: float

    @property
    def k(self) -> int:
        """Number of mean-square derivatives of the scalar process."""
        return len(self.roots) - 1


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real coefficients, stored lowest order first."""

    coefficients: tuple[float, ...]


def validate(roots, scale: float) -> RootSpec:
    """Check a raw root list and return the canonical spec.

    Parameters
    ----------
    roots : sequence of complex
        Proposed roots of P. Each must have strictly positive imaginary
        part, and the multiset must be closed under zeta -> -conj(zeta)
        within ``PAIRING_TOL``.
    scale : float
        Leading scale factor of P, strictly positive and finite.

    Returns
    -------
    RootSpec
        Roots sorted by (imaginary part, real part), both ascending.

    Raises
    ------
    NonPositiveImaginaryPart
        If any root has imaginary part <= 0.
    NonPositiveScale
        If scale <= 0.
    UnpairedRoot
        If some root has no reflection partner in the multiset.
    CarkovError
        If a root or the scale is not finite.
    """
    roots = [complex(z) for z in roots]
    if not roots:
        raise UnpairedRoot("at least one root is required")
    if not all(map(cmath.isfinite, [scale, *roots])):
        raise CarkovError(f"roots {roots} and scale {scale} must be finite")
    if not (scale > 0):
        raise NonPositiveScale(f"scale must be > 0, got {scale}")
    for z in roots:
        if not (z.imag > 0):
            raise NonPositiveImaginaryPart(
                f"root {z} must lie in the open upper half plane"
            )

    # Greedy reflection matching. A root with |2 Re zeta| <= tol is its own
    # partner; otherwise it must find a distinct unmatched partner with
    # |zeta + conj(partner)| <= tol.
    unmatched = list(range(len(roots)))
    while unmatched:
        i = unmatched.pop(0)
        zi = roots[i]
        if abs(2.0 * zi.real) <= PAIRING_TOL:
            continue
        best_j, best_gap = None, np.inf
        for j in unmatched:
            gap = abs(zi + roots[j].conjugate())
            if gap < best_gap:
                best_j, best_gap = j, gap
        if best_j is None or best_gap > PAIRING_TOL:
            where = (
                f"closest mismatch {best_gap:.3e}"
                if best_j is not None
                else "no unmatched candidates"
            )
            raise UnpairedRoot(
                f"root {zi} has no partner at -conj(zeta) ({where})"
            )
        unmatched.remove(best_j)

    ordered = tuple(sorted(roots, key=lambda z: (z.imag, z.real)))
    return RootSpec(roots=ordered, scale=float(scale))


def ode_char_poly(spec: RootSpec) -> RealPolynomial:
    """Monic characteristic polynomial chi(lam) = prod_j (lam - i*zeta_j).

    The pairing of the roots makes the expanded coefficients real; tiny
    imaginary residue from round-off is dropped after a sanity check.
    """
    coeffs = np.array([1.0 + 0.0j])
    for z in spec.roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -1j * z]))
    scale = max(1.0, np.abs(coeffs).max())
    if np.abs(coeffs.imag).max() > 1e-9 * scale:
        raise UnpairedRoot(
            "characteristic polynomial has non-real coefficients; "
            "root pairing is inconsistent"
        )
    # convolution above produced highest order first; store ascending
    return RealPolynomial(coefficients=tuple(coeffs.real[::-1]))


def abs_p_squared(spec: RootSpec, z):
    """Evaluate |P(z)|^2 for real z (scalar or array)."""
    z = np.asarray(z, dtype=float)
    out = np.full(z.shape, spec.scale**2, dtype=float)
    for zeta in spec.roots:
        out *= np.abs(1.0 - z / zeta) ** 2
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# JSON config round trip

def to_config(spec: RootSpec) -> dict:
    """Dict form of a spec: {"roots": [[re, im], ...], "scale": s}."""
    return {
        "roots": [[z.real, z.imag] for z in spec.roots],
        "scale": spec.scale,
    }


def _number(value, field: str):
    """value if it is a JSON number (an int or a float, not a bool), else
    TypeError naming field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a number, got {value!r}")
    return value


def from_config(cfg: dict) -> RootSpec:
    """Validate a dict in the format produced by :func:`to_config`, whose
    root parts and scale are JSON numbers."""
    try:
        roots = [complex(_number(re, f"roots[{i}][0]"),
                         _number(im, f"roots[{i}][1]"))
                 for i, (re, im) in enumerate(cfg["roots"])]
        scale = float(_number(cfg["scale"], "scale"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CarkovError(f"malformed model config: {exc}") from exc
    return validate(roots, scale)


def load_model(path) -> RootSpec:
    """Read and validate a model config JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_config(json.load(fh))

