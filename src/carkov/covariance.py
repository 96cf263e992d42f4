"""Closed-form covariance analysis via residue calculus.

The covariance of the process is the Fourier integral

    r(t) = integral e^{izt} / |P(z)|^2 dz          (no 2*pi prefactor)

where |P(z)|^2, continued to complex z, is the degree 2k+2 polynomial
Q(z) = P(z) * conj(P(conj(z))) with roots {zeta_j} in the upper half plane
and {conj(zeta_j)} below. Closing the contour upward for t > 0 turns r
into a finite sum of polynomial-times-exponential terms

    r(t) = sum_g sum_{p < m_g} coef_{g,p} * t^p * e^{i zeta_g t},

one group per distinct root zeta_g of multiplicity m_g. Writing
Q(zeta_g + w) = w^{m_g} * Qt(w), the coefficients come from the truncated
reciprocal power series s(w) = 1 / Qt(w) mod w^{m_g}:

    coef_{g,p} = 2*pi*i * (i^p / p!) * s_{m_g - 1 - p}.

Everything else in this module (derivatives, moments at the origin, the
one-sided top derivative, interpolation coefficients) is exact algebra on
that term list. An independent quadrature oracle evaluates the same
quantities directly from the spectral integral for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CarkovError,
    NearDegenerateRoots,
    NotConverged,
    OrderTooHigh,
    SingularGram,
)
from .model import RootSpec

#: distinct roots closer than this (relative to max |root|) are rejected;
#: the caller must merge them into a true multiplicity
DEGENERACY_TOL = 1e-6

#: quadrature oracle accuracy, relative to max(1, r(0)), for |t| <= 10
QUAD_REL_TOL = 1e-6

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True)
class CovarianceModel:
    """Term list for r(t) on t >= 0, plus the derivative count k.

    Each term is a tuple (coef, root, power) contributing
    coef * t^power * e^{i * root * t}; the sum is real for real t.
    """

    terms: tuple[tuple[complex, complex, int], ...]
    k: int

    @property
    def tau(self) -> float:
        """Correlation time 1 / min Im(root), the slowest decay of the terms."""
        return 1.0 / min(root.imag for _c, root, _p in self.terms)


@dataclass(frozen=True)
class SpectralMoments:
    """Derivative moments of r at the origin.

    even_moments[j] = r^(j)(0) for j = 0..2k (odd entries vanish by
    symmetry up to rounding, see moments); top_plus is the one-sided
    limit of r^(2k+1) as t -> 0+.
    even_magnitudes and top_magnitude sum the magnitudes of the residue
    terms behind each value (term_magnitude at 0), from which the
    verification suite bounds their rounding; empty and 0 when unknown.
    """

    even_moments: tuple[float, ...]
    top_plus: float
    even_magnitudes: tuple[float, ...] = ()
    top_magnitude: float = 0.0

    @property
    def k(self) -> int:
        return (len(self.even_moments) - 1) // 2

    @property
    def hankel(self) -> np.ndarray:
        """The (k+1) x (k+2) moment system [G | rhs], entry (i, j) r^(i+j)(0).

        G = hankel[:, :k+1] is the Gram matrix of the derivative stack.
        The last column r^(k+i+1)(0), the top for i = k, is the right-hand
        side of the moment route to the drift row (validate.moment_drift).
        """
        return np.append(self.even_moments, self.top_plus)[_hankel_order(self.k)]


def _hankel_order(k: int) -> np.ndarray:
    """Moment order i + j of each entry (i, j) of SpectralMoments.hankel."""
    return np.add.outer(np.arange(k + 1), np.arange(k + 2))


def solve_gram(mom: SpectralMoments, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs for the Gram matrix G of mom.hankel.

    Raises SingularGram when G is singular, x is not finite or the
    condition number of G exceeds 1e14.
    """
    G = mom.hankel[:, : mom.k + 1]
    try:
        x = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"moment Gram matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(x)) or np.linalg.cond(G) > 1e14:
        raise SingularGram("moment Gram matrix is numerically singular")
    return x


def _mul_linear_truncated(poly: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Multiply a truncated power series by (a + b*w), dropping high orders."""
    out = a * poly
    out[1:] += b * poly[:-1]
    return out


def residue_expansion(spec: RootSpec) -> CovarianceModel:
    """Expand the covariance into polynomial-times-exponential terms.

    Parameters
    ----------
    spec : RootSpec
        Validated root set and scale.

    Returns
    -------
    CovarianceModel
        Terms grouped by distinct root in canonical order, powers
        0..m-1 within each group.

    Raises
    ------
    NearDegenerateRoots
        If two distinct roots are closer than DEGENERACY_TOL relative to
        the largest root magnitude. Exactly equal roots are fine; they
        form a single higher-multiplicity group.
    CarkovError
        If a coefficient, or a term of a derivative up to order 2k + 1
        (moments takes them all), would overflow a double.
    """
    roots = sorted(spec.roots, key=lambda z: (z.imag, z.real))
    groups: list[list] = []
    for z in roots:
        if groups and z == groups[-1][0]:
            groups[-1][1] += 1
        else:
            groups.append([z, 1])

    max_mag = max(abs(z) for z in roots)
    tol = DEGENERACY_TOL * max_mag
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            gap = abs(groups[gi][0] - groups[gj][0])
            if gap < tol:
                raise NearDegenerateRoots(
                    f"distinct roots {groups[gi][0]} and {groups[gj][0]} are "
                    f"{gap:.3e} apart (< {tol:.3e}); merge them into a "
                    "multiplicity"
                )

    # a term of r^(j), j <= 2k + 1, is at most |coef| (2k+1)! max(1, |zeta|)^(2k+1)
    top = 2 * spec.k + 1
    try:
        c2 = spec.scale**2
        terms: list[tuple[complex, complex, int]] = []
        for zg, m in groups:
            # Qt(w) = Q(zg + w) / w^m as a power series truncated to order m-1.
            # The group's own factor (1 - z/zg)^m contributes (-1/zg)^m * w^m,
            # every other linear factor (1 - z/xi) contributes (a + b*w) with
            # a = 1 - zg/xi and b = -1/xi.
            poly = np.zeros(m, dtype=complex)
            poly[0] = c2 * (-1.0 / zg) ** m
            for _ in range(m):
                xi = zg.conjugate()
                poly = _mul_linear_truncated(poly, 1.0 - zg / xi, -1.0 / xi)
            for zh, mh in groups:
                if zh == zg:
                    continue
                for xi in (zh, zh.conjugate()):
                    for _ in range(mh):
                        poly = _mul_linear_truncated(poly, 1.0 - zg / xi, -1.0 / xi)

            # reciprocal series s = 1/Qt mod w^m
            s = np.zeros(m, dtype=complex)
            s[0] = 1.0 / poly[0]
            for n in range(1, m):
                s[n] = -s[0] * np.dot(poly[1 : n + 1], s[n - 1 :: -1])

            for p in range(m):
                coef = 2j * np.pi * (1j**p / math.factorial(p)) * s[m - 1 - p]
                terms.append((complex(coef), complex(zg), p))
        reach = max(abs(coef) * math.factorial(top) * max(1.0, abs(zg)) ** top
                    for coef, zg, _p in terms)
    except OverflowError:
        reach = math.inf
    if not reach < math.inf:
        raise CarkovError(
            f"roots of modulus {min(abs(z) for z in roots):.3g} to {max_mag:.3g} "
            f"at scale {spec.scale:.3g} give residue terms that overflow a "
            f"double in the derivatives up to order {top}"
        )

    cov = CovarianceModel(terms=tuple(terms), k=spec.k)
    _check_term_list(cov)
    return cov


def _check_term_list(cov: CovarianceModel) -> None:
    """Cheap internal consistency probes: r real on a grid, r(0) > 0."""
    probes = np.array([0.0, 0.31, 1.7, 4.3])
    total = np.zeros_like(probes, dtype=complex)
    for coef, root, p in cov.terms:
        total += coef * probes**p * np.exp(1j * root * probes)
    r0 = total.real[0]
    if not (r0 > 0):
        raise CarkovError(f"term list gives non-positive variance r(0) = {r0}")
    if np.abs(total.imag).max() > 1e-10 * abs(r0):
        raise CarkovError(
            "term list does not evaluate to a real covariance "
            f"(max imag {np.abs(total.imag).max():.3e} vs r(0) = {r0:.3e})"
        )


def derivative_terms(
    cov: CovarianceModel, j: int
) -> tuple[tuple[complex, complex, int], ...]:
    """Term list of the j-th derivative of r on t > 0.

    Differentiating coef * t^m * e^{i*zeta*t} j times and collecting by
    (root, power) keeps the representation closed, so every derivative is
    again a CovarianceModel-style term list.
    """
    if j == 0:
        return cov.terms
    merged: dict[tuple[complex, int], complex] = {}
    for coef, root, m in cov.terms:
        iz = 1j * root
        for ell in range(min(j, m) + 1):
            c = (
                coef
                * math.comb(j, ell)
                * (math.factorial(m) // math.factorial(m - ell))
                * iz ** (j - ell)
            )
            key = (root, m - ell)
            merged[key] = merged.get(key, 0.0 + 0.0j) + c
    ordered = sorted(merged.items(), key=lambda kv: (kv[0][0].imag, kv[0][0].real, kv[0][1]))
    return tuple((coef, root, p) for (root, p), coef in ordered)


def eval_r(cov: CovarianceModel, j: int, u):
    """Evaluate r^(j)(u) for scalar or array u.

    For u < 0 the stationary symmetry r^(j)(-u) = (-1)^j r^(j)(u) is
    applied. At u = 0 only orders j <= 2k exist as two-sided derivatives;
    higher orders raise OrderTooHigh (use one_sided_top for the 2k+1
    limit from the right).
    """
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if j > 2 * cov.k and np.any(u_arr == 0.0):
        raise OrderTooHigh(
            f"r^({j}) does not exist two-sidedly at 0 for k = {cov.k}"
        )
    terms = derivative_terms(cov, j)
    au = np.abs(u_arr)
    total = np.zeros(au.shape, dtype=complex)
    for coef, root, p in terms:
        total += coef * au**p * np.exp(1j * root * au)
    vals = total.real
    if j % 2 == 1:
        vals = np.where(u_arr < 0, -vals, vals)
    return float(vals[0]) if scalar else vals


def one_sided_top(cov: CovarianceModel) -> float:
    """One-sided limit of r^(2k+1)(t) as t -> 0 from the right.

    The 2k+1-st derivative jumps at the origin; this right limit is what
    the diffusion coefficient of the Markov system is built from. Its
    sign alternates with k: negative for even k, positive for odd k.
    """
    terms = derivative_terms(cov, 2 * cov.k + 1)
    total = sum(coef for coef, _root, p in terms if p == 0)
    return float(total.real)


def moments(cov: CovarianceModel) -> SpectralMoments:
    """Derivative moments r^(j)(0) for j <= 2k plus the one-sided top.

    Odd-order entries vanish by symmetry, and each keeps the value its
    terms sum to: the Gram solves (alpha_coeffs and validate.moment_drift)
    take them as they are, and markov.stationary_law sets them to zero.
    Each value comes with the summed magnitude of its terms
    (term_magnitude at 0).
    """
    vals = []
    for j in range(2 * cov.k + 1):
        terms = derivative_terms(cov, j)
        vals.append(float(sum(coef for coef, _root, p in terms if p == 0).real))
    mags = [float(term_magnitude(cov, j, 0.0)) for j in range(2 * cov.k + 2)]
    return SpectralMoments(
        even_moments=tuple(vals), top_plus=one_sided_top(cov),
        even_magnitudes=tuple(mags[:-1]), top_magnitude=mags[-1],
    )


def alpha_coeffs(mom: SpectralMoments, cov: CovarianceModel, u: float) -> np.ndarray:
    """Interpolation coefficients alpha_j(u) of the Markov factorization.

    Solves the (k+1) x (k+1) system G @ alpha = (r^(i)(u))_i with Gram
    matrix G_ij = r^(i+j)(0). With these coefficients,
    r(u + v) = sum_j alpha_j(u) * r^(j)(v) for all v >= 0; as u -> 0+
    alpha tends to the first unit vector.
    """
    if not (u > 0):
        raise ValueError("alpha_coeffs requires u > 0")
    return solve_gram(mom, np.array([eval_r(cov, i, u) for i in range(mom.k + 1)]))


# ---------------------------------------------------------------------------
# rounding floors
#
# A-priori bounds in the sense of Higham 2002 (Accuracy and Stability of
# Numerical Algorithms, section 3.1): a value reached through N chained
# roundings of terms whose magnitudes sum to M is exact to within
# gamma(N) * M, to first order. Counts below are in real roundings; a
# complex product is charged 3 and a complex quotient 6 (they are within
# sqrt(2) gamma_2 and sqrt(2) gamma_4 of exact, Lemma 3.5), a complex sum
# 1, and an exact operation (a negation, a product by i) nothing.

def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) (Lemma 3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def coefficient_roundings(k: int) -> int:
    """Roundings N behind one coefficient of residue_expansion.

    For a group of multiplicity m: c^2 (-1/zg)^m takes 8 + 3(m-1);
    folding each of the 2k + 2 - m other linear factors of Q into the
    series takes 11 (zg/xi, 1 - zg/xi, the product and the add that
    merges the shifted series); the reciprocal series 6 + (m-1)(m+10)/2;
    the scaling 2 pi i (i^p / p!) 8. The largest total over m <= k + 1
    is returned.
    """
    return max(
        22 + 3 * (m - 1) + 11 * (2 * k + 2 - m) + (m - 1) * (m + 10) // 2
        for m in range(1, k + 2)
    )


def derivative_roundings(k: int, j: int) -> int:
    """Roundings N behind one term of r^(j)(t), given its coefficient.

    derivative_terms: (i zeta)^(j-l) and its products with the integer
    factors and the coefficient, at most 3j + 2, then at most j + 1 adds
    merging equal (root, power) keys. eval_r: t^p, zeta t, the
    exponential and the two products, 9; the sum over at most k + 1
    merged terms, k + 1. So N = 4j + k + 13.
    """
    return 4 * j + k + 13


def term_magnitude(cov: CovarianceModel, j: int, u):
    """Sum of the magnitudes of the terms that eval_r(cov, j, u) adds.

    Differentiating coef * t^m * e^{i zeta t} j times gives, for each
    l <= min(j, m), coef * C(j, l) * m!/(m-l)! * (i zeta)^(j-l) *
    t^(m-l) * e^{i zeta t}; this sums their absolute values. Scalar or
    array u, like eval_r.
    """
    u_arr = np.asarray(u, dtype=float)
    au = np.abs(np.atleast_1d(u_arr))
    total = np.zeros(au.shape)
    for coef, root, m in cov.terms:
        decay = np.exp(-root.imag * au)
        for ell in range(min(j, m) + 1):
            size = (abs(coef) * math.comb(j, ell)
                    * (math.factorial(m) // math.factorial(m - ell))
                    * abs(root) ** (j - ell))
            total += size * au ** (m - ell) * decay
    return float(total[0]) if u_arr.ndim == 0 else total


def moment_bounds(mom: SpectralMoments, coefficients: bool = True) -> np.ndarray:
    """Rounding bounds of r^(j)(0) for j = 0..2k, then of the top.

    gamma(N) times the moment's summed term magnitude, with N =
    derivative_roundings(k, j), plus coefficient_roundings(k) when the
    residue coefficients' own rounding counts (coefficients=True). All
    zeros when mom carries no magnitudes.
    """
    k = mom.k
    if not mom.even_magnitudes:
        return np.zeros(2 * k + 2)
    mags = np.append(mom.even_magnitudes, mom.top_magnitude)
    extra = coefficient_roundings(k) if coefficients else 0
    return np.array([gamma(derivative_roundings(k, j) + extra) * m
                     for j, m in enumerate(mags)])


# ---------------------------------------------------------------------------
# quadrature oracle
#
# Both rules are double-exponential (Takahasi and Mori 1974, Publ. RIMS
# 9:721): a change of variable x(s) makes the integrand decay double
# exponentially in s at both ends, so the trapezoid sum with step h
# converges geometrically in 1/h and a fixed s range holds the whole
# integral. Each rule halves h until two halvings in a row change the sum
# by at most the tolerance; one agreement alone can be an accident of
# two coarse sums that both miss the integrand.

#: first trapezoid step of both rules
DE_FIRST_STEP = 0.5

#: halvings of the step tried before NotConverged is raised
DE_HALVINGS = 10

#: most nodes in one Ooura-Mori sum, where the rule stops unconverged:
#: the first step takes about 9.5 |t| max|zeta| nodes, and each halving
#: doubles them
DE_MAX_NODES = 2**17

#: the exp-sinh rule's range |s| <= 4.5, x from e^-71 to e^71
_EXP_SINH_SPAN = 4.5

#: the Ooura-Mori rule's node range: far enough left that the map has
#: decayed below rounding at the finest step, far enough right that the
#: nodes sit on the zeros of the oscillation to rounding
_OSC_LEFT, _OSC_RIGHT = 9.0, 6.0

#: the oracle's stopping tolerance, relative to max(1, r(0)): well inside
#: QUAD_REL_TOL, because the error estimate is the change between
#: halvings and the value returned is one halving finer
QUAD_STOP_TOL = 1e-11


def _density(spec: RootSpec, j: int, x: np.ndarray) -> np.ndarray:
    """x^j / |P(x)|^2 for x >= 0, as a product of bounded factors.

    Each root's factor x^a / |1 - x/zeta|^2 takes a <= 2 of the j powers
    of x (j <= 2k leaves at most two per root), so no partial product
    overflows at the rules' largest nodes.
    """
    out = np.full(x.shape, spec.scale**-2.0)
    left = j
    for zeta in spec.roots:
        a = min(left, 2)
        left -= a
        out *= x**a / np.abs(1.0 - x / zeta) ** 2
    return out


def _exp_sinh_sums(f):
    """Trapezoid sums of integral_0^inf f(x) dx for h = DE_FIRST_STEP, h/2, ...

    x = exp(pi/2 sinh s) over |s| <= _EXP_SINH_SPAN; each halving adds
    the midpoints of the previous grid to its sum.
    """
    h = DE_FIRST_STEP
    n = int(round(_EXP_SINH_SPAN / h))
    s = h * np.arange(-n, n + 1)
    total = 0.0
    while True:
        x = np.exp(0.5 * math.pi * np.sinh(s))
        total += float(np.sum(f(x) * x * np.cosh(s)))
        yield 0.5 * math.pi * h * total
        s = h * (np.arange(-n, n) + 0.5)
        h /= 2.0
        n *= 2


def _ooura_mori_sums(f, omega: float, parity: int, x_scale: float):
    """Sums for integral_0^inf f(x) trig(omega x) dx, trig cos (parity 0)
    or sin (parity 1), for a sequence of halving steps h.

    The rule of Ooura and Mori (1999, J. Comput. Appl. Math. 112:229):
    x = M phi(t) / omega with M = pi / h and

        phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))),

    beta = 1/4, alpha = beta / sqrt(1 + M log(1 + M) / (4 pi)), at the
    nodes t = (n - (1 - parity)/2) h. phi(t) tends to t double
    exponentially as t grows, so M phi(t_n) approaches n pi (sin) or
    (n - 1/2) pi (cos), the zeros of the oscillation, and the terms die
    out although f decays only algebraically. The first step makes
    M / omega at least 2 x_scale, so that the nodes resolve f around
    x_scale (the largest root magnitude) before any two sums are
    compared: from a coarser step every node can sit where the
    oscillation has died out, and two such sums agree near 0. The
    sequence ends before a sum that would take more than DE_MAX_NODES
    nodes.
    """
    h = min(DE_FIRST_STEP, math.pi / (2.0 * omega * x_scale))
    shift = 0.5 * (1 - parity)
    beta = 0.25
    while True:
        m = math.pi / h
        alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
        first = math.floor(-_OSC_LEFT / h + shift)
        last = math.ceil(_OSC_RIGHT / h + shift)
        if last - first + 1 > DE_MAX_NODES:
            return
        n = np.arange(first, last + 1)
        t = (n - shift) * h
        u = -2.0 * t - alpha * (1.0 - np.exp(-t)) - beta * np.expm1(t)
        du = -2.0 - alpha * np.exp(-t) - beta * np.exp(t)
        phi = np.empty_like(t)
        dphi = np.empty_like(t)
        # t < 0: u > 0, and 1 - e^u = e^u expm1(-u) keeps e^u from overflowing
        left = t < 0
        tl, em, e = t[left], np.expm1(-u[left]), np.exp(-u[left])
        phi[left] = tl * e / em
        dphi[left] = e / em * (1.0 + tl * du[left] / em)
        # t > 0: u < 0 and 1 - e^u = -expm1(u)
        right = t > 0
        tr, d, e = t[right], -np.expm1(u[right]), np.exp(u[right])
        phi[right] = tr / d
        dphi[right] = 1.0 / d + tr * du[right] * e / d**2
        # t = 0, a node of the sin rule: the limits of phi and phi'
        zero = t == 0
        a = 2.0 + alpha + beta
        phi[zero] = 1.0 / a
        dphi[zero] = (alpha - beta + a * a) / (2.0 * a * a)
        trig = np.sin(m * phi) if parity else np.cos(m * phi)
        yield math.pi / omega * float(np.sum(trig * f(m * phi / omega) * dphi))
        h /= 2.0


def _quad_semi_infinite(spec: RootSpec, j: int, t: float, epsabs: float,
                        epsrel: float) -> tuple[float, float, bool]:
    """2 * integral_0^inf z^j trig(z |t|) / |P(z)|^2 dz; (value, error, converged).

    trig is 1 at t = 0 (the exp-sinh rule), otherwise cos for even j and
    sin for odd j (the Ooura-Mori rule). The step is halved up to
    DE_HALVINGS times, while the sums stay within DE_MAX_NODES; the
    value is converged once two halvings in a row each change it by at
    most max(epsabs, epsrel |value|), and the error is the last change.
    """
    def f(x):
        return _density(spec, j, x)

    if t == 0.0:
        sums = _exp_sinh_sums(f)
    else:
        x_scale = max(abs(z) for z in spec.roots)
        sums = _ooura_mori_sums(f, abs(float(t)), j % 2, x_scale)
    val, agreed, err = 2.0 * next(sums, math.nan), 0, math.inf
    for total in itertools.islice(sums, DE_HALVINGS):
        prev, val = val, 2.0 * total
        if not math.isfinite(val):
            return val, err, False
        err = abs(val - prev)
        agreed = agreed + 1 if err <= max(epsabs, epsrel * abs(val)) else 0
        if agreed == 2:
            return val, err, True
    return val, err, False


@functools.lru_cache(maxsize=1024)
def _envelope(spec: RootSpec, j: int) -> float:
    """2 * integral_0^inf z^j / |P(z)|^2 dz, an upper envelope for |r^(j)|."""
    val, err, ok = _quad_semi_infinite(spec, j, 0.0, epsabs=0.0, epsrel=1e-12)
    if not np.isfinite(val):
        raise NotConverged(f"envelope integral failed for order {j}")
    if not ok and err > 1e-8 * max(1.0, abs(val)):
        raise NotConverged(
            f"envelope integral for order {j} only reached "
            f"absolute error {err:.2e}"
        )
    return val


def quadrature_r(spec: RootSpec, j: int, t: float) -> float:
    """Independent evaluation of r^(j)(t) straight from the spectral integral.

    Splits the Fourier integral by parity,

        even j:  r^(j)(t) = (-1)^(j/2)   * 2 * int_0^inf z^j cos(zt)/|P|^2 dz
        odd j:   r^(j)(t) = (-1)^((j+1)/2) * 2 * int_0^inf z^j sin(zt)/|P|^2 dz,

    and evaluates the semi-infinite integral with numpy alone by a
    double-exponential rule: exp-sinh for t = 0, the Ooura-Mori rule for
    Fourier-type integrals otherwise (see _quad_semi_infinite). Each rule
    halves its step until two halvings in a row agree within
    QUAD_STOP_TOL * max(1, r(0)), or within 1e-13 of the order-j envelope
    where rounding allows no better. Shares no code with the residue path.

    Raises
    ------
    OrderTooHigh
        If j > 2k (the integral no longer converges absolutely).
    ValueError
        If j < 0 or t is not finite.
    NotConverged
        If the rule does not meet its stopping tolerance within
        DE_HALVINGS halvings and DE_MAX_NODES nodes per sum, which
        leaves QUAD_REL_TOL relative to max(1, r(0)) uncertified. The
        node budget makes every lag |t| beyond DE_MAX_NODES / (9.5
        max|zeta|) raise.
    """
    k = spec.k
    if j > 2 * k:
        raise OrderTooHigh(f"quadrature oracle supports j <= 2k = {2 * k}")
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")

    r0 = _envelope(spec, 0)  # equals r(0): the j = 0 integrand is positive
    target = QUAD_STOP_TOL * max(1.0, r0)
    floor = 1e-13 * max(1.0, _envelope(spec, j))
    epsabs = max(target, floor)

    sign = (-1) ** (j // 2) if j % 2 == 0 else (-1) ** ((j + 1) // 2)
    if t == 0.0:
        if j % 2 == 1:
            return 0.0  # sin(0) kills the integrand identically
        return sign * _envelope(spec, j)

    val, err, ok = _quad_semi_infinite(spec, j, t, epsabs=epsabs, epsrel=0.0)
    if not ok or not np.isfinite(val):
        raise NotConverged(
            f"the double-exponential rule could not reach epsabs "
            f"{epsabs:.2e} for j = {j}, t = {t} in {DE_HALVINGS} step "
            f"halvings of at most {DE_MAX_NODES} nodes (last change "
            f"{err:.2e})"
        )
    out = sign * val
    if t < 0 and j % 2 == 1:
        out = -out
    return out


# ---------------------------------------------------------------------------
# JSON config round trip

def cov_to_config(cov: CovarianceModel) -> dict:
    """Dict form: {"terms": [{"coef": [re, im], "root": [re, im], "power": m}], "k": k}."""
    return {
        "terms": [
            {
                "coef": [coef.real, coef.imag],
                "root": [root.real, root.imag],
                "power": power,
            }
            for coef, root, power in cov.terms
        ],
        "k": cov.k,
    }

