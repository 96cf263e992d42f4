"""Cross-verification suite: closed-form identities and statistical checks.

Each check returns a CheckReport with a scalar statistic and a threshold;
passed means statistic <= threshold. Closed-form identities are held to
1e-8 relative, or to their own rounding floor where that is larger (an
a-priori bound on what double precision resolves, above 1e-8 only for
some k >= 5 models; reported in the detail). Statistical checks use
normal-approximation bands with the deliberately loose constant 4
because suites run many correlated comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    CovarianceModel,
    SpectralMoments,
    _hankel_order,
    alpha_coeffs,
    derivative_roundings,
    eval_r,
    gamma,
    moment_bounds,
    solve_gram,
    term_magnitude,
)
from .errors import CarkovError, NotConverged, PathTooShort
from .markov import ItoSystem, StationaryLaw, build
from .model import RootSpec, ode_char_poly
from .simulate import SamplePath, sample_exact

#: relative tolerance for closed-form identities
CLOSED_FORM_TOL = 1e-8

#: band width for statistical checks, in standard errors
STAT_BAND = 4.0

#: block length, in correlation times, that the empirical covariance
#: check needs 100 of at every lag
BLOCK_CORR_TIMES = 10.0

#: reach of the exact product-mean moment sums past the product lag, in
#: correlation times; the terms it leaves out are about e^-40 relative
ISSERLIS_CORR_TIMES = 20.0

#: check_markov_factorization's u and v grid and check_ode_annihilation's
#: t grid, in correlation times
FACTORIZATION_GRID = (0.25, 0.5, 1.0, 2.0)
ANNIHILATION_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)

#: elements per slice of the product sums and lag grids: the checks'
#: temporaries stay at one slice whatever the path length
SUM_SLICE = 1 << 14

#: lags per slice at which product_mean_laws evaluates r: eval_r forms
#: about five complex temporaries per lag, about 160 KB a slice, and it
#: works lag by lag, so the slice size does not change r's bits
R_SLICE = 1 << 11

#: check_innovations' gaps in correlation times; Durbin-Levinson's order
#: cap, settling tolerance and least error variance over r(0), below which
#: its rounding inflates the whitened variance; Ljung-Box lags; fewest z
INNOVATION_GAPS = (0.2, 0.5, 1.0, 2.0)
LEVINSON_MAX_ORDER = 400
LEVINSON_SETTLE_TOL = 1e-10
LEVINSON_MIN_VARIANCE = 1e-5
LJUNG_BOX_LAGS = 10
INNOVATION_MIN = 500


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check; passed if and only if statistic <= threshold."""

    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str


def _report(name: str, statistic: float, threshold: float, detail: str) -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(statistic <= threshold),
        statistic=float(statistic),
        threshold=float(threshold),
        detail=detail,
    )


# ---------------------------------------------------------------------------
# closed-form checks

def check_markov_factorization(
    cov: CovarianceModel, mom: SpectralMoments
) -> CheckReport:
    """Residual of r(u+v) = sum_j alpha_j(u) r^(j)(v) over u, v in
    FACTORIZATION_GRID correlation times.

    The interpolation coefficients alpha are solved from the moments, so
    passing a moments object that does not belong to cov (or a tampered
    term list) makes the residual jump far above the threshold.
    """
    grid = cov.tau * np.array(FACTORIZATION_GRID)
    r0 = eval_r(cov, 0, 0.0)
    worst = 0.0
    for u in grid:
        alpha = alpha_coeffs(mom, cov, float(u))
        lhs = eval_r(cov, 0, u + grid)
        rhs = np.zeros_like(grid)
        for j in range(mom.k + 1):
            rhs += alpha[j] * eval_r(cov, j, grid)
        worst = max(worst, float(np.abs(lhs - rhs).max()) / abs(r0))
    return _report(
        "markov_factorization",
        worst,
        CLOSED_FORM_TOL,
        f"max |r(u+v) - sum_j alpha_j(u) r^(j)(v)| / r(0) = {worst:.3e} "
        f"over a {grid.size}x{grid.size} grid",
    )


def check_ode_annihilation(spec: RootSpec, cov: CovarianceModel) -> CheckReport:
    """chi(d/dt) applied to the covariance must vanish at t in
    ANNIHILATION_GRID correlation times, with chi the characteristic
    polynomial of spec. A cov whose roots are not spec's leaves a residual
    far above the threshold.

    chi(D) annihilates each term t^p e^{i zeta t} whatever its
    coefficient, so the residue coefficients' own rounding cancels; the
    rounding floor is max over t of sum_j (gamma(N) |b_j| + db_j) *
    term_magnitude(cov, j, t) / r(0), with N = derivative_roundings(k,
    deg chi) + deg chi + 2 (the products b_j r^(j) and their sum) and db_j
    chi's own bound (_char_poly_error).
    """
    t_grid = cov.tau * np.array(ANNIHILATION_GRID)
    r0 = eval_r(cov, 0, 0.0)
    coefs = np.asarray(ode_char_poly(spec).coefficients)
    deg = coefs.size - 1
    sizes = (gamma(derivative_roundings(cov.k, deg) + deg + 2) * np.abs(coefs)
             + _char_poly_error([abs(z) for z in spec.roots]))
    total = np.zeros_like(t_grid)
    bound = np.zeros_like(t_grid)
    for j, b in enumerate(coefs):
        total += b * eval_r(cov, j, t_grid)
        bound += sizes[j] * term_magnitude(cov, j, t_grid)
    worst = float(np.abs(total).max()) / abs(r0)
    floor = float(bound.max()) / abs(r0)
    return _report(
        "ode_annihilation",
        worst,
        max(CLOSED_FORM_TOL, floor),
        f"max |chi(D) r(t)| / r(0) = {worst:.3e} on {t_grid.size} points; "
        f"rounding floor {floor:.3e}",
    )


def check_lyapunov(system: ItoSystem, law: StationaryLaw) -> CheckReport:
    """Continuous-time Lyapunov equation of the stationary covariance.

    A and b^2 come from the roots and Sigma from the residue moments the
    system carries (_moments_of): R = A Sigma + Sigma A' + b^2 e_k e_k'
    is zero only if the two routes agree. The exact inputs give R = 0, so
    the rounding floor ||E||_F / ||Sigma||_F takes E, a first-order bound
    on |R|, as the sum of: gamma(k + 3) (S + S' + b^2 e_k e_k'), S =
    |A||Sigma|, for R's own evaluation (k + 1 roundings per inner
    product, two adds); |A| dSigma + dSigma |A|' for Sigma, dSigma the
    even-order moment_bounds (the odd-order entries are exactly zero);
    e_k dchi'|Sigma| and its transpose for A, whose row k is off by chi's
    bound dchi (_char_poly_error, on the moduli of A's eigenvalues, which
    are i zeta_j to rounding); gamma(3(k+1) + 7) b^2 e_k e_k' for b^2
    (as in check_diffusion_identity).
    """
    A = system.companion
    sigma = law.covariance
    k = system.k
    forcing = np.zeros_like(A)
    forcing[k, k] = system.diffusion**2
    resid = A @ sigma + sigma @ A.T + forcing
    norm = np.linalg.norm(sigma, "fro")
    worst = float(np.linalg.norm(resid, "fro") / norm)
    order = _hankel_order(k)[:, : k + 1]
    d_sigma = np.where(order % 2 == 1, 0.0,
                       moment_bounds(_moments_of(system))[order])
    size = np.abs(A) @ np.abs(sigma)
    spread = np.abs(A) @ d_sigma
    bound = (gamma(k + 3) * (size + size.T + forcing) + spread + spread.T
             + gamma(3 * (k + 1) + 7) * forcing)
    drift_error = (_char_poly_error(np.abs(np.linalg.eigvals(A)))[: k + 1]
                   @ np.abs(sigma))
    bound[k] += drift_error
    bound[:, k] += drift_error
    floor = float(np.linalg.norm(bound, "fro") / norm)
    return _report(
        "lyapunov_residual",
        worst,
        max(CLOSED_FORM_TOL, floor),
        f"||A Sigma + Sigma A' + b^2 e_k e_k'||_F / ||Sigma||_F = {worst:.3e}; "
        f"rounding floor {floor:.3e}",
    )


def moment_drift(system: ItoSystem) -> tuple[np.ndarray, float]:
    """Drift row of the residue route, solved from the moments system
    carries (SpectralMoments.hankel, odd moments as their terms sum to),
    and its largest absolute gap to system.drift: for an assembled
    system, the one place the drift is compared with chi."""
    mom = _moments_of(system)
    drift = solve_gram(mom, mom.hankel[:, -1])
    return drift, float(np.abs(system.drift - drift).max())


def check_characteristic(system: ItoSystem, spec: RootSpec) -> CheckReport:
    """Drift row -chi of the system vs the one solved from its moments
    (moment_drift), relative to max(1, max |a_j|).

    The computed moments are those of the residue terms with their
    rounded coefficients, up to the roundings of the sums that evaluate
    them. chi(D) annihilates that term list too, so the solved drift is
    exactly -chi, and only the evaluation counts (moment_bounds with
    coefficients=False). The rounding floor is
    max_j (da_j + dchi_j) / scale: Skeel's bound da = |G^-1| (|dG| |a| +
    |drhs|) (Higham 2002, section 7.2) on the drift solve, with the
    solve's backward error gamma(3(k+1)) |G| (Theorem 9.4, |L||U| taken
    as |G|) added to dG, and dchi the root expansion's bound
    (_char_poly_error).
    """
    k = spec.k
    scale = max(1.0, float(np.abs(system.drift).max()))
    solved, gap = moment_drift(system)
    worst = gap / scale
    mom = _moments_of(system)
    bounds = moment_bounds(mom, coefficients=False)[_hankel_order(k)]
    gram = mom.hankel[:, : k + 1]
    d_gram = bounds[:, : k + 1] + gamma(3 * (k + 1)) * np.abs(gram)
    d_drift = np.abs(np.linalg.inv(gram)) @ (
        d_gram @ np.abs(solved) + bounds[:, k + 1]
    )
    d_chi = _char_poly_error([abs(z) for z in spec.roots])[: k + 1]
    floor = float((d_drift + d_chi).max()) / scale
    return _report(
        "characteristic_consistency",
        worst,
        max(CLOSED_FORM_TOL, floor),
        f"max |a_j (moments) - a_j (root expansion)| = {worst:.3e} relative; "
        f"rounding floor {floor:.3e}",
    )


def check_diffusion_identity(system: ItoSystem, spec: RootSpec) -> CheckReport:
    """b^2 = 2 pi prod |zeta_j|^2 / scale^2 of the system vs the moment
    route's -2 (-1)^k r^(2k+1)(0+), the jump of the covariance's
    2k+1-st derivative at the origin, from the moments the system carries.

    The rounding floor is (2 dtop + gamma(3(k+1) + 7) b^2) / b^2, with
    dtop the top's bound (moment_bounds): 3(k+1) + 4 roundings for the
    product (|zeta|, its square and the product per root; 2 pi, the
    scale's square and two more products), and 3 for b = sqrt(b^2)
    squared again.
    """
    k = spec.k
    got = system.diffusion**2
    mom = _moments_of(system)
    moment_b2 = -2.0 * (-1.0) ** k * mom.top_plus
    worst = abs(got - moment_b2) / got
    floor = (2.0 * moment_bounds(mom)[-1] + gamma(3 * (k + 1) + 7) * got) / got
    return _report(
        "diffusion_scale_identity",
        float(worst),
        max(CLOSED_FORM_TOL, floor),
        f"b^2 = {got:.12g} vs moment route {moment_b2:.12g}; "
        f"rounding floor {floor:.3e}",
    )


def _moments_of(system: ItoSystem) -> SpectralMoments:
    """The residue moments system carries, which the closed-form checks
    compare it with; CarkovError if it has none."""
    if system.moments is None:
        raise CarkovError("the closed-form checks need the moments of a "
                          "system from assemble; this ItoSystem has none")
    return system.moments


def _char_poly_error(moduli) -> np.ndarray:
    """Rounding bound of each ode_char_poly coefficient, lowest order first,
    from the moduli |zeta_j| of the roots.

    The expansion folds in one root per stage with a complex product and
    an add (4 roundings), so coefficient j is within gamma(4(k+1)) times
    the same coefficient of the expansion on magnitudes,
    prod_j (lam + |zeta_j|).
    """
    sizes = np.array([1.0])
    for m in moduli:
        sizes = np.convolve(sizes, np.array([1.0, m]))
    return gamma(4 * len(moduli)) * sizes[::-1]


# ---------------------------------------------------------------------------
# statistical checks

def _sliced_dot(a, b) -> float:
    """sum(a * b) over SUM_SLICE-element slices, added in order.

    The temporary is one slice, and the sum does not depend on the BLAS
    thread count, as a BLAS dot product's does in its last digits on
    vectors of 1e6 elements.
    """
    total = 0.0
    for lo in range(0, a.size, SUM_SLICE):
        total += float((a[lo:lo + SUM_SLICE] * b[lo:lo + SUM_SLICE]).sum())
    return total


def _lagged_dots(y, idxs) -> list[float]:
    """_sliced_dot(y[:n - idx], y[idx:]) for each idx, bit for bit.

    One window of SUM_SLICE + max(idxs) samples of y is copied per slice
    and every lag's products are taken from it, so a strided y, such as
    the row Y of a time-major path, is read about once rather than twice
    per lag.
    """
    n = y.size
    window = np.empty(min(n, SUM_SLICE + max(idxs)))
    totals = [0.0] * len(idxs)
    for lo in range(0, n - min(idxs), SUM_SLICE):
        span = min(window.size, n - lo)
        window[:span] = y[lo:lo + span]
        for i, idx in enumerate(idxs):
            width = min(SUM_SLICE, n - idx - lo)
            if width > 0:
                totals[i] += float((window[:width]
                                    * window[idx:idx + width]).sum())
    return totals


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length that pocketfft transforms
    about as fast as a power of two, and up to half as long as the next
    one, which halves the FFT's buffers."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def product_mean_laws(cov: CovarianceModel, dt: float, idxs,
                      ms) -> list[tuple[float, float]]:
    """(standard error, skewness) of the mean of ms[i] products
    y_j y_{j+idxs[i]}, for each i.

    Y is stationary Gaussian, sampled every dt, with covariance r; lags
    are in steps. By Isserlis' theorem the variance of the mean of m
    products at lag idx is sum_{|s|<m} (m - |s|)/m^2 [r(s)^2 + r(s + idx)
    r(s - idx)], and its third cumulant is, up to O(lag reach / m),
    [6 F(idx) + 2 F(3 idx)] / m^2 with F(d) = sum_{u,v} r(u) r(v)
    r(u + v + d), the eight cyclic pairings of three products. Past
    |s| = idx every term falls like e^{-2 |s| dt / tau}, so each lag's
    variance sum stops ISSERLIS_CORR_TIMES correlation times later, at
    s_max, and its terms reach r(s_max + idx).

    r is formed once, to the largest of these reaches R, and so is its
    FFT autoconvolution, from which F comes at every lag; the sums of F
    run over |u|, |v| <= R. F(d) reads the autoconvolution at lags up to
    R + d, which a circular transform of length N > 3 R + 3 max(idxs)
    gives without wrapping, for 2 R + 1 samples of r. r is evaluated
    R_SLICE lags at a time and the variance terms are formed SUM_SLICE
    lags at a time, the spectrum is squared in place and every sum is
    added in a fixed order (_sliced_dot), so the temporaries besides r
    and the FFT stay at one slice and the results do not depend on the
    BLAS thread count.
    """
    tail = math.ceil(ISSERLIS_CORR_TIMES * cov.tau / dt)
    s_maxes = [min(m - 1, idx + tail) for idx, m in zip(idxs, ms)]
    reach = max(s_max + idx for s_max, idx in zip(s_maxes, idxs))
    r = np.empty(reach + 1)
    for lo in range(0, reach + 1, R_SLICE):
        hi = min(lo + R_SLICE, reach + 1)
        r[lo:hi] = eval_r(cov, 0, dt * np.arange(lo, hi))
    ses = []
    for idx, m, s_max in zip(idxs, ms, s_maxes):
        var = 0.0
        for lo in range(0, s_max + 1, SUM_SLICE):
            hi = min(lo + SUM_SLICE, s_max + 1)
            s = np.arange(lo, hi)
            terms = r[lo:hi] ** 2 + r[lo + idx:hi + idx] * r[np.abs(s - idx)]
            weights = (m - s) / m**2
            weights[s > 0] *= 2.0
            var += _sliced_dot(weights, terms)
        ses.append(math.sqrt(max(var, 0.0)))
    if not any(ses):
        return [(0.0, 0.0)] * len(ses)

    two_sided = np.concatenate([r[:0:-1], r])  # r(u), u = -reach..reach
    del r
    n = _fft_length(3 * reach + 3 * max(idxs) + 1)
    spectrum = np.fft.rfft(two_sided, n)
    spectrum *= spectrum
    # conv[j] = sum_v r(v) r(j - 2 reach - v), the lag j - 2 reach
    conv = np.fft.irfft(spectrum, n)
    del spectrum

    def f(d):
        top = min(reach, 2 * reach - d)  # u + d stays within the lags of conv
        if top < -reach:
            return 0.0
        return _sliced_dot(two_sided[:top + reach + 1],
                           conv[reach + d:top + d + 2 * reach + 1])

    return [(se, (6.0 * f(idx) + 2.0 * f(3 * idx)) / m**2 / se**3)
            if se > 0 else (0.0, 0.0) for idx, m, se in zip(idxs, ms, ses)]


def normal_score(x: float, skew: float) -> float:
    """Normal score of a standardised statistic x whose law has the given
    skewness.

    The law is matched by a standardised gamma law of that skewness and
    mapped to the normal by the Wilson-Hilferty cube root. To first order
    in the skewness this is the Cornish-Fisher correction
    x - skew (x^2 - 1) / 6, but it increases with x everywhere, so no
    large error maps back into the band.
    """
    if abs(skew) < 1e-6:
        return x
    sign = 1.0 if skew > 0 else -1.0
    g = abs(skew)
    root = float(np.cbrt(1.0 + 0.5 * g * sign * x))
    return sign * (6.0 / g * (root - 1.0) + g / 6.0)


def check_empirical_covariance(
    path: SamplePath, cov: CovarianceModel, lags=None
) -> CheckReport:
    """Empirical autocovariance of Y against the closed form.

    lags are a non-empty 1-d array in time units, finite and >= 0, and
    must sit on the path grid. Each lagged product mean is standardised
    by the model's exact standard error and mapped to a normal score
    through its exact skewness (product_mean_laws, normal_score); both
    are reported in the detail.
    The laws of every lag come from one r and one autoconvolution, at the
    largest lag's reach. The path must still fill 100 blocks of ten
    correlation times at every lag, so the mean is close to its normal
    approximation. Every lag's products are summed SUM_SLICE at a time
    from one copied window of the strided row Y of the time-major path
    per slice (_lagged_dots), so Y is read about once and the check's
    temporaries do not grow with the path length.
    """
    tau = cov.tau
    if lags is None:
        lags = tau * np.array([0.0, 0.5, 1.0, 2.0])
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0 \
            or not (np.isfinite(lags) & (lags >= 0)).all():
        raise ValueError("lags must be a non-empty 1-d array of finite "
                         f"values >= 0, got {lags}")
    y = path.values[0]
    n = y.size
    dt = path.dt
    block_len = int(round(BLOCK_CORR_TIMES * tau / dt))
    idxs = []
    for lag in lags:
        idx = int(round(lag / dt))
        if abs(idx * dt - lag) > 1e-9 * max(dt, lag):
            raise ValueError(f"lag {lag} is not on the dt = {dt} grid")
        m = n - idx
        if m < 2 or (m // max(block_len, 1)) < 100:
            raise PathTooShort(
                f"lag {lag}: {max(m, 0)} products cannot fill 100 blocks "
                f"of {block_len} samples"
            )
        idxs.append(idx)
    laws = product_mean_laws(cov, dt, idxs, [n - idx for idx in idxs])
    details = []
    worst = 0.0
    dots = _lagged_dots(y, idxs)
    for lag, idx, (se, skew), dot in zip(lags, idxs, laws, dots):
        rhat = dot / (n - idx)
        target = eval_r(cov, 0, float(lag))
        z = abs(normal_score((rhat - target) / se, skew)) if se > 0 else np.inf
        worst = max(worst, z)
        details.append(f"lag {lag:.4g}: rhat = {rhat:.6g}, r = {target:.6g}, "
                       f"se = {se:.3g}, skew = {skew:.3g}, |z| = {z:.2f}")
    return _report(
        "empirical_covariance",
        worst,
        STAT_BAND,
        "; ".join(details),
    )


def _levinson(r: np.ndarray):
    """(coefficients, error variance) of Durbin-Levinson on autocovariances r
    (Brockwell and Davis 1991, section 5.2) at the first order that settled
    (LEVINSON_SETTLE_TOL twice running), is not positive or is r.size - 1."""
    phi, var, settled = np.zeros(0), float(r[0]), 0
    while settled < 2 and var > 0 and phi.size < r.size - 1:
        p = phi.size + 1
        kappa = (r[p] - _sliced_dot(phi, r[p - 1:0:-1])) / var
        phi = np.append(phi - kappa * phi[::-1], kappa)
        new = var * (1.0 - kappa * kappa)
        settled = settled + 1 if abs(var - new) <= LEVINSON_SETTLE_TOL * var else 0
        var = new
    return phi, var


def check_innovations(path: SamplePath, cov: CovarianceModel) -> CheckReport:
    """Whitened one-step prediction errors z of Y against iid N(0, 1): the
    largest of |mean z| sqrt(n), |mean z^2 - 1| / sqrt(2/n) and the
    Wilson-Hilferty score of the Ljung-Box Q (Ljung and Box 1978). Y is
    read at the first of INNOVATION_GAPS where _levinson settles on r alone
    (no A, b or Sigma: an exact path meets a second route) before
    LEVINSON_MAX_ORDER at LEVINSON_MIN_VARIANCE r(0) or more. An r that is
    not positive definite (a perturbed r can be) FAILs; no qualifying gap
    otherwise is NotConverged. Sums are sliced (_sliced_dot), so no bit
    depends on the BLAS thread count."""
    tau = cov.tau
    tried, definite = [], False
    for frac in INNOVATION_GAPS:
        stride = max(1, int(round(frac * tau / path.dt)))
        gap = stride * path.dt
        r = eval_r(cov, 0, gap * np.arange(LEVINSON_MAX_ORDER + 1))
        phi, var = _levinson(r)
        if (var >= LEVINSON_MIN_VARIANCE * r[0] > 0
                and phi.size < LEVINSON_MAX_ORDER):
            break
        definite = definite or var > 0
        tried.append(f"{gap / tau:.4g} tau: order {phi.size}, variance {var:.3g}")
    else:
        tried = f"r(0) = {r[0]:.3g}; " + "; ".join(tried)
        if definite:
            raise NotConverged(f"Durbin-Levinson on r qualified at no gap ({tried})")
        return _report("whitened_innovations", math.inf, STAT_BAND,
                       f"r is not positive definite at any gap ({tried})")
    y = path.values[0, ::stride].copy()
    p, n = phi.size, y.size - phi.size
    if n < INNOVATION_MIN:
        raise PathTooShort(f"{max(n, 0)} innovations, fewer than {INNOVATION_MIN}")
    z = y[p:] - sum(c * y[p - j:y.size - j] for j, c in enumerate(phi, 1))
    z /= math.sqrt(var)
    power = _sliced_dot(z, z)
    h = LJUNG_BOX_LAGS
    q = n * (n + 2) * sum((dot / power) ** 2 / (n - lag) for lag, dot in
                          enumerate(_lagged_dots(z, list(range(1, h + 1))), 1))
    scores = (abs(_sliced_dot(z, np.ones(n))) / math.sqrt(n),
              abs(power / n - 1) / math.sqrt(2 / n),
              ((q / h) ** (1 / 3) - 1 + 2 / (9 * h)) / math.sqrt(2 / (9 * h)))
    return _report("whitened_innovations", max(scores), STAT_BAND,
                   f"gap {gap / tau:.4g} tau, order {p}, n = {n}: |mean z| "
                   f"sqrt(n) = {scores[0]:.2f}, |mean z^2 - 1| / sqrt(2/n) = "
                   f"{scores[1]:.2f}, Ljung-Box({h}) Q = {q:.2f}, normal score "
                   f"{scores[2]:.2f}")


# ---------------------------------------------------------------------------
# suite driver

#: budget profiles: path span and grid in correlation-time units
_PROFILES = {
    "fast": {"span": 1200.0, "steps_per_tau": 50},
    "full": {"span": 10000.0, "steps_per_tau": 100},
}


def run_suite(spec: RootSpec, budget: str = "fast", seed: int = 0,
              perturb_coef: float = 0.0) -> list[CheckReport]:
    """Run the five closed-form checks and two on one exact path.

    budget is "fast" or "full" and scales the statistical effort. All
    randomness derives from seed. A bad budget or a non-finite
    perturb_coef raises ValueError. perturb_coef != 0 multiplies the first
    covariance term coefficient by (1 + perturb_coef) AFTER the system is
    assembled: a documented negative control that must trip the
    closed-form checks. The path is drawn on stream 0 of seed.
    """
    if budget not in _PROFILES:
        raise ValueError(f"budget must be one of {sorted(_PROFILES)}")
    if not math.isfinite(perturb_coef):
        raise ValueError(f"perturb_coef must be finite, got {perturb_coef}")
    prof = _PROFILES[budget]
    cov, system, law = build(spec)
    mom, tau = system.moments, cov.tau
    if perturb_coef != 0.0:
        first = cov.terms[0]
        cov = CovarianceModel(
            terms=((first[0] * (1.0 + perturb_coef), first[1], first[2]),)
            + cov.terms[1:],
            k=cov.k,
        )

    reports = [
        check_markov_factorization(cov, mom),
        check_ode_annihilation(spec, cov),
        check_lyapunov(system, law),
        check_characteristic(system, spec),
        check_diffusion_identity(system, spec),
    ]

    dt = tau / prof["steps_per_tau"]
    n_steps = int(round(prof["span"] * tau / dt))
    path = sample_exact(system, law, dt, n_steps, seed, stream=0)
    return reports + [check_empirical_covariance(path, cov),
                      check_innovations(path, cov)]
