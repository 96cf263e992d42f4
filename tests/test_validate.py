"""Cross-verification suite: each check must pass on honest input and
trip on the documented negative control."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from carkov import assemble, eval_r, moments, residue_expansion, sample_exact
from carkov import markov, model, simulate, validate
from carkov.covariance import CovarianceModel
from carkov.errors import CarkovError, NotConverged, PathTooShort
from carkov.simulate import exact_step_operator
from carkov.validate import (
    CLOSED_FORM_TOL,
    LJUNG_BOX_LAGS,
    STAT_BAND,
    _fft_length,
    _levinson,
    check_characteristic,
    check_diffusion_identity,
    check_empirical_covariance,
    check_innovations,
    check_lyapunov,
    check_markov_factorization,
    check_ode_annihilation,
    normal_score,
    product_mean_laws,
    run_suite,
)
from conftest import make_random_spec
from stat_helpers import block_standard_error, check_partial_correlation

ROOT = Path(__file__).resolve().parent.parent


def _perturbed(cov, eps=1e-3):
    first = cov.terms[0]
    return CovarianceModel(
        terms=((first[0] * (1 + eps), first[1], first[2]),) + cov.terms[1:],
        k=cov.k,
    )


class TestFactorization:
    def test_passes(self, spec_k2):
        cov = residue_expansion(spec_k2)
        rep = check_markov_factorization(cov, moments(cov))
        assert rep.passed, rep.detail
        assert rep.statistic <= 1e-9

    def test_detects_tampered_covariance(self, spec_k2):
        # moments stay those of the true model; the covariance is bent
        # out of the annihilated span, so the factorization must break
        cov = residue_expansion(spec_k2)
        rep = check_markov_factorization(_perturbed(cov), moments(cov))
        assert not rep.passed
        assert rep.statistic > 100 * rep.threshold


class TestAnnihilation:
    def test_passes(self, spec_k2):
        rep = check_ode_annihilation(spec_k2, residue_expansion(spec_k2))
        assert rep.passed, rep.detail

    def test_detects_wrong_polynomial(self, spec_k1_repeated):
        # the covariance of the roots {1i, 1i} under the characteristic
        # polynomial of {1.05i, 1i}
        cov = residue_expansion(spec_k1_repeated)
        wrong = model.validate([1.05j, 1j], 1.0)
        rep = check_ode_annihilation(wrong, cov)
        assert not rep.passed

    def test_detects_tampered_covariance_terms(self, spec_k1_pair):
        # a term pulled off the residue values leaves the annihilated
        # span only if its root leaves the characteristic set; bending a
        # coefficient keeps chi(D) r = 0, so bend a root instead
        cov = residue_expansion(spec_k1_pair)
        coef, root, power = cov.terms[0]
        bent = CovarianceModel(
            terms=((coef, root * 1.001, power),) + cov.terms[1:], k=cov.k
        )
        rep = check_ode_annihilation(spec_k1_pair, bent)
        assert not rep.passed


class TestClosedFormChecks:
    def test_all_pass_on_random_specs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = make_random_spec(rng)
            system, law = assemble(spec)
            for rep in (
                check_lyapunov(system, law),
                check_characteristic(system, spec),
                check_diffusion_identity(system, spec),
            ):
                assert rep.passed, f"{rep.name}: {rep.detail}"

    @pytest.mark.parametrize("pair, axis, scale", [
        # perfbench high_k seed 15, closed-form model 17 (k = 10): with
        # its odd moments below 1e-10 r(0) set to zero,
        # markov_factorization read 2.1e-8; with them kept, 2.8e-10
        ((0.8928612419391245, 2.5393187413090375),
         (2.7544107337886787, 1.2212408609565208, 1.468627411742272,
          1.855912718830304, 1.5845256672460188, 0.7929920625737734,
          2.0998620220687223, 1.9597796391976081, 0.2969190703487713),
         1.7658341478899584),
        # high_k seed 7004, model 15 (k = 10): 1.2e-8 zeroed, 3.5e-10 kept
        ((0.9807097742672607, 0.6679411953725454),
         (1.2993850596152132, 2.5775222203439303, 2.51440496378477,
          0.757392399152832, 0.35377224929614626, 1.5346509763463505,
          2.8614011541203768, 2.4456570743771127, 1.9791504160680393),
         0.8325611469031529),
    ], ids=["high_k-seed15-model17", "high_k-seed7004-model15"])
    def test_high_k_models_pass_with_their_odd_moments(self, pair, axis, scale):
        rho, sigma = pair
        spec = model.validate(
            [complex(rho, sigma), complex(-rho, sigma)]
            + [complex(0.0, im) for im in axis],
            scale,
        )
        cov = residue_expansion(spec)
        reports = [check_markov_factorization(cov, moments(cov))]
        for rep in reports + _identity_checks(spec):
            assert rep.passed, f"{rep.name}: {rep.detail}"


def _identity_checks(spec):
    cov = residue_expansion(spec)
    system, law = assemble(spec)
    return [
        check_ode_annihilation(spec, cov),
        check_lyapunov(system, law),
        check_characteristic(system, spec),
        check_diffusion_identity(system, spec),
    ]


class TestRoundingFloors:
    def test_population_has_no_false_fail(self):
        # 60 random models per k = 1..10. The moment route loses up to
        # ~1e-7 relative at k >= 8, above CLOSED_FORM_TOL; the checks
        # judge it against their own rounding floor there, and stay at
        # exactly CLOSED_FORM_TOL for k <= 3
        rng = np.random.default_rng(2026)
        for k in range(1, 11):
            for _ in range(60):
                spec = make_random_spec(rng, k)
                for rep in _identity_checks(spec):
                    assert rep.passed, f"k = {k}, {rep.name}: {rep.detail}"
                    assert "rounding floor" in rep.detail
                    if k <= 3:
                        assert rep.threshold == CLOSED_FORM_TOL

    @pytest.mark.parametrize("k", [8, 10])
    def test_controls_still_fail_at_high_k(self, k):
        rng = np.random.default_rng(700 + k)
        for _ in range(5):
            spec = make_random_spec(rng, k)
            cov = residue_expansion(spec)
            system, law = assemble(spec)
            coef, root, power = cov.terms[0]
            bent = CovarianceModel(
                terms=((coef, root * 1.001, power),) + cov.terms[1:], k=k
            )
            rep = check_ode_annihilation(spec, bent)
            assert not rep.passed, rep.detail
            drift = system.drift.copy()
            drift[np.argmax(np.abs(drift))] *= 1 + 1e-4
            tampered = dataclasses.replace(system, drift=drift)
            for rep in (check_characteristic(tampered, spec),
                        check_lyapunov(tampered, law)):
                assert not rep.passed, rep.detail
            tampered = dataclasses.replace(
                system, diffusion=system.diffusion * (1 + 1e-4))
            for rep in (check_diffusion_identity(tampered, spec),
                        check_lyapunov(tampered, law)):
                assert not rep.passed, rep.detail

    @pytest.mark.parametrize("check", ["lyapunov", "characteristic",
                                       "diffusion_identity"])
    def test_checks_refuse_systems_without_moments(self, spec_k2, check):
        system, law = assemble(spec_k2)
        bare = dataclasses.replace(system, moments=None)
        second = law if check == "lyapunov" else spec_k2
        with pytest.raises(CarkovError, match="assemble"):
            getattr(validate, f"check_{check}")(bare, second)


class TestBlockStandardError:
    def test_iid_limit(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200_000)
        se = block_standard_error(x, block_len=1)
        assert se == pytest.approx(1.0 / math.sqrt(x.size), rel=0.02)

    def test_blocks_capture_correlation(self):
        # an AR(1) with phi = 0.9 has var(mean) ~ (1+phi)/(1-phi) x iid
        rng = np.random.default_rng(6)
        n, phi = 400_000, 0.9
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n) * math.sqrt(1 - phi**2)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        naive = x.std() / math.sqrt(n)
        blocked = block_standard_error(x, block_len=200)
        inflation = (1 + phi) / (1 - phi)
        assert blocked / naive == pytest.approx(math.sqrt(inflation), rel=0.2)

    def test_too_short(self):
        with pytest.raises(PathTooShort):
            block_standard_error(np.ones(10), block_len=10)


class TestEmpiricalCovariance:
    def test_passes_on_exact_path(self, spec_k1_repeated):
        system, law = assemble(spec_k1_repeated)
        cov = residue_expansion(spec_k1_repeated)
        path = sample_exact(system, law, 0.02, 60_000, seed=3)
        rep = check_empirical_covariance(path, cov)
        assert rep.passed, rep.detail

    def test_detects_wrong_model(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.02, 60_000, seed=3)
        other = residue_expansion(model.validate([2j], 1.0))
        rep = check_empirical_covariance(path, other, lags=[0.0, 0.5, 1.0])
        assert not rep.passed

    def test_path_too_short(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.02, 500, seed=3)
        cov = residue_expansion(spec_k0)
        with pytest.raises(PathTooShort):
            check_empirical_covariance(path, cov)

    def test_time_major_path_reads_like_a_contiguous_one(self, spec_k1_repeated):
        # a sampled path is time-major, so the check sums the strided row
        # Y; a C-ordered copy of the values gives the same statistic and
        # detail, also when a lag (340 tau = 17,000 steps) is longer than
        # one SUM_SLICE
        assert 340.0 / 0.02 > validate.SUM_SLICE
        system, law = assemble(spec_k1_repeated)
        cov = residue_expansion(spec_k1_repeated)
        for n, lags in ((60_000, None), (70_000, [0.0, 1.0, 340.0])):
            path = sample_exact(system, law, 0.02, n, seed=4)
            assert not path.values[0].flags.c_contiguous
            copy = dataclasses.replace(
                path, values=np.ascontiguousarray(path.values))
            strided = check_empirical_covariance(path, cov, lags)
            contiguous = check_empirical_covariance(copy, cov, lags)
            assert strided.statistic == contiguous.statistic
            assert strided.detail == contiguous.detail

    def test_lagged_products_are_each_lags_sliced_sum(self):
        # the products of every lag come from one window of Y per slice,
        # with the bits of summing each lag on its own, also for lags
        # longer than a slice and a path that ends mid-slice
        n = 3 * validate.SUM_SLICE + 5
        y = np.random.default_rng(13).standard_normal((n, 3))[:, 0]
        idxs = [0, 7, validate.SUM_SLICE + 3, 2 * validate.SUM_SLICE + 1]
        dots = validate._lagged_dots(y, idxs)
        assert dots == [validate._sliced_dot(y[:n - idx], y[idx:])
                        for idx in idxs]

    def test_memory_does_not_grow_with_the_path(self):
        # each lag's products are summed a slice at a time, and the
        # standard error's lag sums and FFT are sized by the grid and the
        # lags, not by the path: the same fixed bound holds at 1e6 and
        # 4e6 samples (the products alone would be 8 and 32 MB)
        spec = model.load_model(ROOT / "configs" / "k2.json")
        system, law = assemble(spec)
        cov = residue_expansion(spec)
        tau = 1.0 / min(z.imag for z in spec.roots)
        for n in (1_000_000, 4_000_000):
            path = sample_exact(system, law, tau / 998, n - 1, seed=1)
            path = dataclasses.replace(path, values=path.values[:1].copy())
            tracemalloc.start()
            try:
                rep = check_empirical_covariance(path, cov)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.passed, rep.detail
            assert peak <= 3 << 20, f"n = {n}: peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("dt, m", [(0.1, 400), (0.02, 60_000)])
    def test_standard_error_is_the_isserlis_sum(self, spec_k2, dt, m):
        # the full double sum over every pair of products, against the
        # sum cut ISSERLIS_CORR_TIMES correlation times past the lag
        cov = residue_expansion(spec_k2)
        for idx in (0, 3, 25):
            r = eval_r(cov, 0, dt * np.arange(m + idx + 1))
            s = np.arange(-(m - 1), m)
            var = ((m - np.abs(s)) / m**2
                   * (r[np.abs(s)] ** 2 + r[np.abs(s + idx)] * r[np.abs(s - idx)])
                   ).sum()
            assert product_mean_laws(cov, dt, [idx], [m])[0][0] == pytest.approx(
                math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("idx", [0, 4, 15])
    def test_skewness_is_the_cyclic_sum(self, spec_k2, idx):
        # the third cumulant of the product mean: the eight cyclic
        # pairings of three products, summed directly over both lags
        cov = residue_expansion(spec_k2)
        dt, m, h = 0.1, 60_000, idx
        se, skew = product_mean_laws(cov, dt, [idx], [m])[0]
        reach = idx + 200
        u = np.arange(-reach, reach + 1)[:, None]
        v = np.arange(-reach, reach + 1)[None, :]

        def r(k):
            return eval_r(cov, 0, dt * np.abs(k))

        total = sum(
            (r(u + x - y) * r(v + h - y - w) * r(u + v + w - x)).sum()
            for x in (0, h) for y in (0, h) for w in (0, h)
        )
        assert skew == pytest.approx(total / m**2 / se**3, rel=1e-9)
        assert 0.0 < skew < 0.2

    def test_lags_share_one_r(self, spec_k2):
        # one r and one autoconvolution at the largest lag's reach: each
        # lag's standard error is its own call's, bit for bit, and its
        # skewness moves only by the terms past its own reach (about
        # e^-40 relative) and the rounding of a longer transform
        cov = residue_expansion(spec_k2)
        dt, idxs = 0.02, [0, 25, 50, 100]
        ms = [60_000 - idx for idx in idxs]
        laws = product_mean_laws(cov, dt, idxs, ms)
        for idx, m, (se, skew) in zip(idxs, ms, laws):
            alone = product_mean_laws(cov, dt, [idx], [m])[0]
            assert se == alone[0]
            assert skew == pytest.approx(alone[1], rel=1e-12)

    def test_fft_length(self):
        # the smallest 2^a 3^b 5^c at or above n, against a search
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for n in range(1, 3000):
            assert _fft_length(n) == next(
                m for m in range(n, 2 * n + 1) if smooth(m))
        # 3 reach + 3 idx + 1 at lags up to 2 tau of a 1e6-step path at
        # tau / 998, and 4 reach + 1, which the lag 2 tau transform took
        # when every lag had its own
        assert _fft_length(77_845) == 78_125
        assert _fft_length(95_809) == 96_000

    def test_normal_score(self):
        xs = np.linspace(-8.0, 8.0, 161)
        assert [normal_score(x, 0.0) for x in xs] == list(xs)
        # first order in the skewness: the Cornish-Fisher correction
        for x in xs:
            assert normal_score(x, 1e-3) == pytest.approx(
                x - 1e-3 * (x * x - 1.0) / 6.0, abs=1e-4)
            assert normal_score(x, -0.3) == pytest.approx(-normal_score(-x, 0.3))
        # increasing everywhere, so a gross error stays outside the band
        scores = [normal_score(x, 0.3) for x in np.linspace(-50.0, 500.0, 5501)]
        assert np.all(np.diff(scores) > 0)
        assert normal_score(4.1, 0.2) < STAT_BAND < normal_score(30.0, 0.3)

    def test_statistic_is_the_normal_score(self, spec_k1_repeated):
        system, law = assemble(spec_k1_repeated)
        cov = residue_expansion(spec_k1_repeated)
        path = sample_exact(system, law, 0.02, 60_000, seed=3)
        rep = check_empirical_covariance(path, cov)
        y, worst = path.values[0], 0.0
        for lag in (0.0, 0.5, 1.0, 2.0):
            idx = int(round(lag / 0.02))
            prods = y[: y.size - idx] * y[idx:]
            se, skew = product_mean_laws(cov, 0.02, [idx], [prods.size])[0]
            assert f"se = {se:.3g}, skew = {skew:.3g}," in rep.detail
            x = (prods.mean() - eval_r(cov, 0, lag)) / se
            worst = max(worst, abs(normal_score(x, skew)))
        assert rep.statistic == pytest.approx(worst, rel=1e-13)

    def test_z_scores_have_unit_spread(self, spec_k1_repeated):
        # over independent paths the standardised errors have mean square
        # about 1; the block estimate ran 0.66-0.74 of the exact standard
        # error on some k = 3 models, which inflated every |z|
        system, law = assemble(spec_k1_repeated)
        cov = residue_expansion(spec_k1_repeated)
        dt, n, idx = 0.1, 12_000, 10
        z = []
        for stream in range(200):
            y = sample_exact(system, law, dt, n, seed=5, stream=stream).values[0]
            m = y.size - idx
            rhat = float((y[:m] * y[idx:]).mean())
            z.append((rhat - eval_r(cov, 0, idx * dt))
                     / product_mean_laws(cov, dt, [idx], [m])[0][0])
        assert np.mean(np.square(z)) == pytest.approx(1.0, abs=0.3)
        assert abs(np.mean(z)) < 0.3

    @pytest.mark.parametrize("roots, scale", [
        # perfbench low_k seed 68, fast-population models 3, 8 and 13:
        # the block standard error gave |z| = 4.25-4.43 on their suite
        # paths; the exact standard error and skewness give 3.18-3.24,
        # the excursion being on the lighter, lower side
        ([1.0703715340530886, 1.7237096356559702, 2.297376238672483,
          2.849029239280583], 0.504003077420029),
        ([0.7731364524058508, 1.6257684076161736, 2.315182726108956,
          2.42972397303559], 1.279359526230709),
        ([1.1385994200344054, 1.8977229685181174, 2.1903479324920516,
          2.344388388340365], 1.6102848707964488),
    ])
    def test_suite_paths_that_blocks_failed(self, roots, scale):
        spec = model.validate([1j * b for b in roots], scale)
        system, law = assemble(spec)
        cov = residue_expansion(spec)
        dt = 1.0 / min(roots) / 50
        path = sample_exact(system, law, dt, 60_000, seed=68, stream=0)
        rep = check_empirical_covariance(path, cov)
        assert rep.passed, rep.detail

    def test_off_grid_lag(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.2, 60_000, seed=3)
        cov = residue_expansion(spec_k0)
        with pytest.raises(ValueError):
            check_empirical_covariance(path, cov, lags=[0.3])

    def test_negative_lag(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.5, 60_000, seed=3)
        cov = residue_expansion(spec_k0)
        for lags in ([-0.5], [math.inf], [math.nan], [], 0.5, [[0, 0.5]]):
            with pytest.raises(ValueError, match="lags must be a non-empty "
                               "1-d array of finite values >= 0"):
                check_empirical_covariance(path, cov, lags=lags)


#: a regular k = 8 model, make_random_spec(np.random.default_rng(10), 8)
K8_ROOTS = (
    (-2.09820579136528, 0.5805748912574185), (2.09820579136528, 0.5805748912574185),
    (-1.587133387666038, 0.6179899446296567), (1.587133387666038, 0.6179899446296567),
    (-2.502490167296139, 0.7815090682216113), (2.502490167296139, 0.7815090682216113),
    (0.0, 1.3914251927339343), (0.0, 2.556893628074381), (0.0, 2.8793928096694255),
)
K8_SCALE = 1.7379993595771974


def _fast_path(spec, seed, shift=1.0):
    """run_suite's fast-budget path of spec (1200 tau at tau / 50), drawn
    from spec with its first root and that root's reflection partner
    scaled by shift."""
    roots = list(spec.roots)
    partner = -roots[0].conjugate()
    if roots[0] != partner:
        roots[roots.index(partner, 1)] *= shift
    roots[0] *= shift
    system, law = assemble(model.validate(roots, spec.scale))
    tau = 1.0 / min(z.imag for z in spec.roots)
    return sample_exact(system, law, tau / 50, 60_000, seed)


class TestInnovations:
    def test_levinson_solves_the_toeplitz_system(self, spec_k2):
        cov = residue_expansion(spec_k2)
        r = eval_r(cov, 0, 0.2 * np.arange(401))
        phi, var = _levinson(r)
        p = phi.size
        toeplitz = r[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]
        assert np.allclose(toeplitz @ phi, r[1:p + 1], rtol=0, atol=1e-12)
        assert var == pytest.approx(r[0] - phi @ r[1:p + 1], rel=1e-9)

    def test_statistic_is_recomputed_from_the_filter(self, spec_k2):
        # z from a direct Toeplitz solve and a convolution, at the order
        # and gap in the detail: the three scores and the report agree
        cov = residue_expansion(spec_k2)
        path = _fast_path(spec_k2, seed=5)
        rep = check_innovations(path, cov)
        assert rep.passed, rep.detail
        gap, order = rep.detail.split(",")[:2]
        assert gap == "gap 0.2 tau"
        p = int(order.split()[1])
        stride = 10
        r = eval_r(cov, 0, stride * path.dt * np.arange(p + 1))
        toeplitz = r[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]
        phi = np.linalg.solve(toeplitz, r[1:])
        var = r[0] - phi @ r[1:]
        y = path.values[0, ::stride]
        z = (y[p:] - np.convolve(y, phi, "valid")[:-1]) / math.sqrt(var)
        n = z.size
        rho = np.array([z[:-h] @ z[h:] for h in range(1, LJUNG_BOX_LAGS + 1)])
        q = n * (n + 2) * np.sum((rho / (z @ z)) ** 2
                                 / (n - np.arange(1, LJUNG_BOX_LAGS + 1)))
        h = LJUNG_BOX_LAGS
        scores = (abs(z.mean()) * math.sqrt(n),
                  abs((z @ z) / n - 1) / math.sqrt(2 / n),
                  ((q / h) ** (1 / 3) - 1 + 2 / (9 * h)) / math.sqrt(2 / (9 * h)))
        assert rep.statistic == pytest.approx(max(scores), rel=1e-8)
        assert f"n = {n}:" in rep.detail

    @pytest.mark.parametrize("name", ["k2", "k1_repeated", "k8"])
    def test_detects_a_shifted_root(self, name):
        # the path comes from the model with its first root (and its
        # partner) moved by 10 %; the check reads the original r
        if name == "k8":
            spec = model.validate([complex(*z) for z in K8_ROOTS], K8_SCALE)
        else:
            spec = model.load_model(ROOT / "configs" / f"{name}.json")
        cov = residue_expansion(spec)
        for seed in range(3):
            assert check_innovations(_fast_path(spec, seed), cov).passed
            rep = check_innovations(_fast_path(spec, seed, 1.1), cov)
            assert not rep.passed, (seed, rep.detail)

    def test_unsettled_filter_raises(self, spec_k2, monkeypatch):
        monkeypatch.setattr(validate, "LEVINSON_MAX_ORDER", 3)
        cov = residue_expansion(spec_k2)
        with pytest.raises(NotConverged,
                           match=r"no gap .*0\.2 tau: order 3, .*; 2 tau: order 3,"):
            check_innovations(_fast_path(spec_k2, 0), cov)

    def test_small_error_variance_takes_the_next_gap(self):
        # perfbench high_k seed 7, fast model 7 (k = 8): at 0.2 tau the
        # filter settles at 5.8e-9 r(0), where its rounding made the
        # whitened variance read 72 standard errors high on seed 7
        spec = model.validate([complex(s * re, im) for re, im in (
            (0.21036613140459337, 0.8705697955091656),
            (1.0342735983626528, 1.7333785577984586),
            (0.17307092532510504, 2.303709775593798),
            (1.4564176287608788, 2.653412662705959),
        ) for s in (-1, 1)] + [1.242118763182571j], 0.5455254415761674)
        cov = residue_expansion(spec)
        r = eval_r(cov, 0, 0.2 / 0.8705697955091656 * np.arange(401))
        assert _levinson(r)[1] < validate.LEVINSON_MIN_VARIANCE * r[0]
        for seed in (7, 0, 1):
            rep = check_innovations(_fast_path(spec, seed), cov)
            assert rep.passed, (seed, rep.detail)
            assert rep.detail.startswith("gap 0.5 tau")

    def test_covariance_that_is_not_positive_definite_fails(self, spec_k0):
        cov = residue_expansion(spec_k0)
        negated = CovarianceModel(
            terms=tuple((-c, z, p) for c, z, p in cov.terms), k=cov.k)
        rep = check_innovations(_fast_path(spec_k0, 0), negated)
        assert not rep.passed
        assert rep.statistic == math.inf
        assert "not positive definite" in rep.detail

    def test_path_too_short(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.02, 4000, seed=3)
        with pytest.raises(PathTooShort):
            check_innovations(path, residue_expansion(spec_k0))

    def test_memory_is_a_few_copies_of_the_strided_row(self, spec_k0):
        # the full budget's path: 1e6 steps at tau / 100, Y every 20
        # steps, so 50,000 samples of 0.4 MB as doubles
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.01, 1_000_000, seed=2)
        cov = residue_expansion(spec_k0)
        tracemalloc.start()
        try:
            rep = check_innovations(path, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed, rep.detail
        assert peak <= 2 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_report_does_not_depend_on_blas_threads(self):
        # fresh interpreters with one and two BLAS threads whiten the
        # full budget's k2 path, 50,000 samples of Y
        code = textwrap.dedent(f"""
            from carkov import assemble, model, residue_expansion, sample_exact
            from carkov.validate import check_innovations
            spec = model.load_model({str(ROOT / "configs" / "k2.json")!r})
            system, law = assemble(spec)
            path = sample_exact(system, law, 0.01, 1_000_000, seed=3)
            rep = check_innovations(path, residue_expansion(spec))
            print(repr(rep.statistic), rep.detail)
            """)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append(run.stdout)
        assert runs[0] == runs[1]
        assert "n = 49" in runs[0]


class TestPartialCorrelation:
    @staticmethod
    def _ensemble(spec, n_rep, seed=0):
        system, law = assemble(spec)
        return np.stack(
            [
                sample_exact(system, law, 0.125, 12, seed, stream=1 + r).values
                for r in range(n_rep)
            ],
            axis=0,
        )

    def test_vector_conditioning_passes(self, spec_k1_repeated):
        ens = self._ensemble(spec_k1_repeated, 1200)
        rep = check_partial_correlation(ens, 0, 6, 12, "vector")
        assert rep.passed, rep.detail

    def test_scalar_control_detects_hidden_state(self, spec_k1_repeated):
        ens = self._ensemble(spec_k1_repeated, 1200)
        rep = check_partial_correlation(ens, 0, 6, 12, "scalar")
        # negative-control encoding: detection shows as a pass with a
        # negated statistic far below the negated band
        assert rep.passed, rep.detail
        assert rep.statistic < rep.threshold < 0
        assert -rep.statistic > 4.0

    def test_too_few_replicates(self, spec_k0):
        ens = self._ensemble(spec_k0, 50)
        with pytest.raises(PathTooShort):
            check_partial_correlation(ens, 0, 6, 12, "vector")

    def test_index_validation(self, spec_k0):
        ens = self._ensemble(spec_k0, 1000)
        with pytest.raises(ValueError):
            check_partial_correlation(ens, 6, 6, 12, "vector")
        with pytest.raises(ValueError):
            check_partial_correlation(ens, 0, 6, 13, "vector")

    def test_degenerate_conditioning(self):
        rng = np.random.default_rng(1)
        ens = rng.standard_normal((1100, 2, 13))
        ens[:, :, 6] = 0.0
        with pytest.raises(ValueError, match="eigenvalue"):
            check_partial_correlation(ens, 0, 6, 12, "vector")

    def test_zero_residual(self):
        rng = np.random.default_rng(2)
        ens = rng.standard_normal((1100, 1, 13))
        ens[:, 0, 0] = ens[:, 0, 6]  # Y(s) determined by conditioning
        with pytest.raises(ValueError, match="residual"):
            check_partial_correlation(ens, 0, 6, 12, "vector")

    def test_bad_conditioning_name(self):
        ens = np.random.default_rng(3).standard_normal((1000, 1, 13))
        with pytest.raises(ValueError):
            check_partial_correlation(ens, 0, 6, 12, "bananas")


def _design_partial_correlation(design, rows):
    """Partial correlation of Y(0) and Y(2g) given the first rows of Z(g),
    from the design's own covariances, for times (0, g, 2g).

    Row i at time s and row j at time t have covariance sum_p w_ip w_jp
    cos(z_p (s - t) + (i - j) pi / 2), as _spectral_rows draws them.
    """
    times, z, weights = design
    w = weights[:rows]
    idx = [(a, i) for a in range(times.size) for i in range(rows)]
    c = np.array([[np.sum(w[i] * w[j] * np.cos(z * (times[a] - times[b])
                                                 + (i - j) * np.pi / 2))
                   for b, j in idx] for a, i in idx])
    ends, given = [0, 2 * rows], list(range(rows, 2 * rows))
    s = (c[np.ix_(ends, ends)] - c[np.ix_(ends, given)]
         @ np.linalg.solve(c[np.ix_(given, given)], c[np.ix_(given, ends)]))
    return s[0, 1] / math.sqrt(s[0, 0] * s[1, 1])


class TestSpectralMarkov:
    """The Markov property on paths that do not come from the Markov system.

    spectral_replicates draws from 1/|P|^2 alone and knows nothing of A or
    b, so the stack Z = (Y, ..., Y^(k)) of its draws is Markov only if the
    theorem holds: Y(0) and Y(2g) are then independent given Z(g).
    """

    @staticmethod
    def _times(spec):
        return 0.25 * np.arange(3) / min(z.imag for z in spec.roots)

    @pytest.mark.parametrize("name", ["k2", "k1_repeated"])
    def test_stack_is_markov(self, name):
        spec = model.load_model(ROOT / "configs" / f"{name}.json")
        times = self._times(spec)
        design = simulate._spectral_design(spec, times)
        assert abs(_design_partial_correlation(design, spec.k + 1)) < 1e-5
        reps = simulate.spectral_replicates(spec, times, 1000, seed=0)
        vector = check_partial_correlation(reps, 0, 1, 2, "vector")
        scalar = check_partial_correlation(reps, 0, 1, 2, "scalar")
        assert vector.passed, vector.detail
        assert scalar.passed, scalar.detail

    def test_density_outside_the_class_fails(self, spec_k2, monkeypatch):
        # every row's weights times |z - 10i|: the density |Q|^2/|P|^2 is
        # outside C_k, so its stack is not Markov. R = (7 / rho)^2, at
        # least the check's 1000, puts the expected statistic 7 standard
        # errors out, 3 beyond the band
        design = simulate._spectral_design

        def mutated(spec, times):
            times, z, weights = design(spec, times)
            return times, z, weights * np.sqrt(z**2 + 100.0)

        monkeypatch.setattr(simulate, "_spectral_design", mutated)
        times = self._times(spec_k2)
        rho = _design_partial_correlation(mutated(spec_k2, times), 3)
        assert abs(rho) > 0.2
        reps = simulate.spectral_replicates(
            spec_k2, times, max(1000, math.ceil((7.0 / rho) ** 2)), seed=0)
        vector = check_partial_correlation(reps, 0, 1, 2, "vector")
        assert not vector.passed, vector.detail


class TestRunSuite:
    def test_all_pass_fast(self, spec_k1_repeated):
        reports = run_suite(spec_k1_repeated, budget="fast", seed=0)
        assert len(reports) == 7
        for rep in reports:
            assert rep.passed, f"{rep.name}: {rep.detail}"

    def test_k0_gets_the_same_seven_checks(self, spec_k0, spec_k1_repeated):
        names = [r.name for r in run_suite(spec_k0, budget="fast", seed=0)]
        assert len(names) == 7
        assert names[-2:] == ["empirical_covariance", "whitened_innovations"]
        assert names == [r.name for r in
                         run_suite(spec_k1_repeated, budget="fast", seed=0)]

    def test_deterministic(self, spec_k0):
        a = run_suite(spec_k0, budget="fast", seed=1)
        b = run_suite(spec_k0, budget="fast", seed=1)
        assert [r.statistic for r in a] == [r.statistic for r in b]

    def test_perturbation_is_detected(self, spec_k1_repeated):
        reports = run_suite(spec_k1_repeated, budget="fast", seed=0,
                            perturb_coef=1e-3)
        failed = {r.name for r in reports if not r.passed}
        assert "markov_factorization" in failed

    def test_suite_builds_one_operator_per_dt(self, spec_k2, monkeypatch):
        # one exact path, which both statistical checks read: one step
        # operator, at the fast budget's dt = tau / 50
        calls = []

        def counted(system, law, dt):
            calls.append(dt)
            return exact_step_operator(system, law, dt)

        monkeypatch.setattr(simulate, "exact_step_operator", counted)
        simulate._recursion_operands.cache_clear()
        run_suite(spec_k2, budget="fast", seed=0)
        tau = 1.0 / min(z.imag for z in spec_k2.roots)
        assert calls == [tau / 50]

    def test_bad_budget(self, spec_k0):
        with pytest.raises(ValueError):
            run_suite(spec_k0, budget="extreme")

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturbation(self, spec_k2, coef, monkeypatch):
        def refused(spec):
            raise AssertionError("the suite started work")

        monkeypatch.setattr(markov, "residue_expansion", refused)
        with pytest.raises(ValueError, match="perturb_coef"):
            run_suite(spec_k2, perturb_coef=coef)

    def test_expands_residues_once(self, spec_k2, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return residue_expansion(spec)

        monkeypatch.setattr(markov, "residue_expansion", counted)
        run_suite(spec_k2, budget="fast", seed=0)
        assert len(calls) == 1
