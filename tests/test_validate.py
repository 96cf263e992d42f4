"""Cross-verification suite: each check must pass on honest input and
trip on the documented negative control."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from carkov import assemble, eval_r, moments, residue_expansion, sample_exact
from carkov import model, validate
from carkov.covariance import CovarianceModel
from carkov.markov import ito_from_config, ito_to_config
from carkov.errors import DegenerateConditioning, PathTooShort
from carkov.model import RealPolynomial
from carkov.validate import (
    CLOSED_FORM_TOL,
    PROBE_MARGIN,
    PROBE_MAX_FACTOR,
    STAT_BAND,
    _probe_design,
    _replicate_ensemble,
    block_standard_error,
    check_characteristic,
    check_diffusion_identity,
    check_empirical_covariance,
    check_lyapunov,
    check_markov_factorization,
    check_ode_annihilation,
    check_partial_correlation,
    run_suite,
    stack_paths,
)
from conftest import make_random_spec


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

    def test_rejects_bad_grid(self, spec_k0):
        cov = residue_expansion(spec_k0)
        with pytest.raises(ValueError):
            check_markov_factorization(cov, moments(cov), u_grid=[0.0, 1.0])


class TestAnnihilation:
    def test_passes(self, spec_k2):
        rep = check_ode_annihilation(spec_k2, residue_expansion(spec_k2))
        assert rep.passed, rep.detail

    def test_detects_wrong_polynomial(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        wrong = RealPolynomial(coefficients=(1.1, 2.0, 1.0))
        rep = check_ode_annihilation(spec_k1_repeated, cov, chi=wrong)
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
            system, _ = assemble(spec)
            coef, root, power = cov.terms[0]
            bent = CovarianceModel(
                terms=((coef, root * 1.001, power),) + cov.terms[1:], k=k
            )
            rep = check_ode_annihilation(spec, bent)
            assert not rep.passed, rep.detail
            drift = system.drift.copy()
            drift[np.argmax(np.abs(drift))] *= 1 + 1e-4
            rep = check_characteristic(
                dataclasses.replace(system, drift=drift), spec
            )
            assert not rep.passed, rep.detail

    def test_config_systems_keep_strict_tolerance(self):
        spec = make_random_spec(np.random.default_rng(8), 8)
        system, law = ito_from_config(ito_to_config(*assemble(spec)))
        for rep in (check_lyapunov(system, law),
                    check_characteristic(system, spec),
                    check_diffusion_identity(system, spec)):
            assert rep.threshold == CLOSED_FORM_TOL


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

    def test_off_grid_lag(self, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.2, 60_000, seed=3)
        cov = residue_expansion(spec_k0)
        with pytest.raises(ValueError):
            check_empirical_covariance(path, cov, lags=[0.3])


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

    def test_accepts_sample_path_iterable(self, spec_k0):
        system, law = assemble(spec_k0)
        paths = [
            sample_exact(system, law, 0.125, 12, 0, stream=1 + r)
            for r in range(1000)
        ]
        stacked = stack_paths(paths)
        assert stacked.shape == (1000, 1, 13)
        rep = check_partial_correlation(paths, 0, 6, 12, "vector")
        assert rep.passed, rep.detail

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
        with pytest.raises(DegenerateConditioning):
            check_partial_correlation(ens, 0, 6, 12, "vector")

    def test_zero_residual(self):
        rng = np.random.default_rng(2)
        ens = rng.standard_normal((1100, 1, 13))
        ens[:, 0, 0] = ens[:, 0, 6]  # Y(s) determined by conditioning
        with pytest.raises(DegenerateConditioning):
            check_partial_correlation(ens, 0, 6, 12, "vector")

    def test_bad_conditioning_name(self):
        ens = np.random.default_rng(3).standard_normal((1000, 1, 13))
        with pytest.raises(ValueError):
            check_partial_correlation(ens, 0, 6, 12, "bananas")


class TestRunSuite:
    def test_all_pass_fast(self, spec_k1_repeated):
        reports = run_suite(spec_k1_repeated, budget="fast", seed=0)
        assert len(reports) == 8  # includes the scalar negative control
        for rep in reports:
            assert rep.passed, f"{rep.name}: {rep.detail}"

    def test_k0_has_no_scalar_control(self, spec_k0):
        reports = run_suite(spec_k0, budget="fast", seed=0)
        assert len(reports) == 7
        assert all("scalar" not in rep.name for rep in reports)

    def test_deterministic(self, spec_k0):
        a = run_suite(spec_k0, budget="fast", seed=1)
        b = run_suite(spec_k0, budget="fast", seed=1)
        assert [r.statistic for r in a] == [r.statistic for r in b]

    def test_perturbation_is_detected(self, spec_k1_repeated):
        reports = run_suite(spec_k1_repeated, budget="fast", seed=0,
                            perturb_coef=1e-3)
        failed = {r.name for r in reports if not r.passed}
        assert "markov_factorization" in failed

    def test_weak_control_model_gets_power(self):
        # roots ten times apart: at a fixed 0.75 tau gap the population
        # |pcorr| sqrt(1000) is 1.2, far inside the band, and the
        # control missed; the probe design picks a gap and R that find it
        spec = model.validate([0.25j, 2.5j], 1.0)
        reports = {r.name: r for r in run_suite(spec, budget="fast", seed=0)}
        vector = reports["markov_partial_correlation"]
        scalar = reports["markov_scalar_negative_control"]
        assert vector.passed, vector.detail
        assert scalar.passed, scalar.detail
        assert "expected |pcorr| sqrt(R)" in scalar.detail

    def test_probe_design_reaches_margin(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            spec = make_random_spec(rng, k=int(rng.integers(1, 7)))
            system, law = assemble(spec)
            cov = residue_expansion(spec)
            tau = 1.0 / min(z.imag for z in spec.roots)
            gap, rho, n_rep = _probe_design(system, law, tau, 1000)
            # the partial correlation from Sigma and e^{A gap} agrees
            # with the closed-form covariance
            r0, r1, r2 = (eval_r(cov, 0, h) for h in (0.0, gap, 2 * gap))
            assert rho == pytest.approx(
                (r2 * r0 - r1**2) / (r0**2 - r1**2), rel=1e-6, abs=1e-9
            )
            assert 1000 <= n_rep <= PROBE_MAX_FACTOR * 1000
            assert (abs(rho) * math.sqrt(n_rep) >= STAT_BAND + PROBE_MARGIN
                    or n_rep == PROBE_MAX_FACTOR * 1000)

    def test_replicate_ensemble_law(self, spec_k2):
        # the three states are a stationary exact-chain draw: Cov(Z(m g),
        # Z(j g)) = e^{A (m - j) g} Sigma for j <= m, entrywise within 4
        # standard errors of the product means
        system, law = assemble(spec_k2)
        gap, reps = 0.5, 50_000
        ens = _replicate_ensemble(system, law, gap, reps, seed=3)
        assert ens.shape == (reps, 3, 3)
        for m in range(3):
            for j in range(m + 1):
                target = scipy.linalg.expm(
                    system.companion * ((m - j) * gap)) @ law.covariance
                prods = ens[:, :, m, None] * ens[:, None, :, j]
                se = prods.std(axis=0) / math.sqrt(reps)
                assert (np.abs(prods.mean(axis=0) - target)
                        <= 4 * se).all(), (m, j)

    def test_scalar_control_reaches_power_past_the_old_cap(self):
        # perfbench high_k seed 2, fast model 10: the largest population
        # |pcorr| over PROBE_GAPS is 0.0365, so 8000 replicates expect a
        # statistic of 3.27, inside the band, and the control failed
        spec = model.validate(
            [complex(s * re, im) for re, im in (
                (2.729836057607351, 0.20892295773072794),
                (1.6912049903738802, 0.7392659310612562),
                (0.40589338291345, 1.0099781875413738),
                (2.169553189780512, 1.766256125125654),
            ) for s in (-1, 1)],
            1.506356472553741,
        )
        for seed in range(5):
            reports = {r.name: r for r in run_suite(spec, "fast", seed)}
            for name in ("markov_partial_correlation",
                         "markov_scalar_negative_control"):
                assert reports[name].passed, (seed, reports[name].detail)

    def test_bad_budget(self, spec_k0):
        with pytest.raises(ValueError):
            run_suite(spec_k0, budget="extreme")

    def test_expands_residues_once(self, spec_k2, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return residue_expansion(spec)

        monkeypatch.setattr(validate, "residue_expansion", counted)
        run_suite(spec_k2, budget="fast", seed=0)
        assert len(calls) == 1
