"""Drift and diffusion from the roots, stationary law, and the assembled
Ito system."""

import json
import math

import numpy as np
import pytest

from carkov import assemble, residue_expansion
from carkov import model
from carkov.covariance import SpectralMoments
from carkov.errors import NonPositiveDiffusion, NotPositiveDefinite
from carkov.markov import ito_to_config, stationary_law
from conftest import make_random_spec

PI = math.pi


class TestGoldens:
    def test_k0_unit(self, spec_k0):
        system, law = assemble(spec_k0)
        np.testing.assert_allclose(system.drift, [-1.0], rtol=1e-12)
        assert system.diffusion**2 == pytest.approx(2 * PI, rel=1e-12)
        np.testing.assert_allclose(law.covariance, [[PI]], rtol=1e-12)

    def test_k0_rate_two(self):
        system, law = assemble(model.validate([2j], 1.0))
        np.testing.assert_allclose(system.drift, [-2.0], rtol=1e-12)
        assert system.diffusion**2 == pytest.approx(8 * PI, rel=1e-12)
        np.testing.assert_allclose(law.covariance, [[2 * PI]], rtol=1e-12)

    def test_k1_repeated(self, spec_k1_repeated):
        system, law = assemble(spec_k1_repeated)
        # chi(lambda) = (lambda + 1)^2 => dY' = (-Y - 2Y') dt + b dW
        np.testing.assert_allclose(system.drift, [-1.0, -2.0], rtol=1e-12)
        assert system.diffusion**2 == pytest.approx(2 * PI, rel=1e-12)
        np.testing.assert_allclose(
            law.covariance, [[PI / 2, 0.0], [0.0, PI / 2]], atol=1e-12
        )

    def test_companion_structure(self, spec_k2):
        system, _ = assemble(spec_k2)
        A = system.companion
        assert A.shape == (3, 3)
        np.testing.assert_allclose(A[0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(A[1], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(A[2], system.drift)
        np.testing.assert_allclose(system.noise_vector[:-1], 0.0)
        assert system.noise_vector[-1] == pytest.approx(system.diffusion)


class TestConsistency:
    def test_drift_matches_characteristic_polynomial(self):
        # the drift row is -chi bit for bit, at every k
        rng = np.random.default_rng(21)
        for k in list(range(5)) * 4 + list(range(5, 11)):
            spec = make_random_spec(rng, k)
            system, _ = assemble(spec)
            chi = model.ode_char_poly(spec)
            np.testing.assert_array_equal(
                system.drift, [-c for c in chi.coefficients[: spec.k + 1]]
            )

    def test_diffusion_product_identity(self):
        # b^2 c^2 = 2 pi prod |zeta_j|^2, and b is the root of that product
        rng = np.random.default_rng(22)
        for k in list(range(5)) * 4 + list(range(5, 11)):
            spec = make_random_spec(rng, k)
            system, _ = assemble(spec)
            product = 2 * PI * np.prod([abs(z) ** 2 for z in spec.roots])
            assert system.diffusion == math.sqrt(product / spec.scale**2)
            assert system.diffusion**2 * spec.scale**2 == pytest.approx(
                product, rel=1e-14
            )

    def test_lyapunov_equation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = make_random_spec(rng)
            system, law = assemble(spec)
            A, S = system.companion, law.covariance
            forcing = np.zeros_like(S)
            forcing[-1, -1] = system.diffusion**2
            resid = A @ S + S @ A.T + forcing
            assert np.abs(resid).max() <= 1e-8 * np.abs(S).max()

    def test_sigma_checkerboard(self):
        # Sigma_ij = (-1)^i r^(i+j)(0) makes odd off-diagonals vanish
        rng = np.random.default_rng(24)
        for _ in range(10):
            spec = make_random_spec(rng, k_max=3)
            _, law = assemble(spec)
            S = law.covariance
            for i in range(S.shape[0]):
                for j in range(S.shape[1]):
                    if (i + j) % 2 == 1:
                        assert S[i, j] == 0.0

    @pytest.mark.parametrize("k", range(5, 11))
    def test_sigma_exactly_symmetric(self, k):
        # from k = 5 on the odd moments are often kept as rounding noise,
        # with opposite signs above and below the diagonal; the stored
        # Sigma is symmetric and its odd-order entries exactly zero
        rng = np.random.default_rng(2026)
        for _ in range(20):
            _, law = assemble(make_random_spec(rng, k))
            S = law.covariance
            np.testing.assert_array_equal(S, S.T)
            odd = (np.add.outer(np.arange(k + 1), np.arange(k + 1)) % 2) == 1
            assert (S[odd] == 0.0).all()

    def test_scale_equivariance(self, spec_k1_pair):
        sys1, law1 = assemble(spec_k1_pair)
        sys2, law2 = assemble(model.validate(list(spec_k1_pair.roots), 2.0))
        np.testing.assert_allclose(sys2.drift, sys1.drift, rtol=1e-10)
        assert sys2.diffusion**2 == pytest.approx(
            sys1.diffusion**2 / 4, rel=1e-10
        )
        np.testing.assert_allclose(
            law2.covariance, law1.covariance / 4, rtol=1e-10
        )


class TestErrorPaths:
    def test_non_positive_diffusion(self):
        # prod |zeta_j|^2 = 1e-720 underflows to 0
        spec = model.validate(
            [1e-60j * x for x in (1.0, 1.3, 1.6, 1.9, 2.2, 2.5)], 1.0
        )
        with pytest.raises(NonPositiveDiffusion, match="b\\^2 = 0.0"):
            assemble(spec)

    def test_not_positive_definite(self):
        bad = SpectralMoments(even_moments=(1.0, 0.0, 1.0), top_plus=1.0)
        with pytest.raises(NotPositiveDefinite):
            stationary_law(bad)


class TestConfig:
    def test_round_trip(self, spec_k2):
        system, law = assemble(spec_k2)
        cfg = ito_to_config(system, law)
        assert json.loads(json.dumps(cfg)) == cfg
        np.testing.assert_array_equal(cfg["a"], system.drift)
        assert cfg["b"] == system.diffusion
        np.testing.assert_array_equal(cfg["sigma"], law.covariance)
