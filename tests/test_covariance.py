"""Residue expansion, derivatives, moments, and the quadrature oracle.

The closed-form references here are the two textbook cases that can be
integrated by hand:

    roots [i],    scale 1:  r(u) = pi exp(-|u|)
    roots [i, i], scale 1:  r(u) = (pi/2) (1 + |u|) exp(-|u|)
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carkov import (
    alpha_coeffs,
    eval_r,
    moments,
    one_sided_top,
    quadrature_r,
    residue_expansion,
)
from carkov import covariance as cov_mod
from carkov import model
from carkov.covariance import (
    SpectralMoments,
    cov_to_config,
    derivative_terms,
    moment_bounds,
    solve_gram,
)
from carkov.errors import (
    NearDegenerateRoots,
    NotConverged,
    OrderTooHigh,
    SingularGram,
)
from conftest import make_random_spec

PI = math.pi


class TestResidueExpansion:
    def test_k0_terms(self, spec_k0):
        cov = residue_expansion(spec_k0)
        assert len(cov.terms) == 1
        coef, root, power = cov.terms[0]
        assert root == 1j and power == 0
        assert coef == pytest.approx(PI, rel=1e-12)

    def test_k1_repeated_terms(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        coefs = sorted((t[2], t[0].real) for t in cov.terms)
        assert coefs[0][1] == pytest.approx(PI / 2, rel=1e-12)
        assert coefs[1][1] == pytest.approx(PI / 2, rel=1e-12)
        assert {t[1] for t in cov.terms} == {1j}

    def test_near_degenerate_rejected(self):
        spec = model.validate([1j, 1e-8 + 1j, -1e-8 + 1j], 1.0)
        with pytest.raises(NearDegenerateRoots):
            residue_expansion(spec)

    def test_scale_equivariance(self, spec_k0):
        # doubling the polynomial scale divides the density, hence r, by 4
        cov1 = residue_expansion(spec_k0)
        cov2 = residue_expansion(model.validate(list(spec_k0.roots), 2.0))
        u = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(
            eval_r(cov2, 0, u), eval_r(cov1, 0, u) / 4.0, rtol=1e-12
        )


class TestEvalR:
    def test_k0_closed_form(self, spec_k0):
        cov = residue_expansion(spec_k0)
        u = np.array([0.0, 0.3, 1.0, 4.0])
        np.testing.assert_allclose(
            eval_r(cov, 0, u), PI * np.exp(-u), rtol=1e-12
        )

    def test_k1_closed_form(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        u = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(
            eval_r(cov, 0, u), PI / 2 * (1 + u) * np.exp(-u), rtol=1e-12
        )

    def test_derivative_sign_flip(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        # r'(-u) = -r'(u), r''(-u) = r''(u)
        assert eval_r(cov, 1, -1.3) == pytest.approx(-eval_r(cov, 1, 1.3))
        assert eval_r(cov, 2, -1.3) == pytest.approx(eval_r(cov, 2, 1.3))

    def test_double_root_second_derivative_zero(self, spec_k1_repeated):
        # r''(u) = -(pi/2)(1-u)e^{-u} vanishes at u = 1 exactly
        cov = residue_expansion(spec_k1_repeated)
        assert eval_r(cov, 2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_vs_array(self, spec_k2):
        cov = residue_expansion(spec_k2)
        u = np.array([0.25, 0.5])
        arr = eval_r(cov, 1, u)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(eval_r(cov, 1, 0.25))

    def test_order_gate_at_zero(self, spec_k0):
        cov = residue_expansion(spec_k0)
        with pytest.raises(OrderTooHigh):
            eval_r(cov, 1, 0.0)
        # away from zero any order is analytic and allowed
        assert np.isfinite(eval_r(cov, 3, 0.5))

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(10):
            spec = make_random_spec(rng, k_max=3)
            cov = residue_expansion(spec)
            u = 0.8 / min(z.imag for z in spec.roots)
            for j in range(1, 2 * spec.k + 1):
                fd = (eval_r(cov, j - 1, u + h) - eval_r(cov, j - 1, u - h)) / (2 * h)
                assert eval_r(cov, j, u) == pytest.approx(
                    fd, rel=1e-7, abs=1e-7 * abs(eval_r(cov, 0, 0.0))
                )


class TestDerivativeTerms:
    def test_k0_first_derivative(self, spec_k0):
        cov = residue_expansion(spec_k0)
        terms = derivative_terms(cov, 1)
        assert len(terms) == 1
        coef, root, power = terms[0]
        assert (root, power) == (1j, 0)
        assert coef == pytest.approx(-PI)

    def test_zero_order_is_identity(self, spec_k2):
        cov = residue_expansion(spec_k2)
        assert derivative_terms(cov, 0) == cov.terms


class TestMoments:
    def test_k0(self, spec_k0):
        mom = moments(residue_expansion(spec_k0))
        assert mom.even_moments == pytest.approx((PI,))
        assert mom.top_plus == pytest.approx(-PI)

    def test_k1_repeated(self, spec_k1_repeated):
        mom = moments(residue_expansion(spec_k1_repeated))
        np.testing.assert_allclose(
            mom.even_moments, (PI / 2, 0.0, -PI / 2), atol=1e-12
        )
        assert mom.top_plus == pytest.approx(PI)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_odd_orders_are_zero_within_their_bound(self, k):
        # an odd moment, zero by symmetry, departs from zero by at most
        # its rounding bound
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            mom = moments(residue_expansion(make_random_spec(rng, k)))
            odd = np.abs(mom.even_moments[1::2])
            assert (odd <= moment_bounds(mom)[1 : 2 * k : 2]).all()

    def test_top_sign_alternates(self):
        # sign of r^(2k+1)(0+) is (-1)^(k+1)
        rng = np.random.default_rng(8)
        for _ in range(15):
            spec = make_random_spec(rng, k_max=4)
            mom = moments(residue_expansion(spec))
            assert (-1) ** (spec.k + 1) * mom.top_plus > 0


class TestOneSidedTop:
    def test_goldens(self, spec_k0, spec_k1_repeated):
        assert one_sided_top(residue_expansion(spec_k0)) == pytest.approx(-PI)
        assert one_sided_top(residue_expansion(spec_k1_repeated)) == pytest.approx(PI)

    def test_matches_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = make_random_spec(rng)
            cov = residue_expansion(spec)
            assert one_sided_top(cov) == pytest.approx(
                moments(cov).top_plus, rel=1e-10
            )


class TestAlphaCoeffs:
    def test_k1_golden(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        alpha = alpha_coeffs(moments(cov), cov, 1.0)
        np.testing.assert_allclose(
            alpha, (2 * math.exp(-1), math.exp(-1)), rtol=1e-10
        )

    def test_small_u_limit(self, spec_k1_repeated):
        # E[Y(u) | Z(0)] -> Y(0) as u -> 0+
        cov = residue_expansion(spec_k1_repeated)
        alpha = alpha_coeffs(moments(cov), cov, 1e-8)
        np.testing.assert_allclose(alpha, (1.0, 0.0), atol=1e-7)

    def test_requires_positive_u(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        with pytest.raises(ValueError):
            alpha_coeffs(moments(cov), cov, 0.0)

    def test_singular_gram(self, spec_k1_repeated):
        cov = residue_expansion(spec_k1_repeated)
        broken = SpectralMoments(even_moments=(1.0, 0.0, 0.0), top_plus=1.0)
        with pytest.raises(SingularGram):
            alpha_coeffs(broken, cov, 1.0)
        with pytest.raises(SingularGram):
            solve_gram(broken, broken.hankel[:, -1])


class TestQuadratureOracle:
    def test_k0_at_zero(self, spec_k0):
        assert quadrature_r(spec_k0, 0, 0.0) == pytest.approx(PI, rel=1e-9)

    def test_k1_at_zero(self, spec_k1_repeated):
        assert quadrature_r(spec_k1_repeated, 0, 0.0) == pytest.approx(
            PI / 2, rel=1e-9
        )
        assert quadrature_r(spec_k1_repeated, 2, 0.0) == pytest.approx(
            -PI / 2, rel=1e-9
        )

    def test_odd_order_at_zero_is_exact_zero(self, spec_k1_repeated):
        assert quadrature_r(spec_k1_repeated, 1, 0.0) == 0.0

    def test_k0_closed_form_away_from_zero(self, spec_k0):
        for t in (0.5, 1.0, 2.0):
            assert quadrature_r(spec_k0, 0, t) == pytest.approx(
                PI * math.exp(-t), rel=1e-8
            )

    def test_negative_t_parity(self, spec_k1_repeated):
        plus = quadrature_r(spec_k1_repeated, 1, 1.0)
        minus = quadrature_r(spec_k1_repeated, 1, -1.0)
        assert minus == pytest.approx(-plus, rel=1e-12)
        assert quadrature_r(spec_k1_repeated, 2, -1.0) == pytest.approx(
            quadrature_r(spec_k1_repeated, 2, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_is_refused(self, spec_k0, t, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the oracle started work")

        monkeypatch.setattr(cov_mod, "_quad_semi_infinite", refused)
        with pytest.raises(ValueError, match="finite"):
            quadrature_r(spec_k0, 0, t)

    def test_order_gate(self, spec_k0):
        with pytest.raises(OrderTooHigh):
            quadrature_r(spec_k0, 1, 1.0)
        with pytest.raises(OrderTooHigh):
            quadrature_r(spec_k0, 1, 0.0)

    def test_not_converged_propagates(self, spec_k0, monkeypatch):
        real = cov_mod._quad_semi_infinite

        def broken_away_from_zero(spec, j, t, epsabs, epsrel):
            if t == 0.0:
                return real(spec, j, t, epsabs, epsrel)
            return 0.0, 1.0, False

        monkeypatch.setattr(cov_mod, "_quad_semi_infinite", broken_away_from_zero)
        with pytest.raises(NotConverged, match="halvings"):
            quadrature_r(spec_k0, 0, 1.0)

        # an envelope that does not converge, or is not finite, fails every
        # point, t = 0 included
        for result in ((0.0, 1.0, False), (math.nan, math.inf, False)):
            monkeypatch.setattr(cov_mod, "_quad_semi_infinite",
                                lambda *args, **kwargs: result)
            cov_mod._envelope.cache_clear()
            with pytest.raises(NotConverged, match="envelope"):
                quadrature_r(spec_k0, 0, 0.0)

    def test_matches_residue_route(self):
        # the oracle and the closed form are independent computations of
        # the same integral; they must agree to quadrature accuracy
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(8):
            spec = make_random_spec(rng, k_max=2)
            cov = residue_expansion(spec)
            scale = abs(eval_r(cov, 0, 0.0))
            for j in range(2 * spec.k + 1):
                for t in (0.0, 0.7, 2.1):
                    if t == 0.0 and j % 2 == 1:
                        continue
                    a = quadrature_r(spec, j, t)
                    b = eval_r(cov, j, t)
                    assert a == pytest.approx(b, rel=1e-6, abs=1e-6 * scale)
                    checked += 1
        assert checked > 30


    def test_closed_form_population_within_gate(self):
        # the benchmark's oracle gate: j = 0 at lags 0, 0.5, 1 and 2 tau
        # on k = 5..10 models, within 1e-8 max(1, r(0)) of the residues
        rng = np.random.default_rng(23)
        for k in range(5, 11):
            for _ in range(3):
                spec = make_random_spec(rng, k=k)
                cov = residue_expansion(spec)
                tau = 1.0 / min(z.imag for z in spec.roots)
                r0 = eval_r(cov, 0, 0.0)
                for lag in (0.0, 0.5, 1.0, 2.0):
                    gap = abs(quadrature_r(spec, 0, lag * tau)
                              - eval_r(cov, 0, lag * tau))
                    assert gap <= 1e-8 * max(1.0, r0), (spec.roots, lag, gap)

    def test_lag_sweep(self):
        # every order j <= 2k at lags from 1e-4 to 100: the contract
        # allows NotConverged, but on these k <= 4 models the rule
        # converges at every point, within QUAD_REL_TOL
        rng = np.random.default_rng(31)
        lags = np.logspace(-4.0, 2.0, 13)
        points = 0
        for _ in range(10):
            spec = make_random_spec(rng, k_max=4)
            cov = residue_expansion(spec)
            bound = cov_mod.QUAD_REL_TOL * max(1.0, eval_r(cov, 0, 0.0))
            for j in range(2 * spec.k + 1):
                for t in lags:
                    gap = abs(quadrature_r(spec, j, float(t))
                              - eval_r(cov, j, float(t)))
                    assert gap <= bound, (spec.roots, j, t, gap)
                    points += 1
        assert points > 500

    def test_node_budget_bounds_large_lags(self, spec_k2):
        # the first Ooura-Mori step takes about 9.5 |t| max|zeta| nodes;
        # past DE_MAX_NODES the rule stops unconverged instead of growing
        # its grid with the lag
        for t in (1e4, 1e7):
            tracemalloc.start()
            try:
                with pytest.raises(NotConverged, match="nodes"):
                    quadrature_r(spec_k2, 0, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 8 * cov_mod.DE_MAX_NODES

    def test_one_agreement_is_not_convergence(self, spec_k0, monkeypatch):
        # two coarse sums can agree by accident, both near 0; the rule
        # stops only after two halvings in a row within the tolerance,
        # and reports no convergence after DE_HALVINGS halvings
        def sums(*args):
            yield from (0.0, 0.0, 3e-5, 5e-5, 5e-5, 5e-5)

        monkeypatch.setattr(cov_mod, "_ooura_mori_sums", sums)
        val, _, ok = cov_mod._quad_semi_infinite(spec_k0, 0, 1.0, 1e-9, 0.0)
        assert ok and val == 1e-4

        monkeypatch.setattr(cov_mod, "_ooura_mori_sums",
                            lambda *args: itertools.count(0.0, 1.0))
        val, err, ok = cov_mod._quad_semi_infinite(spec_k0, 0, 1.0, 1e-9, 0.0)
        assert not ok and err == 2.0

    @pytest.mark.parametrize("entropy, index, j, t, roots", [
        # at h = 1/4 and 1/8 both sums come out near 0 and agree, so a
        # rule that stops at the first agreement is off by 4.7e-5
        (11, 28, 0, 30.0, [(-2.4254, 0.3381), (2.4254, 0.3381),
                           (0.0, 2.2122), (0.0, 2.4530)]),
        # a first step too coarse for the poles leaves every node of the
        # first four sums where the oscillation has died out: four sums
        # near 0, off by 9.0e-8, unless the first step resolves max |zeta|
        (1, 10, 8, 100.0, [(-1.9726, 0.2199), (1.9726, 0.2199),
                           (-0.8947, 1.5213), (0.8947, 1.5213),
                           (0.0, 2.2157)]),
    ])
    def test_false_agreement_cases(self, entropy, index, j, t, roots):
        rng = np.random.default_rng(entropy)
        spec = [make_random_spec(rng, k_max=4) for _ in range(index + 1)][-1]
        np.testing.assert_allclose(
            [(z.real, z.imag) for z in spec.roots], roots, atol=1e-4
        )
        cov = residue_expansion(spec)
        gap = abs(quadrature_r(spec, j, t) - eval_r(cov, j, t))
        assert gap <= 1e-12 * max(1.0, eval_r(cov, 0, 0.0))


def two_exponential_r(a_minus, a_plus, amp, u):
    """Covariance of white noise driven through the two-sided kernel
    amp e^{x a_minus} (x < 0), amp e^{-x a_plus} (x >= 0), for u >= 0.

    Distinct rates give A1 e^{-u a_minus} + A2 e^{-u a_plus} with
    A1 = amp^2 (1/(2 a_minus) - 1/(a_minus - a_plus)) and
    A2 = amp^2 (1/(2 a_plus) + 1/(a_minus - a_plus)); equal rates a give
    the confluent form amp^2 (1/a + u) e^{-a u}. Either is a k = 1
    covariance with roots i a_minus, i a_plus.
    """
    if a_minus == a_plus:
        return amp**2 * (1.0 / a_minus + u) * np.exp(-a_minus * u)
    a1 = amp**2 * (1.0 / (2.0 * a_minus) - 1.0 / (a_minus - a_plus))
    a2 = amp**2 * (1.0 / (2.0 * a_plus) + 1.0 / (a_minus - a_plus))
    return a1 * np.exp(-a_minus * u) + a2 * np.exp(-a_plus * u)


class TestTwoExponentialKernel:
    # the kernel's spectral density is 1 / |P|^2 with roots i a_minus,
    # i a_plus and scale c = a_minus a_plus sqrt(2 pi) / (amp (a_minus +
    # a_plus)), so the hand-integrated covariance checks the residues
    def test_matches_residue_route(self):
        a_minus, a_plus, amp = 1.0, 2.0, 1.0
        c = a_minus * a_plus * math.sqrt(2 * PI) / (amp * (a_minus + a_plus))
        spec = model.validate([a_minus * 1j, a_plus * 1j], c)
        u = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            two_exponential_r(a_minus, a_plus, amp, u),
            eval_r(residue_expansion(spec), 0, u),
            rtol=1e-10,
        )

    def test_confluent_matches_residue_route(self):
        a, amp = 2.0, 3.0
        c = a * math.sqrt(2 * PI) / (2.0 * amp)
        spec = model.validate([a * 1j, a * 1j], c)
        u = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            two_exponential_r(a, a, amp, u),
            eval_r(residue_expansion(spec), 0, u),
            rtol=1e-10,
        )


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_r_is_even_and_peaks_at_zero(entropy):
    rng = np.random.default_rng(entropy)
    spec = make_random_spec(rng, k_max=3)
    cov = residue_expansion(spec)
    u = np.array([0.1, 0.6, 1.4, 3.2])
    np.testing.assert_allclose(
        eval_r(cov, 0, -u), eval_r(cov, 0, u), rtol=1e-10, atol=1e-12
    )
    r0 = eval_r(cov, 0, 0.0)
    assert r0 > 0
    assert (np.abs(eval_r(cov, 0, u)) <= r0 * (1 + 1e-12)).all()


class TestCovConfig:
    def test_round_trip(self, spec_k2):
        cfg = cov_to_config(residue_expansion(spec_k2))
        assert json.loads(json.dumps(cfg)) == cfg

    def test_config_shape(self, spec_k0):
        cfg = cov_to_config(residue_expansion(spec_k0))
        assert cfg["k"] == 0
        assert cfg["terms"][0]["power"] == 0
        assert cfg["terms"][0]["root"] == [0.0, 1.0]
