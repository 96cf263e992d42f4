"""Samplers: exact transition, Euler, spectral synthesis, moving average."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from carkov import (
    assemble,
    eval_r,
    ma_covariance,
    ma_covariance_confluent,
    moments,
    residue_expansion,
    sample_euler,
    sample_exact,
    sample_moving_average,
    sample_spectral,
    spectral_replicates,
)
from carkov import model
from carkov.errors import (
    EqualRates,
    FactorizationFailure,
    NotConverged,
    StepTooSmall,
    TailTooHeavy,
    UnstableStep,
)
from carkov.markov import StationaryLaw
from carkov.simulate import (
    MAKernel,
    _generator,
    _psd_sqrt,
    _spectral_design,
    default_z_max,
    euler_step_bound,
    exact_step_operator,
    spectral_tail_bound,
    write_csv,
    write_metadata,
)

from conftest import make_random_spec

PI = math.pi


class TestExactStepOperator:
    def test_k0_golden(self, spec_k0):
        system, law = assemble(spec_k0)
        phi, L = exact_step_operator(system, law, math.log(2.0))
        np.testing.assert_allclose(phi, [[0.5]], rtol=1e-12)
        np.testing.assert_allclose(L @ L.T, [[3 * PI / 4]], rtol=1e-12)

    def test_preserves_stationary_law(self, spec_k2):
        system, law = assemble(spec_k2)
        phi, L = exact_step_operator(system, law, 0.37)
        resid = phi @ law.covariance @ phi.T + L @ L.T - law.covariance
        assert np.abs(resid).max() <= 1e-12 * np.abs(law.covariance).max()

    def test_small_dt_limit(self, spec_k1_pair):
        system, law = assemble(spec_k1_pair)
        dt = 1e-6
        phi, _ = exact_step_operator(system, law, dt)
        approx = np.eye(2) + system.companion * dt
        assert np.abs(phi - approx).max() <= 10 * dt**2 * np.abs(
            system.companion
        ).max() ** 2

    def test_matches_expm(self, spec_k2):
        system, law = assemble(spec_k2)
        phi, _ = exact_step_operator(system, law, 0.81)
        np.testing.assert_allclose(
            phi, scipy.linalg.expm(system.companion * 0.81), rtol=1e-10
        )

    def test_rejects_bad_dt(self, spec_k0):
        system, law = assemble(spec_k0)
        with pytest.raises(ValueError):
            exact_step_operator(system, law, 0.0)

    def test_factorization_failure(self, spec_k0):
        system, law = assemble(spec_k0)
        with pytest.raises(FactorizationFailure):
            exact_step_operator(
                system, StationaryLaw(covariance=-law.covariance), 0.5
            )


def too_small_steps(n_models=20):
    """(spec, system, law, dt) for random k = 8 and k = 10 models at
    dt = 1e-12 tau, where e^{A dt} rounds towards the identity."""
    rng = np.random.default_rng(5)
    for i in range(n_models):
        spec = make_random_spec(rng, 8 if i % 2 == 0 else 10)
        system, law = assemble(spec)
        tau = 1.0 / min(z.imag for z in spec.roots)
        yield spec, system, law, 1e-12 * tau


class TestStepTooSmall:
    def test_typed_error_names_dt_and_radius(self):
        # every model either samples or raises the typed error, never the
        # recursion's bare ValueError; rounding puts some of them there
        raised = 0
        for _spec, system, law, dt in too_small_steps():
            try:
                sample_exact(system, law, dt, 5, seed=0)
            except StepTooSmall as exc:
                raised += 1
                assert f"dt = {dt:.6g}" in str(exc)
                assert "spectral radius" in str(exc)
                with pytest.raises(StepTooSmall):
                    exact_step_operator(system, law, dt)
        assert raised > 0


class TestSampleExact:
    def test_shape_and_metadata(self, spec_k1_pair):
        system, law = assemble(spec_k1_pair)
        path = sample_exact(system, law, 0.1, 500, seed=12)
        assert path.values.shape == (2, 501)
        assert path.method == "exact"
        assert path.dt == 0.1
        assert path.n_points == 501
        np.testing.assert_allclose(path.times[:3], [0.0, 0.1, 0.2])

    def test_deterministic_and_stream_separated(self, spec_k0):
        system, law = assemble(spec_k0)
        a = sample_exact(system, law, 0.2, 100, seed=5)
        b = sample_exact(system, law, 0.2, 100, seed=5)
        c = sample_exact(system, law, 0.2, 100, seed=5, stream=1)
        d = sample_exact(system, law, 0.2, 100, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert not np.array_equal(a.values, d.values)

    def test_stationary_variance(self, spec_k2):
        system, law = assemble(spec_k2)
        path = sample_exact(system, law, 0.05, 200_000, seed=77)
        emp = np.cov(path.values)
        # loose 5% band: 2e5 correlated samples of a 3-d stack
        np.testing.assert_allclose(
            np.diag(emp), np.diag(law.covariance), rtol=0.05
        )


class TestSampleEuler:
    def test_step_bound_golden(self, spec_k0):
        system, _ = assemble(spec_k0)
        assert euler_step_bound(system) == pytest.approx(2.0, rel=1e-12)

    def test_unstable_step(self, spec_k0):
        system, law = assemble(spec_k0)
        with pytest.raises(UnstableStep) as err:
            sample_euler(system, law, 2.1, 10, seed=1)
        assert "stable below" in str(err.value)

    def test_recursion_reproduced_by_hand(self, spec_k1_repeated):
        system, law = assemble(spec_k1_repeated)
        dt, n = 0.01, 25
        z0 = np.array([0.3, -0.1])
        path = sample_euler(system, law, dt, n, seed=9, z0=z0)
        rng = _generator(9, "euler")
        shocks = rng.standard_normal((n, 1))
        z = z0.copy()
        expect = [z0]
        A, b = system.companion, system.noise_vector
        for m in range(n):
            z = z + A @ z * dt + b * math.sqrt(dt) * shocks[m, 0]
            expect.append(z)
        np.testing.assert_allclose(path.values, np.array(expect).T, rtol=1e-12)

    def test_z0_shape_checked(self, spec_k1_repeated):
        system, law = assemble(spec_k1_repeated)
        with pytest.raises(ValueError):
            sample_euler(system, law, 0.01, 10, seed=0, z0=np.zeros(3))

    def test_variance_matches_discrete_lyapunov(self, spec_k0):
        # at a coarse step the Euler chain is still an exact AR(1) whose
        # stationary variance solves a discrete Lyapunov equation; the
        # empirical variance must match THAT, not the continuous law
        system, law = assemble(spec_k0)
        dt = 0.25
        M = np.eye(1) + system.companion * dt
        Q = np.outer(system.noise_vector, system.noise_vector) * dt
        target = scipy.linalg.solve_discrete_lyapunov(M, Q)[0, 0]
        # b^2 dt / (1 - (1 - a dt)^2) = b^2 / (2a - a^2 dt): biased UP
        assert target > law.covariance[0, 0]
        path = sample_euler(system, law, dt, 400_000, seed=4)
        burn = path.values[0, 1000:]
        emp = float((burn * burn).mean())
        se = emp * math.sqrt(2.0 * (2.0 / dt) / burn.size)
        assert abs(emp - target) < 5 * se
        assert abs(emp - law.covariance[0, 0]) > 5 * se


class TestSpectral:
    def test_tail_bound_regions(self, spec_k0):
        assert spectral_tail_bound(spec_k0, 1.5) == np.inf
        assert spectral_tail_bound(spec_k0, 10.0) == pytest.approx(0.8)

    def test_tail_bound_dominates_true_tail(self, spec_k0):
        # true tail of 1/(1+z^2) beyond 10 is 2*(pi/2 - arctan 10)
        true_tail = 2 * (PI / 2 - math.atan(10.0))
        assert spectral_tail_bound(spec_k0, 10.0) >= true_tail

    def test_default_z_max_meets_budget(self, spec_k2):
        r0 = eval_r(residue_expansion(spec_k2), 0, 0.0)
        z_max = default_z_max(spec_k2, r0)
        assert spectral_tail_bound(spec_k2, z_max) <= 0.1 * 1e-6 * r0 * (1 + 1e-9)

    def test_tail_too_heavy(self, spec_k0):
        with pytest.raises(TailTooHeavy):
            sample_spectral(spec_k0, np.arange(4) * 0.5, seed=1, z_max=5.0)

    def test_times_must_be_uniform(self, spec_k0):
        with pytest.raises(ValueError):
            sample_spectral(spec_k0, np.array([0.0, 0.5, 1.0, 2.0]), seed=1)
        with pytest.raises(ValueError):
            sample_spectral(spec_k0, np.array([0.0, -0.5, -1.0]), seed=1)

    def test_shape_and_determinism(self, spec_k1_pair):
        times = np.arange(6) * 0.25
        a = sample_spectral(spec_k1_pair, times, seed=3)
        b = sample_spectral(spec_k1_pair, times, seed=3)
        assert a.values.shape == (2, 6)
        assert a.method == "spectral"
        assert a.dt == 0.25
        np.testing.assert_array_equal(a.values, b.values)

    def test_design_variance_identity(self, spec_k2):
        # Var Y^(j)(t) is the sum over panels of the squared weights of
        # the two independent noises: row j weighs them by w_j cos and
        # w_j sin of theta (up to sign and swap), so the sum is
        # sum_p w_jp^2 (cos^2 + sin^2) at every t. Row 0 is guarded by
        # the tail check, so it matches the closed form; rows j >= 1
        # carry the documented z^j truncation bias and are tested
        # against the truncated integral instead.
        import scipy.integrate

        from carkov.model import abs_p_squared

        cov = residue_expansion(spec_k2)
        r0 = eval_r(cov, 0, 0.0)
        times = np.array([0.0, 0.7])
        z_max = default_z_max(spec_k2, r0)
        cos_t, sin_t, weights = _spectral_design(spec_k2, times, z_max, 4096)
        assert cos_t.shape == sin_t.shape == (2, 4096)
        assert weights.shape == (3, 4096)

        def row_variance(j):
            return (cos_t**2 + sin_t**2) @ weights[j] ** 2

        for j in range(3):
            truncated, _ = scipy.integrate.quad(
                lambda z: z ** (2 * j) / abs_p_squared(spec_k2, z),
                -z_max, z_max, points=(-2.0, 0.0, 2.0), limit=400,
            )
            np.testing.assert_allclose(row_variance(j), truncated, rtol=1e-3)
        # row 0 (and only row 0) is also within tolerance of r(0)
        np.testing.assert_allclose(row_variance(0), r0, rtol=1e-3)
        # the j = k deficit is real and one-sided: truncation only loses mass
        assert (row_variance(2) < (-1) ** 2 * eval_r(cov, 4, 0.0)).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_shifted_block_oracle(self, k):
        # oracle: one cos and one sin block per derivative order,
        # evaluated at theta + j pi/2. k in {1, 2, 3, 4, 8} covers every
        # j mod 4.
        from carkov.model import abs_p_squared

        spec = make_random_spec(np.random.default_rng(100 + k), k)
        times = 0.05 * np.arange(40)
        z_max = default_z_max(spec, eval_r(residue_expansion(spec), 0, 0.0))
        n = 4096
        dz = 2.0 * z_max / n
        z = -z_max + (np.arange(n) + 0.5) * dz
        amp = np.sqrt(dz / abs_p_squared(spec, z))
        theta = np.outer(times, z)
        blocks = [
            (np.cos(theta + j * PI / 2) * amp * z**j,
             np.sin(theta + j * PI / 2) * amp * z**j)
            for j in range(k + 1)
        ]

        def oracle(stream):
            rng = _generator(5, "spectral", stream)
            xi_cos = rng.standard_normal(n)
            xi_sin = rng.standard_normal(n)
            return np.vstack([c @ xi_cos + s @ xi_sin for c, s in blocks])

        reps = spectral_replicates(spec, times, n_replicates=3, seed=5)
        for stream in range(3):
            want = oracle(stream)
            scale = np.abs(want).max(axis=1, keepdims=True)
            single = sample_spectral(spec, times, seed=5, stream=stream).values
            assert (np.abs(single - want) <= 1e-12 * scale).all()
            assert (np.abs(reps[stream] - want) <= 1e-12 * scale).all()

    def test_replicates_match_single_draws(self, spec_k1_pair):
        times = np.arange(3) * 0.5
        reps = spectral_replicates(spec_k1_pair, times, n_replicates=5, seed=11)
        assert reps.shape == (5, 2, 3)
        for r in range(5):
            single = sample_spectral(spec_k1_pair, times, seed=11, stream=r)
            np.testing.assert_allclose(reps[r], single.values, rtol=1e-12)

    def test_replicate_statistics(self, spec_k1_pair):
        times = np.arange(3) * 0.5
        reps = spectral_replicates(spec_k1_pair, times, n_replicates=4000, seed=2)
        cov = residue_expansion(spec_k1_pair)
        r0 = eval_r(cov, 0, 0.0)
        emp = (reps[:, 0, 0] * reps[:, 0, 1]).mean()
        target = eval_r(cov, 0, 0.5)
        se = np.std(reps[:, 0, 0] * reps[:, 0, 1]) / math.sqrt(4000)
        assert abs(emp - target) < 4 * se
        assert abs((reps[:, 0, 0] ** 2).mean() - r0) < 4 * r0 / math.sqrt(1000)

    def test_unresolvable_grid_raises(self, spec_k0):
        # the k = 0 tail budget forces z_max ~ 1e7; 4096 uniform panels
        # then step over the density peak entirely. That must be refused,
        # not silently returned as a near-zero-variance path.
        with pytest.raises(NotConverged):
            sample_spectral(spec_k0, np.arange(4) * 0.5, seed=1)


class TestMovingAverage:
    def test_kernel_goldens(self):
        ker = MAKernel(a_minus=1.0, a_plus=2.0, amp=1.0)
        cov = ma_covariance(ker)
        coefs = {root: coef for coef, root, _ in cov.terms}
        assert coefs[1j].real == pytest.approx(1.5, rel=1e-12)
        assert coefs[2j].real == pytest.approx(-0.75, rel=1e-12)
        assert cov.k == 1

    def test_realizability_constraint(self):
        # a- A1 + a+ A2 = 0 makes r'' continuous through zero
        for a_minus, a_plus, amp in [(1.0, 2.0, 1.0), (0.5, 3.0, 2.0)]:
            cov = ma_covariance(MAKernel(a_minus, a_plus, amp))
            coefs = {root.imag: coef.real for coef, root, _ in cov.terms}
            assert a_minus * coefs[a_minus] + a_plus * coefs[a_plus] == pytest.approx(
                0.0, abs=1e-12
            )

    def test_matches_residue_route(self):
        # same process reached through the root parameterization
        a_minus, a_plus, amp = 1.0, 2.0, 1.0
        c = a_minus * a_plus * math.sqrt(2 * PI) / (amp * (a_minus + a_plus))
        spec = model.validate([a_minus * 1j, a_plus * 1j], c)
        direct = ma_covariance(MAKernel(a_minus, a_plus, amp))
        via_roots = residue_expansion(spec)
        u = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            eval_r(direct, 0, u), eval_r(via_roots, 0, u), rtol=1e-10
        )

    def test_equal_rates_rejected(self):
        with pytest.raises(EqualRates):
            ma_covariance(MAKernel(1.0, 1.0 + 1e-12, 1.0))

    def test_confluent_golden(self):
        cov = ma_covariance_confluent(MAKernel(2.0, 2.0, 3.0))
        by_power = {power: coef.real for coef, _, power in cov.terms}
        assert by_power[0] == pytest.approx(4.5, rel=1e-12)
        assert by_power[1] == pytest.approx(9.0, rel=1e-12)

    def test_confluent_is_the_limit(self):
        conf = ma_covariance_confluent(MAKernel(2.0, 2.0, 3.0))
        near = ma_covariance(MAKernel(2.0, 2.0 + 1e-5, 3.0))
        u = np.array([0.0, 0.5, 1.3])
        np.testing.assert_allclose(
            eval_r(conf, 0, u), eval_r(near, 0, u), rtol=1e-4
        )

    def test_kernel_slope_is_derivative(self):
        ker = MAKernel(0.7, 1.9, 1.3)
        h = 1e-6
        for s in (0.2, 1.0, 2.5):
            fd = (ker(s + h) - ker(s - h)) / (2 * h)
            assert ker.slope(s) == pytest.approx(fd, rel=1e-6)

    def test_path_shape_and_determinism(self):
        ker = MAKernel(1.0, 2.0, 1.0)
        a = sample_moving_average(ker, dt=0.25, n_steps=12, seed=3)
        b = sample_moving_average(ker, dt=0.25, n_steps=12, seed=3)
        assert a.values.shape == (2, 13)
        assert a.method == "moving_average"
        np.testing.assert_array_equal(a.values, b.values)

    def test_path_statistics(self):
        # ensemble variance at fixed t against the closed-form r(0)
        ker = MAKernel(1.0, 2.0, 1.0)
        cov = ma_covariance(ker)
        r0 = eval_r(cov, 0, 0.0)
        vals = np.array([
            sample_moving_average(ker, dt=0.5, n_steps=2, seed=8, stream=s).values[0, -1]
            for s in range(1500)
        ])
        emp = float((vals * vals).mean())
        se = r0 * math.sqrt(2.0 / vals.size)
        assert abs(emp - r0) < 4 * se


class TestPathIO:
    def test_csv_format(self, tmp_path, spec_k1_pair):
        system, law = assemble(spec_k1_pair)
        path = sample_exact(system, law, 0.5, 3, seed=1)
        f = tmp_path / "p.csv"
        write_csv(path, f)
        lines = f.read_text().splitlines()
        assert lines[0] == "t,y0,y1"
        assert len(lines) == 5
        row = [float(x) for x in lines[2].split(",")]
        assert row[0] == pytest.approx(0.5)
        np.testing.assert_allclose(row[1:], path.values[:, 1])

    def test_csv_round_trips_float64(self, tmp_path, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.1, 50, seed=2)
        f = tmp_path / "p.csv"
        write_csv(path, f)
        back = np.loadtxt(f, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 1], path.values[0])

    def test_metadata(self, tmp_path, spec_k0):
        system, law = assemble(spec_k0)
        path = sample_exact(system, law, 0.1, 5, seed=42)
        f = tmp_path / "meta.json"
        write_metadata(path, model.to_config(spec_k0), f)
        meta = json.loads(f.read_text())
        assert meta == {
            "dt": 0.1,
            "method": "exact",
            "model": {"roots": [[0.0, 1.0]], "scale": 1.0},
            "seed": 42,
        }


class TestGeneratorStreams:
    def test_methods_are_decoupled(self):
        # same seed, different methods -> different Philox streams
        a = _generator(0, "exact").standard_normal(4)
        b = _generator(0, "euler").standard_normal(4)
        c = _generator(0, "spectral").standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(b, c)

    def test_psd_sqrt(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = _psd_sqrt(m)
        np.testing.assert_allclose(s @ s.T, m, rtol=1e-12)
