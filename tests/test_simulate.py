"""Samplers: exact transition, Euler, spectral synthesis."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from carkov import (
    assemble,
    eval_r,
    moments,
    residue_expansion,
    sample_euler,
    sample_exact,
    sample_spectral,
    spectral_replicates,
)
from carkov import model, simulate
from carkov.covariance import moment_bounds
from carkov.errors import (
    FactorizationFailure,
    NotConverged,
    StepTooSmall,
    UnstableStep,
)
from carkov.markov import StationaryLaw
from carkov.model import abs_p_squared
from carkov.simulate import (
    CSV_BLOCK,
    SCAN_BLOCK,
    SPECTRAL_BLOCK,
    SPECTRAL_DRAW_BLOCK,
    SPECTRAL_MAP_SCALE,
    SPECTRAL_MAX_PANELS,
    SPECTRAL_PANELS,
    SPECTRAL_RESOLUTION_TOL,
    _chunk_blocks,
    _generator,
    _psd_sqrt,
    _recursion,
    _recursion_operands,
    _spectral_design,
    _stationary_factor,
    ar1_recursion,
    euler_step_bound,
    exact_step_operator,
    write_csv,
)

from conftest import make_random_spec, make_stiff_spec

PI = math.pi
CONFIG_FILES = sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


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
        scipy_linalg = pytest.importorskip("scipy.linalg")
        system, law = assemble(spec_k2)
        phi, _ = exact_step_operator(system, law, 0.81)
        np.testing.assert_allclose(
            phi, scipy_linalg.expm(system.companion * 0.81), rtol=1e-10
        )

    def test_rejects_bad_dt(self, spec_k0):
        system, law = assemble(spec_k0)
        for dt in (0.0, math.inf):
            with pytest.raises(ValueError):
                exact_step_operator(system, law, dt)

    @pytest.mark.parametrize("dt", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_k0_innovation_at_small_dt(self, spec_k0, dt):
        # Q = r(0) (1 - e^{-2 lambda dt}), which Sigma - phi Sigma phi^T
        # loses to cancellation as dt shrinks
        system, law = assemble(spec_k0)
        _, L = exact_step_operator(system, law, dt)
        lam = -system.drift[0]
        want = -law.covariance[0, 0] * math.expm1(-2.0 * lam * dt)
        assert (L @ L.T)[0, 0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_k2_innovation_matches_van_loan(self, spec_k2, dt):
        system, law = assemble(spec_k2)
        _, L = exact_step_operator(system, law, dt)
        q = van_loan_innovation(system, dt)
        assert (L @ L.T)[0, 0] == pytest.approx(q[0, 0], rel=1e-8, abs=0.0)

    def test_k8_innovation_at_tau(self):
        spec = make_random_spec(np.random.default_rng(0), 8)
        system, law = assemble(spec)
        dt = 1.0 / min(z.imag for z in spec.roots)
        _, L = exact_step_operator(system, law, dt)
        q = van_loan_innovation(system, dt)
        assert (L @ L.T)[-1, -1] == pytest.approx(q[-1, -1], rel=1e-12, abs=0.0)

    def test_k10_scaled_lyapunov_residual(self):
        # L is factored in the variance-scaled state, so the rows of small
        # variance keep their digits; a factor of the unscaled Q leaves
        # 1.1e-8 on these models
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = make_random_spec(rng, 10)
            system, law = assemble(spec)
            tau = 1.0 / min(z.imag for z in spec.roots)
            phi, L = exact_step_operator(system, law, tau / 50)
            sigma = law.covariance
            d = np.sqrt(np.diag(sigma))
            resid = (sigma - phi @ sigma @ phi.T - L @ L.T) / np.outer(d, d)
            assert np.abs(resid).max() <= 1e-11

    def test_factorization_failure(self, spec_k0):
        system, law = assemble(spec_k0)
        with pytest.raises(FactorizationFailure):
            exact_step_operator(
                system, StationaryLaw(covariance=-law.covariance), 0.5
            )


def van_loan_innovation(system, dt):
    """Q = int_0^dt e^{As} b b^T e^{A^T s} ds of the float system, from
    Van Loan's block exponential at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        A = mp.matrix(system.companion.tolist())
        b = mp.matrix(system.noise_vector.tolist())
        d = A.rows
        block = mp.zeros(2 * d, 2 * d)
        for i in range(d):
            for j in range(d):
                block[i, j] = -A[i, j]
                block[i, d + j] = b[i] * b[j]
                block[d + i, d + j] = A[j, i]
        e = mp.expm(block * mp.mpf(dt))
        phi = e[d:, d:].T
        q = phi * e[:d, d:]
        return np.array(q.tolist(), dtype=float)


def too_small_steps(n_models=20):
    """(spec, system, law, dt) for random k = 8 and k = 10 models at
    dt = 1e-16 tau, where e^{A dt} rounds towards the identity (17 of
    the 20 are refused there, and all 20 sample at 1e-15 tau)."""
    rng = np.random.default_rng(5)
    for i in range(n_models):
        spec = make_random_spec(rng, 8 if i % 2 == 0 else 10)
        system, law = assemble(spec)
        tau = 1.0 / min(z.imag for z in spec.roots)
        yield spec, system, law, 1e-16 * tau


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
                # the message names a larger dt at which the sampler runs
                named = re.search(r"such as dt = (\S+)$", str(exc))
                assert named is not None, str(exc)
                usable = float(named.group(1))
                assert usable > dt
                path = sample_exact(system, law, usable, 5, seed=0)
                assert np.isfinite(path.values).all()
        assert raised > 0

    def test_contraction_off_by_more_than_2_is_refused(self, spec_k2):
        # the computed e^{A dt} can have radius below 1 and still contract
        # at the wrong rate: 1 - 1.1e-16 on k2 at dt = 1e-300, and 111 and
        # 11 times the true rate on a k = 4 model at 1e-18 and 1e-17 tau
        cases = [(*assemble(spec_k2), 1e-300)]
        spec = make_random_spec(np.random.default_rng(1), 4)
        tau = 1.0 / min(z.imag for z in spec.roots)
        cases += [(*assemble(spec), f * tau) for f in (1e-18, 1e-17)]
        for system, law, dt in cases:
            with pytest.raises(StepTooSmall, match="contraction") as err:
                sample_exact(system, law, dt, 5, seed=0)
            usable = float(re.search(r"such as dt = (\S+)$",
                                     str(err.value)).group(1))
            assert dt < usable <= 1e-12 * tau
            assert np.isfinite(sample_exact(system, law, usable, 5,
                                            seed=0).values).all()

    def test_dt_from_1e_12_tau_resolves(self):
        # the shipped configs and regular models up to k = 10
        specs = [model.load_model(path) for path in CONFIG_FILES]
        rng = np.random.default_rng(2)
        specs += [make_random_spec(rng, k) for k in range(11) for _ in range(3)]
        for spec in specs:
            system, law = assemble(spec)
            tau = 1.0 / min(z.imag for z in spec.roots)
            for e in range(-12, 3):
                exact_step_operator(system, law, 10.0**e * tau)

    @pytest.mark.parametrize("k, seed, log_dt", [
        (10, 79, -12.0), (10, 132, -12.0), (10, 79, -11.75),
        (10, 132, -11.75), (9, 93, -11.75)])
    def test_radius_read_from_step_minus_identity(self, k, seed, log_dt):
        # eigvals of phi itself put these steps' radius at 1 + 2e-13 to
        # 1 + 7e-13, an error of about u ||phi||, while the eigenvalues
        # of phi - I keep it below 1 and the contraction near the truth:
        # the path is the sequential loop's
        spec = make_random_spec(np.random.default_rng(seed), k)
        system, law = assemble(spec)
        dt = 10.0**log_dt / min(z.imag for z in spec.roots)
        path = sample_exact(system, law, dt, 1000, seed=0)
        phi, innovation = exact_step_operator(system, law, dt)
        rng = _generator(0, "exact", 0)
        loop = np.empty((k + 1, 1001))
        loop[:, 0] = _stationary_factor(law.covariance) @ rng.standard_normal(k + 1)
        for m, xi in enumerate(rng.standard_normal((1000, k + 1))):
            loop[:, m + 1] = phi @ loop[:, m] + innovation @ xi
        scale = np.abs(loop).max(axis=1, keepdims=True)
        assert (np.abs(path.values - loop) <= 1e-10 * scale).all()

    def test_euler_below_the_stability_bound(self, spec_k2):
        # I + A dt rounds to radius 1 at dt = 1e-17, far below the bound
        # of 1: that dt is too small, not unstable
        system, law = assemble(spec_k2)
        with pytest.raises(StepTooSmall, match="spectral radius") as err:
            sample_euler(system, law, 1e-17, 5, seed=0)
        usable = float(re.search(r"such as dt = (\S+)$",
                                 str(err.value)).group(1))
        assert 1e-17 < usable < euler_step_bound(system)
        assert np.isfinite(sample_euler(system, law, usable, 5,
                                        seed=0).values).all()
        with pytest.raises(UnstableStep):
            sample_euler(system, law, 1.01, 5, seed=0)


def count_operator_calls(monkeypatch):
    """Clear the recursion memo and count exact_step_operator calls."""
    calls = []

    def counted(system, law, dt):
        calls.append(dt)
        return exact_step_operator(system, law, dt)

    monkeypatch.setattr(simulate, "exact_step_operator", counted)
    _recursion_operands.cache_clear()
    return calls


def resolves(system, law, dt):
    """Whether exact_step_operator accepts dt."""
    try:
        exact_step_operator(system, law, dt)
    except StepTooSmall:
        return False
    return True


class TestRecursionMemo:
    def test_one_operator_per_system_law_dt(self, spec_k2, monkeypatch):
        system, law = assemble(spec_k2)
        calls = count_operator_calls(monkeypatch)
        a = sample_exact(system, law, 0.05, 100, seed=1)
        b = sample_exact(system, law, 0.05, 100, seed=2)
        assert calls == [0.05]
        assert not np.array_equal(a.values, b.values)

    def test_new_dt_or_changed_covariance_gets_fresh_operands(
            self, spec_k2, monkeypatch):
        system, law = assemble(spec_k2)
        calls = count_operator_calls(monkeypatch)
        first = sample_exact(system, law, 0.05, 50, seed=1)
        sample_exact(system, law, 0.07, 50, seed=1)
        assert calls == [0.05, 0.07]
        # the memo keys on the covariance's bytes, not on the law object
        law.covariance[:] *= 4.0
        scaled = sample_exact(system, law, 0.05, 50, seed=1)
        assert calls == [0.05, 0.07, 0.05]
        # the initial state was drawn with the new covariance's factor
        np.testing.assert_allclose(scaled.values[:, 0], 2.0 * first.values[:, 0],
                                   rtol=1e-12)

    def test_operands_read_only_and_paths_writeable(self, spec_k2):
        system, law = assemble(spec_k2)
        for method in ("exact", "euler"):
            for operand in _recursion(system, law, method, 0.01):
                assert not operand.flags.writeable
        for sampler in (sample_exact, sample_euler):
            path = sampler(system, law, 0.01, 20, seed=0)
            assert path.values.flags.writeable
            path.values[:, 0] = 0.0
        phi, innovation = exact_step_operator(system, law, 0.01)
        assert phi.flags.writeable and innovation.flags.writeable

    def test_errors_raise_every_time_and_are_not_cached(self, spec_k0):
        system, law, dt = next(
            (sy, la, dt) for _sp, sy, la, dt in too_small_steps()
            if not resolves(sy, la, dt)
        )
        _recursion_operands.cache_clear()
        for _ in range(2):
            with pytest.raises(StepTooSmall):
                sample_exact(system, law, dt, 5, seed=0)
        system0, law0 = assemble(spec_k0)
        for _ in range(2):
            with pytest.raises(UnstableStep):
                sample_euler(system0, law0, 2.1, 10, seed=1)
        assert _recursion_operands.cache_info().currsize == 0


def test_paths_are_time_major(spec_k2):
    # every sampler holds its path as one C-ordered (n+1, k+1) buffer and
    # values is its (k+1, n+1) transpose view
    system, law = assemble(spec_k2)
    n = SCAN_BLOCK * _chunk_blocks(1) + 9
    for path in (sample_exact(system, law, 0.01, n, seed=0),
                 sample_euler(system, law, 0.001, n, seed=0),
                 sample_spectral(spec_k2, 0.01 * np.arange(50), seed=0)):
        assert path.values.shape == (3, path.n_points)
        assert path.values.T.flags.c_contiguous, path.method
        assert not path.values.flags.c_contiguous, path.method


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

    def test_long_path_holds_one_chunk_of_shocks(self, spec_k2):
        # a 1e6-step path draws its shocks a scan chunk at a time: the
        # peak is the output plus one chunk of shocks, _chunk_blocks(q)
        # blocks of q doubles per step, and the scan's temporaries, which
        # stay below a third of that at q = d = 3, not the output plus
        # every shock
        system, law = assemble(spec_k2)
        sample_exact(system, law, 0.01, 10, seed=0)  # tables built untraced
        tracemalloc.start()
        try:
            path = sample_exact(system, law, 0.01, 1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q = path.values.shape[0]
        chunk = 8 * q * SCAN_BLOCK * _chunk_blocks(q)
        assert peak <= path.values.nbytes + 4 * chunk / 3, (
            f"peak {(peak - path.values.nbytes) / chunk:.2f} chunks above the output")

    def test_matches_drawing_every_shock_first(self, spec_k2, spec_k8):
        # the chunked draws are the stream's order: the path is the one
        # that one (n, d) draw and one recursion give, bit for bit, from
        # a cold and from a filled operand memo, over three chunks and a
        # partial block (2048 blocks at d = 3, 682 at d = 9)
        for spec in (spec_k2, spec_k8):
            system, law = assemble(spec)
            d = spec.k + 1
            n = 3 * SCAN_BLOCK * _chunk_blocks(d) + 21
            _recursion_operands.cache_clear()
            path = sample_exact(system, law, 0.05, n, seed=8, stream=2)
            again = sample_exact(system, law, 0.05, n, seed=8, stream=2)
            phi, innovation = exact_step_operator(system, law, 0.05)
            rng = _generator(8, "exact", 2)
            z0 = _stationary_factor(law.covariance) @ rng.standard_normal(d)
            whole = ar1_recursion(phi, innovation, z0,
                                  rng.standard_normal((n, d)))
            assert path.values.tobytes() == whole.tobytes(), d
            assert again.values.tobytes() == whole.tobytes(), d

    def test_negative_step_count_is_refused(self, spec_k2):
        system, law = assemble(spec_k2)
        with pytest.raises(ValueError, match="n_steps"):
            sample_exact(system, law, 0.05, -1, seed=1)
        assert sample_exact(system, law, 0.05, 0, seed=1).n_points == 1

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

    def test_unstable_step_message_stays_short(self, spec_k0):
        # the radius grows like dt, so it is printed with %g
        system, law = assemble(spec_k0)
        with pytest.raises(UnstableStep) as err:
            sample_euler(system, law, 1e300, 10, seed=1)
        message = str(err.value)
        assert len(message) < 120, message
        assert message.endswith("stable below dt = 2")

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_dt_is_refused_before_any_work(self, spec_k0, dt, monkeypatch):
        def refused(*args):
            raise AssertionError("the sampler started work")

        monkeypatch.setattr(simulate, "_recursion", refused)
        system, law = assemble(spec_k0)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_euler(system, law, dt, 10, seed=0)

    def test_negative_step_count_is_refused(self, spec_k2):
        system, law = assemble(spec_k2)
        with pytest.raises(ValueError, match="n_steps"):
            sample_euler(system, law, 0.05, -1, seed=1)
        assert sample_euler(system, law, 0.05, 0, seed=1).n_points == 1

    def test_matches_drawing_every_shock_first(self, spec_k2, spec_k8):
        # from a cold and from a filled operand memo, over three chunks
        # and a partial block, at d = 3 and d = 9
        dt, n = 0.001, 3 * SCAN_BLOCK * _chunk_blocks(1) + 9
        for spec in (spec_k2, spec_k8):
            system, law = assemble(spec)
            d = spec.k + 1
            _recursion_operands.cache_clear()
            path = sample_euler(system, law, dt, n, seed=8)
            again = sample_euler(system, law, dt, n, seed=8)
            rng = _generator(8, "euler")
            z0 = _stationary_factor(law.covariance) @ rng.standard_normal(d)
            whole = ar1_recursion(
                np.eye(d) + system.companion * dt,
                (system.noise_vector * math.sqrt(dt)).reshape(d, 1),
                z0, rng.standard_normal((n, 1)),
            )
            assert path.values.tobytes() == whole.tobytes(), d
            assert again.values.tobytes() == whole.tobytes(), d

    def test_recursion_reproduced_by_hand(self, spec_k1_repeated):
        # from the path's own stationary start: the stream's first two
        # normals drew it, and the shocks follow
        system, law = assemble(spec_k1_repeated)
        dt, n = 0.01, 25
        path = sample_euler(system, law, dt, n, seed=9)
        rng = _generator(9, "euler")
        rng.standard_normal(2)
        shocks = rng.standard_normal((n, 1))
        z = path.values[:, 0].copy()
        expect = [z]
        A, b = system.companion, system.noise_vector
        for m in range(n):
            z = z + A @ z * dt + b * math.sqrt(dt) * shocks[m, 0]
            expect.append(z)
        np.testing.assert_allclose(path.values, np.array(expect).T, rtol=1e-12)

    def test_variance_matches_discrete_lyapunov(self, spec_k0):
        # at a coarse step the Euler chain is still an exact AR(1) whose
        # stationary variance solves a discrete Lyapunov equation; the
        # empirical variance must match THAT, not the continuous law
        scipy_linalg = pytest.importorskip("scipy.linalg")
        system, law = assemble(spec_k0)
        dt = 0.25
        M = np.eye(1) + system.companion * dt
        Q = np.outer(system.noise_vector, system.noise_vector) * dt
        target = scipy_linalg.solve_discrete_lyapunov(M, Q)[0, 0]
        # b^2 dt / (1 - (1 - a dt)^2) = b^2 / (2a - a^2 dt): biased UP
        assert target > law.covariance[0, 0]
        path = sample_euler(system, law, dt, 400_000, seed=4)
        burn = path.values[0, 1000:]
        emp = float((burn * burn).mean())
        se = emp * math.sqrt(2.0 * (2.0 / dt) / burn.size)
        assert abs(emp - target) < 5 * se
        assert abs(emp - law.covariance[0, 0]) > 5 * se


def mapped_grid(spec, n):
    """Frequencies and amplitudes of the tan-mapped midpoint grid, with
    dz/du written as s pi sec^2."""
    s = SPECTRAL_MAP_SCALE * math.exp(np.mean(np.log(np.abs(spec.roots))))
    angle = PI * ((np.arange(n) + 0.5) / n - 0.5)
    z = s * np.tan(angle)
    amp = np.sqrt(s * PI / np.cos(angle) ** 2 / (n * abs_p_squared(spec, z)))
    return z, amp


def kernel_case(spec, times, draws):
    """(design, xi_cos, xi_sin) on the SPECTRAL_PANELS-panel mapped grid
    at the given times, with weights amp z^j and seeded noise."""
    z, amp = mapped_grid(spec, SPECTRAL_PANELS)
    weights = amp * z ** np.arange(spec.k + 1)[:, None]
    rng = np.random.default_rng(9)
    xi = rng.standard_normal((2, draws, z.size))
    return (np.asarray(times, dtype=float), z, weights), xi[0], xi[1]


def direct_rows(design, xi_cos, xi_sin, at):
    """(k+1, draws, len(at)) rows at times[at] from one cos and one sin
    of outer(times, z) per (time, panel) pair: row j is
    cos(theta) @ (w_j a_j) + sin(theta) @ (w_j b_j), with (a_j, b_j) =
    (xi_cos, xi_sin) turned j quarter turns."""
    times, z, weights = design
    theta = np.outer(times[at], z)
    cos, sin = np.cos(theta), np.sin(theta)
    rows = []
    a, b = xi_cos, xi_sin
    for w in weights:
        rows.append((a * w) @ cos.T + (b * w) @ sin.T)
        a, b = b, -a
    return np.stack(rows)


def design_lag_error(spec, cov):
    """Panel frequencies and row weights of the design on 0..25 tau at
    0.25 tau spacing, and the largest |design covariance - r| / r(0) of
    row 0 over those lags."""
    tau = 1.0 / min(z.imag for z in spec.roots)
    lags = 0.25 * tau * np.arange(101)
    lags, z, weights = _spectral_design(spec, lags)
    design = np.cos(np.outer(lags, z)) @ weights[0] ** 2
    error = np.abs(design - eval_r(cov, 0, lags)).max() / eval_r(cov, 0, 0.0)
    return z, weights, error


class TestSpectral:
    def test_times_must_be_uniform(self, spec_k0):
        with pytest.raises(ValueError):
            sample_spectral(spec_k0, np.array([0.0, 0.5, 1.0, 2.0]), seed=1)
        with pytest.raises(ValueError):
            sample_spectral(spec_k0, np.array([0.0, -0.5, -1.0]), seed=1)

    @pytest.mark.parametrize("times", [[math.nan], [math.inf], [0.0, math.nan],
                                       [0.0, math.inf]])
    def test_non_finite_times_are_refused_before_any_work(self, spec_k2, times,
                                                          monkeypatch):
        # unchecked, a non-finite time draws an all-NaN path, fails to
        # convert to a lag index, or doubles the grid to its cap
        def refused(*args):
            raise AssertionError("the design started work")

        monkeypatch.setattr(simulate, "residue_expansion", refused)
        with pytest.raises(ValueError, match="times must be finite"):
            sample_spectral(spec_k2, times, seed=0)
        with pytest.raises(ValueError, match="times must be finite"):
            spectral_replicates(spec_k2, times, 2, seed=0)

    def test_non_finite_times_message_names_count_and_first(self, spec_k2):
        times = np.full(1001, math.inf)
        times[:2] = 0.0, math.nan
        with pytest.raises(ValueError) as info:
            sample_spectral(spec_k2, times, seed=0)
        assert str(info.value) == ("times must be finite, got 1000 "
                                   "non-finite values, the first nan")

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
        # sum_p w_jp^2 (cos^2 + sin^2) at every t. The mapped grid covers
        # the whole line, so every row matches (-1)^j r^(2j)(0).
        cov = residue_expansion(spec_k2)
        times, z, weights = _spectral_design(spec_k2, [0.0, 0.7])
        assert times.shape == (2,) and z.shape == (4096,)
        assert weights.shape == (3, 4096)
        cos_t, sin_t = np.cos(np.outer(times, z)), np.sin(np.outer(times, z))
        for j in range(3):
            variance = (cos_t**2 + sin_t**2) @ weights[j] ** 2
            np.testing.assert_allclose(
                variance, (-1) ** j * eval_r(cov, 2 * j, 0.0), rtol=1e-12
            )

    @pytest.mark.parametrize("k", range(11))
    def test_population_rows_and_lags(self, k):
        # 20 models per k: every row's design variance against the closed
        # form, which at high k carries its own rounding (moment_bounds);
        # and the lag covariance of row 0 over 25 tau. k = 0 decays
        # slowest, so its tail panels alias most (about 3e-3 r(0)).
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = make_random_spec(rng, k)
            cov = residue_expansion(spec)
            mom = moments(cov)
            z, weights, error = design_lag_error(spec, cov)
            assert z.size == SPECTRAL_PANELS
            bounds = moment_bounds(mom)
            for j in range(k + 1):
                target = (-1) ** j * mom.even_moments[2 * j]
                gap = abs(weights[j] @ weights[j] - target)
                assert gap <= 1e-10 * target + bounds[2 * j]
            assert error <= (1e-4 if k else 5e-3)

    def test_not_periodic_within_25_tau(self):
        # a uniform grid of spacing dz repeats its covariance with period
        # 2 pi / dz; for this k = 1 model the truncated uniform grid had
        # period 27.4 tau and an error of 0.12 r(0) within 25 tau
        spec = make_random_spec(np.random.default_rng(2026), 1)
        z, _weights, error = design_lag_error(spec, residue_expansion(spec))
        assert z.size == SPECTRAL_PANELS
        assert error <= 1e-4

    def test_memory_is_the_output_and_one_block(self, spec_k2):
        # 2,001 times x 4,096 panels: cos and sin are formed one block of
        # SPECTRAL_BLOCK times and panels at a time, so the peak is the
        # output plus one [cos | sin] block; the half block of slack
        # holds the per-panel grid (z, two noise vectors and k + 1
        # weight rows, 192 KiB here) and numpy's ufunc buffers. The whole
        # design would be 2 x 2,001 x 4,096 doubles, 125 MiB.
        times = 0.01 * np.arange(2001)
        sample_spectral(spec_k2, times[:2], seed=1)
        tracemalloc.start()
        try:
            path = sample_spectral(spec_k2, times, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * SPECTRAL_BLOCK**2 * 8
        assert peak <= path.values.nbytes + 1.5 * block, (
            f"peak {(peak - path.values.nbytes) / block:.2f} blocks above the output")

    def test_k0(self, spec_k0):
        # 1/(1 + z^2) decays slowest of all; its variance is still exact
        path = sample_spectral(spec_k0, np.arange(4) * 0.5, seed=1)
        assert path.values.shape == (1, 4)
        _times, z, weights = _spectral_design(spec_k0, np.zeros(1))
        assert z.size == SPECTRAL_PANELS
        assert weights[0] @ weights[0] == pytest.approx(PI, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_matches_shifted_block_oracle(self, k):
        # oracle: one cos and one sin block per derivative order,
        # evaluated at theta + j pi/2. k in {1, 2, 3, 4, 8} covers every
        # j mod 4.
        spec = make_random_spec(np.random.default_rng(100 + k), k)
        times = 0.05 * np.arange(40)
        n = 4096
        z, amp = mapped_grid(spec, n)
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

    @pytest.mark.parametrize("k", [0, 2, 8])
    @pytest.mark.parametrize("times", [
        0.01 * np.arange(2 * SPECTRAL_BLOCK + 7),  # a partial coarse block
        0.01 * np.arange(5),                       # fewer times than F
        np.linspace(3.0, 8.0, 301),                # a non-zero start
    ], ids=["blocks", "five", "shifted"])
    def test_rows_match_direct_trig(self, k, times):
        # the phases by angle addition against one cos and one sin per
        # (time, panel) pair, over 16 panel blocks
        spec = make_random_spec(np.random.default_rng(200 + k), k)
        design, xi_cos, xi_sin = kernel_case(spec, times, draws=1 if k == 0 else 2)
        rows = simulate._spectral_rows(design, xi_cos, xi_sin)
        want = direct_rows(design, xi_cos, xi_sin, np.arange(times.size))
        scale = np.abs(want).max(axis=2, keepdims=True)
        assert (np.abs(rows - want) <= 1e-12 * scale).all()

    def test_rows_match_direct_trig_on_a_long_grid(self):
        # 1e5 times: both kernels round z t, so they part by up to
        # u max|t| max|z| of each row's largest value
        spec = make_random_spec(np.random.default_rng(208), 8)
        times = 0.01 * np.arange(100_000)
        design, xi_cos, xi_sin = kernel_case(spec, times, draws=1)
        at = np.linspace(0, times.size - 1, 200).astype(int)
        rows = simulate._spectral_rows(design, xi_cos, xi_sin)[:, :, at]
        want = direct_rows(design, xi_cos, xi_sin, at)
        scale = np.abs(want).max(axis=2, keepdims=True)
        bound = np.finfo(float).eps / 2 * times[-1] * np.abs(design[1]).max()
        assert bound < 1e-8
        assert (np.abs(rows - want) <= bound * scale).all()

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

    def test_six_decades_resolve(self):
        # roots six decades apart: at 4096 panels those near z = 0 are
        # wider than the 1e-3 peak and row 0 gets 44 % of r(0); the grid
        # doubles to 32,768 panels, where every row meets the tolerance
        spec = model.validate([1e-3j, 10j, 1e3j], 1.0)
        cov = residue_expansion(spec)
        times = np.arange(4) * 0.5
        _times, z, weights = _spectral_design(spec, times)
        assert z.size == 32768
        for j, w in enumerate(weights):
            target = (-1) ** j * eval_r(cov, 2 * j, 0.0)
            assert abs(w @ w - target) <= SPECTRAL_RESOLUTION_TOL * target
        path = sample_spectral(spec, times, seed=1)
        assert path.values.shape == (3, 4) and np.isfinite(path.values).all()

    def test_unresolvable_grid_raises(self):
        # roots eight decades apart: even at the cap the panels near
        # z = 0 are wider than the 1e-4 peak, so row 0 gets 91 % of r(0).
        # That must be refused, not returned as a mis-scaled path.
        spec = model.validate([1e-4j, 10j, 1e4j], 1.0)
        with pytest.raises(NotConverged, match=r"Var Y\^\(0\)") as info:
            sample_spectral(spec, np.arange(4) * 0.5, seed=1)
        message = str(info.value)
        assert f"{SPECTRAL_MAX_PANELS} mapped midpoint panels" in message
        assert "map scale 8.61774" in message and "span 1.5" in message
        with pytest.raises(NotConverged):
            spectral_replicates(spec, np.arange(4) * 0.5, 2, seed=1)

    def test_panels_grow_with_the_span(self):
        # roots 1i and 1e4 i: the centre panels repeat row 0's
        # covariance with a period of about 2 N / s, s = 400, which
        # 4096 panels keep beyond 2.5 tau but not beyond 25 tau
        spec = model.validate([1j, 1e4j], 1.0)
        assert _spectral_design(spec, 0.25 * np.arange(11))[1].size == 4096
        assert _spectral_design(spec, 0.25 * np.arange(101))[1].size == 8192

    def test_aliasing_span_raises(self):
        # roots 1i and 1e6 i over 70 tau: at the cap the period 2 N / s
        # is 65.5 tau, where row 0's design covariance is off by most
        # of r(0); over 20 tau, 65,536 panels serve
        spec = model.validate([1j, 1e6j], 1.0)
        assert _spectral_design(spec, 0.5 * np.arange(41))[1].size == 65536
        with pytest.raises(NotConverged, match=r"row-0 covariance off by .* "
                           r"r\(0\) at lag 66 over the span 70"):
            _spectral_design(spec, np.arange(71.0))

    def test_stiff_population_lags(self):
        # purely imaginary roots log-uniform on [1, S] i, 3 models per
        # (S, k): at 4096 panels row 0's design covariance was off by up
        # to r(0) within 25 tau on S = 1e3 (k = 2, 3) and S = 1e4
        # (k = 1, 2, 3, 5). The grid now doubles until the requested
        # lags are resolved, or refuses.
        rng = np.random.default_rng(3)
        sizes = []
        for spread in (1e2, 1e3, 1e4):
            for k in (0, 1, 2, 3, 5):
                for _ in range(3):
                    spec = make_stiff_spec(rng, spread, k)
                    try:
                        z, _weights, error = design_lag_error(
                            spec, residue_expansion(spec))
                    except NotConverged:
                        continue
                    assert error <= 1e-2, (spread, k, z.size)
                    sizes.append(z.size)
        assert max(sizes) > SPECTRAL_PANELS

    def test_replicate_memory_at_a_large_grid(self):
        # 64 replicates at the six-decade model's 32,768 panels: the
        # draw blocks hold SPECTRAL_DRAW_BLOCK // 32,768 = 32 replicates,
        # 8 MiB each, where a fixed 256-replicate chunk would hold all 64
        # in two 16 MiB blocks. The 3 MiB of slack holds the design
        # (z and three weight rows, 1 MiB), one block of the sum (the
        # turned weights, 384 KiB) and numpy's buffers.
        spec = model.validate([1e-3j, 10j, 1e3j], 1.0)
        times = np.arange(4) * 0.5
        spectral_replicates(spec, times, 1, seed=1)
        tracemalloc.start()
        try:
            reps = spectral_replicates(spec, times, 64, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = reps.nbytes + 2 * SPECTRAL_DRAW_BLOCK * 8 + 3 * 2**20
        assert peak <= budget, f"peak {peak / 2**20:.1f} MiB"


class TestPathIO:
    def test_csv_format(self, tmp_path, spec_k1_pair):
        system, law = assemble(spec_k1_pair)
        path = sample_exact(system, law, 0.5, 3, seed=1)
        f = tmp_path / "p.csv"
        write_csv([path.values.T], f, path.dt)
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
        write_csv([path.values.T], f, path.dt)
        back = np.loadtxt(f, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 1], path.values[0])

    @pytest.mark.parametrize("spec_name", ["spec_k0", "spec_k2"])
    @pytest.mark.parametrize("method", ["exact", "euler", "spectral"])
    def test_csv_bytes_are_savetxt_bytes(self, tmp_path, request, spec_name,
                                         method):
        spec = request.getfixturevalue(spec_name)
        system, law = assemble(spec)
        if method == "spectral":
            path = sample_spectral(spec, 0.05 * np.arange(301), seed=3)
        else:
            sampler = sample_exact if method == "exact" else sample_euler
            path = sampler(system, law, 0.01, 2 * CSV_BLOCK + 5, seed=3)
        f, ref = tmp_path / "p.csv", tmp_path / "ref.csv"
        write_csv([path.values.T], f, path.dt)
        header = "t," + ",".join(f"y{j}" for j in range(spec.k + 1))
        np.savetxt(ref, np.column_stack([path.times, path.values.T]),
                   delimiter=",", header=header, comments="", fmt="%.17g")
        assert f.read_bytes() == ref.read_bytes()


class TestGeneratorStreams:
    def test_methods_are_decoupled(self):
        # same seed, different methods -> different substreams
        a = _generator(0, "exact").standard_normal(4)
        b = _generator(0, "euler").standard_normal(4)
        c = _generator(0, "spectral").standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(b, c)

    # first four normals of _generator(0, method, 0): SFC64 output does
    # not depend on the platform, so any change of stream fails here
    @pytest.mark.parametrize("method, first", [
        ("exact", [-1.2540797385549642, -0.057374060490056056,
                   0.1831656089569397, -0.25374987556924999]),
        ("euler", [2.0120363328572557, 0.11570805420848979,
                   1.310189154254402, -0.71064340012794924]),
        ("spectral", [-0.63504237903489857, 1.2047093428564883,
                      0.15289391376178632, 0.10287930683660257]),
    ])
    def test_streams_are_pinned(self, method, first):
        draws = _generator(0, method, 0).standard_normal(4)
        assert draws.tolist() == first

    def test_psd_sqrt(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        scale = np.array([0.5, 3.0])
        s = _psd_sqrt(m, scale)
        np.testing.assert_allclose(s @ s.T, m * np.outer(scale, scale),
                                   rtol=1e-12)
        f = _stationary_factor(m)
        np.testing.assert_allclose(f @ f.T, m, rtol=1e-12)
