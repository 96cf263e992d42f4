"""Acceptance suite: the eight gate criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines on a passing run (pytest swallows stdout of green tests
otherwise). Every criterion asserts, so a red line is also a red test.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from carkov import (
    assemble,
    eval_r,
    moments,
    quadrature_r,
    residue_expansion,
    sample_euler,
    sample_exact,
    spectral_replicates,
)
from carkov import model
from carkov.cli import main as cli_main
from carkov.validate import (
    check_empirical_covariance,
    check_lyapunov,
    check_markov_factorization,
    check_ode_annihilation,
)
from conftest import make_random_spec
from stat_helpers import block_standard_error, check_partial_correlation

PI = math.pi


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.fixture(scope="module")
def population_100():
    # shared by criteria 3 and 5: 100 random valid specs, k <= 4
    rng = np.random.default_rng(20260819)
    return [make_random_spec(rng, k_max=4) for _ in range(100)]


def test_criterion_1_k0_golden():
    t0 = time.perf_counter()
    worst = 0.0
    u_grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    for alpha in (0.5, 1.0, 2.0):
        spec = model.validate([alpha * 1j], 1.0)
        cov = residue_expansion(spec)
        system, _ = assemble(spec)
        a_coef = PI * alpha
        for u in u_grid:
            worst = max(worst, _rel(eval_r(cov, 0, float(u)),
                                    a_coef * math.exp(-alpha * u)))
        worst = max(worst, _rel(system.drift[0], -alpha))
        worst = max(worst, _rel(system.diffusion**2, 2 * a_coef * alpha))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _verdict(1, "k=0 golden", ok,
             f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_2_k1_confluent():
    t0 = time.perf_counter()
    worst = 0.0
    u_grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    for a in (1.0, 2.0):
        spec = model.validate([a * 1j, a * 1j], 1.0)
        cov = residue_expansion(spec)
        system, _ = assemble(spec)
        r0 = eval_r(cov, 0, 0.0)
        for u in u_grid:
            shape = (1 + a * u) * math.exp(-a * u)
            worst = max(worst, _rel(eval_r(cov, 0, float(u)), r0 * shape))
        worst = max(worst, _rel(system.drift[0], -a**2))
        worst = max(worst, _rel(system.drift[1], -2 * a))
        worst = max(worst, _rel(system.diffusion**2, 2 * PI * a**4))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _verdict(2, "k=1 confluent", ok,
             f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_3_characteristic_consistency(population_100):
    t0 = time.perf_counter()
    worst_drift = 0.0
    worst_diff = 0.0
    for spec in population_100:
        system, _ = assemble(spec)
        chi = model.ode_char_poly(spec)
        for j in range(spec.k + 1):
            worst_drift = max(
                worst_drift, _rel(system.drift[j], -chi.coefficients[j])
            )
        target = 2 * PI * np.prod([abs(z) ** 2 for z in spec.roots])
        worst_diff = max(
            worst_diff, _rel(system.diffusion**2 * spec.scale**2, target)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_drift <= 1e-8 and worst_diff <= 1e-8 and elapsed < 30.0
    _verdict(3, "characteristic consistency", ok,
             f"100 specs, drift rel err {worst_drift:.2e}, "
             f"b^2 c^2 rel err {worst_diff:.2e} (tol 1e-8), "
             f"{elapsed:.1f} s (< 30 s)")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    t_grid = (0.0, 0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for _ in range(50):
        spec = make_random_spec(rng, k_max=3)
        cov = residue_expansion(spec)
        for j in range(2 * spec.k + 1):
            # scale-aware comparison: zeros of r^(j) are legitimate, so
            # measure against the magnitude of the derivative itself
            scale = max(abs(eval_r(cov, j, np.array(t_grid[1:]))).max(),
                        abs(eval_r(cov, j, 1e-3)))
            for t in t_grid:
                if t == 0.0 and j % 2 == 1:
                    continue  # both sides exactly zero by symmetry
                gap = abs(quadrature_r(spec, j, t) - eval_r(cov, j, float(t)))
                worst = max(worst, gap / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(4, "oracle equivalence", ok,
             f"50 specs, j <= 2k, max rel gap {worst:.2e} (tol 1e-6), "
             f"{elapsed:.1f} s (< 60 s)")


def test_criterion_5_identity_suite(population_100):
    t0 = time.perf_counter()
    worst = {"factorization": 0.0, "annihilation": 0.0, "lyapunov": 0.0}
    for spec in population_100:
        cov = residue_expansion(spec)
        system, law = assemble(spec)
        worst["factorization"] = max(
            worst["factorization"],
            check_markov_factorization(cov, moments(cov)).statistic,
        )
        worst["annihilation"] = max(
            worst["annihilation"],
            check_ode_annihilation(spec, cov).statistic,
        )
        worst["lyapunov"] = max(
            worst["lyapunov"], check_lyapunov(system, law).statistic
        )
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-8 for v in worst.values())
    _verdict(5, "identity suite", ok,
             f"100 specs, residuals: factorization {worst['factorization']:.2e}, "
             f"annihilation {worst['annihilation']:.2e}, "
             f"lyapunov {worst['lyapunov']:.2e} (tol 1e-8), {elapsed:.1f} s")


def test_criterion_6_statistical_agreement():
    t0 = time.perf_counter()
    spec = model.validate([1 + 1j, -1 + 1j, 2j], 1.0)
    cov = residue_expansion(spec)
    system, law = assemble(spec)
    lags = np.array([0.0, 0.5, 1.0, 2.0])
    tau = 1.0  # 1 / min Im(root)
    messages = []
    worst_z = 0.0

    # exact sampler: 1e6 steps at dt = 0.01
    path = sample_exact(system, law, 0.01, 1_000_000, seed=60)
    rep = check_empirical_covariance(path, cov, lags=lags)
    worst_z = max(worst_z, rep.statistic)
    messages.append(f"exact max|z| {rep.statistic:.2f}")

    # Euler sampler: 1e6 steps at dt = 1e-3. The path spans 1000 tau, a
    # hair under the 100-block minimum the gated check enforces, so the
    # same block estimator is applied directly.
    epath = sample_euler(system, law, 1e-3, 1_000_000, seed=61)
    y = epath.values[0]
    block_len = int(round(10.0 * tau / epath.dt))
    euler_worst = 0.0
    for lag in lags:
        idx = int(round(lag / epath.dt))
        prods = y[: y.size - idx] * y[idx:]
        z = abs(prods.mean() - eval_r(cov, 0, float(lag)))
        z /= block_standard_error(prods, block_len)
        euler_worst = max(euler_worst, z)
    worst_z = max(worst_z, euler_worst)
    messages.append(f"euler max|z| {euler_worst:.2f}")

    # spectral sampler: 1e4 independent replicates on the lag grid
    times = np.arange(5) * 0.5  # lags live at indices 0, 1, 2, 4
    reps = spectral_replicates(spec, times, n_replicates=10_000, seed=62)
    y0 = reps[:, 0, 0]
    spectral_worst = 0.0
    for lag, idx in zip(lags, (0, 1, 2, 4)):
        prods = y0 * reps[:, 0, idx]
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        z = abs(prods.mean() - eval_r(cov, 0, float(lag))) / se
        spectral_worst = max(spectral_worst, z)
    worst_z = max(worst_z, spectral_worst)
    messages.append(f"spectral max|z| {spectral_worst:.2f}")

    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 300.0
    _verdict(6, "statistical agreement", ok,
             f"{'; '.join(messages)} (band 4 SE), {elapsed:.1f} s (< 5 min)")


def test_criterion_7_markov_property():
    t0 = time.perf_counter()
    details = []
    ok = True
    for label, roots in (("k=1", [1j, 1j]), ("k=2", [1 + 1j, -1 + 1j, 2j])):
        spec = model.validate(roots, 1.0)
        system, law = assemble(spec)
        tau = 1.0 / min(z.imag for z in spec.roots)
        dt = 0.75 * tau / 6
        ens = np.stack(
            [
                sample_exact(system, law, dt, 12, seed=70, stream=1 + r).values
                for r in range(1000)
            ],
            axis=0,
        )
        vector = check_partial_correlation(ens, 0, 6, 12, "vector")
        scalar = check_partial_correlation(ens, 0, 6, 12, "scalar")
        ok = ok and vector.passed and scalar.passed
        details.append(
            f"{label}: |pcorr| sqrt(N) = {vector.statistic:.2f} (band 4), "
            f"scalar control raw = {-scalar.statistic:.1f} (> 4)"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(7, "markov property", ok,
             f"{'; '.join(details)}, {elapsed:.1f} s (< 2 min)")


def test_criterion_8_determinism(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [
        ("exact", str(configs / "k2.json"), ["--dt", "0.01", "--steps", "500"]),
        ("euler", str(configs / "k1_repeated.json"),
         ["--dt", "0.005", "--steps", "500"]),
        ("spectral", str(configs / "k2.json"), ["--dt", "0.5", "--steps", "20"]),
    ]
    identical = True
    for method, cfg, extra in runs:
        payloads = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{method}_{attempt}"
            rc = cli_main(["simulate", "--model", cfg, "--method", method,
                           "--seed", "88", "--out", str(out)] + extra)
            assert rc == 0
            payloads.append((out / "path.csv").read_bytes())
        identical = identical and payloads[0] == payloads[1]
    _verdict(8, "determinism", identical,
             "byte-identical path.csv for exact, euler and spectral reruns")
