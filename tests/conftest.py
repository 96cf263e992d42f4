"""Shared fixtures and the random model generator used across the suite."""

import numpy as np
import pytest

from carkov import model


def make_random_spec(rng: np.random.Generator, k: int | None = None,
                     k_max: int = 4) -> model.RootSpec:
    """Random valid spec with sigma in [0.2, 3] and |rho| <= 3.

    Pairs get |rho| in [0.1, 3]; the rest sit on the imaginary axis.
    Configurations with pairwise root gaps under 0.02 * max(1, max|root|)
    are redrawn: the closed-form tolerances in the suite assume the
    expansion is well-conditioned, and near-degenerate behavior has its
    own deterministic tests.
    """
    while True:
        kk = int(rng.integers(0, k_max + 1)) if k is None else int(k)
        n = kk + 1
        n_pairs = int(rng.integers(0, n // 2 + 1))
        roots: list[complex] = []
        for _ in range(n_pairs):
            sigma = rng.uniform(0.2, 3.0)
            rho = rng.uniform(0.1, 3.0)
            roots += [complex(rho, sigma), complex(-rho, sigma)]
        while len(roots) < n:
            roots.append(complex(0.0, rng.uniform(0.2, 3.0)))
        scale = rng.uniform(0.5, 2.0)
        max_mag = max(abs(z) for z in roots)
        gaps = [
            abs(a - b)
            for i, a in enumerate(roots)
            for b in roots[i + 1 :]
        ]
        if gaps and min(gaps) < 0.02 * max(1.0, max_mag):
            continue
        return model.validate(roots, scale)


def make_stiff_spec(rng: np.random.Generator, spread: float,
                    k: int) -> model.RootSpec:
    """Stiff spec: k + 1 purely imaginary roots, 1i and spread * 1i
    (only 1i at k = 0) and the rest log-uniform between them, scale 1."""
    mags = [1.0, spread][:k + 1]
    mags += list(np.exp(rng.uniform(0.0, np.log(spread), max(0, k - 1))))
    return model.validate([complex(0.0, m) for m in mags], 1.0)


@pytest.fixture
def spec_k0():
    return model.validate([1j], 1.0)


@pytest.fixture
def spec_k1_repeated():
    return model.validate([1j, 1j], 1.0)


@pytest.fixture
def spec_k1_pair():
    return model.validate([1 + 1j, -1 + 1j], 1.0)


@pytest.fixture
def spec_k2():
    return model.validate([1 + 1j, -1 + 1j, 2j], 1.0)


@pytest.fixture
def spec_k8():
    """A regular k = 8 model (d = 9), make_random_spec(default_rng(10), 8)."""
    return make_random_spec(np.random.default_rng(10), k=8)
