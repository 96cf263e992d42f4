"""Seeded random models for the benchmark inputs.

The rule is the test suite's random-model rule (tests/conftest.py,
make_random_spec with a fixed k): sigma in [0.2, 3], |rho| in [0.1, 3],
scale in [0.5, 2], the unpaired roots on the imaginary axis, and a redraw
whenever two roots are closer than 0.02 * max(1, max|root|). The draws
happen in the same order, so one generator state yields the same model.
Roots come back raw: model.validate is one of the timed layers.
"""

from __future__ import annotations

import numpy as np


def random_roots(rng: np.random.Generator, k: int) -> tuple[list[complex], float]:
    """Roots and scale of a random valid model with k derivatives."""
    while True:
        n = k + 1
        n_pairs = int(rng.integers(0, n // 2 + 1))
        roots: list[complex] = []
        for _ in range(n_pairs):
            sigma = rng.uniform(0.2, 3.0)
            rho = rng.uniform(0.1, 3.0)
            roots += [complex(rho, sigma), complex(-rho, sigma)]
        while len(roots) < n:
            roots.append(complex(0.0, rng.uniform(0.2, 3.0)))
        scale = float(rng.uniform(0.5, 2.0))
        max_mag = max(abs(z) for z in roots)
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
        if gaps and min(gaps) < 0.02 * max(1.0, max_mag):
            continue
        return roots, scale


def to_config(roots, scale: float) -> dict:
    """The model config dict that ``carkov`` reads: {"roots": [[re, im], ...], "scale": s}."""
    return {"roots": [[z.real, z.imag] for z in roots], "scale": scale}
