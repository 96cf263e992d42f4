"""The state recursion: the blocked two-level scan against a sequential loop.

Path lengths straddle the block size SCAN_BLOCK, the row slice of
SCAN_SLICE_BLOCKS blocks and the chunk of _chunk_blocks(q) blocks, where
the scan switches between its table product, its carry pass, its slices
and the chunk-to-chunk carry.
"""

import tracemalloc

import numpy as np
import pytest

from carkov import assemble
from carkov.simulate import (
    SCAN_BLOCK,
    SCAN_CHUNK_BYTES,
    SCAN_SLICE_BLOCKS,
    _chunk_blocks,
    _scan_tables,
    ar1_recursion,
    exact_step_operator,
)
from conftest import make_random_spec


def _loop(step, noise_map, z0, shocks):
    """Sequential reference: one state update per step."""
    out = np.empty((step.shape[0], len(shocks) + 1))
    out[:, 0] = z0
    for m, xi in enumerate(shocks):
        out[:, m + 1] = step @ out[:, m] + noise_map @ xi
    return out


def _random_case(rng, d, q, n):
    step = rng.standard_normal((d, d)) * 0.3
    noise_map = rng.standard_normal((d, q))
    z0 = rng.standard_normal(d)
    shocks = rng.standard_normal((n, q))
    return step, noise_map, z0, shocks


def _model_step(k, kind, steps_per_tau):
    """(step, noise_map, z0) of a seeded random model with k derivatives.

    kind is "exact" (the exact chain) or "euler" (I + A dt, whose radius
    approaches 1 as dt shrinks: 0.9999 at tau / 1e4), at dt =
    tau / steps_per_tau.
    """
    spec = make_random_spec(np.random.default_rng(100 + k), k=k)
    system, law = assemble(spec)
    tau = 1.0 / min(z.imag for z in spec.roots)
    d = k + 1
    dt = tau / steps_per_tau
    if kind == "exact":
        step, noise_map = exact_step_operator(system, law, dt)
    else:
        step = np.eye(d) + system.companion * dt
        noise_map = (system.noise_vector * np.sqrt(dt)).reshape(d, 1)
    z0 = np.linalg.cholesky(law.covariance) @ np.ones(d)
    return step, noise_map, z0


def _assert_matches_loop(step, noise_map, z0, shocks):
    """The scan within 1e-10 of each row's scale of the loop oracle."""
    scan = ar1_recursion(step, noise_map, z0, shocks)
    loop = _loop(step, noise_map, z0, shocks)
    n = len(shocks)
    assert scan.shape == loop.shape == (step.shape[0], n + 1)
    row_scale = np.abs(loop).max(axis=1)
    worst = (np.abs(scan - loop).max(axis=1) / row_scale).max()
    assert worst <= 1e-10, f"n = {n}: {worst:.3e} of the row scale"


@pytest.mark.parametrize(
    "kind, steps_per_tau", [("exact", 50), ("euler", 998), ("euler", 1e4)]
)
@pytest.mark.parametrize("k", [0, 2, 8, 10])
def test_matches_loop_oracle(k, kind, steps_per_tau):
    step, noise_map, z0 = _model_step(k, kind, steps_per_tau)
    rng = np.random.default_rng(7)
    B = SCAN_BLOCK
    for n in (0, 1, 2, 3, B - 1, B, B + 1, 1000, 1023, 1025):
        shocks = rng.standard_normal((n, noise_map.shape[1]))
        _assert_matches_loop(step, noise_map, z0, shocks)


def test_matches_loop_oracle_across_chunks():
    """Two full chunks and a partial block, at a radius of 0.9999."""
    step, noise_map, z0 = _model_step(8, "euler", 1e4)
    n = 2 * SCAN_BLOCK * _chunk_blocks(1) + 5
    shocks = np.random.default_rng(8).standard_normal((n, 1))
    _assert_matches_loop(step, noise_map, z0, shocks)


def test_matches_loop_oracle_across_slices():
    """One chunk of a full and a partial row slice, then a partial block,
    for an exact step (q = d = 3) and an Euler step with one shock per
    step (q = 1 < d = 9)."""
    n = SCAN_BLOCK * (SCAN_SLICE_BLOCKS + 3) + 7
    for k, kind, steps_per_tau in ((2, "exact", 50), (8, "euler", 998)):
        step, noise_map, z0 = _model_step(k, kind, steps_per_tau)
        shocks = np.random.default_rng(12).standard_normal(
            (n, noise_map.shape[1]))
        _assert_matches_loop(step, noise_map, z0, shocks)


def test_scan_table_stacks_the_powers_over_the_toeplitz_blocks():
    """One read-only (d + B q, B d) table: block i of its first d rows is
    (step^(i+1))^T, and block (j, i) of the rest is (step^(i-j)
    noise_map)^T below the diagonal and zero above it."""
    rng = np.random.default_rng(14)
    step, noise_map, _, _ = _random_case(rng, 3, 2, 0)
    d, q, B = 3, 2, SCAN_BLOCK
    table = _scan_tables(step.tobytes(), noise_map.tobytes(), d, q, B)
    assert table.shape == (d + B * q, B * d)
    assert not table.flags.writeable
    power = np.eye(d)
    for i in range(B):
        power = step @ power
        np.testing.assert_allclose(table[:d, i * d:(i + 1) * d], power.T,
                                   rtol=1e-12, atol=1e-15)
        for j in range(B):
            block = table[d + j * q:d + (j + 1) * q, i * d:(i + 1) * d]
            lag = np.linalg.matrix_power(step, i - j) if i >= j else 0 * step
            np.testing.assert_allclose(block, (lag @ noise_map).T,
                                       rtol=1e-12, atol=1e-15)


def test_tables_follow_the_operands():
    """The memoised tables never outlive the operands they came from:
    a rejected step is rejected again, and a step changed in place
    between calls gets fresh tables."""
    bad = np.array([[0.5, 0.0], [0.0, -1.5]])
    for _ in range(2):
        with pytest.raises(ValueError, match="spectral radius"):
            ar1_recursion(bad, np.eye(2), np.ones(2), np.zeros((4, 2)))
    rng = np.random.default_rng(9)
    step, noise_map, z0, shocks = _random_case(rng, 3, 2, 3 * SCAN_BLOCK + 2)
    _assert_matches_loop(step, noise_map, z0, shocks)
    step[0, 1] += 0.2
    _assert_matches_loop(step, noise_map, z0, shocks)


def test_chunks_hold_a_fixed_budget_of_shocks():
    """A chunk is as many blocks as hold SCAN_CHUNK_BYTES of shocks, at
    most 2048: 2048 blocks up to q = 3, which every Euler path and the
    exact paths of d <= 3 keep, and 682 blocks at q = d = 9."""
    for q in range(1, 30):
        blocks = _chunk_blocks(q)
        assert blocks == min(2048, SCAN_CHUNK_BYTES // (8 * SCAN_BLOCK * q))
        assert 8 * SCAN_BLOCK * q * blocks <= SCAN_CHUNK_BYTES
    assert [_chunk_blocks(q) for q in (1, 2, 3, 4, 9)] == [2048] * 3 + [1536, 682]


def test_memory_stays_near_the_output():
    """The temporaries of a long path are the blocks' starts, one state
    per block of a chunk, and one slice's buffer of [start | shocks]
    rows, SCAN_SLICE_BLOCKS rows of d + SCAN_BLOCK q; the table products
    go straight into the path. At d = q = 9 a chunk is 682 blocks, so
    that is 49 KB of starts and 627 KB of slice buffer, and 8 KiB is
    left for the rest."""
    step, noise_map, z0 = _model_step(8, "exact", 50)
    d = q = 9
    shocks = np.random.default_rng(10).standard_normal((200_000, q))
    ar1_recursion(step, noise_map, z0, shocks[:10])  # table built untraced
    tracemalloc.start()
    try:
        out = ar1_recursion(step, noise_map, z0, shocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    temps = 8 * (_chunk_blocks(q) * d + SCAN_SLICE_BLOCKS * (d + SCAN_BLOCK * q))
    assert peak <= out.nbytes + temps + 8192, (
        f"peak {peak - out.nbytes} B above the output, against {temps} B "
        "of starts and slice buffer")


def test_shapes():
    rng = np.random.default_rng(0)
    step, noise_map, z0, shocks = _random_case(rng, 3, 2, 17)
    out = ar1_recursion(step, noise_map, z0, shocks)
    assert out.shape == (3, 18)
    np.testing.assert_allclose(out[:, 0], z0)


def test_matches_direct_loop():
    rng = np.random.default_rng(2)
    case = _random_case(rng, 2, 2, 40)
    np.testing.assert_allclose(
        ar1_recursion(*case), _loop(*case), rtol=1e-10, atol=1e-12
    )


def test_deterministic():
    rng = np.random.default_rng(3)
    step, noise_map, z0 = _model_step(8, "euler", 1e4)
    for case in (
        _random_case(rng, 3, 1, 100),
        (step, noise_map, z0, rng.standard_normal((1025, 1))),
    ):
        a = ar1_recursion(*case)
        b = ar1_recursion(*case)
        assert a.tobytes() == b.tobytes()


def test_shape_validation():
    rng = np.random.default_rng(4)
    step, noise_map, z0, shocks = _random_case(rng, 3, 2, 10)
    bad = [
        (step[:2], noise_map, z0, shocks),
        (step, noise_map[:, :1], z0, shocks),
        (step, noise_map, z0[:2], shocks),
        (step, noise_map, z0, shocks[:, 0]),  # 1-d shocks
        (step, noise_map[:, 0], z0, shocks),  # 1-d noise_map
        (step[0], noise_map, z0, shocks),  # 1-d step
        (step, noise_map, z0, shocks[:, :, None]),  # (10, 2, 1) shocks
        (step, np.eye(3)[:, :1], z0, np.zeros((4, 2, 1))),  # q = 1 and 3-d
    ]
    for args in bad:
        with pytest.raises(ValueError):
            ar1_recursion(*args)
    for out in (np.empty((3, 10)), np.empty((2, 11)), np.empty((3, 11, 1)),
                np.empty((3, 11), dtype=np.float32), np.empty(33),
                np.empty((3, 11)),  # C-ordered: its transpose is strided
                np.empty((11, 6))[:, ::2].T):  # time-major, strided rows
        with pytest.raises(ValueError, match="out"):
            ar1_recursion(step, noise_map, z0, shocks, out=out)


def test_result_is_time_major():
    """The (d, n+1) result is the transpose view of a C-ordered (n+1, d)
    array, and a time-major out is written in place."""
    rng = np.random.default_rng(5)
    step, noise_map, z0, shocks = _random_case(rng, 3, 2, 3 * SCAN_BLOCK + 5)
    path = ar1_recursion(step, noise_map, z0, shocks)
    assert path.T.flags.c_contiguous and not path.flags.c_contiguous
    out = np.empty((len(shocks) + 1, 3)).T
    assert ar1_recursion(step, noise_map, z0, shocks, out=out) is out
    assert out.tobytes() == path.tobytes()


def test_out_writes_into_a_longer_path():
    """Two calls into views of one array give the one-call path bytes,
    when the split follows the scan's chunks."""
    step, noise_map, z0 = _model_step(2, "exact", 50)
    n = SCAN_BLOCK * _chunk_blocks(3) + 37
    shocks = np.random.default_rng(11).standard_normal((n, 3))
    whole = ar1_recursion(step, noise_map, z0, shocks)
    path = np.empty_like(whole)
    path[:, 0] = z0
    cut = SCAN_BLOCK * _chunk_blocks(3)
    for lo, hi in ((0, cut), (cut, n)):
        view = path[:, lo:hi + 1]
        assert ar1_recursion(step, noise_map, path[:, lo], shocks[lo:hi],
                             out=view) is view
    assert path.tobytes() == whole.tobytes()


@pytest.mark.parametrize("step", [
    np.eye(2),
    np.array([[0.5, 0.0], [0.0, -1.5]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),  # rotation: complex pair on |z| = 1
])
def test_radius_at_least_one_is_rejected(step):
    with pytest.raises(ValueError, match="spectral radius"):
        ar1_recursion(step, np.eye(2), np.ones(2), np.zeros((4, 2)))


def test_zero_noise_is_pure_power_iteration():
    step = np.array([[0.5, 0.1], [0.0, 0.25]])
    out = ar1_recursion(
        step, np.zeros((2, 1)), np.array([1.0, 1.0]), np.zeros((6, 1))
    )
    expect = np.array([1.0, 1.0])
    for m in range(6):
        expect = step @ expect
        np.testing.assert_allclose(out[:, m + 1], expect, rtol=1e-14)
