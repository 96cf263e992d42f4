"""Sample path generation by independent mechanisms.

Three samplers target the same stationary law: exact one-step transition
(discretely exact at any dt), Euler-Maruyama (biased at order dt, kept as
a deliberately independent reference), and a midpoint discretization of
the spectral representation on a tan-mapped frequency grid that covers
the whole real line (no time recursion and no truncation), whose panel
count the sampler sizes from the model and the requested span. Agreement
between their empirical covariances and the closed form is the package's
main end-to-end consistency argument.

All randomness flows through SFC64 generators (Doty-Humphrey's Small
Fast Chaotic generator, as numpy ships it) on the SeedSequence spawn
key of (seed, method, stream), so different methods never share a
stream and any replicate can be regenerated in isolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import residue_expansion, eval_r
from .errors import (
    FactorizationFailure,
    NotConverged,
    StepTooSmall,
    UnstableStep,
)
from .markov import ItoSystem, StationaryLaw
from .model import RootSpec, abs_p_squared

_METHOD_CODES = {"exact": 1, "euler": 2, "spectral": 3}


@dataclass(frozen=True)
class SamplePath:
    """Uniform-grid path of the derivative stack.

    values has one row per derivative order (k+1 rows) and one column per
    grid point; dt is the grid spacing, seed and method record provenance.
    Every sampler stores the path time-major: values is the (k+1, n)
    transpose view of a C-ordered (n, k+1) buffer, so values.T[m] (the
    state at grid point m) is contiguous and a row values[j] is strided.
    """

    dt: float
    values: np.ndarray
    seed: int
    method: str

    @property
    def k(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_points)


def _generator(seed: int, method: str, stream: int = 0) -> np.random.Generator:
    """SFC64 generator on the (seed, method, stream) substream.

    The SeedSequence spawn key (method code, stream) addresses the
    substream, so any stream can be regenerated without the others.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_METHOD_CODES[method], int(stream))
    )
    return np.random.Generator(np.random.SFC64(ss))


def _variance_scale(covariance: np.ndarray) -> np.ndarray:
    """Standard deviations diag(covariance)^(1/2), the scale of the state
    in which the samplers' factors are taken.

    Raises FactorizationFailure if a variance is not positive."""
    variances = np.diag(covariance)
    if not (variances > 0).all():
        raise FactorizationFailure(
            f"stationary variances {variances} are not all positive"
        )
    return np.sqrt(variances)


def _psd_sqrt(scaled: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Factor F of M = diag(scale) scaled diag(scale), so that F @ F.T = M.

    F = diag(scale) U diag(sqrt(w)) for the eigendecomposition
    U diag(w) U^T of the PSD matrix scaled, whose rounding-negative
    eigenvalues are clipped to 0. Taken in the variance-scaled state,
    eigh's error is about u in every entry of scaled, so F @ F.T errs by
    about u scale_i scale_j in entry (i, j) rather than by u ||M||, which
    would swamp the rows of small variance.
    """
    w, u = np.linalg.eigh((scaled + scaled.T) / 2.0)
    return scale[:, None] * (u * np.sqrt(np.clip(w, 0.0, None)))


def _stationary_factor(covariance: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = covariance, from which the samplers draw
    the stationary initial state F xi; taken in the variance-scaled
    state (_psd_sqrt). Raises FactorizationFailure if a variance is not
    positive."""
    scale = _variance_scale(covariance)
    return _psd_sqrt(covariance / np.outer(scale, scale), scale)


# ---------------------------------------------------------------------------
# state recursion

#: steps per block of the state scan; one block's states come from one row
#: of a (B q, B d) table product, so B trades table size against the
#: number of block carries. 16 ran fastest, or within 2 % of it, for exact
#: and Euler paths at d = 3 and d = 9; 8 ran up to 25 % slower and 32 up
#: to 14 % (20,000 steps, time-major paths, 2-core Xeon)
SCAN_BLOCK = 16

#: bytes of shocks per chunk: the carries of one chunk are scanned
#: together, and the samplers draw one chunk of shocks at a time into one
#: buffer. A chunk is min(2048, SCAN_CHUNK_BYTES // (8 SCAN_BLOCK q))
#: blocks at q shocks per step (_chunk_blocks): 2048 blocks (32,768
#: steps) up to q = 3, so every Euler path (q = 1) and the exact paths of
#: d <= 3 keep one 20,000-step path in one chunk, and 682 blocks at
#: q = 9. The budget bounds the shock buffer and the operand that BLAS
#: packs, and keeps, for the product of a chunk's shock rows with the
#: table's last columns: 0.79 MB each at d = 9, where 2048 blocks would
#: make them 2.36 MB
SCAN_CHUNK_BYTES = 768 * 1024

#: blocks per row slice of the state product: the slice's entering states
#: and shocks are copied into one buffer and its product with the scan
#: table written into the path one slice at a time, so the scan's
#: temporaries do not grow with the chunk. Slices of 256, 512 and 2048
#: blocks ran within 6 % of each other (20,000 steps, d = 3 and d = 9,
#: time-major paths, 2-core Xeon)
SCAN_SLICE_BLOCKS = 512


@lru_cache(maxsize=8)
def _scan_tables(step_bytes, noise_bytes, d, q, B):
    """Block table of the state scan for one (step, noise_map) pair.

    Returns the read-only (d + B q, B d) table whose first d rows hold the
    powers, block i being (step^(i+1))^T, and whose other rows hold the
    block-Toeplitz part, block (j, i) being (step^(i-j) noise_map)^T for
    i >= j and zero otherwise. So a row [state | B shock rows] times the
    table gives the B states that follow that state, and the table of a
    block of w < B steps is its prefix table[:d + w q, :w d]. Keyed on the
    operands' bytes, so repeated calls with one operator (many paths
    sampled at one dt and method) build it once; raises ValueError, which
    is not cached, when step has spectral radius >= 1. The radius is read
    as max |1 + nu| over the eigenvalues nu of step - I, whose computed
    error scales with ||step - I|| rather than with ||step||: a step near
    the identity (the exact chain at small dt) keeps its distance from 1.
    """
    step = np.frombuffer(step_bytes).reshape(d, d)
    noise_map = np.frombuffer(noise_bytes).reshape(d, q)
    radius = np.abs(1.0 + np.linalg.eigvals(step - np.eye(d))).max()
    if not radius < 1.0:
        raise ValueError(
            f"step has spectral radius {radius:.6g} >= 1; the blocked "
            "scan needs a contraction"
        )
    powers = [np.eye(d)]
    for _ in range(B):
        powers.append(step @ powers[-1])
    powers = np.stack(powers)
    table = np.empty((d + B * q, B * d))
    table[:d] = powers[1:].transpose(2, 0, 1).reshape(d, B * d)
    # responses[l] = step^l noise_map, and responses[-1] the zero block
    # that lag -1 picks for the upper triangle i < j
    responses = np.concatenate([powers[:B] @ noise_map, np.zeros((1, d, q))])
    j, i = np.ogrid[:B, :B]
    lag = np.maximum(i - j, -1)
    table[d:] = responses[lag].transpose(0, 3, 1, 2).reshape(B * q, B * d)
    table.flags.writeable = False
    return table


def _chunk_blocks(q):
    """Blocks per scan chunk at q shocks per step: as many as hold
    SCAN_CHUNK_BYTES of shocks, at most 2048 and at least one."""
    return max(1, min(2048, SCAN_CHUNK_BYTES // (8 * SCAN_BLOCK * q)))


def _doubling_scan(rows, power_t):
    """In place, rows[m] <- sum over j <= m of rows[m - j] @ power_t^j.

    Hillis-Steele doubling (Blelloch 1990, "Prefix sums and their
    applications"): the pass with shift s adds power_t^s times row m - s,
    so ceil(log2(len(rows))) passes replace the sequential recurrence.
    """
    shift = 1
    while shift < len(rows):
        rows[shift:] += rows[:-shift] @ power_t
        power_t = power_t @ power_t
        shift *= 2


def _scan_chunk(shock_rows, carry, table, out):
    """Advance the state over consecutive blocks of one width w.

    shock_rows holds one block's w shock rows per row, carry is the state
    before the first block, and table is the table of _scan_tables cut to
    w steps. out is the C-contiguous (blocks * w, d) time-major stretch of
    the path that the states go to; returns a copy of the last one. Only
    the blocks' local ends (the last d columns of the Toeplitz rows) are
    formed for the whole chunk, and the doubling scan turns them into the
    state entering each block. Seen as (blocks, w d), out has one block's
    states per row, the layout of the table product: SCAN_SLICE_BLOCKS
    blocks at a time, each block's entering state and shocks are copied
    into one row [start | shocks] of a buffer, whose product with the
    table is written straight into out.
    """
    d = carry.shape[0]
    starts = np.empty((len(shock_rows), d))
    starts[0] = carry
    starts[1:] = shock_rows[:-1] @ table[d:, -d:]
    _doubling_scan(starts, table[:d, -d:])
    block_rows = out.reshape(len(shock_rows), -1)
    rows = np.empty((min(SCAN_SLICE_BLOCKS, len(shock_rows)), len(table)))
    for lo in range(0, len(shock_rows), SCAN_SLICE_BLOCKS):
        hi = min(lo + SCAN_SLICE_BLOCKS, len(shock_rows))
        rows[:hi - lo, :d] = starts[lo:hi]
        rows[:hi - lo, d:] = shock_rows[lo:hi]
        np.matmul(rows[:hi - lo], table, out=block_rows[lo:hi])
    return out[-1].copy()


def ar1_recursion(step, noise_map, z0, shocks, out=None):
    """State recursion z_{m+1} = step @ z_m + noise_map @ shocks[m].

    Parameters
    ----------
    step : (d, d) array
        Transition matrix; its spectral radius must be below 1.
    noise_map : (d, q) array
        Maps one shock row to the state increment.
    z0 : (d,) array
        Initial state.
    shocks : (n, q) array
        One row per step.
    out : (d, n+1) float64 array, optional
        Where to write the path, for instance a view into a longer one;
        its transpose out.T must be C-contiguous, so out is the
        state-major view of a time-major (n+1, d) buffer, the layout of
        every sampled path. A new such array when omitted.

    Returns
    -------
    (d, n+1) array
        Column m is z_m; column 0 is z0. out itself when given.

    Raises
    ------
    ValueError
        If an operand has the wrong number of dimensions or the shapes
        disagree, if out is not a (d, n+1) float64 array whose transpose
        is C-contiguous, or if step has spectral radius >= 1.

    Notes
    -----
    Both the exact sampler and the Euler scheme reduce to this constant
    linear recurrence, evaluated as a blocked two-level scan (Blelloch
    1990). The path is cut into blocks of B = SCAN_BLOCK steps. State i
    of block b is step^(i+1) c_b plus the sum over j <= i of
    step^(i-j) noise_map times shock j of the block, where c_b is the
    state entering the block; so the B states of a block are one row
    [c_b | its B shock rows] times one table (_scan_tables) that stacks
    the powers step^(i+1) over a block-Toeplitz table of step^(i-j)
    noise_map, and one matrix product gives every block's states. The
    entering states follow c_{b+1} = step^B c_b + (local end of block b,
    its last state from zero carry-in), a recurrence over n / B blocks
    evaluated by a doubling scan. The powers step^(B 2^s) of the
    doubling scan must decay for its sums to stay accurate over long
    paths, hence the radius condition.

    The path is walked in chunks of _chunk_blocks(q) blocks, as many as
    hold SCAN_CHUNK_BYTES of shocks and at most 2048, carrying the last
    state from one to the next. Within a chunk only the local ends and
    the entering states, one state per block, are formed at once. The
    path is stored time-major, so a block's states are contiguous in it,
    in the order of one row of the table product: SCAN_SLICE_BLOCKS
    blocks at a time, the rows [c_b | shocks] are copied into one buffer
    whose product with the table is written straight into the path
    (_scan_chunk). So the temporaries have a fixed size whatever the path
    length and the state size, and no state of the path is formed in a
    temporary. The table and the radius check depend only on step and
    noise_map and are built once per pair.
    """
    step = np.asarray(step, dtype=float)
    noise_map = np.asarray(noise_map, dtype=float)
    z0 = np.array(z0, dtype=float)  # a copy: z0 may be a view of out
    shocks = np.asarray(shocks, dtype=float)
    if step.ndim != 2 or noise_map.ndim != 2 or shocks.ndim != 2:
        raise ValueError("step, noise_map and shocks must be 2-d arrays")
    d, q = noise_map.shape
    n = shocks.shape[0]
    if step.shape != (d, d) or z0.shape != (d,) or shocks.shape[1] != q:
        raise ValueError("inconsistent kernel operand shapes")
    if out is None:
        out = np.empty((n + 1, d)).T
    elif not isinstance(out, np.ndarray) or out.shape != (d, n + 1) \
            or out.dtype != np.float64 or not out.T.flags.c_contiguous:
        raise ValueError(f"out must be a ({d}, {n + 1}) float64 array "
                         "whose transpose is C-contiguous")
    table = _scan_tables(step.tobytes(), noise_map.tobytes(), d, q, SCAN_BLOCK)

    out[:, 0] = z0
    rows = out.T  # time-major: row m is z_m
    carry, pos, chunk_blocks = z0, 0, _chunk_blocks(q)
    while pos < n:
        width = min(SCAN_BLOCK, n - pos)
        blocks = max(1, min(chunk_blocks, (n - pos) // SCAN_BLOCK))
        span = blocks * width
        carry = _scan_chunk(
            shocks[pos:pos + span].reshape(blocks, width * q),
            carry,
            table[:d + width * q, :width * d],
            rows[pos + 1:pos + 1 + span],
        )
        pos += span
    return out


def _path_chunks(step, noise_map, n_steps, rng, rows):
    """Walk the recursion's path from the state rows[0], one scan chunk
    at a time, with standard normal shocks drawn from rng; yields each
    chunk's new time-major states.

    rows is time-major: the whole (n_steps+1, d) path, each chunk's
    states written after the last, or, when it is shorter, one
    (chunk+1, d) buffer that every chunk reuses, whose first row holds
    the state entering the chunk. A yielded chunk is a view of rows. The
    chunks are the scan's own (_chunk_blocks(q) blocks of SCAN_BLOCK
    steps), each chunk's shocks are drawn into one buffer just before
    it, in the stream's order, and both layouts make the same
    ar1_recursion calls from the same carries. So the states are those
    that drawing every shock first and one ar1_recursion would give,
    bit for bit, while only one chunk's shocks are held at a time.
    """
    q = noise_map.shape[1]
    chunk = SCAN_BLOCK * _chunk_blocks(q)
    reuse = len(rows) < n_steps + 1
    shocks = np.empty((min(chunk, n_steps), q))
    for pos in range(0, n_steps, chunk):
        span = min(chunk, n_steps - pos)
        at = 0 if reuse else pos
        if reuse and pos:
            rows[0] = rows[chunk]
        rng.standard_normal(out=shocks[:span])
        ar1_recursion(step, noise_map, rows[at], shocks[:span],
                      out=rows[at:at + span + 1].T)
        yield rows[at + 1:at + span + 1]


def _path_start(system, law, method, dt, n_steps, seed, stream, whole):
    """(rows, chunks) of the exact ("exact") or Euler ("euler") path.

    Checks dt and n_steps before any work, takes the operands
    (_recursion), and draws the stationary initial state first on the
    (seed, method, stream) substream into rows[0]. rows is the whole
    time-major (n_steps+1, d) path if whole, else one (chunk+1, d)
    buffer that every scan chunk reuses; chunks is _path_chunks'
    iterator over it, which writes the states as it is walked. Raises
    ValueError if dt is not positive and finite or n_steps is negative,
    and the operands' errors, all before the first chunk.
    """
    if not (0 < dt < math.inf):
        raise ValueError("dt must be positive and finite")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    step, noise_map, factor = _recursion(system, law, method, dt)
    rng = _generator(seed, method, stream)
    chunk = SCAN_BLOCK * _chunk_blocks(noise_map.shape[1])
    rows = np.empty((1 + (n_steps if whole else min(chunk, n_steps)),
                     step.shape[0]))
    rows[0] = factor @ rng.standard_normal(step.shape[0])
    return rows, _path_chunks(step, noise_map, n_steps, rng, rows)


def stream_path(system, law, method, dt, n_steps, seed):
    """The path that sample_exact (method "exact") or sample_euler
    ("euler") draws with these arguments on stream 0, as an iterator of
    time-major chunks for write_csv: the initial state, then one scan
    chunk at a time (_path_chunks).

    The chunks are views of one (chunk+1, d) buffer, each valid until
    the next is drawn, so however long the path, the iterator holds one
    chunk of states and one of shocks. The same errors as the samplers'
    raise here, before the first chunk.
    """
    rows, chunks = _path_start(system, law, method, dt, n_steps, seed, 0,
                               whole=False)
    return itertools.chain([rows[:1]], chunks)


# ---------------------------------------------------------------------------
# exact discretization

#: Higham's [13/13] Pade coefficients b_0 ... b_13 of e^x
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)

#: largest 1-norm at which the [13/13] approximant is accurate to double
#: precision
_THETA13 = 5.371920351148152


def _pade13(a: np.ndarray) -> np.ndarray:
    """e^a by the [13/13] Pade approximant, for ||a||_1 <= _THETA13.

    The even/odd split of Higham (2005), SIAM J. Matrix Anal. Appl.
    26:1179; the caller scales a into range.
    """
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def _van_loan(system: ItoSystem, scale: np.ndarray, dt: float):
    """(phi, Q_scaled, radius, contraction) at dt, from the Van Loan
    block exponential in the state scaled by scale (see
    exact_step_operator): phi is unscaled, and Q_scaled is Q in the
    scaled state, D^-1 Q D^-1 with D = diag(scale). radius is the
    largest |mu| over the eigenvalues mu of D^-1 phi D, and contraction
    the least 1 - |mu|, both read from the eigenvalues nu of
    D^-1 phi D - I as mu = 1 + nu (_resolved)."""
    d = scale.size
    drift = system.companion * scale / scale[:, None]
    noise = system.noise_vector / scale
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -drift
    block[:d, d:] = np.outer(noise, noise)
    block[d:, d:] = drift.T
    block *= dt
    norm = np.linalg.norm(block, 1)
    halvings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    e = _pade13(block / 2.0**halvings)
    phi = e[d:, d:].T
    q = phi @ e[:d, d:]
    for _ in range(halvings):
        q = q + phi @ q @ phi.T
        phi = phi @ phi
    nu = np.linalg.eigvals(phi - np.eye(d))
    modulus = abs(1.0 + nu)
    contraction = (-(2.0 * nu.real + abs(nu)**2) / (1.0 + modulus)).min()
    phi = phi * scale[:, None] / scale
    return phi, q, modulus.max(), contraction


def _spectral_radius(m):
    return np.abs(np.linalg.eigvals(m)).max()


def _resolved(contraction, alpha, dt):
    """Whether double precision resolves the step e^(A dt) whose computed
    contraction _van_loan gives, for the slowest decay rate
    alpha = -max Re eig(A): the contraction is within a factor of 2 of
    the true 1 - e^(-alpha dt), so it is positive and the radius below 1.
    The contraction comes from the eigenvalues of phi - I, whose computed
    error scales with ||A dt|| rather than with ||phi|| = 1: on a k = 10
    model at 2e-12 tau, 1 - radius read from the eigenvalues of phi
    itself came out at 0.09 of the truth, and at 1e-12 tau some k = 9 and
    10 models read a radius above 1."""
    true = -math.expm1(-alpha * dt)
    return 0.5 * true <= contraction <= 2.0 * true


def _first_resolved(dt, limit, resolves):
    """The first of dt 2^j (j = 1, 2, ...), rounded to 3 significant
    digits, that is below limit and passes resolves, or None."""
    trial = 2.0 * dt
    while trial < limit:
        rounded = float(f"{trial:.3g}")
        if rounded < limit and resolves(rounded):
            return rounded
        trial *= 2.0
    return None


def exact_step_operator(
    system: ItoSystem, law: StationaryLaw, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and innovation factor of the exact discrete chain.

    Parameters
    ----------
    system, law : ItoSystem, StationaryLaw
        Assembled Markov system and its stationary covariance Sigma.
    dt : float
        Step size, > 0 and finite.

    Returns
    -------
    (phi, innovation)
        phi = e^{A dt}; innovation L satisfies L @ L.T = Q =
        int_0^dt e^{As} b b^T e^{A^T s} ds, so Z' = phi Z + L xi with
        standard normal xi is the diffusion's exact transition and
        preserves the stationary law.

    Raises
    ------
    StepTooSmall
        If double precision does not resolve phi (_resolved): its
        computed contraction 1 - radius, read from the eigenvalues of
        phi - I, is off by more than a factor of 2 from the true
        1 - e^(-alpha dt), alpha = -max Re eig(A), so the path would
        decay at the wrong rate, or it is not positive, so the state
        recursion cannot advance. Every dt >= 1e-12 tau passed on the
        shipped configs and on 2,200 of the tests' regular models up to
        k = 10, and the floor is about 1e-16 tau at every k (at most
        10^-15.75 tau over 280 of those models, k = 0 to 10). The
        message names a usable dt: the first of dt 2^j (j >= 1), rounded
        to 3 significant digits, below 1 / alpha that passes.
    FactorizationFailure
        If Sigma has a diagonal entry that is not positive, so the
        state cannot be scaled by its standard deviations.

    Notes
    -----
    phi and Q come from one matrix exponential, of Van Loan's block
    [[-A, b b^T], [0, A^T]] (Van Loan 1978, IEEE TAC 23:395), taken in
    the state scaled by D = diag(Sigma)^(1/2) so that every derivative
    order has unit variance. The block is exponentiated by the [13/13]
    Pade approximant at dt / 2^s, with s the fewest halvings that bring
    its 1-norm within range, and the pair is then doubled s times
    (Q <- Q + phi Q phi^T, phi <- phi^2). Q is thus a sum of congruences
    of a positive semidefinite seed and never the difference
    Sigma - phi Sigma phi^T, which cancels at small dt. L = D F, with F
    a factor of Q in the scaled state (_psd_sqrt), so the error of
    L @ L.T in entry (i, j) is about u D_ii D_jj: Q is graded, and a
    factor of the unscaled Q would err by u ||Q|| in its smallest rows.
    """
    if not (0 < dt < math.inf):
        raise ValueError("dt must be positive and finite")
    scale = _variance_scale(law.covariance)
    alpha = -np.linalg.eigvals(system.companion).real.max()
    phi, q, radius, contraction = _van_loan(system, scale, dt)
    if not _resolved(contraction, alpha, dt):
        usable = _first_resolved(dt, 1.0 / alpha, lambda t: _resolved(
            _van_loan(system, scale, t)[3], alpha, t))
        raise StepTooSmall(
            f"e^(A dt) at dt = {dt:.6g} has computed spectral radius "
            f"{radius:.17g} and contraction {contraction:.3g} against the "
            f"true 1 - e^(-alpha dt) = {-math.expm1(-alpha * dt):.3g}; this "
            "dt is below what double precision resolves for the model, "
            + (f"use a larger one, such as dt = {usable:.3g}" if usable
               else f"and no larger dt below 1/alpha = {1 / alpha:.3g} does")
        )
    return phi, _psd_sqrt(q, scale)


# 16 entries: a run_suite uses one, and the exact and Euler operands of
# a model stay while suites of up to 14 others run between its paths;
# an entry is a few KB at d <= 21
@lru_cache(maxsize=16)
def _recursion_operands(method, dt, drift_bytes, diffusion, cov_bytes):
    """Read-only (step, noise_map, Sigma factor) of one sampler at dt.

    For "exact", (step, noise_map) is exact_step_operator's (phi, L); for
    "euler", (I + A dt, b sqrt(dt) e_k), once I + A dt has passed the
    radius check. The Sigma factor is _stationary_factor of the
    covariance, which draws the stationary initial state. Keyed on the
    operands' bytes, so a covariance changed in place gets fresh
    operands; the errors (StepTooSmall, UnstableStep,
    FactorizationFailure, ValueError) are not cached and raise on every
    call.
    """
    drift = np.frombuffer(drift_bytes).copy()
    d = drift.size
    system = ItoSystem(drift=drift, diffusion=diffusion)
    covariance = np.frombuffer(cov_bytes).reshape(d, d).copy()
    if method == "exact":
        step, noise_map = exact_step_operator(
            system, StationaryLaw(covariance=covariance), dt
        )
    else:
        step = np.eye(d) + system.companion * dt
        radius = _spectral_radius(step)
        if radius >= 1.0:
            bound = euler_step_bound(system)
            usable = _first_resolved(dt, bound, lambda t: _spectral_radius(
                np.eye(d) + system.companion * t) < 1.0)
            if usable is None:
                raise UnstableStep(
                    f"I + A dt has spectral radius {radius:.6g} >= 1 at "
                    f"dt = {dt}; stable below dt = {bound:.6g}"
                )
            raise StepTooSmall(
                f"I + A dt at dt = {dt:.6g} has computed spectral radius "
                f"{radius:.17g} >= 1; this dt is below what double "
                "precision resolves for the model, use a larger one, such "
                f"as dt = {usable:.3g}"
            )
        noise_map = (system.noise_vector * math.sqrt(dt)).reshape(d, 1)
    operands = step, noise_map, _stationary_factor(covariance)
    for a in operands:
        a.flags.writeable = False
    return operands


def _recursion(system: ItoSystem, law: StationaryLaw, method: str, dt):
    """_recursion_operands of (system, law) for method at dt."""
    return _recursion_operands(
        method, dt,
        np.asarray(system.drift, dtype=float).tobytes(),
        float(system.diffusion),
        np.asarray(law.covariance, dtype=float).tobytes(),
    )


def sample_exact(
    system: ItoSystem,
    law: StationaryLaw,
    dt: float,
    n_steps: int,
    seed: int,
    stream: int = 0,
) -> SamplePath:
    """Simulate the stack by its exact one-step transition.

    Parameters
    ----------
    system, law : ItoSystem, StationaryLaw
        Assembled Markov system and stationary covariance.
    dt : float
        Grid spacing; any positive value is exact.
    n_steps : int
        Number of transitions; the path has n_steps + 1 columns.
    seed, stream : int
        Substream key. The initial state is drawn first, then one shock
        row per step.

    Returns
    -------
    SamplePath
        Stationary path: every column is marginally N(0, Sigma).
    """
    rows, chunks = _path_start(system, law, "exact", dt, n_steps, seed,
                               stream, whole=True)
    for _ in chunks:
        pass
    return SamplePath(dt=float(dt), values=rows.T, seed=int(seed), method="exact")


# ---------------------------------------------------------------------------
# Euler-Maruyama

def euler_step_bound(system: ItoSystem) -> float:
    """Largest dt for which I + A dt is a contraction."""
    eigs = np.linalg.eigvals(system.companion)
    return float(min(2.0 * (-lam.real) / abs(lam) ** 2 for lam in eigs))


def sample_euler(
    system: ItoSystem,
    law: StationaryLaw,
    dt: float,
    n_steps: int,
    seed: int,
    stream: int = 0,
) -> SamplePath:
    """Simulate the stack with the Euler-Maruyama scheme.

    Z_{m+1} = Z_m + A Z_m dt + b e_k sqrt(dt) xi_m. Biased at order dt;
    kept deliberately independent of the exact sampler as a consistency
    reference. The initial state is a stationary draw.

    Raises
    ------
    UnstableStep
        If I + A dt has spectral radius >= 1 and no larger dt below the
        stability bound euler_step_bound gives a contraction. The message
        reports the stable dt range.
    StepTooSmall
        If I + A dt has computed spectral radius >= 1 at a dt so far
        below the stability bound that I + A dt rounds towards the
        identity. The message names a larger dt, below the bound, at
        which the radius is below 1.
    FactorizationFailure
        If the law has a variance that is not positive, so the state
        cannot be scaled for the stationary factor.
    ValueError
        If dt is not positive and finite.
    """
    rows, chunks = _path_start(system, law, "euler", dt, n_steps, seed,
                               stream, whole=True)
    for _ in chunks:
        pass
    return SamplePath(dt=float(dt), values=rows.T, seed=int(seed), method="euler")


# ---------------------------------------------------------------------------
# spectral representation

#: map scale of the spectral grid, in units of the geometric mean of
#: |zeta|: a smaller scale widens the tail panels, a larger one the centre
#: panels, and either way the lag covariance aliases more
SPECTRAL_MAP_SCALE = 4.0

#: panel count the spectral grid starts from, and keeps whenever it
#: resolves the model over the requested span
SPECTRAL_PANELS = 4096

#: panel count past which the grid is not doubled: the design is then
#: refused with NotConverged
SPECTRAL_MAX_PANELS = 2**17

#: allowed relative gap between each row's design variance and its
#: closed form (-1)^j r^(2j)(0)
SPECTRAL_RESOLUTION_TOL = 1e-3

#: allowed gap between row 0's design covariance and r at the requested
#: lags, as a fraction of r(0). Aliasing puts the gap near r(0) itself,
#: while the k = 0 model's slow tail costs 5e-3 at 4096 panels without
#: aliasing (configs/k0.json, span 100 tau)
SPECTRAL_LAG_TOL = 1e-2

#: times and panels per block of the spectral sum: the phases are formed
#: one (times, panels) block at a time
SPECTRAL_BLOCK = 256

#: times per coarse phase row of the spectral sum (_spectral_rows): the
#: phases of SPECTRAL_FINE consecutive times are one coarse row times
#: SPECTRAL_FINE fine rows, so only the coarse and fine rows take a cos
#: and a sin
SPECTRAL_FINE = 16

#: standard normals in each of spectral_replicates' two draw blocks: 256
#: replicates at 4096 panels, 8 MiB a block
SPECTRAL_DRAW_BLOCK = 256 * SPECTRAL_PANELS


def _checked_lags(tau, times):
    """Lags of the requested times at which the design covariance is
    checked: from 0 to the span, at most one per tau/2 (tau the
    correlation time, CovarianceModel.tau) besides the span itself."""
    size = times.size
    if size == 1:
        return np.zeros(1)
    stride = max(1, math.ceil(0.5 * tau / (times[1] - times[0])))
    idx = np.append(np.arange(0, size - 1, stride), size - 1)
    return times[idx] - times[0]


def _design_gap(z, weights, variances, lags, r_lags):
    """What the grid (z, weights) gets wrong, or None: the first row
    whose design variance misses its target by more than
    SPECTRAL_RESOLUTION_TOL, else the worst lag at which row 0's design
    covariance sum_p w_0p^2 cos(z_p T) misses r(T) by more than
    SPECTRAL_LAG_TOL r(0). The cosines are formed a block of
    SPECTRAL_BLOCK^2 entries at a time."""
    for j, w in enumerate(weights):
        var = float(w @ w)
        if not abs(var - variances[j]) <= SPECTRAL_RESOLUTION_TOL * variances[j]:
            return f"Var Y^({j}) = {var:.6g} against {variances[j]:.6g}"
    power = (weights[0] ** 2)[:, None]
    design = np.empty(lags.size)
    step = max(1, SPECTRAL_BLOCK**2 // z.size)
    for lo in range(0, lags.size, step):
        phase = np.outer(lags[lo:lo + step], z)
        np.cos(phase, out=phase)
        design[lo:lo + step] = _gemm(phase, power)[:, 0]
    error = np.abs(design - r_lags) / variances[0]
    worst = int(np.argmax(error))
    if not error[worst] <= SPECTRAL_LAG_TOL:
        return (f"a row-0 covariance off by {error[worst]:.3g} r(0) at "
                f"lag {lags[worst]:.6g}")
    return None


def _spectral_design(spec, times):
    """Mapped midpoint grid of the spectral integral at the requested times.

    Returns (times, z, weights): the times as a float array, the N panel
    frequencies z, and weights[j] = amp * z^j (j products with z), the
    panel amplitude of Y^(j). _spectral_rows turns these and the two
    white-noise vectors into the rows Y^(j).

    The frequencies are z_p = s tan(pi (u_p - 1/2)) at the midpoints
    u_p = (p + 1/2) / N of [0, 1] (Boyd 1987, J. Comput. Phys. 69:112),
    so the grid covers the whole real line and nothing is truncated;
    amp_p^2 = (dz/du)(u_p) / (N |P(z_p)|^2). The map scale s is
    SPECTRAL_MAP_SCALE times the geometric mean of |zeta|. In u every
    row's variance integrand z^(2j) / |P|^2 dz/du is smooth and
    periodic, so the midpoint sum converges fast.

    N is worked out from the model and the times. It starts at
    SPECTRAL_PANELS and doubles until the grid passes two checks
    (_design_gap): every row's exact design variance (the sum of its
    squared weights) is within SPECTRAL_RESOLUTION_TOL of (-1)^j
    r^(2j)(0), and row 0's design covariance is within SPECTRAL_LAG_TOL
    r(0) of r at the requested lags (_checked_lags). The second catches
    aliasing: the centre panels are pi s / N wide, so the design
    covariance repeats with a period of about 2 N / s, which a span of
    stiff roots can reach. Past SPECTRAL_MAX_PANELS, NotConverged names
    the cap, the span and the map scale.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1d array")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {bad.size} non-finite "
                         f"values, the first {bad[0]}")
    if times.size > 1:
        steps = np.diff(times)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
            raise ValueError("times must be uniformly increasing")
    s = SPECTRAL_MAP_SCALE * math.exp(np.log(np.abs(spec.roots)).mean())
    cov = residue_expansion(spec)
    variances = [(-1.0) ** j * eval_r(cov, 2 * j, 0.0) for j in range(spec.k + 1)]
    lags = _checked_lags(cov.tau, times)
    r_lags = eval_r(cov, 0, lags)
    n_panels = SPECTRAL_PANELS
    while True:
        u = (np.arange(n_panels) + 0.5) / n_panels
        z = s * np.tan(math.pi * (u - 0.5))
        dz_du = math.pi * (s + z**2 / s)
        amp = np.sqrt(dz_du / (n_panels * abs_p_squared(spec, z)))
        weights = np.empty((spec.k + 1, n_panels))
        weights[0] = amp
        for j in range(1, spec.k + 1):
            np.multiply(weights[j - 1], z, out=weights[j])
        gap = _design_gap(z, weights, variances, lags, r_lags)
        if gap is None:
            return times, z, weights
        if n_panels >= SPECTRAL_MAX_PANELS:
            raise NotConverged(
                f"{n_panels} mapped midpoint panels, the cap, at map scale "
                f"{s:.6g} give {gap} over the span {lags[-1]:.6g}; the "
                "grid cannot resolve this model over this span"
            )
        n_panels *= 2


def _gemm(a, b):
    """a @ b for 2-d operands, with sums that do not depend on the BLAS
    thread count.

    A BLAS gemm splits its output between threads, never a sum. numpy
    hands a product with one row or one column to gemv instead, whose
    sums can split (a (251, 4096) product gave different bits with one
    and two OpenBLAS threads), so those take einsum's own loop.
    """
    if a.shape[0] == 1 or b.shape[1] == 1:
        return np.einsum("ij,jk->ik", a, b)
    return a @ b


def _unit_phases(offsets, z, out):
    """out[a, p] = e^(i z_p offsets[a]), in place: the angles go into
    out.imag, their cosines into out.real and their sines over the
    angles."""
    np.multiply(offsets[:, None], z, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)


def _spectral_rows(design, xi_cos, xi_sin):
    """Rows Y^(j) = sum over panels of w_j (cos(theta + j pi/2) xi_cos +
    sin(theta + j pi/2) xi_sin), with theta = outer(times, z).

    Since cos/sin(theta + j pi/2) are cos/sin(theta) up to sign and swap,
    row j is cos(theta) @ (w_j a_j) + sin(theta) @ (w_j b_j) with
    (a_j, b_j) = (xi_cos, xi_sin) turned j quarter turns, (a, b) ->
    (b, -a). xi_cos and xi_sin are (m, N) for m draws; the result is
    (k+1, m, T).

    The sum runs over blocks of SPECTRAL_BLOCK panels, in order. The
    phases e^(i theta) come by angle addition: with F = min(SPECTRAL_FINE,
    T), the phase of time F a + b is the coarse row e^(i z t_(F a)) times
    the fine row e^(i z (t_b - t_0)), b < F. For each panel block the F
    fine rows are evaluated once, and for each SPECTRAL_BLOCK times their
    coarse rows; one complex product per coarse row then fills one
    buffer with the block's phases. Viewed as float64, the buffer
    interleaves [cos, sin] per panel, so the turned weights of every row
    and draw are interleaved the same way, into one ((k+1) m, 2 b)
    matrix, and one gemm (_gemm) adds the block to those times' rows. So
    per panel block only 1/F of the times and F offsets take a cos and a
    sin, the temporaries are one block and the per-panel grid whatever
    the number of times, and the rows do not depend on the BLAS thread
    count.

    The two angles sum to z t_(F a + b) up to the grid's departure from
    uniform: on grids of dt * arange(n) or linspace that is about
    ulp(t) |z|, the rounding of the direct product z t itself. A grid
    whose steps spread by the 1e-9 relative that _spectral_design admits
    can be off by up to (F - 1) 1e-9 dt |z| in the phase.
    """
    times, z, weights = design
    k1, m, size = len(weights), len(xi_cos), times.size
    rows = np.zeros((k1, m, size))
    flat = rows.reshape(k1 * m, size)
    span = min(SPECTRAL_BLOCK, size)
    fine_n = min(SPECTRAL_FINE, size)
    n_coarse = -(-span // fine_n)
    fine = np.empty((fine_n, SPECTRAL_BLOCK), dtype=complex)
    coarse = np.empty((n_coarse, SPECTRAL_BLOCK), dtype=complex)
    # one (n_coarse F, SPECTRAL_BLOCK) buffer, seen as (coarse, fine, panel)
    phases = np.empty((n_coarse, fine_n, SPECTRAL_BLOCK), dtype=complex)
    trig = phases.reshape(n_coarse * fine_n, SPECTRAL_BLOCK).view(float)
    for p in range(0, z.size, SPECTRAL_BLOCK):
        nb = min(SPECTRAL_BLOCK, z.size - p)
        zb = z[p:p + nb]
        _unit_phases(times[:fine_n] - times[0], zb, fine[:, :nb])
        turned = np.empty((k1, m, nb, 2))
        a, b = xi_cos[:, p:p + nb], xi_sin[:, p:p + nb]
        for j in range(k1):
            np.multiply(a, weights[j, p:p + nb], out=turned[j, :, :, 0])
            np.multiply(b, weights[j, p:p + nb], out=turned[j, :, :, 1])
            a, b = b, -a
        turned = turned.reshape(k1 * m, 2 * nb)
        for t in range(0, size, span):
            nt = min(span, size - t)
            nc = -(-nt // fine_n)
            _unit_phases(times[t:t + nt:fine_n], zb, coarse[:nc, :nb])
            # one product per coarse row: one broadcast over all of them
            # would have numpy buffer two operands, 256 KiB past the block
            for c in range(nc):
                np.multiply(fine[:, :nb], coarse[c, :nb], out=phases[c, :, :nb])
            flat[:, t:t + nt] += _gemm(turned, trig[:nt, :2 * nb].T)
    return rows


def _spectral_draws(design, seed, streams):
    """(k+1, len(streams), T) rows of one draw per substream: each
    stream's generator draws xi_cos, then xi_sin, N standard normals
    each."""
    n_panels = design[1].size
    xi_cos = np.empty((len(streams), n_panels))
    xi_sin = np.empty((len(streams), n_panels))
    for c, stream in enumerate(streams):
        rng = _generator(seed, "spectral", stream)
        rng.standard_normal(out=xi_cos[c])
        rng.standard_normal(out=xi_sin[c])
    return _spectral_rows(design, xi_cos, xi_sin)


def sample_spectral(
    spec: RootSpec,
    times,
    seed: int,
    stream: int = 0,
) -> SamplePath:
    """Synthesize the stack from its spectral representation.

    Y^(j)(t) is a cosine/sine integral against two independent white
    noises with amplitude 1/|P(z)|, over the whole real line. The
    integral is discretized by N midpoint panels of the map
    z = s tan(pi (u - 1/2)) (see _spectral_design), so each output is an
    exact Gaussian linear combination of 2 N standard normals and no
    time recursion occurs. N is sized from the model and the span of
    times: SPECTRAL_PANELS, doubled until every row's variance matches
    (-1)^j r^(2j)(0) within SPECTRAL_RESOLUTION_TOL and row 0's design
    covariance matches r(T) within SPECTRAL_LAG_TOL r(0) at the
    requested lags, or NotConverged past SPECTRAL_MAX_PANELS. The
    panels widen towards the tails, so the design covariance at large
    lags carries an aliasing error; at 4096 panels it stays below 1e-4
    r(0) over 25 correlation times for every k >= 1 model the tests
    draw (about 3e-3 r(0) at k = 0, whose density decays slowest).

    The rows are summed over blocks of SPECTRAL_BLOCK times and panels
    (_spectral_rows), so besides its output the sampler holds one such
    block and the per-panel grid, however many times it is asked for.
    The time grid must be finite and uniform (ValueError otherwise); the
    stored dt is its spacing (1.0 for a single time).
    """
    times = np.asarray(times, dtype=float)
    design = _spectral_design(spec, times)
    rows = _spectral_draws(design, seed, [stream])[:, 0]
    values = np.ascontiguousarray(rows.T).T  # time-major, as every path
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    return SamplePath(dt=dt, values=values, seed=int(seed), method="spectral")


def spectral_replicates(
    spec: RootSpec,
    times,
    n_replicates: int,
    seed: int,
) -> np.ndarray:
    """Independent spectral draws, one substream per replicate.

    Returns an array of shape (n_replicates, k+1, len(times)). Replicate
    r consumes the same substream as sample_spectral(..., stream=r), on
    the same grid, and matches its values up to floating-point
    associativity in the matrix products. The draws go through the same
    blocked sum as sample_spectral, SPECTRAL_DRAW_BLOCK // N replicates
    (at least one) at a time, so each of the two noise blocks holds
    SPECTRAL_DRAW_BLOCK doubles whatever N the model needs.
    """
    times = np.asarray(times, dtype=float)
    design = _spectral_design(spec, times)
    chunk = max(1, SPECTRAL_DRAW_BLOCK // design[1].size)
    out = np.empty((n_replicates, spec.k + 1, times.size))
    for start in range(0, n_replicates, chunk):
        stop = min(start + chunk, n_replicates)
        rows = _spectral_draws(design, seed, range(start, stop))
        out[start:stop] = rows.transpose(1, 0, 2)
    return out


# ---------------------------------------------------------------------------
# path export

#: rows of the path that write_csv formats with one % operation
CSV_BLOCK = 4096


def write_csv(chunks, path, dt) -> None:
    """Write a path as CSV with header t, y0, ..., yk.

    chunks are consecutive time-major (rows, k+1) stretches of the path
    from grid point 0, on a grid of spacing dt: the one chunk
    [sample.values.T] of a SamplePath, or stream_path's chunks. Every
    value is written as %.17g, which reads back to the same float64, and
    the bytes are those of np.savetxt with that format and a ","
    delimiter. Each chunk's rows are formatted CSV_BLOCK at a time, each
    block by one % over its values, so the writer holds one block besides
    the chunk and no (n+1, k+2) table is formed.
    """
    start = 0
    with open(path, "w", encoding="ascii") as fh:
        for states in chunks:
            n, d = states.shape
            if start == 0:
                fh.write("t," + ",".join(f"y{j}" for j in range(d)) + "\n")
            row_fmt = ",".join(["%.17g"] * (d + 1)) + "\n"
            block = np.empty((min(CSV_BLOCK, n), d + 1))
            for lo in range(0, n, CSV_BLOCK):
                rows = block[:min(CSV_BLOCK, n - lo)]
                rows[:, 0] = dt * np.arange(start + lo, start + lo + len(rows))
                rows[:, 1:] = states[lo:lo + len(rows)]
                fh.write((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))
            start += n
