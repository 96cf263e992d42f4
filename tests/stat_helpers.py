"""Statistics that only the tests use: a block standard error for the
Euler path of acceptance criterion 6, and the replicate-ensemble
partial correlation behind acceptance criterion 7 and the spectral
Markov tests."""

import math

import numpy as np

from carkov.errors import PathTooShort
from carkov.validate import STAT_BAND, CheckReport, _report


def block_standard_error(x: np.ndarray, block_len: int) -> float:
    """Standard error of the mean of x from overlapping block means."""
    m = x.size
    block_len = max(1, min(int(block_len), m))
    if m - block_len + 1 < 2:
        raise PathTooShort(
            f"{m} samples cannot support blocks of length {block_len}"
        )
    c = np.concatenate([[0.0], np.cumsum(x)])
    means = (c[block_len:] - c[:-block_len]) / block_len
    var_mean = means.var(ddof=1) * block_len / m
    return float(math.sqrt(var_mean))


def check_partial_correlation(replicates, s_idx: int, t_idx: int, u_idx: int,
                              conditioning: str = "vector") -> CheckReport:
    """Sample partial correlation of Y(s), Y(u) given the state at t.

    replicates is an (R, k+1, N) array with R >= 1000. With
    conditioning="vector" the whole stack Z(t) is regressed out and the
    statistic |pcorr| * sqrt(R) should sit inside the normal band: that is
    the Markov property. With conditioning="scalar" only Y(t) is regressed
    out; for k >= 1 that must FAIL, so the report is encoded as a negative
    control (statistic and threshold negated): it passes when the
    dependence is detected. A singular conditioning block or a zero
    residual raises ValueError.
    """
    reps, d, n = replicates.shape
    if reps < 1000:
        raise PathTooShort(f"{reps} replicates < 1000")
    if not (0 <= s_idx < t_idx < u_idx < n):
        raise ValueError("need 0 <= s_idx < t_idx < u_idx < path length")
    if conditioning not in ("vector", "scalar"):
        raise ValueError("conditioning must be 'vector' or 'scalar'")
    ys = replicates[:, 0, s_idx] - replicates[:, 0, s_idx].mean()
    yu = replicates[:, 0, u_idx] - replicates[:, 0, u_idx].mean()
    cond = replicates[:, : d if conditioning == "vector" else 1, t_idx]
    cond = cond - cond.mean(axis=0)
    gram = cond.T @ cond
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
        raise ValueError(f"conditioning covariance eigenvalue {eigs.min():.3e}")
    res_s = ys - cond @ np.linalg.solve(gram, cond.T @ ys)
    res_u = yu - cond @ np.linalg.solve(gram, cond.T @ yu)
    denom = math.sqrt(float(res_s @ res_s) * float(res_u @ res_u))
    if denom == 0.0:
        raise ValueError("zero residual variance")
    pcorr = float(res_s @ res_u) / denom
    raw = abs(pcorr) * math.sqrt(reps)
    if conditioning == "vector":
        return _report("markov_partial_correlation", raw, STAT_BAND,
                       f"|pcorr| = {abs(pcorr):.4f}, |pcorr| sqrt(R) = "
                       f"{raw:.2f} conditioning on the full stack")
    return _report("markov_scalar_negative_control", -raw, -STAT_BAND,
                   f"|pcorr| sqrt(R) = {raw:.2f} conditioning on Y(t) alone; "
                   "this control passes only when the residual dependence "
                   "is detected (raw statistic above the band)")
