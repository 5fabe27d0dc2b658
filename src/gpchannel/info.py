"""Information functionals on finite joints and spectral-rate estimators.

Exact mutual-information computations use the 0*log(0/.) = 0 convention.
Spectral inf/sup rates are asymptotic objects; the finite-sample
surrogate used here is a small-exceedance-mass quantile at the mass
delta that spectral_rate_estimate is given (default 0.01).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DELTA = 0.01


class SampleBudgetError(ValueError):
    """Too few samples for the requested quantile mass."""


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in nats from a normalized joint over (a, b)."""
    p = np.asarray(joint, dtype=np.float64)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    # p > 0 forces both marginals positive, but optimizer callers probe
    # near-degenerate joints where the product underflows to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p[mask] / (pa[:, None] * pb[None, :])[mask]
        terms = p[mask] * np.log(ratio)
    # an underflowing marginal product means p itself is ~1e-154 or
    # smaller; such cells contribute nothing at float precision
    val = float(terms[np.isfinite(terms)].sum())
    return max(val, 0.0)


def conditional_mutual_information(joint: np.ndarray) -> float:
    """I(A;B|C) in nats from a normalized joint over (a, b, c)."""
    p = np.asarray(joint, dtype=np.float64)
    pc = p.sum(axis=(0, 1))
    total = 0.0
    for c in range(p.shape[2]):
        if pc[c] > 0:
            total += pc[c] * mutual_information(p[:, :, c] / pc[c])
    return max(total, 0.0)


def density_table(joint: np.ndarray) -> np.ndarray:
    """Per-symbol values log[p(a|b)/p(a)] of a joint over (a, b).

    An entry is NaN (undefined) where p(a) = 0 or p(b) = 0, which
    sampling from the joint never produces, and -inf on a zero-mass pair
    with positive marginals.
    """
    p = np.asarray(joint, dtype=np.float64)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    values = np.full(p.shape, np.nan)
    # p(a|b) = p(a,b)/p(b); log ratio against p(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(pb[None, :] > 0, p / np.where(pb[None, :] > 0, pb[None, :], 1.0), 0.0)
        vals = np.log(cond) - np.log(pa[:, None])
    ok = (pa[:, None] > 0) & (pb[None, :] > 0)
    values[ok] = vals[ok]
    # zero-probability pair on positive marginals: density is -inf
    values[ok & (p == 0)] = -np.inf
    return values


def counts_scores(counts: np.ndarray, log_table: np.ndarray) -> np.ndarray:
    """sum_i log_table[cell_i] per row of cell counts (draws, cells).

    A row is -inf when it counts any non-finite cell of the table, so a
    -inf or undefined entry never mixes with finite ones into NaN.
    """
    table = np.ravel(log_table)
    finite = np.isfinite(table)
    out = counts @ np.where(finite, table, 0.0)
    out[counts[:, ~finite].sum(axis=1) > 0] = -np.inf
    return out


@dataclass(frozen=True)
class SpectrumSamples:
    """Normalized block information-density draws.

    samples holds finite values only; draws whose density was infinite
    are counted in tail_infinite (they occur with probability zero for
    valid joints, so a nonzero counter indicates a bug upstream).
    """

    samples: np.ndarray
    n: int
    seed: int = 0
    tail_infinite: int = 0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.size < 1:
            raise SampleBudgetError("SpectrumSamples needs at least one draw")
        if not np.isfinite(s).all():
            raise ValueError("non-finite sample passed; route through tail_infinite")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def count(self) -> int:
        return self.samples.size


def spectral_rate_estimate(samples: SpectrumSamples, mode: str, delta: float = DEFAULT_DELTA) -> float:
    """Finite-sample surrogate of the spectral inf/sup rate.

    inf mode: empirical delta-quantile (order statistic at ceil(delta*count),
    ties toward the smaller value). sup mode: the (1-delta)-quantile,
    mirrored. For i.i.d. memoryless block sums both converge to the
    single-letter mutual information as n grows.
    """
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")
    count = samples.count
    if count < 1.0 / delta:
        raise SampleBudgetError(f"need at least {math.ceil(1/delta)} samples for delta={delta}")
    ordered = np.sort(samples.samples, kind="stable")
    k = math.ceil(delta * count)  # 1-based order statistic
    if mode == "inf":
        return float(ordered[k - 1])
    return float(ordered[count - k])
