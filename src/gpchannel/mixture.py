"""Mixed channels and mixed state processes.

A mixed system draws one channel component and one state component once
and uses them for the whole block. The achievable-rate lower bound for a
shared single-letter policy is

    min over (k,l) of I(U_l; Y_kl)  -  max over l of I(U_l; S_l),

where (S_l, U_l, Y_kl) is the single-letter system composed from
state component l and channel component k. The Monte-Carlo demo draws
n-block information densities under the exact mixture marginals and
shows the spectrum splitting into one mode per component pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import (
    RESTARTS,
    CapacityResult,
    _kernels_by_state,
    _objective_terms,
    optimize_gp_policy,
)
from .coding import MemorylessSystem
from .info import SpectrumSamples, counts_scores
from .prob import ChannelKernel, DimensionError, GPPolicy, Pmf, ValidationError, check_rows
from .rng import stream

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureSpec:
    """Finite mixture of channel kernels and of state laws.

    channel_components / state_components are tuples of (weight, object).
    Countable mixtures must be truncated to an explicit list; a missing
    weight tail larger than 1e-9 is rejected.
    """

    channel_components: tuple
    state_components: tuple

    def __post_init__(self):
        for name, comps in (("channel", self.channel_components), ("state", self.state_components)):
            # the 1e-9 is the truncation-tail allowance; it also rejects an empty or all-zero list
            check_rows([w for w, _ in comps], f"{name} mixture weights", 1e-9)
        shapes = {ch.w.shape for _, ch in self.channel_components}
        if len(shapes) != 1:
            raise DimensionError("channel components have mismatched alphabets")
        sizes = {q.size for _, q in self.state_components}
        if len(sizes) != 1 or sizes.pop() != self.channel_components[0][1].n_states:
            raise DimensionError("state components mismatch the channel state alphabet")

    @property
    def support(self) -> tuple[np.ndarray, tuple[ChannelKernel, ...], np.ndarray, tuple[Pmf, ...]]:
        """The positive-weight components: channel weights (K,) and kernels,
        then state weights (L,) and laws."""
        (cw, chans), (sw, states) = (
            zip(*[(w, c) for w, c in comps if w > _WEIGHT_TOL])
            for comps in (self.channel_components, self.state_components)
        )
        return np.array(cw), chans, np.array(sw), states


def mixed_lower_bound(mix: MixtureSpec, policy: GPPolicy) -> float:
    """Exact min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l) for a shared policy:
    the optimizer's own objective at the policy's (v, g) row."""
    _, chans, _, states = mix.support
    wg = _kernels_by_state([ch.w for ch in chans], policy.x_map[None])
    return float(_objective_terms(policy.u_given_s[None], np.array([q.probs for q in states]), wg)[0][0])


def maximize_mixed_lower_bound(
    mix: MixtureSpec,
    u_size: int | None = None,
    *,
    restarts: int = RESTARTS,
    seed: int = 0,
) -> CapacityResult:
    """Best shared policy for the mixed lower bound (lower bound only:
    no matching converse is computed for proper mixtures)."""
    _, chans, _, states = mix.support
    chans, states = [ch.w for ch in chans], [q.probs for q in states]
    value, v, g, diag = optimize_gp_policy(states, chans, u_size, restarts=restarts, seed=seed)
    policy = GPPolicy(u_given_s=v, x_map=g)
    diag["lower_bound_only"] = len(chans) > 1 or len(states) > 1
    return CapacityResult(value=max(value, 0.0), policy=policy, diagnostics=diag)


def _component_tables(mix: MixtureSpec, policy: GPPolicy):
    """Per-component (u,y) cell probabilities and log tables.

    Returns (cells (K,L,U,Y) joint laws, log_uy (K,L,U*Y), log_u (L,U),
    log_y (K,L,Y), log weight vectors). Zero cells map to -inf logs.
    """
    cw, chans, sw, states = mix.support
    cells = np.array([[MemorylessSystem(q, policy, ch).p_uy for q in states] for ch in chans])
    with np.errstate(divide="ignore"):
        log_uy = np.log(cells.reshape(cells.shape[:2] + (-1,)))
        log_u = np.log(cells.sum(axis=3)[0])  # u-marginal depends on l only
        log_y = np.log(cells.sum(axis=2))
    return cells, log_uy, log_u, log_y, np.log(cw), np.log(sw)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over axis 0 of a real array, bit for bit what
    scipy.special.logsumexp(a, axis=0) returns: the max term and its m
    ties stay out of the shifted sum s, the result is
    log1p(s/m) + log m + max, and a non-finite result (a column whose
    max is infinite or NaN, or an overflow) is replaced by the direct
    log(sum(exp(a)))."""
    top = a.max(axis=0)
    ties = a == top
    m = ties.sum(axis=0, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(ties, -np.inf, a) - top).sum(axis=0)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.exp(a[:, bad]).sum(axis=0))
    return out


def _scores(counts: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """Scores (..., m) of the count rows (m, cells) against every table
    row of log_tables (..., cells), in one counts_scores call."""
    return counts_scores(np.broadcast_to(counts, log_tables.shape[:-1] + counts.shape), log_tables)


def mixture_spectrum_demo(
    mix: MixtureSpec,
    policy: GPPolicy,
    n: int,
    draws: int,
    seed: int = 0,
) -> SpectrumSamples:
    """Normalized block densities (1/n) log[P(Y^n|U^n)/P(Y^n)] under the
    exact mixture marginals.

    Each trial picks a component pair by weight, draws the (U,Y) cell
    counts of an n-block from that pair's product law, and evaluates the
    density with the mixture laws via log-sum-exp over components — the
    marginals of the mixed system are mixtures of product laws, so the
    block density does not tensorize and the mixture must enter inside
    the log.
    """
    if draws < 1:
        raise ValidationError("draws must be positive")
    if n < 1:
        raise ValidationError("n must be positive")
    cells, log_uy, log_u, log_y, log_cw, log_sw = _component_tables(mix, policy)
    k_n, l_n, n_u, n_y = cells.shape
    rng = stream(seed, 0x5BEC)
    pair_w = np.exp(log_cw[:, None] + log_sw[None, :]).ravel()
    pair_w /= pair_w.sum()
    which = rng.choice(k_n * l_n, size=draws, p=pair_w)
    densities = np.empty(draws)
    for pair in range(k_n * l_n):
        sel = np.flatnonzero(which == pair)
        if sel.size == 0:
            continue
        ki, li = divmod(pair, l_n)
        counts = rng.multinomial(n, cells[ki, li].ravel(), size=sel.size)
        blocks = counts.reshape(-1, n_u, n_y)
        # log of the weighted block laws P(u,y) and P(y) of each pair (k,l)
        # and P(u) of each l, one stacked score per family
        log_joint = (_scores(counts, log_uy) + log_cw[:, None, None] + log_sw[:, None]).reshape(-1, sel.size)
        log_pu = _scores(blocks.sum(axis=2), log_u) + log_sw[:, None]
        log_py = (_scores(blocks.sum(axis=1), log_y) + log_cw[:, None, None] + log_sw[:, None]).reshape(-1, sel.size)
        densities[sel] = (_logsumexp(log_joint) - _logsumexp(log_pu) - _logsumexp(log_py)) / n
    finite = np.isfinite(densities)
    return SpectrumSamples(samples=densities[finite], tail_infinite=int((~finite).sum()))
