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
from scipy.special import logsumexp

from .capacity import (
    CapacityResult,
    _averaged_channel_candidate,
    _kernels_by_state,
    _objective_terms,
    optimize_gp_policy,
)
from .coding import MemorylessSystem
from .info import SpectrumSamples, counts_scores
from .prob import ChannelKernel, ConditionalPmf, DimensionError, GPPolicy, Pmf, ValidationError, check_rows
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
    def channel_support(self) -> list[ChannelKernel]:
        return [ch for w, ch in self.channel_components if w > _WEIGHT_TOL]

    @property
    def state_support(self) -> list[Pmf]:
        return [q for w, q in self.state_components if w > _WEIGHT_TOL]


def mixed_lower_bound(mix: MixtureSpec, policy: GPPolicy) -> float:
    """Exact min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l) for a shared policy:
    the optimizer's own objective at the policy's (v, g) row."""
    g = policy.x_map[None]
    wg_per_k = _kernels_by_state([ch.w for ch in mix.channel_support], g)
    obj = _objective_terms(policy.u_given_s.rows[None], [q.probs for q in mix.state_support], wg_per_k)[0]
    return float(obj[0])


def maximize_mixed_lower_bound(
    mix: MixtureSpec,
    u_size: int | None = None,
    *,
    restarts: int = 50,
    iters: int = 200,
    seed: int = 0,
) -> CapacityResult:
    """Best shared policy for the mixed lower bound (lower bound only:
    no matching converse is computed for proper mixtures)."""
    chans = [ch.w for ch in mix.channel_support]
    states = [q.probs for q in mix.state_support]
    n_inputs = chans[0].shape[1]
    n_states = states[0].size
    if u_size is None:
        u_size = n_inputs * n_states + 1
    if u_size < 1:
        raise ValidationError("u_size must be >= 1")
    cand = [_averaged_channel_candidate(states, chans, u_size, n_inputs)]
    value, v, g, diag = optimize_gp_policy(
        states, chans, u_size, restarts=restarts, iters=iters, seed=seed, candidates=tuple(cand)
    )
    policy = GPPolicy(u_given_s=ConditionalPmf(v), x_map=g)
    diag = dict(diag)
    diag.update(u_size=u_size, lower_bound_only=len(chans) > 1 or len(states) > 1)
    return CapacityResult(value=max(value, 0.0), policy=policy, diagnostics=diag)


def _component_tables(mix: MixtureSpec, policy: GPPolicy):
    """Per-component (u,y) cell probabilities and log tables.

    Returns (cells (K,L,U,Y) joint laws, log_uy, log_u (L,U), log_y
    (K,L,Y), log weight vectors). Zero cells map to -inf logs.
    """
    states = mix.state_support
    cw = np.array([w for w, _ in mix.channel_components if w > _WEIGHT_TOL])
    sw = np.array([w for w, _ in mix.state_components if w > _WEIGHT_TOL])
    cells = np.array([[MemorylessSystem(q, policy, ch).p_uy for q in states] for ch in mix.channel_support])
    with np.errstate(divide="ignore"):
        log_uy = np.log(cells)
        log_u = np.log(cells.sum(axis=3)[0])  # u-marginal depends on l only
        log_y = np.log(cells.sum(axis=2))
    return cells, log_uy, log_u, log_y, np.log(cw), np.log(sw)


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
        # conditional score log P(y|u) = log P(u,y) - log P(u), per component
        joint_scores = np.stack(
            [
                counts_scores(counts, log_uy[k, l]) + log_cw[k] + log_sw[l]
                for k in range(k_n)
                for l in range(l_n)
            ]
        )  # (KL, m): log of weighted block joint P(u,y) per component
        u_counts = counts.reshape(-1, n_u, n_y).sum(axis=2)
        u_scores = np.stack(
            [counts_scores(u_counts, log_u[l]) + log_sw[l] for l in range(l_n)]
        )
        y_counts = counts.reshape(-1, n_u, n_y).sum(axis=1)
        y_scores = np.stack(
            [
                counts_scores(y_counts, log_y[k, l]) + log_cw[k] + log_sw[l]
                for k in range(k_n)
                for l in range(l_n)
            ]
        )
        log_joint = logsumexp(joint_scores, axis=0)
        log_pu = logsumexp(u_scores, axis=0)
        log_py = logsumexp(y_scores, axis=0)
        densities[sel] = (log_joint - log_pu - log_py) / n
    finite = np.isfinite(densities)
    return SpectrumSamples(
        samples=densities[finite],
        n=n,
        seed=seed,
        tail_infinite=int((~finite).sum()),
    )
