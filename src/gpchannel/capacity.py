"""Single-letter capacity optimizations for state-dependent channels.

Covers the auxiliary-symbol capacity max I(U;Y) - I(U;S) over P(u|s) and
deterministic input maps, the stateless Blahut-Arimoto specialization,
state-known-at-both-ends capacity, running-average (Cesaro) capacities
of non-stationary memoryless sequences, and the closed-form value of the
dyadic odd/even alternating sequence family.

The objective is a difference of concave functionals, hence nonconcave;
the optimizer is multi-start projected-gradient ascent over the simplex
product, certified against oracles on small instances rather than by
convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info import mutual_information
from .prob import ChannelKernel, ConditionalPmf, DimensionError, GPPolicy, Pmf, ValidationError, effective_kernel
from .rng import stream

_LOG_FLOOR = 1e-26
_EXHAUSTIVE_G_CAP = 10**6
_HEURISTIC_MAPS = 256
_STEP0 = 0.5
_USED_MASS = 1e-6
MIN_HORIZON = 4  # the shortest n_max cesaro_capacity accepts


@dataclass(frozen=True)
class CapacityResult:
    """Optimizer output: value in nats plus the achieving policy."""

    value: float
    policy: GPPolicy | None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Blahut-Arimoto (stateless)


def _divergences(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """D(W(.|x) || P_Y) per input x, P_Y the output law of input law r.

    Blahut-Arimoto reweights r by these, and their maximum bounds the
    capacity of w from above at any r, closing at the optimal law.
    """
    py = (r[:, None] * w).sum(axis=0)
    log_ratio = np.where((w > 0) & (py > 0), _slog(w) - _slog(py), 0.0)
    return (w * log_ratio).sum(axis=1)


def blahut_arimoto(p_y_x: np.ndarray, tol: float = 1e-9, max_iter: int = 10_000) -> tuple[float, np.ndarray]:
    """Capacity (nats) and maximizing input law of a stateless channel."""
    w = np.asarray(p_y_x, dtype=np.float64)
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    c_prev = -np.inf
    for _ in range(max_iter):
        d = _divergences(w, r)
        r_new = r * np.exp(d - d.max())
        r_new /= r_new.sum()
        c = float((r * d).sum())
        if abs(c - c_prev) <= tol * max(1.0, abs(c)):
            r = r_new
            break
        r = r_new
        c_prev = c
    q = r[:, None] * w
    return max(mutual_information(q), 0.0), r


def no_state_capacity(channel) -> CapacityResult:
    """Capacity of a stateless kernel (|S| = 1 ChannelKernel or 2-d matrix)."""
    if isinstance(channel, ChannelKernel):
        if channel.n_states != 1:
            raise DimensionError("no_state_capacity expects a stateless kernel")
        w = channel.w[0]
    else:
        w = np.asarray(channel, dtype=np.float64)
    value, r = blahut_arimoto(w)
    nx = w.shape[0]
    policy = GPPolicy(
        u_given_s=ConditionalPmf(r[None, :]),
        x_map=np.arange(nx, dtype=np.int64)[:, None],
    )
    diagnostics = {"method": "blahut-arimoto", "upper_bound": float(_divergences(w, r).max())}
    return CapacityResult(value=value, policy=policy, diagnostics=diagnostics)


def state_at_both_capacity(channel: ChannelKernel, state: Pmf) -> CapacityResult:
    """State known at encoder and decoder: sum_s P(s) C(W(.|.,s)).

    The conditional mutual information separates over states when the
    per-state input law is unconstrained, so per-state Blahut-Arimoto
    ascent is exact.
    """
    if channel.n_states != state.size:
        raise DimensionError("state alphabet mismatch")
    per_state = [(float(q_s), no_state_capacity(w_s)) for q_s, w_s in zip(state.probs, channel.w)]
    value = sum(q_s * res.value for q_s, res in per_state)
    bound = sum(q_s * res.diagnostics["upper_bound"] for q_s, res in per_state)
    rows = np.stack([res.policy.u_given_s.rows[0] for _, res in per_state])  # u indexes x, chosen per state
    policy = GPPolicy(
        u_given_s=ConditionalPmf(rows),
        x_map=np.tile(np.arange(channel.n_inputs, dtype=np.int64)[:, None], (1, channel.n_states)),
    )
    diagnostics = {"method": "per-state blahut-arimoto", "upper_bound": bound}
    return CapacityResult(value=value, policy=policy, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# projected-gradient engine


def _project_rows_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of the last axis onto the probability simplex."""
    m = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, m + 1)
    cond = u - css / idx > 0
    rho = cond.sum(axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


def _slog(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _LOG_FLOOR))


def _objective_terms(v, q_list, wg_list_per_k):
    """Exact objective min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l) per batch row,
    with the intermediates its gradient reuses.

    v: (B,S,U); q_list: list of (S,) state pmfs; wg_list_per_k: list over k
    of (S,B,U,Y) effective kernels. Returns, batch axis first: obj (B,),
    i1 (B,K,L), i2 (B,L), log a - log p_Y (B,K,L,U,Y), log p_U (B,L,U) and
    log v (B,S,U), where a is the joint law of (U,Y).
    """
    log_v = _slog(v)
    qv_by_l, log_pu, i2 = [], [], []
    for q in q_list:
        qv = q[None, :, None] * v
        lpu = _slog(qv.sum(axis=1))
        i2.append(np.where(qv > 0, qv * (log_v - lpu[:, None, :]), 0.0).sum(axis=(1, 2)))
        qv_by_l.append(qv)
        log_pu.append(lpu)
    i1, dens = [], []
    for wg in wg_list_per_k:
        for qv, lpu in zip(qv_by_l, log_pu):
            # products summed over s in order, with no BLAS call or fused
            # multiply-add: a row rounds the same whatever batch it is in
            a = qv[:, 0, :, None] * wg[0]
            for s in range(1, wg.shape[0]):
                a = a + qv[:, s, :, None] * wg[s]
            log_a, log_py = _slog(a), _slog(a.sum(axis=1))[:, None, :]
            i1.append(np.where(a > 0, a * (log_a - lpu[:, :, None] - log_py), 0.0).sum(axis=(1, 2)))
            dens.append(log_a - log_py)
    b, k_n, l_n = v.shape[0], len(wg_list_per_k), len(q_list)
    i1 = np.stack(i1, axis=1).reshape(b, k_n, l_n)
    i2 = np.stack(i2, axis=1)
    obj = i1.reshape(b, -1).min(axis=1) - i2.max(axis=1)
    dens = np.stack(dens, axis=1).reshape((b, k_n, l_n) + dens[0].shape[1:])
    return obj, i1, i2, dens, np.stack(log_pu, axis=1), log_v


def _kernels_by_state(channels, g: np.ndarray) -> list[np.ndarray]:
    """Effective kernels of the maps g (B,U,S) on each channel (S,X,Y), as
    the contiguous (S,B,U,Y) arrays _objective_terms reads one state's
    (B,U,Y) slab at a time."""
    return [np.ascontiguousarray(effective_kernel(np.asarray(w), g).transpose(2, 0, 1, 3)) for w in channels]


def _gradient(q_list, wg_list_per_k, i1, i2, dens, log_pu, log_v):
    """Ascent direction of the min/max composite at the active components,
    from one evaluation's _objective_terms intermediates."""
    b, k_n, l_n = i1.shape
    active1 = i1.reshape(b, k_n * l_n).argmin(axis=1)
    active2 = i2.argmax(axis=1)
    grad = np.zeros_like(log_v)
    for k, wg in enumerate(wg_list_per_k):
        for li, q in enumerate(q_list):
            inner = np.einsum("sbuy,buy->bsu", wg, dens[:, k, li])
            term = q[None, :, None] * (inner - log_pu[:, li, None, :])
            grad = np.where((active1 == k * l_n + li)[:, None, None], term, grad)
    for li, q in enumerate(q_list):
        term = q[None, :, None] * (log_v - log_pu[:, li, None, :])
        grad -= np.where((active2 == li)[:, None, None], term, 0.0)
    return grad


def _enumerate_g(u_size: int, n_states: int, n_inputs: int) -> np.ndarray:
    """All deterministic maps (u,s) -> x as an array (G, U, S)."""
    digits = u_size * n_states
    g_count = n_inputs**digits
    idx = np.arange(g_count)
    out = np.empty((g_count, digits), dtype=np.int64)
    for d in range(digits - 1, -1, -1):
        out[:, d] = idx % n_inputs
        idx //= n_inputs
    return out.reshape(g_count, u_size, n_states)


def _onto_relabelling_classes(g_rep: np.ndarray, v0: np.ndarray, n_inputs: int):
    """Move each start (g, v) onto its relabelling class's smallest map and
    drop the starts that repeat an earlier one.

    Relabelling U permutes the rows s -> x of g and the columns of v alike
    and leaves the objective unchanged. A stable sort of g's rows gives the
    class's lexicographically smallest member, and v's columns follow. A
    start equal in g and v to an earlier one is dropped, keeping the first
    in order: the uniform start runs once per class, the near-deterministic
    start once per distinct assignment of rows to states, and every random
    start is kept.
    """
    b = g_rep.shape[0]
    place = n_inputs ** np.arange(g_rep.shape[2] - 1, -1, -1)
    order = np.argsort(g_rep @ place, axis=1, kind="stable")
    g = np.take_along_axis(g_rep, order[:, :, None], axis=1)
    v = np.take_along_axis(v0, order[:, None, :], axis=2)
    key = np.concatenate([g.reshape(b, -1).astype(np.float64), v.reshape(b, -1)], axis=1)
    first = np.sort(np.unique(key, axis=0, return_index=True)[1])
    return g[first], v[first]


def _top_two_gap(obj: np.ndarray, v: np.ndarray, g: np.ndarray, best: int) -> float:
    """Margin of the best row over the best row with a different effective policy.

    A row's effective policy is the set of its used rows s -> x, each cut
    to the states that pick it with probability above _USED_MASS. It is
    blind to relabelling U and to the input a row names for a state that
    never picks it, which leave the objective unchanged, and to how often
    a row repeats. 0.0 when every row has the winner's policy.
    """
    b, n_states, u_size = v.shape
    used = v > _USED_MASS
    cut = np.where(used, g.transpose(0, 2, 1), -1).transpose(0, 2, 1).reshape(b * u_size, n_states)
    ids = np.unique(cut, axis=0, return_inverse=True)[1].reshape(b, u_size)
    policies = np.zeros((b, ids.max() + 1), dtype=bool)
    live = used.any(axis=1)
    policies[np.nonzero(live)[0], ids[live]] = True
    rivals = obj[(policies != policies[best]).any(axis=1)]
    return float(obj.max() - rivals.max()) if rivals.size else 0.0


def optimize_gp_policy(
    states: list[np.ndarray],
    channels: list[np.ndarray],
    u_size: int,
    *,
    restarts: int = 50,
    iters: int = 200,
    seed: int = 0,
    candidates: tuple = (),
):
    """Multi-start ascent of min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l).

    states: state pmfs indexed by l; channels: kernels (S,X,Y) indexed by
    k. Returns (value, v, g, diagnostics). Candidates are (v, g) pairs
    evaluated exactly and entered into the restart pool.
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    n_states = states[0].size
    n_inputs = channels[0].shape[1]
    g_count = n_inputs ** (u_size * n_states)
    exhaustive = g_count <= _EXHAUSTIVE_G_CAP and max(n_states, n_inputs, channels[0].shape[2]) <= 4
    rng = stream(seed, 0xC0DE)
    if exhaustive:
        g_tables = _enumerate_g(u_size, n_states, n_inputs)
    else:
        # heuristic mode: seeded random subset of maps plus identity-like maps
        g_tables = rng.integers(0, n_inputs, size=(_HEURISTIC_MAPS, u_size, n_states))
        g_tables[0] = np.arange(u_size)[:, None] % n_inputs

    g_rep = np.repeat(g_tables, restarts, axis=0)
    b = g_rep.shape[0]
    v0 = np.empty((b, n_states, u_size))
    # structured inits: uniform, near-deterministic, then Dirichlet draws
    v0[:] = 1.0 / u_size
    per_g = restarts
    if per_g > 1:
        ident = np.full((n_states, u_size), 1e-3)
        for s in range(n_states):
            ident[s, s % u_size] = 1.0
        ident /= ident.sum(axis=1, keepdims=True)
        v0[1::per_g] = ident
    if per_g > 2:
        n_rand = b - 2 * g_tables.shape[0]
        mask = np.ones(b, dtype=bool)
        mask[0::per_g] = False
        mask[1::per_g] = False
        v0[mask] = rng.dirichlet(np.ones(u_size), size=(n_rand, n_states))
    if exhaustive:
        g_rep, v0 = _onto_relabelling_classes(g_rep, v0, n_inputs)

    for cand_v, cand_g in candidates:
        g_rep = np.concatenate([g_rep, np.asarray(cand_g, dtype=np.int64)[None]], axis=0)
        v0 = np.concatenate([v0, np.asarray(cand_v, dtype=np.float64)[None]], axis=0)
    b = g_rep.shape[0]

    wg_per_k = _kernels_by_state(channels, g_rep)
    v = v0
    step = np.full(b, _STEP0)
    terms = _objective_terms(v, states, wg_per_k)
    for _ in range(iters):
        grad = _gradient(states, wg_per_k, *terms[1:])
        cand = _project_rows_simplex(v + step[:, None, None] * grad)
        cterms = _objective_terms(cand, states, wg_per_k)
        accept = cterms[0] >= terms[0] - 1e-15
        v = np.where(accept[:, None, None], cand, v)
        terms = tuple(np.where(accept.reshape((b,) + (1,) * (t.ndim - 1)), c, t) for c, t in zip(cterms, terms))
        step = np.where(accept, np.minimum(step * 1.1, 2.0), step * 0.5)
        step = np.maximum(step, 1e-10)

    obj = terms[0]
    order = np.argsort(-obj, kind="stable")
    best = order[0]
    # deterministic tie-break: lexicographic smallest flattened (g, v)
    near = order[np.abs(obj[order] - obj[best]) <= 1e-12]
    if near.size > 1:
        keys = [
            (tuple(g_rep[i].ravel()), tuple(np.round(v[i].ravel(), 9)))
            for i in near
        ]
        best = near[min(range(near.size), key=lambda j: keys[j])]
    diagnostics = {
        "restarts": restarts,
        "iterations": iters,
        "batch": b,
        "top_two_gap": _top_two_gap(obj, v, g_rep, best),
        "exhaustive_g": exhaustive,
        "heuristic_warning": not exhaustive,
    }
    return float(obj[best]), v[best], g_rep[best], diagnostics


def _averaged_channel_candidate(states, channels, u_size, n_inputs):
    """Feasible policy ignoring the state: best input law of the averaged channel."""
    w_avg = np.zeros(channels[0].shape[1:])
    total = 0
    for w in channels:
        for q in states:
            w_avg += np.einsum("s,sxy->xy", q, np.asarray(w))
            total += 1
    w_avg /= total
    _, r = blahut_arimoto(w_avg)
    n_states = states[0].size
    m = min(u_size, n_inputs)
    v = np.zeros((n_states, u_size))
    v[:, :m] = r[None, :m]
    v /= v.sum(axis=1, keepdims=True)
    g = np.zeros((u_size, n_states), dtype=np.int64)
    g[:m] = np.arange(m)[:, None]
    return v, g


def gp_capacity_dm(
    channel: ChannelKernel,
    state: Pmf,
    u_size: int | None = None,
    *,
    restarts: int = 50,
    iters: int = 200,
    seed: int = 0,
) -> CapacityResult:
    """Capacity with the state known noncausally at the encoder only."""
    if channel.n_states != state.size:
        raise DimensionError("state alphabet mismatch")
    if u_size is None:
        u_size = channel.n_inputs * channel.n_states + 1
    if u_size < 1:
        raise ValidationError("u_size must be >= 1")
    cand = [_averaged_channel_candidate([state.probs], [channel.w], u_size, channel.n_inputs)]
    value, v, g, diag = optimize_gp_policy(
        [state.probs], [channel.w], u_size,
        restarts=restarts, iters=iters, seed=seed, candidates=tuple(cand),
    )
    value = max(value, 0.0)
    cap = math.log(channel.n_outputs)
    policy = GPPolicy(u_given_s=ConditionalPmf(v), x_map=g)
    diag = dict(diag)
    diag["u_size"] = u_size
    # I(U;Y) <= log|Y|, so a larger optimizer value is rounding or a fault
    diag["value_clipped"] = value > cap
    value = min(value, cap)
    return CapacityResult(value=value, policy=policy, diagnostics=diag)


# ---------------------------------------------------------------------------
# non-stationary memoryless sequences


def odd_j_mask(n_max: int) -> np.ndarray:
    """mask[i-1] for i in 1..n_max: i odd and inside a dyadic block
    [2^(2k-1), 2^(2k)). Membership is equivalent to bit_length(i) even."""
    i = np.arange(1, n_max + 1, dtype=np.int64)
    bit_length = np.frexp(i.astype(np.float64))[1]
    return ((i & 1) == 1) & (bit_length % 2 == 0)


def in_dyadic_blocks(i: int) -> bool:
    """Closed-form block rule for the alternation index set."""
    return i.bit_length() % 2 == 0


def j_density_extrema(n_max: int) -> dict:
    """Running density (2/n)|odd block members up to n| and its extrema.

    Extrema are taken over dyadic endpoints n = 2^j with 2^10 <= 2^j <=
    n_max, where the oscillation has settled; they bracket [1/3, 2/3].
    """
    if n_max < 2**10:
        raise ValueError("n_max must be at least 2^10")
    mask = odd_j_mask(n_max)
    counts = np.cumsum(mask)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    partials = 2.0 * counts / n
    j_lo = 10
    j_hi = int(math.floor(math.log2(n_max)))
    endpoints = [2**j for j in range(j_lo, j_hi + 1)]
    vals = partials[[e - 1 for e in endpoints]]
    return {
        "liminf_odd_J": float(vals.min()),
        "limsup_odd_J": float(vals.max()),
        "partials": partials,
        "endpoints": endpoints,
    }


@dataclass(frozen=True)
class SequenceSpec:
    """Description of a non-stationary memoryless channel/state sequence.

    kind 'stationary': channels['a'] / states['a'] used at every index.
    kind 'j-structured': odd indices use channels 'a' (inside the
    dyadic blocks) or 'b' (outside) with state 'a'; even indices use
    channel 'c' with state 'b'.
    kind 'explicit-periodic': cycle over the (channel, state) pairs
    listed in `period` (keys into channels/states).
    """

    kind: str
    channels: dict
    states: dict
    period: tuple = ()

    def __post_init__(self):
        if self.kind not in ("stationary", "j-structured", "explicit-periodic"):
            raise ValidationError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "stationary" and ("a" not in self.channels or "a" not in self.states):
            raise ValidationError("stationary spec needs channel 'a' and state 'a'")
        if self.kind == "j-structured":
            for key in ("a", "b", "c"):
                if key not in self.channels:
                    raise ValidationError(f"j-structured spec needs channel {key!r}")
            for key in ("a", "b"):
                if key not in self.states:
                    raise ValidationError(f"j-structured spec needs state {key!r}")
        if self.kind == "explicit-periodic" and not self.period:
            raise ValidationError("explicit-periodic spec needs a period")


def cesaro_capacity(seq: SequenceSpec, n_max: int, *, solver_kwargs: dict | None = None) -> dict:
    """Running averages (1/n) sum_{i<=n} C(W_i, P_{S_i}) and their liminf.

    Index i uses constituent slot[i-1], so the average at n is
    sum_k |{i <= n: slot k}| C_k / n for every sequence kind. The liminf
    surrogate is the minimum of the partial averages over the final
    dyadic window [n_max/2, n_max]; the structured sequences this
    targets oscillate on dyadic blocks, so the window always contains
    both extreme phases.
    """
    if n_max < MIN_HORIZON:
        raise ValidationError(f"horizon must be at least {MIN_HORIZON}")
    i = np.arange(1, n_max + 1)
    if seq.kind == "j-structured":
        keys = [("a", "a"), ("b", "a"), ("c", "b")]
        slot = np.where((i & 1) == 0, 2, np.where(odd_j_mask(n_max), 0, 1))
    else:
        period = [tuple(key) for key in seq.period] if seq.kind == "explicit-periodic" else [("a", "a")]
        keys = list(dict.fromkeys(period))
        period_slots = np.array([keys.index(key) for key in period])
        slot = period_slots[(i - 1) % len(period)]
    kw = solver_kwargs or {}
    caps = [
        gp_capacity_dm(seq.channels[ck], Pmf(np.asarray(seq.states[sk], dtype=np.float64)), **kw).value
        for ck, sk in keys
    ]
    partial = sum(np.cumsum(slot == k) * c for k, c in enumerate(caps)) / i
    if seq.kind == "j-structured":
        analytic = 0.5 * (_dyadic_blend(caps[0], caps[1]) + caps[2])
    else:
        analytic = float(np.mean(np.array(caps)[period_slots]))
    lo = n_max // 2
    return {
        "partial_averages": partial,
        "liminf_estimate": float(partial[lo - 1:].min()),
        "analytic_value": analytic,
        "constituents": dict(zip(keys, caps)),
    }


def _dyadic_blend(ca: float, cb: float) -> float:
    """2/3 min + 1/3 max: the liminf contribution of odd slots that
    alternate between capacities ca and cb on dyadic blocks."""
    return (2.0 / 3.0) * min(ca, cb) + (1.0 / 3.0) * max(ca, cb)


def dyadic_alternation_value(wa: ChannelKernel, wb: ChannelKernel, q: Pmf, **kw) -> float:
    """Weighted blend 2/3 min + 1/3 max of the two constituent capacities,
    the liminf contribution of the dyadically alternating odd slots."""
    return _dyadic_blend(gp_capacity_dm(wa, q, **kw).value, gp_capacity_dm(wb, q, **kw).value)


def _is_state_symmetric_bsc(w: ChannelKernel) -> bool:
    if w.n_states != 2 or w.n_inputs != 2 or w.n_outputs != 2:
        return False
    for s in range(2):
        m = w.w[s]
        if not (abs(m[0, 0] - m[1, 1]) < 1e-12 and abs(m[0, 1] - m[1, 0]) < 1e-12):
            return False
        if not (0.0 < m[0, 1] < 1.0):
            return False
    return True


def require_interleaved_form(wa: ChannelKernel, wb: ChannelKernel, names=("wa", "wb")) -> None:
    """The interleaved closed form holds only when wa and wb are binary
    symmetric channels in each state; `names` label them in the error."""
    for name, w in zip(names, (wa, wb)):
        if not _is_state_symmetric_bsc(w):
            raise ValidationError(f"{name} must be a binary symmetric channel in each state")


def interleaved_capacity(
    wa: ChannelKernel, wb: ChannelKernel, wc: ChannelKernel, qa: Pmf, qb: Pmf, **kw
) -> float:
    """Closed-form capacity of the odd/even interleaved sequence:
    half the dyadic blend of (wa, wb) at state qa plus half C(wc, qb).

    Requires wa and wb to be symmetric binary channels in each state;
    the closed form relies on the uniform auxiliary law being optimal
    on the odd slots, which that symmetry guarantees.
    """
    require_interleaved_form(wa, wb)
    g = dyadic_alternation_value(wa, wb, qa, **kw)
    cc = gp_capacity_dm(wc, qb, **kw).value
    return 0.5 * (g + cc)
