"""Single-letter capacity optimizations for state-dependent channels.

Covers the auxiliary-symbol capacity max I(U;Y) - I(U;S) over P(u|s) and
deterministic input maps, the stateless Blahut-Arimoto specialization,
state-known-at-both-ends capacity, running-average (Cesaro) capacities
of non-stationary memoryless sequences given as a slot table over
constituents, and the closed-form value of the dyadic odd/even
alternating sequence family.

For a fixed input map g and one state law, I(U;Y) - I(U;S) is concave in
P(u|s) (Gel'fand-Pinsker, 1980). The optimizer ascends it from one set of
starts per relabelling class of maps with entropic steps, whose unit step
is the closed-form alternating update v(u|s) ~ exp sum_y W_g(y|u,s) log
P(u|y) (Dupuis-Yu-Willems, 2004). A min over channel components stays
concave and is ascended through weights that move toward the worst
component (Sion's minimax); several state components make the objective
nonconcave, and only the Dirichlet starts guard that case. With one state
law, concavity also caps what a start can still reach (the Frank-Wolfe
bound; Jaggi, ICML 2013), and a start whose cap shows it cannot win
retires early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

import numpy as np

from .info import mutual_information
from .prob import ChannelKernel, DimensionError, GPPolicy, Pmf, ValidationError, effective_kernel
from .rng import stream

_LOG_FLOOR = 1e-26
_EXHAUSTIVE_G_CAP = 10**6
_HEURISTIC_MAPS = 256
# the most (start row, s, u, component pair, y) cells a GP search's kernels
# may hold: 2^24 float64 cells take 128 MiB per array
MAX_CELLS = 2**24
_ETA = 50.0  # component-weight step per nat of I(U;Y) above the worst component
# GP optimizer starts per relabelling class (per sampled map in heuristic
# mode): the uniform law first, then Dirichlet draws
RESTARTS = 20
ITERATIONS = 200  # the most entropic steps a start row of a GP optimizer solve takes
# a start row retires after an accepted step that gains at most STOP_TOL
# times max(1, |objective|) and moves no component weight by more than STOP_TOL
STOP_TOL = 1e-13
# with one state law a start also retires once its concavity bound is
# PRUNE_TOL below the best value any start has reached
PRUNE_TOL = 1e-9
MIN_HORIZON = 4  # the shortest slot table cesaro_capacity accepts
# Blahut-Arimoto stops once its duality gap max_x D - sum_x r D is at most
# _BA_GAP nats, or after _BA_MAX_ITER extrapolation cycles
_BA_GAP = 1e-9
_BA_MAX_ITER = 10_000


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


def blahut_arimoto(p_y_x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Capacity (nats), maximizing input law r and max_x D at r of a
    stateless channel.

    Each cycle takes two Blahut-Arimoto updates, extrapolates the log
    law along them with step min(-|r|/|s|, -1) and applies one more
    update (SQUAREM, Varadhan-Roland, Scand. J. Statist. 35(2), 2008); it
    keeps the cycle only if sum_x r D does not fall, and otherwise the
    two plain updates. It stops on a duality gap max_x D - sum_x r D of
    at most _BA_GAP or after _BA_MAX_ITER cycles; either way max_x D
    bounds the capacity from above (Blahut, IEEE Trans. IT 18(4), 1972).
    """
    w = np.asarray(p_y_x, dtype=np.float64)
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    d = _divergences(w, r)

    def update(r, d):
        r = r * np.exp(d - d.max())
        return r / r.sum()

    for _ in range(_BA_MAX_ITER):
        if d.max() - r @ d <= _BA_GAP:
            break
        r1 = update(r, d)
        r2 = update(r1, _divergences(w, r1))
        step, bend = _slog(r1) - _slog(r), _slog(r2) - 2.0 * _slog(r1) + _slog(r)
        alpha = min(-np.linalg.norm(step) / np.linalg.norm(bend), -1.0) if bend.any() else -1.0
        r3 = update(r, -2.0 * alpha * step + alpha * alpha * bend)
        r3 = update(r3, _divergences(w, r3))
        d3 = _divergences(w, r3)
        if r3 @ d3 >= r @ d:
            r, d = r3, d3
        else:
            r, d = r2, _divergences(w, r2)
    q = r[:, None] * w
    return max(mutual_information(q), 0.0), r, float(d.max())


def state_at_both_capacity(channel: ChannelKernel, state: Pmf) -> CapacityResult:
    """State known at encoder and decoder: sum_s P(s) C(W(.|.,s)).

    The conditional mutual information separates over states when the
    per-state input law is unconstrained, so per-state Blahut-Arimoto
    ascent is exact; a one-state channel gives the stateless capacity.
    diagnostics["upper_bound"], sum_s P(s) max_x D, bounds it from above.
    """
    if channel.n_states != state.size:
        raise DimensionError("state alphabet mismatch")
    value = bound = 0.0
    rows = []  # u indexes x, chosen per state
    for q_s, w_s in zip(state.probs, channel.w):
        c, r, top = blahut_arimoto(w_s)
        value += float(q_s) * c
        bound += float(q_s) * top
        rows.append(r)
    policy = GPPolicy(
        u_given_s=np.stack(rows),
        x_map=np.tile(np.arange(channel.n_inputs, dtype=np.int64)[:, None], (1, channel.n_states)),
    )
    return CapacityResult(value=value, policy=policy, diagnostics={"upper_bound": bound})


# ---------------------------------------------------------------------------
# GP policy engine


def _slog(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _LOG_FLOOR))


def _objective_terms(v, q, wg):
    """Exact objective min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l) per batch row,
    with the intermediates its gradient reuses.

    v: (B,S,U); q: (L,S) state pmfs; wg: (S,B,K,U,Y) effective kernels.
    Returns, batch axis first: obj (B,), i1 (B,K,L), i2 (B,L),
    log a - log p_Y (B,K,L,U,Y), log p_U (B,L,U) and log v (B,S,U), where
    a is the joint law of (U,Y). Both informations are in entropy form,
    I(U;Y) = sum a log a - sum p_Y log p_Y - sum p_U log p_U and
    I(U;S) = sum_s q_s sum_u v log v - sum p_U log p_U, where a zero
    cell's floored log is multiplied by 0.
    """
    log_v = _slog(v)
    qv = q[None, :, :, None] * v[:, None]  # (B,L,S,U)
    pu = qv.sum(axis=2)
    log_pu = _slog(pu)
    pu_log_pu = (pu * log_pu).sum(axis=2)
    i2 = (qv * log_v[:, None]).sum(axis=(2, 3)) - pu_log_pu
    # products summed over s in order, with no BLAS call or fused
    # multiply-add: a row rounds the same whatever batch it is in
    a = qv[:, None, :, 0, :, None] * wg[0][:, :, None]
    for s in range(1, wg.shape[0]):
        a += qv[:, None, :, s, :, None] * wg[s][:, :, None]
    py = a.sum(axis=3)
    log_a, log_py = _slog(a), _slog(py)
    i1 = (a * log_a).sum(axis=(3, 4)) - (py * log_py).sum(axis=3) - pu_log_pu[:, None]
    obj = i1.min(axis=(1, 2)) - i2.max(axis=1)
    return obj, i1, i2, log_a - log_py[:, :, :, None, :], log_pu, log_v


def _kernels_by_state(channels, g: np.ndarray) -> np.ndarray:
    """Effective kernels of the maps g (B,U,S) on the channels (K,S,X,Y), as
    the (S,B,K,U,Y) array _objective_terms reads one state's contiguous
    (B,K,U,Y) slab at a time."""
    return np.ascontiguousarray(effective_kernel(np.stack(channels, axis=2), g).transpose(2, 0, 3, 1, 4))


def _gradient(weights, wg, lam, i2, dens, log_pu, log_v):
    """Ascent direction of sum_{k,l} lam_kl I(U_l;Y_kl) - max_l I(U_l;S_l),
    the max at its active component, from one evaluation's _objective_terms
    intermediates. weights (L,S) are the state laws divided by the entropic
    step's per-state scale, so one channel and one state law give
    sum_y W_g log P(u|y) - log v at every state of positive probability."""
    inner = np.einsum("sbkuy,bkluy->bklsu", wg, dens) - log_pu[:, None, :, None, :]
    grad = (lam[:, :, :, None, None] * weights[:, :, None] * inner).sum(axis=(1, 2))
    active = i2.argmax(axis=1)
    return grad - weights[active][:, :, None] * (log_v - log_pu[np.arange(len(active)), active][:, None, :])


def _weighted(terms, lam) -> np.ndarray:
    """sum_{k,l} lam_kl I(U_l;Y_kl) - max_l I(U_l;S_l) per batch row; with
    one component pair lam is 1 and this is the exact objective."""
    if lam.shape[1:] == (1, 1):
        return terms[0]
    return (lam * terms[1]).sum(axis=(1, 2)) - terms[2].max(axis=1)


def _relabelling_classes(u_size: int, n_states: int, n_inputs: int) -> np.ndarray:
    """One map (u,s) -> x per relabelling class, as an array (C, U, S).

    Relabelling U permutes the rows s -> x of a map and leaves the
    objective unchanged, so a class is a multiset of |U| rows. Each map
    lists its rows in ascending order, which makes it the class's
    lexicographically smallest member, and the maps come in ascending
    order.
    """
    rows = np.array(list(product(range(n_inputs), repeat=n_states)), dtype=np.int64)
    picks = np.array(list(combinations_with_replacement(range(len(rows)), u_size)), dtype=np.int64)
    return rows[picks]


def _winner(obj: np.ndarray, v: np.ndarray, g: np.ndarray) -> int:
    """Row of the best value; within 1e-12 of it, the lexicographically
    smallest flattened (g, v rounded to 9 digits)."""
    order = np.argsort(-obj, kind="stable")
    near = order[np.abs(obj[order] - obj[order[0]]) <= 1e-12]
    if near.size == 1:
        return int(near[0])
    keys = [(tuple(g[i].ravel()), tuple(np.round(v[i].ravel(), 9))) for i in near]
    return int(near[min(range(near.size), key=lambda j: keys[j])])


def optimize_gp_policy(
    states: list[np.ndarray],
    channels: list[np.ndarray],
    u_size: int | None = None,
    *,
    restarts: int = RESTARTS,
    seed: int = 0,
):
    """Ascent of min_{k,l} I(U_l;Y_kl) - max_l I(U_l;S_l) over P(u|s) and maps g.

    states: state pmfs indexed by l; channels: kernels (S,X,Y) indexed by
    k; u_size defaults to |X||S| + 1. Returns (value, v, g, diagnostics).
    The search is exhaustive over relabelling classes of maps when the
    full product |X|^(|U||S|) allows (at most 10^6 maps, alphabets at
    most 4) or when there are no more classes than the _HEURISTIC_MAPS
    maps a sample would draw, else over a seeded sample of maps. Each
    class or sampled map gets `restarts` starts: the uniform law, then
    Dirichlet draws. A last start ignores the state: the best input law
    of the averaged channel. A search whose kernels would hold more than
    MAX_CELLS (start row, s, u, k, l, y) cells raises ValidationError.

    Each iteration takes the entropic step v <- v exp(step grad / rho),
    rows renormalised, on the weighted objective
    sum_{k,l} lam_kl I(U_l;Y_kl) - max_l I(U_l;S_l), with
    rho(s) = max_l P_l(s). With one channel and one state law, step 1 is
    the closed-form update v(u|s) ~ exp sum_y W_g(y|u,s) log P(u|y). A
    step that lowers the weighted objective is refused and halved; an
    accepted one grows the step up to 2. Each row's weights then move
    toward its worst channel components, lam <- lam exp(-_ETA (I1 - min I1))
    renormalised, and the row keeps the best exact objective it has
    reached. A row retires, its best value and v fixed, after an accepted
    step that gains at most STOP_TOL max(1, |weighted objective|) and
    moves no weight by more than STOP_TOL; it never takes more than
    ITERATIONS steps. With one state law a row also retires once its
    concavity bound shows it can be neither the winner nor within the
    winner's 1e-12 tie window (see _ascend).
    diagnostics["iterations"] is the longest row's step count,
    diagnostics["rows_at_cap"] the rows that ran ITERATIONS steps
    without retiring and diagnostics["pruned"] the rows the bound retired.
    """
    states = np.asarray(states, dtype=np.float64)
    n_states = states.shape[1]
    n_inputs = channels[0].shape[1]
    if u_size is None:
        u_size = n_inputs * n_states + 1
    if u_size < 1:
        raise ValidationError("u_size must be >= 1")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    n_outputs = channels[0].shape[2]
    class_count = math.comb(n_inputs**n_states + u_size - 1, u_size)
    # a class holds at least one map, so |X|^(|U||S|) is only taken for few classes
    exhaustive = class_count <= _HEURISTIC_MAPS or (
        class_count <= _EXHAUSTIVE_G_CAP and max(n_states, n_inputs, n_outputs) <= 4
        and n_inputs ** (u_size * n_states) <= _EXHAUSTIVE_G_CAP
    )
    start_rows = (class_count if exhaustive else _HEURISTIC_MAPS) * restarts + 1
    cells = start_rows * n_states * u_size * len(channels) * len(states) * n_outputs
    if cells > MAX_CELLS:
        raise ValidationError(f"u_size: {u_size} needs {cells} kernel cells over {start_rows} start rows, above {MAX_CELLS}")
    rng = stream(seed, 0xC0DE)
    if exhaustive:
        g_tables = _relabelling_classes(u_size, n_states, n_inputs)
    else:
        # heuristic mode: seeded random subset of maps plus identity-like maps
        g_tables = rng.integers(0, n_inputs, size=(_HEURISTIC_MAPS, u_size, n_states))
        g_tables[0] = np.arange(u_size)[:, None] % n_inputs

    g_rep = np.repeat(g_tables, restarts, axis=0)
    v0 = np.full((g_rep.shape[0], n_states, u_size), 1.0 / u_size)
    drawn = np.arange(g_rep.shape[0]) % restarts > 0
    v0[drawn] = rng.dirichlet(np.ones(u_size), size=(int(drawn.sum()), n_states))
    cand_v, cand_g = _averaged_channel_candidate(states, channels, u_size)
    g_rep = np.concatenate([g_rep, cand_g[None]], axis=0)
    v0 = np.concatenate([v0, cand_v[None]], axis=0)

    obj, v, ran, at_cap, pruned = _ascend(v0, states, _kernels_by_state(channels, g_rep))
    best = _winner(obj, v, g_rep)
    diagnostics = {
        "u_size": u_size,
        "restarts": restarts,
        "iterations": int(ran.max()),
        "rows_at_cap": at_cap,
        "pruned": pruned,
        "batch": g_rep.shape[0],
        "heuristic_warning": not exhaustive,
    }
    return float(obj[best]), v[best], g_rep[best], diagnostics


def _ascend(v, states, wg):
    """Entropic ascent of the start rows v (B,S,U) on the kernels wg; the
    steps, weights and retirement are optimize_gp_policy's.

    With one state law a start also retires on its concavity bound: for
    the weighted objective W at the current weights,
    B = W(v) + sum_s q(s) (max_{u: v(u|s)>0} G(s,u) - sum_u v(u|s) G(s,u)),
    G the ascent direction (the gradient over q(s)). W is concave in v and
    at least the exact objective, and a zero entry of v stays zero, so
    nothing the start can still reach exceeds max(B, its best value). The
    start retires once that falls PRUNE_TOL below the lead, the best value
    any start has reached.

    Returns, per start row, the best exact objective, the v that reached
    it and the steps taken; the count of rows that ran ITERATIONS steps
    without retiring; and the count of rows the bound retired.
    """
    b = v.shape[0]
    prune = len(states) == 1
    pairs = wg.shape[2] * len(states)
    rho = states.max(axis=0)
    weights = states / np.where(rho > 0, rho, 1.0)
    lam = np.full((b, wg.shape[2], len(states)), 1.0 / pairs)
    step = np.ones(b)
    terms = _objective_terms(v, states, wg)
    best_obj, best_v = terms[0], v
    lead, pruned = -np.inf, 0
    # working row i holds start row rows[i]; a retired row stays, masked,
    # until the live rows fall to half the working rows, then all are gathered
    rows, live = np.arange(b), np.ones(b, dtype=bool)
    obj, v_out, ran = np.empty(b), np.empty_like(v), np.full(b, ITERATIONS)
    for it in range(1, ITERATIONS + 1):
        old = _weighted(terms, lam)
        grad = _gradient(weights, wg, lam, *terms[2:])
        if prune:
            mean = (v * grad).sum(axis=2)
        x = np.where(v > 0, step[:, None, None] * grad, -np.inf)
        del grad  # the candidate's evaluation below is the solve's memory peak
        top = x.max(axis=2, keepdims=True)
        if prune:
            bound = np.maximum(old + (top[:, :, 0] / step[:, None] - mean) @ states[0], best_obj)
            v_at = v
        cand = v * np.exp(x - top)
        cand /= cand.sum(axis=2, keepdims=True)
        cterms = _objective_terms(cand, states, wg)
        new = _weighted(cterms, lam)
        accept = new >= old - 1e-15
        if accept.all():
            v, terms, step = cand, cterms, np.minimum(step * 1.1, 2.0)
        else:
            v = np.where(accept[:, None, None], cand, v)
            terms = tuple(np.where(accept.reshape(accept.shape + (1,) * (t.ndim - 1)), c, t) for c, t in zip(cterms, terms))
            step = np.maximum(np.where(accept, np.minimum(step * 1.1, 2.0), step * 0.5), 1e-10)
        better = terms[0] > best_obj
        best_obj = np.where(better, terms[0], best_obj)
        best_v = np.where(better[:, None, None], v, best_v)
        done = live & accept & (new - old <= STOP_TOL * np.maximum(1.0, np.abs(new)))
        if pairs > 1:  # one pair's lam stays 1
            i1, lam_prev = terms[1], lam
            lam = lam * np.exp(-_ETA * (i1 - i1.min(axis=(1, 2), keepdims=True)))
            lam /= lam.sum(axis=(1, 2), keepdims=True)
            if done.any():
                done &= np.abs(lam - lam_prev).max(axis=(1, 2)) <= STOP_TOL
        if prune:
            lead = max(lead, best_obj.max())
            cut = live & ~done & (bound < lead - PRUNE_TOL)
            if cut.any():
                # an entry below the log floor reads a floored gradient
                # and so bounds nothing
                at = np.flatnonzero(cut)
                cut[at] = ~((v_at[at] > 0) & (v_at[at] < _LOG_FLOOR)).any(axis=(1, 2))
                pruned += int(cut.sum())
                done |= cut
        if not done.any():
            continue
        obj[rows[done]], v_out[rows[done]], ran[rows[done]] = best_obj[done], best_v[done], it
        live &= ~done
        if 2 * live.sum() <= live.size:
            keep = np.flatnonzero(live)
            if keep.size == 0:
                break
            v, step, lam, best_obj, best_v, rows, live = (a[keep] for a in (v, step, lam, best_obj, best_v, rows, live))
            terms = tuple(t[keep] for t in terms)
            wg = wg.take(keep, axis=1)
    obj[rows[live]], v_out[rows[live]] = best_obj[live], best_v[live]
    return obj, v_out, ran, int(live.sum()), pruned


def _averaged_channel_candidate(states, channels, u_size):
    """Feasible policy ignoring the state: best input law of the averaged channel."""
    w_avg = sum(np.einsum("s,sxy->xy", q, np.asarray(w)) for w in channels for q in states)
    _, r, _ = blahut_arimoto(w_avg / (len(channels) * len(states)))
    n_states = states[0].size
    m = min(u_size, channels[0].shape[1])
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
    restarts: int = RESTARTS,
    seed: int = 0,
) -> CapacityResult:
    """Capacity with the state known noncausally at the encoder only."""
    if channel.n_states != state.size:
        raise DimensionError("state alphabet mismatch")
    return _gp_result(*optimize_gp_policy([state.probs], [channel.w], u_size, restarts=restarts, seed=seed), channel.n_outputs)


def _gp_result(value, v, g, diag, n_outputs: int) -> CapacityResult:
    """An optimize_gp_policy result as a CapacityResult: the value floored
    at 0 and clipped at log|Y|, flagged in diagnostics["value_clipped"].
    I(U;Y) <= log|Y|, so a larger optimizer value is rounding or a fault."""
    value, cap = max(value, 0.0), math.log(n_outputs)
    diag["value_clipped"] = value > cap
    return CapacityResult(value=min(value, cap), policy=GPPolicy(u_given_s=v, x_map=g), diagnostics=diag)


# ---------------------------------------------------------------------------
# non-stationary memoryless sequences


def odd_j_mask(n_max: int) -> np.ndarray:
    """mask[i-1] for i in 1..n_max: i odd and inside a dyadic block
    [2^(2k-1), 2^(2k)). Membership is equivalent to bit_length(i) even."""
    i = np.arange(1, n_max + 1, dtype=np.int64)
    bit_length = np.frexp(i.astype(np.float64))[1]
    return ((i & 1) == 1) & (bit_length % 2 == 0)


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


def j_structured_slots(n_max: int) -> np.ndarray:
    """slot[i-1] for i in 1..n_max of the j-structured sequence: 0 at odd i
    inside the dyadic blocks, 1 at odd i outside them, 2 at even i."""
    i = np.arange(1, n_max + 1)
    return np.where((i & 1) == 0, 2, np.where(odd_j_mask(n_max), 0, 1))


def cesaro_capacity(constituents: list, slot: np.ndarray, *, solver_kwargs: dict | None = None) -> dict:
    """Running averages (1/n) sum_{i<=n} C(W_i, P_{S_i}) and their liminf.

    constituents: (ChannelKernel, Pmf) pairs, each solved once; index i
    uses constituents[slot[i-1]], so the average at n is
    sum_k |{i <= n: slot k}| C_k / n. A stationary sequence is
    np.zeros(n, int), a periodic one np.resize(period_slots, n). The
    liminf surrogate is the minimum of the partial averages over the
    final dyadic window [n/2, n], n = len(slot); the structured sequences
    this targets oscillate on dyadic blocks, so the window always
    contains both extreme phases.
    """
    slot = np.asarray(slot)
    n_max = slot.size
    if n_max < MIN_HORIZON:
        raise ValidationError(f"horizon must be at least {MIN_HORIZON}")
    if (slot != np.floor(slot)).any() or slot.min() < 0 or slot.max() >= len(constituents):
        raise ValidationError(f"slot entries must be integers indexing the {len(constituents)} constituents")
    kw = solver_kwargs or {}
    caps = [gp_capacity_dm(w, q, **kw).value for w, q in constituents]
    partial = sum(np.cumsum(slot == k) * c for k, c in enumerate(caps)) / np.arange(1, n_max + 1)
    return {
        "partial_averages": partial,
        "liminf_estimate": float(partial[n_max // 2 - 1:].min()),
        "constituents": caps,
    }


def interleaved_value(ca: float, cb: float, cc: float) -> float:
    """Closed-form Cesaro liminf of the j-structured sequence from its
    constituent capacities: half the dyadic blend 2/3 min + 1/3 max of the
    odd slots' ca and cb, plus half the even slots' cc.

    Holds when channels a and b are binary symmetric in each state, which
    makes the uniform auxiliary law optimal on the odd slots.
    """
    return 0.5 * ((2.0 / 3.0) * min(ca, cb) + (1.0 / 3.0) * max(ca, cb) + cc)
