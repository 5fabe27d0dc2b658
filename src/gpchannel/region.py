"""Rate region with a rate-limited state description at the decoder.

A stationary memoryless system with state known at the encoder and a
separate noiseless link of R_d nats per symbol to the decoder achieves
the pairs (R, R_d) with

    R_d >= I(V;S) - I(V;Y)        (description cost after binning)
    R   <= I(U;Y|V) - I(U;S|V)    (message rate given the description)

over auxiliary laws P(v|s), P(u|v,s) and deterministic maps
x = g(u,v,s). The frontier solver puts an exact penalty on the description
constraint because the constraint set is nonconvex, then re-checks
feasibility exactly and anchors the endpoints with two closed-form
candidate policies (degenerate V at R_d = 0; V = S at large R_d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import softmax

from .capacity import gp_capacity_dm, state_at_both_capacity
from .info import conditional_mutual_information, mutual_information
from .prob import ChannelKernel, GPPolicy, Pmf, ValidationError, check_rows, effective_kernel
from .rng import stream


@dataclass(frozen=True)
class RegionPolicy:
    """(P(v|s), P(u|v,s), deterministic x = g[u,v,s])."""

    v_given_s: np.ndarray  # (S,V)
    u_given_vs: np.ndarray  # (V,S,U)
    x_map: np.ndarray  # (U,V,S) ints

    def __post_init__(self):
        check_rows(self.v_given_s, "v_given_s", 1e-9)
        check_rows(self.u_given_vs, "u_given_vs", 1e-9)


@dataclass(frozen=True)
class RegionPoint:
    r: float
    r_d: float
    policy: RegionPolicy
    diagnostics: dict


def _kernel_rates(pv, pu, wg, q) -> tuple[float, float]:
    """(message rate, description rate) of the laws P(v|s) = pv[s,v] and
    P(u|v,s) = pu[v,s,u] on the effective kernel W_g(y|u,v,s) = wg[v,s,u,y]."""
    p_svuy = np.einsum("s,sv,vsu,vsuy->svuy", q, pv, pu, wg)
    i_vs = mutual_information(p_svuy.sum(axis=(2, 3)))
    i_vy = mutual_information(p_svuy.sum(axis=(0, 2)))
    i_uy_v = conditional_mutual_information(p_svuy.sum(axis=0).transpose(1, 2, 0))
    i_us_v = conditional_mutual_information(p_svuy.sum(axis=3).transpose(2, 0, 1))
    return i_uy_v - i_us_v, i_vs - i_vy


def _rates(policy: RegionPolicy, channel: ChannelKernel, state: Pmf) -> dict:
    """Exact single-letter rates for one policy."""
    # W_g[v,s,u,y] = W(y | g[u,v,s], s): the maps g[u] batched over u
    wg = effective_kernel(channel.w, np.asarray(policy.x_map, dtype=np.int64)).transpose(1, 2, 0, 3)
    rate, cost = _kernel_rates(
        np.asarray(policy.v_given_s, dtype=np.float64), np.asarray(policy.u_given_vs, dtype=np.float64),
        wg, state.probs,
    )
    return {"message_rate": rate, "description_rate": cost}


def region_membership(point: RegionPoint, channel: ChannelKernel, state: Pmf) -> bool:
    """Exact check of both inequalities for the point's own policy."""
    rates = _rates(point.policy, channel, state)
    return (
        point.r <= rates["message_rate"] + 1e-9
        and point.r_d >= rates["description_rate"] - 1e-9
    )


# ---------------------------------------------------------------------------
# candidate policies anchoring the endpoints


def _anchor_policy(v_rows: np.ndarray, gp_policy: GPPolicy, u_size: int) -> RegionPolicy:
    """The region policy that describes S by P(v|s) = v_rows and sends
    gp_policy's U and input map whatever V is; U symbols past
    gp_policy's alphabet go unused."""
    inner = gp_policy.u_given_s.rows
    n_s, n_u = inner.shape
    u_rows = np.zeros((v_rows.shape[1], n_s, u_size))
    u_rows[:, :, :n_u] = inner
    g = np.zeros((u_size, v_rows.shape[1], n_s), dtype=np.int64)
    g[:n_u] = gp_policy.x_map[:, None, :]
    return RegionPolicy(v_given_s=v_rows, u_given_vs=u_rows, x_map=g)


# ---------------------------------------------------------------------------
# penalty optimizer

# The hinge penalty mu * max(cost - r_d, 0) is exact for any mu > 1 when the
# alphabets are not restricted: revealing V with probability lam and merging
# it into U otherwise trades description cost for message rate at exactly
# 1 nat per nat, so the frontier's slope never exceeds 1.
PENALTY_MU = 2.0


def _unpack(theta, n_s, v_size, u_size, n_x):
    a = n_s * v_size
    b = v_size * n_s * u_size
    pv = softmax(theta[:a].reshape(n_s, v_size), axis=-1)
    pu = softmax(theta[a : a + b].reshape(v_size, n_s, u_size), axis=-1)
    px = softmax(theta[a + b :].reshape(u_size, v_size, n_s, n_x), axis=-1)
    return pv, pu, px


def _penalty_value_and_grad(theta, w, q, v_size, u_size, mu, r_d):
    """-(rate - mu * max(cost - r_d, 0)) of the relaxed policy theta on the
    kernel w[s,x,y] and state law q, and its exact gradient in theta.

    Each information term is E_P[log ratio of its own marginals] of the
    joint P[s,v,u,y] = q P(v|s) P(u|v,s) sum_x P(x|u,v,s) W(y|x,s), and
    that log-ratio table is its gradient in P: the additive constants
    cancel because P sums to 1 for every theta. The table is chained back
    to the three softmax blocks. Cells with P = 0 get 0; every path from
    such a cell to theta passes through a zero factor.
    """
    n_s, n_x, _ = w.shape
    pv, pu, px = _unpack(theta, n_s, v_size, u_size, n_x)
    wg = np.einsum("uvsx,sxy->svuy", px, w)
    q_pv_pu = np.einsum("s,sv,vsu->svu", q, pv, pu)
    p = q_pv_pu[..., None] * wg
    live = p > 0

    def log_marginal(axes):
        return np.log(p.sum(axis=axes, keepdims=True))

    with np.errstate(divide="ignore", invalid="ignore"):
        l_sv, l_vy = log_marginal((2, 3)), log_marginal((0, 2))
        # I(U;Y|V) - I(U;S|V): the log P(v) and log P(v,u) terms cancel
        rate_table = np.where(live, log_marginal(0) - l_vy - log_marginal(3) + l_sv, 0.0)
        # I(V;S) - I(V;Y): the log P(v) terms cancel
        cost_table = np.where(live, l_sv - log_marginal((1, 2, 3)) - l_vy + log_marginal((0, 1, 2)), 0.0)
    rate, cost = float((p * rate_table).sum()), float((p * cost_table).sum())
    dp = mu * cost_table - rate_table if cost > r_d else -rate_table

    d_pv = np.einsum("svuy,s,vsu,svuy->sv", dp, q, pu, wg)
    d_pu = np.einsum("svuy,s,sv,svuy->vsu", dp, q, pv, wg)
    d_px = np.einsum("svuy,svu,sxy->uvsx", dp, q_pv_pu, w)
    grad = np.concatenate([
        (pr * (d - (pr * d).sum(axis=-1, keepdims=True))).ravel()
        for pr, d in ((pv, d_pv), (pu, d_pu), (px, d_px))
    ])
    return -(rate - mu * max(cost - r_d, 0.0)), grad


def _optimize_grid_point(channel, state, v_size, u_size, r_d, restarts, seed):
    n_s, n_x = channel.n_states, channel.n_inputs
    dim = n_s * v_size + v_size * n_s * u_size + u_size * v_size * n_s * n_x
    rng = stream(seed, 0x8E61, int(round(r_d * 1e6)))
    best = None
    for restart in range(restarts):
        res = minimize(
            _penalty_value_and_grad, rng.normal(scale=1.5, size=dim),
            args=(channel.w, state.probs, v_size, u_size, PENALTY_MU, r_d),
            jac=True, method="L-BFGS-B", options={"maxiter": 120},
        )
        pv, pu, px = _unpack(res.x, n_s, v_size, u_size, n_x)
        g = px.argmax(axis=-1).astype(np.int64)
        policy = RegionPolicy(v_given_s=pv, u_given_vs=pu, x_map=g)
        rates = _rates(policy, channel, state)
        if rates["description_rate"] > r_d + 1e-9:
            continue
        if best is None or rates["message_rate"] > best[0]:
            best = (rates["message_rate"], policy)
    return best


def region_frontier(
    channel: ChannelKernel,
    state: Pmf,
    v_size: int | None = None,
    u_size: int | None = None,
    rd_grid=None,
    *,
    restarts: int = 6,
    seed: int = 0,
) -> list[RegionPoint]:
    """Best message rate per description-rate budget, monotonized.

    Each grid point maximizes the message rate subject to the
    description cost fitting the budget; two closed-form candidate
    policies anchor the R_d = 0 and saturation endpoints, and a running
    maximum enforces monotonicity (a larger budget can always reuse a
    smaller budget's policy).
    """
    bound_v = channel.n_inputs * channel.n_states + 1
    bound_u = channel.n_inputs * channel.n_states * bound_v
    v_size = bound_v if v_size is None else v_size
    u_size = bound_u if u_size is None else u_size
    for name, value in (("v_size", v_size), ("u_size", u_size), ("restarts", restarts)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1")
    if rd_grid is None:
        rd_grid = np.linspace(0.0, math.log(max(channel.n_states, 2)), 9)
    rd_grid = np.asarray(rd_grid, dtype=np.float64)
    if rd_grid.size == 0:
        raise ValidationError("rd_grid holds no description-rate budget")
    if (rd_grid < 0).any():
        raise ValidationError("description-rate budgets must be non-negative")

    n_s, n_x = channel.n_states, channel.n_inputs
    # V carries nothing: the encoder-only optimum is feasible at R_d = 0
    gp = gp_capacity_dm(channel, state, u_size=min(u_size, n_x * n_s + 1), restarts=restarts, seed=seed)
    anchors = [_anchor_policy(np.tile(np.eye(1, v_size), (n_s, 1)), gp.policy, u_size)]
    if v_size >= n_s and u_size >= n_x:
        # V = S: per-state optimal inputs give the two-sided capacity once
        # R_d covers the description cost
        anchors.append(_anchor_policy(np.eye(n_s, v_size), state_at_both_capacity(channel, state).policy, u_size))
    anchor_rates = [(_rates(pol, channel, state), pol) for pol in anchors]

    points: list[RegionPoint] = []
    best_so_far: tuple[float, RegionPolicy] | None = None
    for r_d in rd_grid:
        # the degenerate-V anchor costs 0, so the pool is never empty on the non-negative grid
        pool = [(rates["message_rate"], pol) for rates, pol in anchor_rates if rates["description_rate"] <= r_d + 1e-9]
        opt = _optimize_grid_point(channel, state, v_size, u_size, float(r_d), restarts, seed)
        if opt is not None:
            pool.append(opt)
        if best_so_far is not None:
            pool.append(best_so_far)
        rate, pol = max(pool, key=lambda t: t[0])
        best_so_far = (rate, pol)
        points.append(
            RegionPoint(
                r=max(rate, 0.0),
                r_d=float(r_d),
                policy=pol,
                diagnostics={
                    "v_size": v_size,
                    "u_size": u_size,
                    "cardinality_bounds": (bound_v, bound_u),
                },
            )
        )
    return points


def saturation_knee(points: list[RegionPoint], tol: float = 1e-4) -> float | None:
    """Smallest grid R_d after which the frontier stops improving."""
    for i in range(1, len(points)):
        if all(points[j].r - points[j - 1].r < tol for j in range(i, len(points))):
            return points[i - 1].r_d
    return None
