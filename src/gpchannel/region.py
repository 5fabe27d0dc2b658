"""Rate region with a rate-limited state description at the decoder.

A stationary memoryless system with state known at the encoder and a
separate noiseless link of R_d nats per symbol to the decoder achieves
the pairs (R, R_d) with

    R_d >= I(V;S) - I(V;Y)        (description cost after binning)
    R   <= I(U;Y|V) - I(U;S|V)    (message rate given the description)

over auxiliary laws P(v|s), P(u|v,s) and deterministic maps
x = g(u,v,s). The frontier solver puts an exact penalty on the description
constraint because the constraint set is nonconvex, and minimises it
with the L-BFGS of `minimize`, whose weak Wolfe line search steps
across the penalty's kink instead of stalling on it. It scores every
policy it produces exactly: two closed-form anchors (degenerate V at
R_d = 0; V = S at large R_d), their time-sharing chord and the rounded
policy of each penalty solve. Each budget then reads the best scored
policy that fits it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .capacity import MAX_CELLS, gp_capacity_dm, state_at_both_capacity
from .info import conditional_mutual_information, mutual_information
from .prob import ChannelKernel, GPPolicy, Pmf, ValidationError, _freeze, check_map, check_rows, effective_kernel
from .rng import stream

RESTARTS = 6  # penalty solves per budget, and the GP anchor's starts per map class
KNEE_TOL = 1e-4  # the frontier gain per grid step below which it has saturated


@dataclass(frozen=True)
class RegionPolicy:
    """(P(v|s), P(u|v,s), deterministic x = g[u,v,s])."""

    v_given_s: np.ndarray  # (S,V)
    u_given_vs: np.ndarray  # (V,S,U)
    x_map: np.ndarray  # (U,V,S) ints

    def __post_init__(self):
        v, u = (np.asarray(a, dtype=np.float64) for a in (self.v_given_s, self.u_given_vs))
        if v.ndim != 2 or u.ndim != 3 or u.shape[:2] != v.shape[::-1]:
            raise ValidationError("v_given_s and u_given_vs must be (|S|,|V|) and (|V|,|S|,|U|) arrays")
        object.__setattr__(self, "v_given_s", _freeze(check_rows(v, "v_given_s", 1e-9)))
        object.__setattr__(self, "u_given_vs", _freeze(check_rows(u, "u_given_vs", 1e-9)))
        object.__setattr__(self, "x_map", check_map(self.x_map, (u.shape[2], *v.shape[::-1])))


@dataclass(frozen=True)
class RegionPoint:
    r: float
    r_d: float
    policy: RegionPolicy


def _kernel_rates(pv, pu, wg, q) -> tuple[float, float]:
    """(message rate, description rate) of the laws P(v|s) = pv[s,v] and
    P(u|v,s) = pu[v,s,u] on the effective kernel W_g(y|u,v,s) = wg[v,s,u,y]."""
    p_svuy = np.einsum("s,sv,vsu,vsuy->svuy", q, pv, pu, wg)
    i_vs = mutual_information(p_svuy.sum(axis=(2, 3)))
    i_vy = mutual_information(p_svuy.sum(axis=(0, 2)))
    i_uy_v = conditional_mutual_information(p_svuy.sum(axis=0).transpose(1, 2, 0))
    i_us_v = conditional_mutual_information(p_svuy.sum(axis=3).transpose(2, 0, 1))
    return i_uy_v - i_us_v, i_vs - i_vy


def _rates(policy: RegionPolicy, channel: ChannelKernel, state: Pmf) -> tuple[float, float]:
    """Exact single-letter (message rate, description rate) of one policy."""
    # W_g[v,s,u,y] = W(y | g[u,v,s], s): the maps g[u] batched over u
    wg = effective_kernel(channel.w, policy.x_map).transpose(1, 2, 0, 3)
    return _kernel_rates(policy.v_given_s, policy.u_given_vs, wg, state.probs)


def region_membership(point: RegionPoint, channel: ChannelKernel, state: Pmf) -> bool:
    """Exact check of both inequalities for the point's own policy."""
    rate, cost = _rates(point.policy, channel, state)
    return point.r <= rate + 1e-9 and point.r_d >= cost - 1e-9


# ---------------------------------------------------------------------------
# candidate policies anchoring the endpoints


def _anchor_policy(v_rows: np.ndarray, gp_policy: GPPolicy, u_size: int) -> RegionPolicy:
    """The region policy that describes S by P(v|s) = v_rows and sends
    gp_policy's U and input map whatever V is; U symbols past
    gp_policy's alphabet go unused."""
    inner = gp_policy.u_given_s
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
PENALTY_MAXITER = 120  # L-BFGS iterations per penalty solve


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _unpack(theta, n_s, v_size, u_size, n_x):
    a = n_s * v_size
    b = v_size * n_s * u_size
    pv = _softmax(theta[:a].reshape(n_s, v_size))
    pu = _softmax(theta[a : a + b].reshape(v_size, n_s, u_size))
    px = _softmax(theta[a + b :].reshape(u_size, v_size, n_s, n_x))
    return pv, pu, px


def _penalty_value_and_grad(theta, w, q, v_size, u_size, mu, r_d):
    """-(rate - mu * max(cost - r_d, 0)) of the relaxed policy theta on the
    kernel w[s,x,y] and state law q, and its exact gradient in theta.

    Each information term is E_P[log ratio of its own marginals] of the
    joint P[s,v,u,y] = q P(v|s) P(u|v,s) sum_x P(x|u,v,s) W(y|x,s), and
    that log-ratio table is its gradient in P: the additive constants
    cancel because P sums to 1 for every theta. The marginals on (s,v,u)
    and (s,v) are the policy's own factors, since every effective kernel
    row sums to 1. The table is chained back to the three softmax blocks.
    Cells with P = 0 get 0; every path from such a cell to theta passes
    through a zero factor.
    """
    n_s, n_x, n_y = w.shape
    pv, pu, px = _unpack(theta, n_s, v_size, u_size, n_x)
    pu_s = pu.transpose(1, 0, 2)  # [s,v,u]
    # the effective kernel wg[s,v,u,y]: one (v,u)-by-x times x-by-y product per state
    wg = (px.transpose(2, 1, 0, 3).reshape(n_s, v_size * u_size, n_x) @ w).reshape(n_s, v_size, u_size, n_y)
    q_pv = q[:, None] * pv
    q_pv_pu = q_pv[..., None] * pu_s
    p = q_pv_pu[..., None] * wg
    p_vuy = p.sum(axis=0)
    p_vy = p_vuy.sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        l_vy = np.log(p_vy)
        # I(U;Y|V) - I(U;S|V): log P(v,u,y) - log P(v,y) - log P(u|v,s)
        rate_table = np.log(p_vuy) - l_vy[:, None] - np.log(pu_s)[..., None]
        # I(V;S) - I(V;Y): log P(v|s) - log P(v,y) + log P(y), the same for every u
        cost_table = (np.log(pv)[..., None] - l_vy + np.log(p_vy.sum(axis=0)))[:, :, None]
    live = p > 0
    rate_table, cost_table = np.where(live, rate_table, 0.0), np.where(live, cost_table, 0.0)
    rate, cost = float(p.ravel() @ rate_table.ravel()), float(p.ravel() @ cost_table.ravel())
    dp = mu * cost_table - rate_table if cost > r_d else -rate_table

    dp_wg = (dp * wg).sum(axis=3)
    d_pv = (dp_wg * pu_s).sum(axis=2) * q[:, None]
    d_pu = (dp_wg * q_pv[..., None]).transpose(1, 0, 2)
    d_px = (dp * q_pv_pu[..., None]).reshape(n_s, v_size * u_size, n_y) @ w.transpose(0, 2, 1)
    d_px = d_px.reshape(n_s, v_size, u_size, n_x).transpose(2, 1, 0, 3)
    grad = np.concatenate([
        (pr * (d - (pr * d).sum(axis=-1, keepdims=True))).ravel()
        for pr, d in ((pv, d_pv), (pu, d_pu), (px, d_px))
    ])
    return -(rate - mu * max(cost - r_d, 0.0)), grad


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    nfev: int  # objective evaluations
    nit: int  # iterations


def minimize(fun, x0, *, args=()) -> MinimizeResult:
    """Minimise fun(x, *args) -> (value, gradient) by L-BFGS (Liu-Nocedal,
    Math. Program. 45, 1989) with 10 correction pairs.

    Each line search brackets a step that meets Armijo (c1 = 1e-3) and weak
    Wolfe (c2 = 0.9), trying the minimiser of the cubic through the
    bracket's ends. Weak Wolfe holds just past a kink of the hinge
    penalty, so the pair taken there records the kink. The first trial
    step is 1/|g|, later ones 1. It stops on max|g| <= 1e-5, on a relative
    decrease <= 2.22e-9 (scipy's L-BFGS-B defaults), after PENALTY_MAXITER
    iterations, or when 30 trials find no step.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fun(x, *args)
    nfev, nit, pairs = 1, 0, deque(maxlen=10)
    while nit < PENALTY_MAXITER and np.abs(g).max() > 1e-5:
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            d = d / (pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1]))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * (y @ d)) * s
        slope = float(g @ d)
        t, lo, hi = 1.0 if nit else 1.0 / float(np.linalg.norm(g)), (0.0, f, slope), None
        for _ in range(30):
            f_t, g_t = fun(x + t * d, *args)
            nfev += 1
            slope_t = float(g_t @ d)
            if f_t > f + 1e-3 * t * slope:
                hi = (t, f_t, slope_t)
            elif slope_t < 0.9 * slope:
                lo = (t, f_t, slope_t)
            else:
                break
            if hi is None:
                t *= 4.0
                continue
            (a, fa, ga), (b, fb, gb) = lo, hi
            d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
            root = math.sqrt(max(d1 * d1 - ga * gb, 0.0))
            den = gb - ga + 2.0 * root
            t = b - (b - a) * (gb + root - d1) / den if den else math.nan
            # without a cubic minimiser (a NaN), bisect the bracket
            t = min(max(t, a + 0.1 * (b - a)), b - 0.1 * (b - a)) if t == t else 0.5 * (a + b)
        else:
            break
        s, y = t * d, g_t - g
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        f_old, x, f, g = f, x + s, f_t, g_t
        nit += 1
        if f_old - f <= 2.22e-9 * max(abs(f_old), abs(f), 1.0):
            break
    return MinimizeResult(x=x, fun=float(f), nfev=nfev, nit=nit)


def _optimize_grid_point(channel, state, v_size, u_size, r_d, restarts, seed):
    """The rounded policy of each penalty solve at budget r_d."""
    n_s, n_x = channel.n_states, channel.n_inputs
    dim = n_s * v_size + v_size * n_s * u_size + u_size * v_size * n_s * n_x
    rng = stream(seed, 0x8E61, int(round(r_d * 1e6)))
    policies = []
    for _ in range(restarts):
        res = minimize(
            _penalty_value_and_grad, rng.normal(scale=1.5, size=dim),
            args=(channel.w, state.probs, v_size, u_size, PENALTY_MU, r_d),
        )
        pv, pu, px = _unpack(res.x, n_s, v_size, u_size, n_x)
        policies.append(RegionPolicy(v_given_s=pv, u_given_vs=pu, x_map=px.argmax(axis=-1).astype(np.int64)))
    return policies


def region_frontier(
    channel: ChannelKernel,
    state: Pmf,
    v_size: int | None = None,
    u_size: int | None = None,
    *,
    rd_grid,
    restarts: int = RESTARTS,
    seed: int = 0,
) -> list[RegionPoint]:
    """Best message rate per description-rate budget, budgets ascending.

    Every policy the solver produces is scored exactly once: the two
    closed-form anchors, the rounded policy of each penalty solve and,
    when v_size > |S| and u_size >= |X|, the anchors' chord at each
    budget. Each budget then gets the best scored policy whose description cost
    fits it (ties go to the earliest, anchors first), so the frontier is
    monotone and every point passes region_membership, whatever the
    order of rd_grid.
    """
    n_s, n_x = channel.n_states, channel.n_inputs
    bound_v = n_x * n_s + 1
    v_size = bound_v if v_size is None else v_size
    u_size = n_x * n_s * bound_v if u_size is None else u_size
    for name, value in (("v_size", v_size), ("u_size", u_size), ("restarts", restarts)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1")
    rd_grid = np.asarray(rd_grid, dtype=np.float64)
    if rd_grid.size == 0:
        raise ValidationError("rd_grid holds no description-rate budget")
    if not (np.isfinite(rd_grid) & (rd_grid >= 0)).all():
        raise ValidationError("rd_grid: description-rate budgets must be finite non-negative numbers")
    rd_grid = np.sort(rd_grid)
    # the penalty solve's (s, v, u, x or y) tables, under the GP search's cap
    cells = n_s * v_size * u_size * max(n_x, channel.n_outputs)
    if cells > MAX_CELLS:
        raise ValidationError(f"v_size, u_size: {v_size} x {u_size} need {cells} policy cells, above {MAX_CELLS}")

    # V carries nothing: the encoder-only optimum is feasible at R_d = 0
    gp = gp_capacity_dm(channel, state, u_size=min(u_size, n_x * n_s + 1), restarts=restarts, seed=seed)
    policies = [_anchor_policy(np.tile(np.eye(1, v_size), (n_s, 1)), gp.policy, u_size)]
    if v_size >= n_s and u_size >= n_x:
        # V = S: per-state optimal inputs give the two-sided capacity once
        # R_d covers the description cost
        policies.append(_anchor_policy(np.eye(n_s, v_size), state_at_both_capacity(channel, state).policy, u_size))
    for r_d in rd_grid:
        policies += _optimize_grid_point(channel, state, v_size, u_size, float(r_d), restarts, seed)
    scored = [(*_rates(pol, channel, state), pol) for pol in policies]
    if v_size > n_s and u_size >= n_x:
        # the anchors' chord: V = 0 runs anchor A, and with probability lam
        # V = 1 + s runs anchor B; it costs at most lam * cost_B
        (_, _, a), (_, cost_b, b) = scored[:2]
        u_rows, g = np.array(b.u_given_vs), np.array(b.x_map)
        u_rows[0], g[:, 0] = a.u_given_vs[0], a.x_map[:, 0]
        for r_d in rd_grid:
            lam = 1.0 if cost_b <= r_d else r_d / cost_b
            chord = RegionPolicy((1.0 - lam) * a.v_given_s + lam * np.roll(b.v_given_s, 1, axis=1), u_rows, g)
            scored.append((*_rates(chord, channel, state), chord))

    points = []
    for r_d in rd_grid:
        # the degenerate-V anchor costs 0, so some policy fits every non-negative budget
        rate, _, pol = max((c for c in scored if c[1] <= r_d + 1e-9), key=lambda c: c[0])
        points.append(RegionPoint(r=max(rate, 0.0), r_d=float(r_d), policy=pol))
    return points


def saturation_knee(points: list[RegionPoint]) -> float | None:
    """Smallest grid R_d after which the frontier stops improving."""
    for i in range(1, len(points)):
        if all(points[j].r - points[j - 1].r < KNEE_TOL for j in range(i, len(points))):
            return points[i - 1].r_d
    return None
