import math

import numpy as np
import pytest

from gpchannel.capacity import gp_capacity_dm, state_at_both_capacity
from gpchannel.prob import ChannelKernel, Pmf, ValidationError
from gpchannel.region import (
    PENALTY_MAXITER,
    PENALTY_MU,
    RegionPoint,
    RegionPolicy,
    _penalty_value_and_grad,
    _rates,
    minimize,
    region_frontier,
    region_membership,
    saturation_knee,
)

from conftest import bin_capacity, bsc_matrix, state_blind_bsc, state_flip_bsc


def asym_bsc():
    """States select BSC(0.05) vs BSC(0.4); knowing S at the decoder helps."""
    w0 = np.array([[0.95, 0.05], [0.05, 0.95]])
    w1 = np.array([[0.6, 0.4], [0.4, 0.6]])
    return ChannelKernel(np.stack([w0, w1]))


def probe_systems(count=1):
    """Seeded random binary 2-state systems. At (v, u) = (3, 4) the first
    one's 3rd budget's own solves fall short of a solve made for another
    budget, and 9 of the first 12 fall below their anchors' chord unless
    the chord is a candidate."""
    rng = np.random.default_rng(20261019)
    systems = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(2), (2, 2))
        systems.append((ChannelKernel(w), Pmf(rng.dirichlet(np.ones(2)))))
    return systems


def chord_policy(channel, state, v_size, u_size, restarts, seed, lam):
    """Time sharing between the frontier's anchors: V = 0 runs the
    encoder-only GP policy, and with probability lam V = 1 + s runs the
    per-state Blahut-Arimoto inputs."""
    n_s, n_x = channel.n_states, channel.n_inputs
    gp = gp_capacity_dm(channel, state, u_size=min(u_size, n_x * n_s + 1), restarts=restarts, seed=seed).policy
    both = state_at_both_capacity(channel, state).policy
    v = np.zeros((n_s, v_size))
    v[:, 0] = 1.0 - lam
    v[np.arange(n_s), 1 + np.arange(n_s)] = lam
    u = np.zeros((v_size, n_s, u_size))
    g = np.zeros((u_size, v_size, n_s), dtype=np.int64)
    u[0, :, : gp.u_given_s.shape[1]], g[: gp.x_map.shape[0], 0] = gp.u_given_s, gp.x_map
    u[1:, :, :n_x], g[:n_x, 1:] = both.u_given_s, both.x_map[:, None, :]
    return RegionPolicy(v_given_s=v, u_given_vs=u, x_map=g)


def trivial_policy(v_size=1, u_size=2, n_s=2):
    v = np.zeros((n_s, v_size))
    v[:, 0] = 1.0
    u = np.full((v_size, n_s, u_size), 1.0 / u_size)
    g = np.tile(np.arange(u_size)[:, None, None] % 2, (1, v_size, n_s))
    return RegionPolicy(v_given_s=v, u_given_vs=u, x_map=g)


class TestRatesAndMembership:
    def test_rates_self_consistent_membership(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pol = trivial_policy()
        rate, cost = _rates(pol, channel, uniform_state)
        pt = RegionPoint(r=rate, r_d=cost, policy=pol)
        assert region_membership(pt, channel, uniform_state)

    def test_inflated_rate_rejected(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pol = trivial_policy()
        rate, _ = _rates(pol, channel, uniform_state)
        bad = RegionPoint(r=rate + 0.05, r_d=1.0, policy=pol)
        assert not region_membership(bad, channel, uniform_state)

    def test_understated_description_rejected(self, uniform_state):
        channel = asym_bsc()
        # V = S costs I(V;S) - I(V;Y) > 0 here, so claiming R_d = 0 fails
        v = np.eye(2)
        u = np.full((2, 2, 2), 0.5)
        g = np.tile(np.arange(2)[:, None, None], (1, 2, 2))
        pol = RegionPolicy(v_given_s=v, u_given_vs=u, x_map=g)
        _, cost = _rates(pol, channel, uniform_state)
        assert cost > 1e-3
        pt = RegionPoint(r=0.0, r_d=0.0, policy=pol)
        assert not region_membership(pt, channel, uniform_state)

    def test_policy_row_validation(self):
        with pytest.raises(ValidationError):
            RegionPolicy(
                v_given_s=np.array([[0.7, 0.7], [0.5, 0.5]]),
                u_given_vs=np.full((2, 2, 2), 0.5),
                x_map=np.zeros((2, 2, 2), dtype=np.int64),
            )
        # a NaN row compares False against every bound, so it must be rejected as non-finite
        with pytest.raises(ValidationError, match="v_given_s: row 1: non-finite entry"):
            RegionPolicy(
                v_given_s=np.array([[0.5, 0.5], [math.nan, math.nan]]),
                u_given_vs=np.full((2, 2, 2), 0.5),
                x_map=np.zeros((2, 2, 2), dtype=np.int64),
            )


def quadratic(seed=0, dim=20):
    """A seeded convex quadratic 0.5 (x - x*)' A (x - x*), its value and
    gradient, and its minimiser x*."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    a = m @ m.T / dim + np.eye(dim)
    x_star = rng.normal(size=dim)

    def fun(x):
        r = x - x_star
        return 0.5 * r @ a @ r, a @ r

    return fun, x_star


class TestMinimize:
    def test_reaches_the_minimiser_of_a_convex_quadratic(self):
        for seed in range(5):
            fun, x_star = quadratic(seed)
            res = minimize(fun, np.zeros(x_star.size))
            # the 1e-5 gradient stop bounds the distance; the value closes far tighter
            assert res.fun <= 1e-8 and res.fun == fun(res.x)[0]
            assert np.abs(res.x - x_star).max() <= 1e-5
            assert 0 < res.nit < PENALTY_MAXITER

    def test_counts_every_evaluation(self):
        calls = []

        def counted(x, *args):
            calls.append(x)
            return _penalty_value_and_grad(x, *args)

        w, q = asym_bsc().w, np.array([0.5, 0.5])
        x0 = np.random.default_rng(3).normal(scale=1.5, size=2 * 2 + 2 * 2 * 2 + 2 * 2 * 2 * 2)
        res = minimize(counted, x0, args=(w, q, 2, 2, PENALTY_MU, 0.1))
        assert res.nfev == len(calls) > res.nit > 0
        assert res.fun == _penalty_value_and_grad(res.x, w, q, 2, 2, PENALTY_MU, 0.1)[0]

    def test_start_at_the_minimum_is_returned_unchanged(self):
        fun, x_star = quadratic()
        res = minimize(fun, x_star)
        np.testing.assert_array_equal(res.x, x_star)
        assert (res.nfev, res.nit, res.fun) == (1, 0, 0.0)

    def test_iteration_cap_bounds_the_iterations(self, monkeypatch):
        import gpchannel.region as region

        monkeypatch.setattr(region, "PENALTY_MAXITER", 1)
        fun, x_star = quadratic()
        res = minimize(fun, np.zeros(x_star.size))
        assert res.nit == 1 and res.fun < fun(np.zeros(x_star.size))[0]

    def test_frontier_at_least_scipys(self, monkeypatch):
        # scipy's L-BFGS-B is a test-only reference for the penalty solve
        import scipy.optimize

        import gpchannel.region as region

        def scipy_minimize(fun, x0, *, args=()):
            return scipy.optimize.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B",
                                           options={"maxiter": region.PENALTY_MAXITER})

        grid = np.linspace(0.0, math.log(2), 5)
        for seed, (channel, state) in enumerate(probe_systems(12)):
            kw = dict(v_size=3, u_size=4, rd_grid=grid, restarts=3, seed=seed)
            ours = region_frontier(channel, state, **kw)
            with monkeypatch.context() as m:
                m.setattr(region, "minimize", scipy_minimize)
                reference = region_frontier(channel, state, **kw)
            assert sum(pt.r for pt in ours) >= sum(pt.r for pt in reference) - 1e-6, seed


class TestFrontier:
    def test_negative_grid_rejected(self, uniform_state):
        with pytest.raises(ValidationError):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[-0.1, 0.0])
        with pytest.raises(ValidationError, match="rd_grid"):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[])
        with pytest.raises(ValidationError, match="rd_grid"):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[0.0, math.nan])
        with pytest.raises(ValidationError, match="rd_grid"):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[0.0, math.inf])

    def test_unsorted_grid_reads_as_sorted(self, uniform_state):
        channel = ChannelKernel(np.stack([bsc_matrix(0.02), bsc_matrix(0.3)]))
        kw = dict(v_size=3, u_size=4, restarts=2)
        pts = region_frontier(channel, uniform_state, rd_grid=[0.7, 0.0], **kw)
        want = region_frontier(channel, uniform_state, rd_grid=[0.0, 0.7], **kw)
        assert [pt.r_d for pt in pts] == [0.0, 0.7]
        for pt, ref in zip(pts, want):
            assert region_membership(pt, channel, uniform_state)
            assert (pt.r, pt.r_d) == (ref.r, ref.r_d)
            for a, b in zip(vars(pt.policy).values(), vars(ref.policy).values()):
                np.testing.assert_array_equal(a, b)

    def test_each_budget_reads_best_scored_policy_that_fits(self, monkeypatch):
        import gpchannel.region as region

        (channel, state), = probe_systems()
        scored = []
        rates = region._rates

        def recording(*args):
            scored.append(rates(*args))
            return scored[-1]

        monkeypatch.setattr(region, "_rates", recording)
        grid = np.linspace(0.0, math.log(2), 5)
        pts = region_frontier(channel, state, v_size=3, u_size=4, rd_grid=grid, restarts=3, seed=0)
        # each policy is scored once: two anchors, then three solves and the
        # anchors' chord per budget
        assert len(scored) == 2 + 3 * grid.size + grid.size
        for pt in pts:
            assert pt.r == max(0.0, max(rate for rate, cost in scored if cost <= pt.r_d + 1e-9))

    def test_points_reach_the_anchors_chord(self):
        grid = np.linspace(0.0, math.log(2), 5)
        for seed, (channel, state) in enumerate(probe_systems(12)):
            pts = region_frontier(channel, state, v_size=3, u_size=4, rd_grid=grid, restarts=3, seed=seed)
            _, cost_b = _rates(chord_policy(channel, state, 3, 4, 3, seed, 1.0), channel, state)
            for pt in pts:
                assert region_membership(pt, channel, state)
                lam = 1.0 if cost_b <= pt.r_d else pt.r_d / cost_b
                rate, cost = _rates(chord_policy(channel, state, 3, 4, 3, seed, lam), channel, state)
                if cost <= pt.r_d + 1e-9:
                    assert pt.r >= rate - 1e-12, (seed, pt.r_d)

    def test_search_too_large_to_hold_rejected(self, uniform_state, monkeypatch):
        import gpchannel.region as region

        # a search that starts would allocate gigabytes: fail it instead
        monkeypatch.setattr(region, "gp_capacity_dm", None)
        with pytest.raises(ValidationError, match="u_size"):
            region_frontier(state_flip_bsc(0.1), uniform_state, v_size=1, u_size=10**8, rd_grid=[0.0], restarts=1)

    def test_anchor_solves_at_the_region_restarts(self, uniform_state, monkeypatch):
        import gpchannel.region as region

        restarts = []
        solve = region.gp_capacity_dm

        def recording(*args, **kwargs):
            restarts.append(kwargs.get("restarts"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(region, "gp_capacity_dm", recording)
        region_frontier(state_flip_bsc(0.1), uniform_state, v_size=2, u_size=2, rd_grid=[0.0], restarts=3)
        assert restarts == [3]

    def test_one_penalty_solve_per_start_and_grid_point(self, uniform_state, monkeypatch):
        import gpchannel.region as region

        mus = []
        solve = region.minimize

        def recording(*args, **kwargs):
            mus.append(kwargs["args"][4])
            return solve(*args, **kwargs)

        monkeypatch.setattr(region, "minimize", recording)
        region_frontier(asym_bsc(), uniform_state, v_size=2, u_size=2, rd_grid=[0.0, 0.1, 0.3], restarts=2)
        assert mus == [region.PENALTY_MU] * 6

    @pytest.mark.parametrize("key", ["v_size", "u_size", "restarts"])
    def test_size_or_restarts_below_one_rejected(self, uniform_state, key):
        with pytest.raises(ValidationError, match=key):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[0.0], **{key: 0})

    def test_endpoints_state_flip(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pts = region_frontier(
            channel, uniform_state, v_size=3, u_size=4,
            rd_grid=[0.0, math.log(2)], restarts=2, seed=0,
        )
        # the encoder cancels the flip, so even at R_d = 0 the optimum is the
        # exact BSC capacity, which no solve exceeds
        both = state_at_both_capacity(channel, uniform_state).value
        assert pts[0].r >= bin_capacity(0.1) - 2e-3
        assert pts[-1].r >= both - 2e-3
        for pt in pts:
            assert region_membership(pt, channel, uniform_state)

    def test_endpoints_state_flip_at_cardinality_bounds(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pts = region_frontier(channel, uniform_state, rd_grid=[0.0, math.log(2)], restarts=1, seed=0)
        # |V| = |X||S| + 1 = 5 and |U| = |X||S||V| = 20
        assert pts[0].policy.v_given_s.shape == (2, 5)
        assert pts[0].policy.u_given_vs.shape == (5, 2, 20)
        gp = gp_capacity_dm(channel, uniform_state, restarts=1, seed=0)
        both = state_at_both_capacity(channel, uniform_state).value
        assert pts[0].r == pytest.approx(gp.value, abs=2e-3)
        assert pts[-1].r == pytest.approx(both, abs=2e-3)
        for pt in pts:
            assert region_membership(pt, channel, uniform_state)

    def test_monotone_and_membership_asym(self, uniform_state):
        channel = asym_bsc()
        grid = [0.0, 0.05, 0.15, math.log(2)]
        pts = region_frontier(
            channel, uniform_state, v_size=3, u_size=4,
            rd_grid=grid, restarts=2, seed=1,
        )
        rs = [pt.r for pt in pts]
        assert rs == sorted(rs)
        both = state_at_both_capacity(channel, uniform_state).value
        assert pts[-1].r >= both - 2e-3
        assert pts[-1].r <= both + 1e-9
        for pt in pts:
            assert region_membership(pt, channel, uniform_state)

    def test_flat_frontier_state_blind(self, uniform_state):
        # the state never matters, so extra description rate buys nothing
        channel = state_blind_bsc(0.1)
        pts = region_frontier(
            channel, uniform_state, v_size=2, u_size=3,
            rd_grid=[0.0, 0.3], restarts=2, seed=2,
        )
        cap = bin_capacity(0.1)
        for pt in pts:
            assert pt.r == pytest.approx(cap, abs=2e-3)
        assert saturation_knee(pts) == 0.0

    def test_determinism(self, uniform_state):
        channel = asym_bsc()
        kw = dict(v_size=3, u_size=4, rd_grid=[0.0, 0.2], restarts=2, seed=3)
        a = region_frontier(channel, uniform_state, **kw)
        b = region_frontier(channel, uniform_state, **kw)
        assert [pt.r for pt in a] == [pt.r for pt in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.policy.x_map, pb.policy.x_map)
