import math

import numpy as np
import pytest

from gpchannel.capacity import gp_capacity_dm, state_at_both_capacity
from gpchannel.prob import ChannelKernel, Pmf, ValidationError
from gpchannel.region import (
    RegionPoint,
    RegionPolicy,
    _rates,
    region_frontier,
    region_membership,
    saturation_knee,
)

from conftest import bin_capacity, state_blind_bsc, state_flip_bsc


def asym_bsc():
    """States select BSC(0.05) vs BSC(0.4); knowing S at the decoder helps."""
    w0 = np.array([[0.95, 0.05], [0.05, 0.95]])
    w1 = np.array([[0.6, 0.4], [0.4, 0.6]])
    return ChannelKernel(np.stack([w0, w1]))


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
        rates = _rates(pol, channel, uniform_state)
        pt = RegionPoint(r=rates["message_rate"], r_d=rates["description_rate"], policy=pol, diagnostics={})
        assert region_membership(pt, channel, uniform_state)

    def test_inflated_rate_rejected(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pol = trivial_policy()
        rates = _rates(pol, channel, uniform_state)
        bad = RegionPoint(r=rates["message_rate"] + 0.05, r_d=1.0, policy=pol, diagnostics={})
        assert not region_membership(bad, channel, uniform_state)

    def test_understated_description_rejected(self, uniform_state):
        channel = asym_bsc()
        # V = S costs I(V;S) - I(V;Y) > 0 here, so claiming R_d = 0 fails
        v = np.eye(2)
        u = np.full((2, 2, 2), 0.5)
        g = np.tile(np.arange(2)[:, None, None], (1, 2, 2))
        pol = RegionPolicy(v_given_s=v, u_given_vs=u, x_map=g)
        rates = _rates(pol, channel, uniform_state)
        assert rates["description_rate"] > 1e-3
        pt = RegionPoint(r=0.0, r_d=0.0, policy=pol, diagnostics={})
        assert not region_membership(pt, channel, uniform_state)

    def test_policy_row_validation(self):
        with pytest.raises(ValidationError):
            RegionPolicy(
                v_given_s=np.array([[0.7, 0.7], [0.5, 0.5]]),
                u_given_vs=np.full((2, 2, 2), 0.5),
                x_map=np.zeros((2, 2, 2), dtype=np.int64),
            )


class TestFrontier:
    def test_negative_grid_rejected(self, uniform_state):
        with pytest.raises(ValidationError):
            region_frontier(state_flip_bsc(0.1), uniform_state, rd_grid=[-0.1, 0.0])

    @pytest.mark.slow
    def test_endpoints_state_flip(self, uniform_state):
        channel = state_flip_bsc(0.1)
        pts = region_frontier(
            channel, uniform_state, v_size=3, u_size=4,
            rd_grid=[0.0, math.log(2)], restarts=2, seed=0,
        )
        gp = gp_capacity_dm(channel, uniform_state, seed=0)
        both = state_at_both_capacity(channel, uniform_state).value
        assert pts[0].r >= gp.value - 2e-3
        assert pts[-1].r >= both - 2e-3
        for pt in pts:
            assert region_membership(pt, channel, uniform_state)

    @pytest.mark.slow
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

    @pytest.mark.slow
    def test_determinism(self, uniform_state):
        channel = asym_bsc()
        kw = dict(v_size=3, u_size=4, rd_grid=[0.0, 0.2], restarts=2, seed=3)
        a = region_frontier(channel, uniform_state, **kw)
        b = region_frontier(channel, uniform_state, **kw)
        assert [pt.r for pt in a] == [pt.r for pt in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.policy.x_map, pb.policy.x_map)
