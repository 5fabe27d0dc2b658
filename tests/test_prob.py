import math

import numpy as np
import pytest

from gpchannel.prob import (
    ChannelKernel,
    DimensionError,
    GPPolicy,
    Pmf,
    ValidationError,
    effective_kernel,
)
from gpchannel.coding import MemorylessSystem, draw, inverse_cdf
from gpchannel.region import RegionPolicy
from gpchannel.rng import stream

from conftest import identity_policy, state_blind_bsc


class TestValidation:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([1.2, -0.2]))

    def test_pmf_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pmf_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            Pmf(np.array([bad, 1.0]))

    def test_pmf_accepts_tolerance(self):
        Pmf(np.array([0.5, 0.5 + 5e-13]))

    def test_conditional_rows_each_validated(self):
        with pytest.raises(ValidationError, match="u_given_s: row 1"):
            GPPolicy(u_given_s=np.array([[0.5, 0.5], [0.7, 0.2]]), x_map=np.array([[0, 0], [1, 1]]))

    def test_channel_rows_validated(self):
        w = np.full((2, 2, 2), 0.5)
        ChannelKernel(w)
        w_bad = w.copy()
        w_bad[1, 1] = [0.9, 0.2]
        with pytest.raises(ValidationError):
            ChannelKernel(w_bad)

    def test_policy_map_range_checked(self):
        policy = GPPolicy(
            u_given_s=np.array([[1.0, 0.0], [0.0, 1.0]]),
            x_map=np.array([[0, 5], [1, 0]]),
        )
        channel = state_blind_bsc(0.1)
        with pytest.raises(ValidationError, match="outside the channel alphabet"):
            effective_kernel(channel.w, policy.x_map)
        with pytest.raises(ValidationError, match="outside the channel alphabet"):
            MemorylessSystem(Pmf(np.array([0.5, 0.5])), policy, channel).p_suy
        # the stochastic (|U|,|S|,|X|) form is not accepted
        with pytest.raises(ValidationError, match="x_map"):
            GPPolicy(u_given_s=np.array([[1.0, 0.0], [0.0, 1.0]]), x_map=np.full((2, 2, 2), 0.5))

    def test_immutability(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda a: Pmf(a), "probs"),
            (lambda a: GPPolicy(u_given_s=a, x_map=np.array([[0, 1], [1, 0]])), "u_given_s"),
            (lambda a: ChannelKernel(a), "w"),
            (lambda a: GPPolicy(u_given_s=np.full((2, 2), 0.5), x_map=a), "x_map"),
        ],
        ids=["Pmf", "GPPolicy.u_given_s", "ChannelKernel", "GPPolicy"],
    )
    def test_caller_array_stays_writeable(self, build, field):
        arg = {
            "probs": np.array([0.5, 0.5]),
            "u_given_s": np.full((2, 2), 0.5),
            "w": np.full((1, 2, 2), 0.5),
            "x_map": np.array([[0, 1], [1, 0]], dtype=np.int64),
        }[field]
        obj = build(arg)
        kept = np.array(getattr(obj, field))
        assert arg.flags.writeable
        arg[...] = 7
        assert not getattr(obj, field).flags.writeable
        np.testing.assert_array_equal(getattr(obj, field), kept)


def _policy_arrays(kind: str, x_map) -> dict:
    """Fresh valid laws of a GPPolicy (|S| = |U| = 2) or a RegionPolicy
    (|S| = |U| = 2, |V| = 3) beside the given map."""
    if kind == "GPPolicy":
        return {"u_given_s": np.full((2, 2), 0.5), "x_map": x_map}
    return {"v_given_s": np.full((2, 3), 1 / 3), "u_given_vs": np.full((3, 2, 2), 0.5), "x_map": x_map}


_POLICIES = {"GPPolicy": (GPPolicy, (2, 2)), "RegionPolicy": (RegionPolicy, (2, 3, 2))}


@pytest.mark.parametrize("kind", list(_POLICIES))
def test_policies_check_maps_alike_and_hold_read_only_copies(kind):
    cls, shape = _POLICIES[kind]
    for x_map, match in (
        (np.where(np.arange(math.prod(shape)) == 0, 0.7, 0.0).reshape(shape), "integral"),
        (np.where(np.arange(math.prod(shape)) == 0, -1, 0).reshape(shape), "non-negative"),
        (np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=np.int64), "x_map"),
    ):
        with pytest.raises(ValidationError, match=match):
            cls(**_policy_arrays(kind, x_map))
    arrays = _policy_arrays(kind, np.ones(shape))  # an integral float map is accepted
    policy = cls(**arrays)
    assert policy.x_map.dtype == np.int64
    for name, arg in arrays.items():
        held = getattr(policy, name)
        kept = np.array(held)
        assert arg.flags.writeable and not held.flags.writeable
        arg[...] = 7
        np.testing.assert_array_equal(held, kept)


class TestComposeJoint:
    """The single-letter law P(s) P(u|s) W(y|g(u,s),s) held by MemorylessSystem.p_suy."""

    def test_one_point_space(self):
        state = Pmf(np.array([1.0]))
        policy = GPPolicy(u_given_s=np.array([[1.0]]), x_map=np.array([[0]]))
        channel = ChannelKernel(np.ones((1, 1, 1)))
        p = MemorylessSystem(state, policy, channel).p_suy
        assert p.shape == (1, 1, 1)
        assert p[0, 0, 0] == pytest.approx(1.0)

    def test_uniform_identity_channel(self, uniform_state):
        eye = ChannelKernel(np.stack([np.eye(2), np.eye(2)]))
        p = MemorylessSystem(uniform_state, identity_policy(), eye).p_suy
        # mass 1/4 exactly on (s, u, y = x = u) triples
        for s in range(2):
            for u in range(2):
                assert p[s, u, u] == pytest.approx(0.25)
        assert p.sum() == pytest.approx(1.0)

    def test_state_marginal_roundtrip_random(self):
        rng = stream(0, 1)
        for trial in range(100):
            q = rng.dirichlet(np.ones(3))
            rows = rng.dirichlet(np.ones(4), size=3)
            policy = GPPolicy(
                u_given_s=rows,
                x_map=rng.integers(0, 2, size=(4, 3)),
            )
            w = rng.dirichlet(np.ones(2), size=(3, 2))
            p = MemorylessSystem(Pmf(q), policy, ChannelKernel(w)).p_suy
            np.testing.assert_allclose(p.sum(axis=(1, 2)), q, atol=1e-12)

    def test_markov_structure(self, uniform_state):
        # P(y | s, u) = W(y | g(u, s), s) wherever P(s, u) > 0
        channel = ChannelKernel(np.stack([[[0.7, 0.3], [0.2, 0.8]], [[0.9, 0.1], [0.4, 0.6]]]))
        policy = GPPolicy(
            u_given_s=np.array([[0.3, 0.7, 0.0], [0.6, 0.1, 0.3]]),
            x_map=np.array([[0, 1], [1, 1], [1, 0]]),
        )
        p = MemorylessSystem(uniform_state, policy, channel).p_suy
        p_su = p.sum(axis=2)
        for s, u in np.argwhere(p_su > 0):
            np.testing.assert_allclose(p[s, u] / p_su[s, u], channel.w[s, policy.x_map[u, s]], atol=1e-12)
        np.testing.assert_array_equal(p[0, 2], 0.0)

    def test_dimension_mismatch(self, uniform_state):
        channel = ChannelKernel(np.ones((3, 2, 1)))
        with pytest.raises(DimensionError):
            MemorylessSystem(uniform_state, identity_policy(), channel)
        with pytest.raises(DimensionError):
            effective_kernel(channel.w, identity_policy().x_map)


class TestMarginalConditional:
    def test_total_marginal_is_one(self, uniform_state):
        system = MemorylessSystem(uniform_state, identity_policy(), state_blind_bsc(0.1))
        assert system.p_suy.sum() == pytest.approx(1.0)
        assert system.p_uy.sum() == pytest.approx(1.0)
        assert system.p_us.sum() == pytest.approx(1.0)

    def test_sum_order_irrelevant(self):
        rng = stream(1, 2)
        policy = GPPolicy(u_given_s=rng.dirichlet(np.ones(3), size=2), x_map=rng.integers(0, 2, (3, 2)))
        channel = ChannelKernel(rng.dirichlet(np.ones(2), size=(2, 2)))
        system = MemorylessSystem(Pmf(rng.dirichlet(np.ones(2))), policy, channel)
        p = system.p_suy
        np.testing.assert_allclose(system.p_y, p.sum(axis=(0, 1)), atol=1e-14)
        np.testing.assert_allclose(system.p_y, p.sum(axis=1).sum(axis=0), atol=1e-14)
        np.testing.assert_allclose(system.p_us, p.sum(axis=2).T, atol=1e-14)

    def test_zero_mass_condition_flagged(self, uniform_state):
        # u = 0 always sends x = 0 on a noiseless channel, so y = 1 has no
        # mass: its P(u|y) column is zero-filled, never NaN or uniform
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        policy = GPPolicy(u_given_s=rows, x_map=np.array([[0, 0], [1, 1]]))
        system = MemorylessSystem(uniform_state, policy, state_blind_bsc(0.0))
        np.testing.assert_array_equal(system.p_y, [1.0, 0.0])
        np.testing.assert_array_equal(system.p_u_given_y, [[1.0, 0.0], [0.0, 0.0]])


class TestSampling:
    """The simulator's one inverse-CDF sampler on the three law types."""

    def test_degenerate_pmf_constant(self):
        p = Pmf(np.array([0.0, 0.0, 1.0]))
        assert (draw(inverse_cdf(p.probs), stream(3, 0).random(1000)) == 2).all()

    def test_bernoulli_frequency(self):
        p = Pmf(np.array([0.5, 0.5]))
        x = draw(inverse_cdf(p.probs), stream(4, 0).random(10**6))
        assert abs(x.mean() - 0.5) < 0.002

    def test_empirical_tv_distance(self):
        p = Pmf(np.array([0.1, 0.2, 0.3, 0.4]))
        x = draw(inverse_cdf(p.probs), stream(5, 0).random(10**6))
        freq = np.bincount(x, minlength=4) / x.size
        assert 0.5 * np.abs(freq - p.probs).sum() < 0.005

    def test_determinism(self):
        p = Pmf(np.array([0.3, 0.7]))
        a = draw(inverse_cdf(p.probs), stream(6, 0).random(5000))
        b = draw(inverse_cdf(p.probs), stream(6, 0).random(5000))
        np.testing.assert_array_equal(a, b)

    def test_conditional_sampling_respects_rows(self):
        policy = GPPolicy(u_given_s=np.array([[1.0, 0.0], [0.0, 1.0]]), x_map=np.array([[0, 0], [1, 1]]))
        conds = np.array([0, 1, 0, 1] * 50)
        out = draw(inverse_cdf(policy.u_given_s[conds]), stream(7, 0).random(conds.size))
        np.testing.assert_array_equal(out, conds)

    def test_channel_sampling(self):
        ch = state_blind_bsc(0.0)
        states = np.zeros(100, dtype=np.int64)
        inputs = np.tile([0, 1], 50)
        out = draw(inverse_cdf(ch.w[states, inputs]), stream(8, 0).random(100))
        np.testing.assert_array_equal(out, inputs)
