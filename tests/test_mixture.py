import math
import tracemalloc

import numpy as np
import pytest

from gpchannel.capacity import gp_capacity_dm
from gpchannel.info import mutual_information, spectral_rate_estimate
from gpchannel.mixture import (
    MixtureSpec,
    maximize_mixed_lower_bound,
    mixed_lower_bound,
    mixture_spectrum_demo,
)
from gpchannel.prob import ChannelKernel, DimensionError, Pmf, ValidationError
from gpchannel.rng import stream

from conftest import (
    bin_capacity,
    erasure_kernel,
    identity_policy,
    state_blind_bsc,
    state_flip_bsc,
)


def single(channel, state):
    return MixtureSpec(((1.0, channel),), ((1.0, state),))


class TestMixtureSpec:
    def test_rejects_bad_weights(self, uniform_state):
        with pytest.raises(ValidationError):
            MixtureSpec(((0.7, state_blind_bsc(0.1)),), ((1.0, uniform_state),))
        with pytest.raises(ValidationError):
            MixtureSpec(
                ((1.2, state_blind_bsc(0.1)), (-0.2, state_blind_bsc(0.2))),
                ((1.0, uniform_state),),
            )

    def test_rejects_mismatched_alphabets(self, uniform_state):
        import numpy as _np

        from gpchannel.prob import ChannelKernel

        three_out = ChannelKernel(_np.full((2, 2, 3), 1 / 3))
        with pytest.raises(DimensionError):
            MixtureSpec(((0.5, state_blind_bsc(0.1)), (0.5, three_out)), ((1.0, uniform_state),))

    def test_tiny_tail_tolerated(self, uniform_state):
        MixtureSpec(((1.0 - 5e-10, state_blind_bsc(0.1)),), ((1.0, uniform_state),))


class TestMixedLowerBound:
    def test_single_component_is_plain_objective(self, uniform_state):
        pol = identity_policy()
        mix = single(state_blind_bsc(0.1), uniform_state)
        assert mixed_lower_bound(mix, pol) == pytest.approx(bin_capacity(0.1), abs=1e-12)

    def test_duplicate_components_unchanged(self, uniform_state):
        pol = identity_policy()
        ch = state_flip_bsc(0.1)
        mix1 = single(ch, uniform_state)
        mix2 = MixtureSpec(((0.5, ch), (0.5, ch)), ((0.5, uniform_state), (0.5, uniform_state)))
        assert mixed_lower_bound(mix2, pol) == pytest.approx(mixed_lower_bound(mix1, pol), abs=1e-12)

    def test_two_bsc_min(self, uniform_state):
        pol = identity_policy()
        mix = MixtureSpec(
            ((0.5, state_blind_bsc(0.05)), (0.5, state_blind_bsc(0.2))),
            ((1.0, uniform_state),),
        )
        assert mixed_lower_bound(mix, pol) == pytest.approx(bin_capacity(0.2), abs=1e-12)

    def test_component_order_invariance(self, uniform_state):
        pol = identity_policy()
        a = MixtureSpec(
            ((0.3, state_blind_bsc(0.05)), (0.7, state_blind_bsc(0.2))), ((1.0, uniform_state),)
        )
        b = MixtureSpec(
            ((0.7, state_blind_bsc(0.2)), (0.3, state_blind_bsc(0.05))), ((1.0, uniform_state),)
        )
        assert mixed_lower_bound(a, pol) == mixed_lower_bound(b, pol)

    def test_never_exceeds_worst_pair(self, uniform_state):
        pol = identity_policy()
        mix = MixtureSpec(
            ((0.5, state_blind_bsc(0.05)), (0.5, state_flip_bsc(0.2))), ((1.0, uniform_state),)
        )
        per_pair = [
            mixed_lower_bound(single(ch, uniform_state), pol)
            for _, ch in mix.channel_components
        ]
        assert mixed_lower_bound(mix, pol) <= min(per_pair) + 1e-12


class TestMaximize:
    KW = {"restarts": 6, "seed": 2}

    def test_degenerate_matches_gp(self, uniform_state):
        ch = state_flip_bsc(0.1)
        mixed = maximize_mixed_lower_bound(single(ch, uniform_state), u_size=3, **self.KW)
        direct = gp_capacity_dm(ch, uniform_state, u_size=3, **self.KW)
        assert mixed.value == pytest.approx(direct.value, abs=1e-6)

    def test_identical_components_match_gp(self, uniform_state):
        ch = state_flip_bsc(0.1)
        mix = MixtureSpec(((0.5, ch), (0.5, ch)), ((1.0, uniform_state),))
        mixed = maximize_mixed_lower_bound(mix, u_size=3, **self.KW)
        direct = gp_capacity_dm(ch, uniform_state, u_size=3, **self.KW)
        assert mixed.value == pytest.approx(direct.value, abs=1e-6)

    def test_bound_of_optimum_is_optimizer_value(self):
        # the bound and the optimizer evaluate one objective, so they agree
        # bit for bit, also with two state laws, where the max over l is live
        for state_weights, key in (((1.0,), 31), ((0.3, 0.7), 32)):
            rng = stream(0, key)
            for _ in range(20):
                mix = MixtureSpec(
                    tuple((w, ChannelKernel(rng.dirichlet(np.ones(2), size=(2, 2)))) for w in (0.4, 0.6)),
                    tuple((w, Pmf(rng.dirichlet(np.ones(2)))) for w in state_weights),
                )
                res = maximize_mixed_lower_bound(mix, u_size=2, restarts=2, seed=1)
                assert max(mixed_lower_bound(mix, res.policy), 0.0) == res.value

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_z_channel_and_mirror_meet_at_the_kink(self, eps, uniform_state):
        # min_k I(X;Y_k) of a Z channel and its mirror image peaks where the
        # two curves cross, at X ~ Bern(1/2), away from either channel's own
        # optimum; the state is ignored, so no policy beats that input law
        z = np.array([[1.0, 0.0], [eps, 1.0 - eps]])
        mirror = z[::-1, ::-1]
        mix = MixtureSpec(
            ((0.5, ChannelKernel(np.stack([z, z]))), (0.5, ChannelKernel(np.stack([mirror, mirror])))),
            ((1.0, uniform_state),),
        )

        def h(p):
            return -p * math.log(p) - (1 - p) * math.log(1 - p)

        kink = h((1 - eps) / 2) - h(eps) / 2
        res = maximize_mixed_lower_bound(mix, restarts=1)
        assert res.value == pytest.approx(kink, abs=1e-9)

    def test_dominated_by_worst_pair(self, uniform_state):
        mix = MixtureSpec(
            ((0.5, state_blind_bsc(0.0)), (0.5, state_blind_bsc(0.3))), ((1.0, uniform_state),)
        )
        mixed = maximize_mixed_lower_bound(mix, u_size=3, **self.KW)
        worst = gp_capacity_dm(state_blind_bsc(0.3), uniform_state, u_size=3, **self.KW)
        assert mixed.value <= worst.value + 1e-6
        assert mixed.diagnostics["lower_bound_only"]


class TestSpectrumDemo:
    def test_single_component_unimodal(self, uniform_state):
        ch = state_blind_bsc(0.1)
        samples = mixture_spectrum_demo(single(ch, uniform_state), identity_policy(), n=2000, draws=2000, seed=1)
        mi = bin_capacity(0.1)
        assert abs(np.median(samples.samples) - mi) < 0.02
        assert samples.tail_infinite == 0

    def test_two_modes_and_inf_rate(self, uniform_state):
        mix = MixtureSpec(
            ((0.5, erasure_kernel(0.15)), (0.5, erasure_kernel(0.55))), ((1.0, uniform_state),)
        )
        samples = mixture_spectrum_demo(mix, identity_policy(), n=2000, draws=10_000, seed=3)
        near = (np.abs(samples.samples - 0.15) < 0.05) | (np.abs(samples.samples - 0.55) < 0.05)
        assert near.mean() >= 0.95
        est = spectral_rate_estimate(samples, "inf")
        assert abs(est - 0.15) <= 0.02

    def test_error_shrinks_with_n(self, uniform_state):
        mix = MixtureSpec(
            ((0.5, erasure_kernel(0.15)), (0.5, erasure_kernel(0.55))), ((1.0, uniform_state),)
        )
        errs = []
        for n in (500, 1000, 2000, 4000):
            s = mixture_spectrum_demo(mix, identity_policy(), n=n, draws=4000, seed=5)
            errs.append(abs(spectral_rate_estimate(s, "inf") - 0.15))
        inversions = sum(errs[i + 1] > errs[i] for i in range(3))
        assert inversions <= 1

    @pytest.mark.parametrize("state_weights", [(1.0,), (0.3, 0.7)])
    def test_memory_follows_the_window_not_the_draws(self, state_weights):
        # the sampler holds the pair indices, the densities and the finite
        # samples, about 20 B per draw, plus one window; whole-array draws
        # and scores held about 105 B per draw
        draws = 2**19
        mix = MixtureSpec(
            ((0.4, state_flip_bsc(0.05)), (0.6, state_flip_bsc(0.2))),
            tuple((w, Pmf(np.array([p, 1.0 - p]))) for w, p in zip(state_weights, (0.5, 0.3))),
        )
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            samples = mixture_spectrum_demo(mix, identity_policy(), n=2000, draws=draws, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert samples.count == draws
        assert peak <= 32 * draws + 8 * 2**20

    def test_rejects_zero_draws(self, uniform_state):
        with pytest.raises(ValueError):
            mixture_spectrum_demo(single(state_blind_bsc(0.1), uniform_state), identity_policy(), n=10, draws=0)
