import math

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
    KW = {"restarts": 6, "iters": 120, "seed": 2}

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
        # the bound and the optimizer evaluate one objective, so they agree bit for bit
        rng = stream(0, 31)
        for _ in range(20):
            mix = MixtureSpec(
                tuple((w, ChannelKernel(rng.dirichlet(np.ones(2), size=(2, 2)))) for w in (0.4, 0.6)),
                ((1.0, Pmf(rng.dirichlet(np.ones(2)))),),
            )
            res = maximize_mixed_lower_bound(mix, u_size=2, restarts=2, iters=60, seed=1)
            assert max(mixed_lower_bound(mix, res.policy), 0.0) == res.value

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

    def test_rejects_zero_draws(self, uniform_state):
        with pytest.raises(ValueError):
            mixture_spectrum_demo(single(state_blind_bsc(0.1), uniform_state), identity_policy(), n=10, draws=0)
