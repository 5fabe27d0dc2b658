import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from gpchannel.prob import ChannelKernel, GPPolicy, Pmf

# property examples run numpy solves whose time varies with the host, so
# none runs under Hypothesis's per-example deadline
settings.register_profile("gpchannel", deadline=None)
settings.load_profile("gpchannel")


def bsc_matrix(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def state_blind_bsc(p: float) -> ChannelKernel:
    """Two-state channel that ignores its state: BSC(p) in both states."""
    return ChannelKernel(np.stack([bsc_matrix(p), bsc_matrix(p)]))


def state_flip_bsc(p: float) -> ChannelKernel:
    """Y = X xor S xor noise(p): the state flips the input."""
    return ChannelKernel(np.stack([bsc_matrix(p), bsc_matrix(p)[:, ::-1]]))


def erasure_kernel(mi_nats: float) -> ChannelKernel:
    """State-blind binary erasure channel with I(X;Y) = mi_nats under Bern(1/2)."""
    keep = mi_nats / math.log(2)
    w = np.array([[keep, 0.0, 1.0 - keep], [0.0, keep, 1.0 - keep]])
    return ChannelKernel(np.stack([w, w]))


def full_product_maps(u_size: int, n_states: int, n_inputs: int) -> np.ndarray:
    """Every deterministic map (u,s) -> x as (G, U, S), in product order:
    the reference the relabelling-class enumeration is checked against."""
    maps = list(itertools.product(range(n_inputs), repeat=u_size * n_states))
    return np.array(maps, dtype=np.int64).reshape(-1, u_size, n_states)


def identity_policy() -> GPPolicy:
    """U = X ~ Bern(1/2) independent of the state."""
    return GPPolicy(
        u_given_s=np.array([[0.5, 0.5], [0.5, 0.5]]),
        x_map=np.array([[0, 0], [1, 1]]),
    )


@pytest.fixture
def uniform_state() -> Pmf:
    return Pmf(np.array([0.5, 0.5]))


def bin_capacity(p: float) -> float:
    """ln2 - H_b(p) in nats."""
    if p in (0.0, 1.0):
        return math.log(2)
    return math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
