"""The decoder's score gather, the shared inverse-CDF sampler at edge
uniforms, and the counter-based RNG streams."""

import numpy as np
import pytest

from gpchannel import kernels
from gpchannel.coding import draw, inverse_cdf
from gpchannel.rng import derive_key, stream


@pytest.fixture
def rng():
    return stream(42, 0xFE57)


def test_backend_reports_a_known_name():
    assert kernels.backend() == "numpy"


def test_categorical_edge_uniforms():
    u = np.array([0.0, 0.5 - 1e-16, 0.5, 1.0 - 1e-16, 1.0])
    out = draw(inverse_cdf(np.array([0.5, 0.5])), u)
    assert out.min() >= 0 and out.max() <= 1
    np.testing.assert_array_equal(out, [0, 0, 1, 1, 1])


def test_codebook_scores_allclose_and_inf_safe(rng):
    table = rng.normal(size=(4, 4))
    table[0, 3] = -np.inf
    words = rng.integers(0, 4, size=(500, 32))
    y = rng.integers(0, 4, size=32)
    got = kernels.codebook_scores(table, words, y[None])[0]
    ref = np.array([sum(table[w[j], y[j]] for j in range(y.size)) for w in words])
    finite = np.isfinite(ref)
    assert not finite.all()
    np.testing.assert_array_equal(np.isfinite(got), finite)
    np.testing.assert_array_equal(got[~finite], -np.inf)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12)


def test_stream_independence_and_determinism():
    a1 = stream(7, 1).random(5)
    a2 = stream(7, 1).random(5)
    b = stream(7, 2).random(5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_derive_key_spreads_stream_ids():
    assert derive_key(0, 0) != derive_key(0, 1)
    assert derive_key(0, 0, 1) != derive_key(0, 1, 0)
