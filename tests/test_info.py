import math

import numpy as np
import pytest

from gpchannel.info import (
    SampleBudgetError,
    SpectrumSamples,
    conditional_mutual_information,
    density_table,
    mutual_information,
    spectral_rate_estimate,
)
from gpchannel.rng import stream

from conftest import bin_capacity


def dsbs(p: float) -> np.ndarray:
    """Doubly symmetric binary joint with flip probability p."""
    return np.array([[1 - p, p], [p, 1 - p]]) / 2.0


class TestMutualInformation:
    def test_independent_zero(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-15)

    def test_identity_coupling(self):
        assert mutual_information(np.eye(2) / 2) == pytest.approx(math.log(2))

    def test_dsbs_oracle(self):
        assert mutual_information(dsbs(0.1)) == pytest.approx(bin_capacity(0.1), abs=1e-12)

    def test_nonnegative_on_random_joints(self):
        rng = stream(0, 10)
        for _ in range(200):
            joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
            assert mutual_information(joint) >= 0.0

    def test_data_processing(self):
        # A - B - C by composition: I(A;C) <= I(A;B)
        rng = stream(0, 11)
        for _ in range(500):
            p_ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
            k_cb = rng.dirichlet(np.ones(2), size=2)  # P(c|b)
            p_ac = p_ab @ k_cb
            assert mutual_information(p_ac) <= mutual_information(p_ab) + 1e-12


class TestConditionalMutualInformation:
    def test_independent_conditioner(self):
        p_ab = dsbs(0.2)
        joint = np.stack([p_ab * 0.3, p_ab * 0.7], axis=2)
        assert conditional_mutual_information(joint) == pytest.approx(mutual_information(p_ab), abs=1e-12)

    def test_all_equal_is_zero(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 1] = 0.5
        assert conditional_mutual_information(joint) == pytest.approx(0.0, abs=1e-15)

    def test_chain_rule(self):
        rng = stream(0, 12)
        for _ in range(100):
            p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            i_a_bc = mutual_information(p.reshape(2, 4))
            i_ac = mutual_information(p.sum(axis=1))
            # I(A;B,C) = I(A;C) + I(A;B|C)
            residual = i_a_bc - i_ac - conditional_mutual_information(p)
            assert abs(residual) < 1e-12


class TestDensityTable:
    def test_independent_all_zero(self):
        table = density_table(np.outer([0.4, 0.6], [0.5, 0.5]))
        np.testing.assert_allclose(table, 0.0, atol=1e-14)

    def test_identity_coupling_ln2(self):
        table = density_table(np.eye(2) / 2)
        assert table[0, 0] == pytest.approx(math.log(2))
        assert table[1, 1] == pytest.approx(math.log(2))
        assert np.isneginf(table[0, 1])

    def test_expectation_matches_mi(self):
        rng = stream(0, 13)
        for _ in range(50):
            joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
            table = density_table(joint)
            assert (joint * table).sum() == pytest.approx(mutual_information(joint), abs=1e-12)

    def test_zero_marginal_undefined(self):
        joint = np.array([[0.5, 0.5], [0.0, 0.0]])
        table = density_table(joint)
        assert np.isnan(table[1]).all()
        assert np.isfinite(table[0]).all()


class TestSpectralRateEstimate:
    def test_constant_samples(self):
        s = SpectrumSamples(samples=np.full(200, 0.42), n=10)
        assert spectral_rate_estimate(s, "inf") == pytest.approx(0.42)
        assert spectral_rate_estimate(s, "sup") == pytest.approx(0.42)

    def test_two_point_mixture(self):
        vals = np.concatenate([np.full(400, 0.2), np.full(600, 0.7)])
        s = SpectrumSamples(samples=vals, n=10)
        assert spectral_rate_estimate(s, "inf") == pytest.approx(0.2)
        assert spectral_rate_estimate(s, "sup") == pytest.approx(0.7)

    def test_sample_budget(self):
        s = SpectrumSamples(samples=np.arange(50, dtype=float), n=10)
        with pytest.raises(SampleBudgetError):
            spectral_rate_estimate(s, "inf", delta=0.01)

    def test_inf_below_sup(self):
        rng = stream(0, 14)
        vals = rng.normal(size=2000)
        s = SpectrumSamples(samples=vals, n=10)
        assert spectral_rate_estimate(s, "inf") <= spectral_rate_estimate(s, "sup")

    def test_memoryless_convergence(self):
        # block densities of a memoryless (U,Y) pair concentrate at the MI;
        # the quantile estimate lands within 3*sigma/sqrt(n) + quantile bias
        joint = dsbs(0.1)
        mi = mutual_information(joint)
        table = density_table(joint)
        rng = stream(0, 15)
        n, draws = 2000, 10_000
        counts = rng.multinomial(n, joint.ravel(), size=draws)
        sums = counts @ table.ravel()
        s = SpectrumSamples(samples=sums / n, n=n)
        var = (joint * (table - mi) ** 2).sum()
        z_bias = 2.4  # z-score of the 0.8%-1.2% quantile band
        tol = (3.0 + z_bias) * math.sqrt(var / n)
        for mode in ("inf", "sup"):
            assert abs(spectral_rate_estimate(s, mode) - mi) <= tol
