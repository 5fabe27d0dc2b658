import hashlib
import math
from itertools import product

import numpy as np
import pytest

from gpchannel import coding
from gpchannel.cli import _write
from gpchannel.coding import (
    TRIAL_COLUMNS,
    BudgetError,
    Codebook,
    CodingExperiment,
    MemorylessSystem,
    TypicalityThresholds,
    bernoulli_sigma,
    build_code,
    decode,
    default_thresholds,
    design_experiment,
    draw,
    encode,
    estimate_pi,
    eta,
    inverse_cdf,
    run_experiment,
    wilson_interval,
)
from gpchannel.prob import ChannelKernel, GPPolicy, Pmf, ValidationError
from gpchannel.rng import stream

from conftest import bin_capacity, identity_policy, state_blind_bsc, state_flip_bsc


def eta_exact(
    u_block: np.ndarray,
    s_block: np.ndarray,
    system: MemorylessSystem,
    thresholds: TypicalityThresholds,
) -> float:
    """Exact eta by output enumeration; oracle for n <= 12."""
    n = u_block.size
    n_y = system.channel.n_outputs
    if n_y**n > 4**12:
        raise BudgetError("exact eta enumeration is limited to tiny blocks")
    total = 0.0
    for y_block in product(range(n_y), repeat=n):
        logp = 0.0
        dsum = 0.0
        for i, y in enumerate(y_block):
            p = system.p_y_given_us[u_block[i], s_block[i], y]
            if p == 0.0:
                logp = -math.inf
                break
            logp += math.log(p)
            dsum += system.d_uy[u_block[i], y]
        if logp == -math.inf:
            continue
        if not dsum >= n * thresholds.t1:  # catches -inf and nan-free atypical
            total += math.exp(logp)
    return total


@pytest.fixture
def bsc_system(uniform_state):
    return MemorylessSystem(uniform_state, identity_policy(), state_blind_bsc(0.1))


@pytest.fixture
def noiseless_system(uniform_state):
    eye = ChannelKernel(np.stack([np.eye(2), np.eye(2)]))
    return MemorylessSystem(uniform_state, identity_policy(), eye)


class TestExperimentInvariants:
    def test_rate_ordering_enforced(self):
        with pytest.raises(ValidationError):
            CodingExperiment(n=10, gamma1=0.01, gamma2=0.01, rate=0.5, rate_total=0.4)

    def test_subcodebook_arithmetic(self):
        exp_ = CodingExperiment(n=4, gamma1=0.0, gamma2=0.0, rate=0.0, rate_total=math.log(4) / 4)
        assert exp_.subcodebook_size == 4
        assert exp_.message_count == 1

    def test_design_point(self, bsc_system):
        exp_ = design_experiment(bsc_system, 100, 0.02, 0.02)
        assert exp_.rate_total == pytest.approx(bsc_system.i_uy - 0.04)
        assert exp_.rate == pytest.approx(exp_.rate_total - bsc_system.i_us - 0.04)


class TestEstimatePi:
    def test_infinite_thresholds(self, bsc_system):
        th = TypicalityThresholds(t1=-1e9, t2=1e9)
        pi = estimate_pi(bsc_system, 100, 2000, th, seed=1)
        assert pi["pi1"] == 0.0
        assert pi["pi2"] == 0.0

    def test_threshold_at_mi_gives_half(self, bsc_system):
        th = TypicalityThresholds(t1=bsc_system.i_uy, t2=bsc_system.i_us)
        pi = estimate_pi(bsc_system, 4000, 10_000, th, seed=2)
        assert abs(pi["pi1"] - 0.5) < 0.05

    def test_three_sigma_margin_is_rare(self, bsc_system):
        table = bsc_system.d_uy
        joint = bsc_system.p_uy
        var = float((joint * np.where(np.isfinite(table), table - bsc_system.i_uy, 0.0) ** 2).sum())
        n = 4000
        th = TypicalityThresholds(t1=bsc_system.i_uy - 3 * math.sqrt(var / n), t2=1e9)
        pi = estimate_pi(bsc_system, n, 10_000, th, seed=3)
        assert pi["pi1"] <= 0.01

    def test_zero_draws_rejected(self, bsc_system):
        with pytest.raises(ValidationError):
            estimate_pi(bsc_system, 10, 0, TypicalityThresholds(0.0, 0.0))


class TestEta:
    def test_permissive_threshold_zero(self, bsc_system):
        rng = stream(0, 31)
        u = np.zeros(8, dtype=np.int64)
        s = np.zeros(8, dtype=np.int64)
        assert eta(u, s, bsc_system, TypicalityThresholds(t1=-1e9, t2=0.0), 500, rng) == 0.0

    def test_noiseless_identity_below_ln2(self, noiseless_system):
        rng = stream(0, 32)
        u = np.array([0, 1, 1, 0], dtype=np.int64)
        s = np.zeros(4, dtype=np.int64)
        th = TypicalityThresholds(t1=0.5 * math.log(2), t2=0.0)
        assert eta(u, s, noiseless_system, th, 500, rng) == 0.0  # density is deterministically ln2 per symbol

    def test_monte_carlo_matches_exact_enumeration(self, bsc_system):
        rng = stream(0, 33)
        th = default_thresholds(bsc_system, 0.02, 0.02)
        for trial in range(3):
            u = stream(trial, 34).integers(0, 2, size=8)
            s = stream(trial, 35).integers(0, 2, size=8)
            exact = eta_exact(u, s, bsc_system, th)
            est = eta(u, s, bsc_system, th, 4000, rng)
            se = bernoulli_sigma(est, 4000)
            assert abs(est - exact) <= 3 * max(se, 1e-3)


class TestCodebook:
    def test_build_deterministic(self):
        exp_ = CodingExperiment(n=8, gamma1=0.0, gamma2=0.0, rate=math.log(4) / 8, rate_total=math.log(8) / 8)
        p_u = np.array([0.5, 0.5])
        a = build_code(exp_, p_u)
        b = build_code(exp_, p_u)
        np.testing.assert_array_equal(a.words, b.words)
        assert a.subcodebook_size == 2
        assert a.message_count == 4

    def test_words_are_bytes_from_one_uniform_draw(self):
        exp_ = CodingExperiment(n=20, gamma1=0.0, gamma2=0.0, rate=0.35, rate_total=0.5, seed=4)
        p_u = np.array([0.3, 0.0, 0.7])
        code = build_code(exp_, p_u)
        # the codebook spans more than one draw chunk
        assert code.words.size > coding._DRAW_CELLS
        assert code.words.dtype == np.uint8
        ref = draw(inverse_cdf(p_u), stream(exp_.seed, 0xB00C).random(code.words.shape))
        np.testing.assert_array_equal(code.words, ref)

    def test_single_codeword_bins(self):
        exp_ = CodingExperiment(n=8, gamma1=0.0, gamma2=0.0, rate=math.log(4) / 8, rate_total=math.log(4) / 8)
        code = build_code(exp_, np.array([0.5, 0.5]))
        assert code.subcodebook_size == 1

    def test_memory_guard(self):
        exp_ = CodingExperiment(n=50, gamma1=0.0, gamma2=0.0, rate=0.5, rate_total=0.5)
        with pytest.raises(BudgetError, match="reduce n or rates"):
            build_code(exp_, np.array([0.5, 0.5]))


class TestEncodeDecode:
    def _tiny_setup(self, system):
        exp_ = CodingExperiment(
            n=6, gamma1=0.01, gamma2=0.01, rate=math.log(2) / 6, rate_total=math.log(8) / 6, seed=3
        )
        code = build_code(exp_, system.p_u)
        th = default_thresholds(system, 0.02, 0.02)
        return exp_, code, th

    def test_permissive_covering_picks_first(self, bsc_system):
        exp_, code, th = self._tiny_setup(bsc_system)
        rng = stream(0, 36)
        s = np.zeros(6, dtype=np.int64)
        l_index, _, failed = encode(code, 1, s, bsc_system, th, covering_threshold=1.0, inner_draws=50, rng=rng)
        assert l_index == code.bin_range(1)[0]
        assert not failed

    def test_impossible_covering_flags_failure(self, bsc_system):
        exp_, code, th = self._tiny_setup(bsc_system)
        rng = stream(0, 37)
        s = np.zeros(6, dtype=np.int64)
        l_index, _, failed = encode(code, 0, s, bsc_system, th, covering_threshold=-1.0, inner_draws=50, rng=rng)
        assert failed
        assert l_index == code.bin_range(0)[0]

    def test_decode_unique_hit(self, noiseless_system):
        words = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.int64)
        code = Codebook(words=words, subcodebook_size=1, message_count=2)
        th = TypicalityThresholds(t1=0.9 * math.log(2), t2=0.0)
        assert decode(code, np.array([[1, 1, 1, 1]]), noiseless_system, th)[0][0] == 1
        assert decode(code, np.array([[0, 0, 0, 0]]), noiseless_system, th)[0][0] == 0

    def test_decode_no_hit_and_ambiguity(self, noiseless_system):
        words = np.array([[0, 0], [0, 0], [1, 1]], dtype=np.int64)
        code = Codebook(words=words[:2], subcodebook_size=1, message_count=2)
        th = TypicalityThresholds(t1=0.9 * math.log(2), t2=0.0)
        # both bins hold the same typical codeword -> ambiguous
        assert decode(code, np.array([[0, 0]]), noiseless_system, th)[0][0] is None
        # no typical codeword at all
        assert decode(code, np.array([[1, 1]]), noiseless_system, th)[0][0] is None


class TestRunExperiment:
    def test_noiseless_zero_error(self, noiseless_system):
        exp_ = CodingExperiment(
            n=30, gamma1=0.01, gamma2=0.01,
            rate=0.5 * math.log(2), rate_total=0.5 * math.log(2), seed=5, trials=300,
        )
        rep = run_experiment(noiseless_system, exp_, mode="explicit", pi_draws=2000)
        assert rep.empirical_error == 0.0
        assert rep.mode == "explicit"

    def test_error_decomposition_accounting(self, bsc_system):
        exp_ = design_experiment(bsc_system, 120, 0.02, 0.02, rate=0.7 * bsc_system.i_uy, seed=6, trials=400)
        rep = run_experiment(bsc_system, exp_, pi_draws=4000)
        for r in rep.trials:
            if not r.ok:
                assert r.e1 or r.e2 or r.e3
        rates = rep.event_rates()
        assert rep.empirical_error <= rates["e1"] + rates["e2_not_e1"] + rates["e3"] + 1e-12

    def test_determinism(self, bsc_system):
        exp_ = design_experiment(bsc_system, 100, 0.02, 0.02, rate=0.7 * bsc_system.i_uy, seed=7, trials=100)
        a = run_experiment(bsc_system, exp_, pi_draws=2000)
        b = run_experiment(bsc_system, exp_, pi_draws=2000)
        assert a.trials == b.trials
        assert a.empirical_error == b.empirical_error

    def test_batched_decoding_matches_per_trial(self, bsc_system, monkeypatch):
        exp_ = design_experiment(bsc_system, 20, 0.02, 0.02, rate=0.5 * bsc_system.i_uy, seed=12, trials=25)
        code = build_code(exp_, bsc_system.p_u)
        th = default_thresholds(bsc_system, 0.02, 0.02)
        received = []
        decode_batch = coding.decode

        def spy(codebook, y_blocks, system, thresholds):
            received.append(y_blocks.copy())
            return decode_batch(codebook, y_blocks, system, thresholds)

        monkeypatch.setattr(coding, "decode", spy)
        monkeypatch.setattr(coding, "_DECODE_SCORES", 4 * code.words.shape[0])
        rep = run_experiment(bsc_system, exp_, mode="explicit", pi_draws=1000)
        monkeypatch.undo()
        assert [y.shape[0] for y in received] == [4] * 6 + [1]
        outcomes = set()
        for record, y in zip(rep.trials, np.concatenate(received)):
            decoded = decode(code, y[None], bsc_system, th)[0][0]
            # per-position reference scores; every cell of the BSC table is finite
            hits = np.flatnonzero(bsc_system.d_uy[code.words, y].sum(axis=1) >= y.size * th.t1)
            lo, hi = code.bin_range(record.message)
            assert record.decoded == (-1 if decoded is None else decoded)
            assert record.e3 == bool(((hits < lo) | (hits >= hi)).any())
            outcomes.add((record.ok, record.e3))
        assert len(outcomes) > 1

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_failed_scan_sends_first_candidate(self, bsc_system, monkeypatch, mode):
        exp_ = design_experiment(bsc_system, 20, 0.02, 0.02, rate=0.5 * bsc_system.i_uy, seed=13, trials=6)
        sent = []
        atypical = coding._atypical

        def recording(system, u_block, y_block, t1):
            sent.append(u_block.copy())
            return atypical(system, u_block, y_block, t1)

        # no candidate qualifies, so every scan fails
        monkeypatch.setattr(coding, "eta", lambda *args: 1.0)
        monkeypatch.setattr(coding, "_atypical", recording)
        rep = run_experiment(bsc_system, exp_, mode=mode, pi_draws=500)
        code = build_code(exp_, bsc_system.p_u)
        for t, (record, u_block) in enumerate(zip(rep.trials, sent)):
            if mode == "explicit":
                assert record.e1
                first = code.words[code.bin_range(record.message)[0]]
                assert record.l_index == code.bin_range(record.message)[0]
            else:
                rng = stream(exp_.seed, 0x7122, t)
                rng.random(exp_.n)  # the state block
                first = draw(inverse_cdf(bsc_system.p_u), rng.random(exp_.n))
                assert record.l_index == 0
            np.testing.assert_array_equal(u_block, first)

    def test_rate_just_above_total_scans_one_candidate(self, bsc_system):
        # CodingExperiment admits rate > rate_total by 1e-12; the bin then
        # holds one entry and the implicit scan still draws one candidate
        exp_ = CodingExperiment(n=10, gamma1=0.02, gamma2=0.02, rate=0.1 + 5e-13, rate_total=0.1, trials=20)
        assert exp_.subcodebook_size == 1
        rep = run_experiment(bsc_system, exp_, mode="implicit", pi_draws=500)
        assert len(rep.trials) == 20
        assert all(r.l_index == 0 for r in rep.trials)

    def test_implicit_trial_reads_its_index_past_the_label_range(self, bsc_system):
        # n * rate = 50 nats > 62 ln 2: message_count saturates at about 2^62
        exp_ = CodingExperiment(n=200, gamma1=0.02, gamma2=0.02, rate=0.25, rate_total=0.3, trials=5)
        assert exp_.message_count >= 2**62
        rep = run_experiment(bsc_system, exp_, mode="implicit", pi_draws=200)
        assert [r.message for r in rep.trials] == list(range(5))

    def test_output_law_is_the_mapped_channel_row(self, uniform_state):
        channel = state_flip_bsc(0.1)
        policy = GPPolicy(
            u_given_s=np.array([[0.3, 0.7], [0.6, 0.4]]),
            x_map=np.array([[0, 1], [1, 1]]),
        )
        system = MemorylessSystem(uniform_state, policy, channel)
        # Y is drawn from P(y|u,s), which is exactly W(y | g(u,s), s)
        np.testing.assert_array_equal(system.p_y_given_us, channel.w[[0, 1], policy.x_map])

    def test_explicit_guard_refusal(self, bsc_system):
        exp_ = design_experiment(bsc_system, 400, 0.02, 0.02, seed=8, trials=10)
        with pytest.raises(BudgetError, match="implicit"):
            run_experiment(bsc_system, exp_, mode="explicit")

    def test_converse_flag_and_error(self, bsc_system):
        exp_ = design_experiment(bsc_system, 400, 0.02, 0.02, rate=1.2 * bsc_system.i_uy, seed=9, trials=100)
        rep = run_experiment(bsc_system, exp_, pi_draws=2000)
        assert rep.converse_mode
        assert rep.empirical_error >= 0.9

    def test_trial_log_roundtrip(self, bsc_system, tmp_path):
        exp_ = design_experiment(bsc_system, 60, 0.02, 0.02, rate=0.5 * bsc_system.i_uy, seed=10, trials=20)
        rep = run_experiment(bsc_system, exp_, pi_draws=1000)
        spec = tmp_path / "spec.json"
        spec.write_text("{}", encoding="utf-8")
        _write(tmp_path / "out", 10, spec, {"trials.csv": (TRIAL_COLUMNS, (r.csv_row() for r in rep.trials))})
        lines = (tmp_path / "out" / "trials.csv").read_text(encoding="utf-8").splitlines()[3:]
        assert lines[0] == "trial,message,L,e1,e2,e3,decoded,ok"
        assert len(lines) == 21

    def test_confusion_rate_within_bound_at_long_blocks(self, uniform_state):
        # n * t1 = 2500 * 0.348 = 870 nats: q(y) ~ exp(-870) is below the
        # smallest float, so the confusion estimate must stay in log space
        policy = GPPolicy(
            u_given_s=np.array([[0.5, 0.5], [0.5, 0.5]]),
            x_map=np.array([[0, 1], [1, 0]]),
        )
        system = MemorylessSystem(uniform_state, policy, state_flip_bsc(0.1))
        rate = 0.7 * (system.i_uy - system.i_us)
        exp_ = design_experiment(system, 2500, 0.02, 0.02, rate=rate, seed=11, trials=40)
        th = default_thresholds(system, 0.02, 0.02)
        assert exp_.n * th.t1 > 700
        rep = run_experiment(system, exp_, mode="implicit", pi_draws=2000)
        assert rep.event_rates()["e3"] <= rep.rho_terms["confusion"]


# SHA-256 of the TrialRecords of two small seeded runs on a three-output
# channel with zero-mass cells. Covering failures, E2 and confusion all
# fire and the scan positions vary, so every draw of the per-trial path
# (message, state, candidates, eta, covering extrapolation, Y^n and the
# confusion estimate) shows in the digest: a change to what a trial
# draws, or in what order, fails this test and must update the digests
# on purpose.
DRAW_ORDER_DIGESTS = {
    "implicit": "fbcbe0e8719d5ca23ae15b31aac0f6aa40227e948d5c71b23b2da7dc3661bafe",
    "explicit": "e06fb02d4252ba182e3f5065d1cdff023e781019cffab65e696ca13ab72d39f3",
}


@pytest.mark.parametrize("mode, n, gamma1", [("implicit", 24, 0.05), ("explicit", 12, 0.02)])
def test_trial_draw_order_is_pinned(mode, n, gamma1):
    system = MemorylessSystem(
        Pmf(np.array([0.3, 0.7])),
        GPPolicy(
            u_given_s=np.array([[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]),
            x_map=np.array([[0, 1], [1, 0], [1, 1]]),
        ),
        ChannelKernel(np.array([[[0.8, 0.0, 0.2], [0.0, 0.9, 0.1]], [[0.1, 0.6, 0.3], [0.5, 0.0, 0.5]]])),
    )
    exp_ = CodingExperiment(n=n, gamma1=gamma1, gamma2=0.02, rate=0.15, rate_total=0.2, seed=7, trials=30)
    rep = run_experiment(system, exp_, mode=mode, pi_draws=500)
    assert rep.mode == mode
    assert all(rate > 0 for rate in rep.event_rates().values())
    rows = [r.csv_row() for r in rep.trials]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == DRAW_ORDER_DIGESTS[mode]

def test_wilson_interval_limits():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.95
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)
