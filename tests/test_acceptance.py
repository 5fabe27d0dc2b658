"""End-to-end acceptance checks with pinned tolerances.

Each test prints a PASS line with the measured quantities so a log scan
shows which guarantees were exercised at which values.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gpchannel.capacity import (
    SequenceSpec,
    blahut_arimoto,
    cesaro_capacity,
    gp_capacity_dm,
    interleaved_capacity,
    j_density_extrema,
    state_at_both_capacity,
)
from gpchannel.cli import main as cli_main
from gpchannel.coding import MemorylessSystem, design_experiment, run_experiment, wilson_interval
from gpchannel.info import spectral_rate_estimate
from gpchannel.mixture import MixtureSpec, mixture_spectrum_demo
from gpchannel.prob import ChannelKernel, Pmf
from gpchannel.region import region_frontier, region_membership
from gpchannel.rng import stream

from conftest import (
    bin_capacity,
    bsc_matrix,
    erasure_kernel,
    identity_policy,
    state_blind_bsc,
    state_flip_bsc,
)

UNIFORM = Pmf(np.array([0.5, 0.5]))


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


@pytest.mark.slow
def test_acceptance_1_reduction_identities():
    """State-blind systems reduce to the plain channel capacity, and the
    state-at-both-sides value is the state-weighted per-state capacity."""
    for p in (0.0, 0.05, 0.1, 0.25, 0.5):
        got = gp_capacity_dm(state_blind_bsc(p), UNIFORM, restarts=10, seed=0).value
        want = bin_capacity(p)
        assert abs(got - want) <= 1e-4, (p, got, want)
    rng = stream(11, 0xACC1)
    for trial in range(100):
        w = rng.random((2, 2, 2))
        w /= w.sum(axis=-1, keepdims=True)
        q = rng.random(2)
        q /= q.sum()
        channel = ChannelKernel(w)
        state = Pmf(q)
        got = state_at_both_capacity(channel, state).value
        want = sum(q[s] * blahut_arimoto(w[s])[0] for s in range(2))
        assert abs(got - want) <= 1e-6
    print("PASS acceptance 1: 5 state-blind BSC reductions within 1e-4, "
          "100 random state-at-both instances within 1e-6")


def test_acceptance_2_density_extrema():
    res = j_density_extrema(2**16)
    assert abs(res["liminf_odd_J"] - 1.0 / 3.0) <= 0.01
    assert abs(res["limsup_odd_J"] - 2.0 / 3.0) <= 0.01
    print(f"PASS acceptance 2: density extrema {res['liminf_odd_J']:.4f}/"
          f"{res['limsup_odd_J']:.4f} within 0.01 of 1/3 and 2/3")


@pytest.mark.slow
def test_acceptance_3_interleaved_closed_form():
    """Numeric Cesàro liminf of the structured sequence matches the
    closed-form value on random crossover probabilities."""
    rng = stream(3, 0xACC3)
    kw = {"restarts": 8, "seed": 0}
    worst = 0.0
    for grid in range(5):
        pa, pb, pc = 0.02 + 0.46 * rng.random(3)
        wa, wb, wc = (ChannelKernel(np.stack([bsc_matrix(p)] * 2)) for p in (pa, pb, pc))
        seq = SequenceSpec(
            kind="j-structured",
            channels={"a": wa, "b": wb, "c": wc},
            states={"a": UNIFORM.probs, "b": UNIFORM.probs},
        )
        numeric = cesaro_capacity(seq, 2**16, solver_kwargs=kw)["liminf_estimate"]
        closed = interleaved_capacity(wa, wb, wc, UNIFORM, UNIFORM, **kw)
        gap = abs(numeric - closed)
        worst = max(worst, gap)
        assert gap <= 0.01, (grid, pa, pb, pc, numeric, closed)
    print(f"PASS acceptance 3: 5 random crossover grids, worst liminf gap {worst:.5f} <= 0.01")


@pytest.fixture(scope="module")
def bsc_system():
    return MemorylessSystem(UNIFORM, identity_policy(), state_blind_bsc(0.1))


def test_acceptance_4_achievability_bound(bsc_system):
    """Errors at 0.7x capacity shrink with n and respect the rho_n bound
    and its per-event components."""
    rate = 0.7 * bsc_system.i_uy
    reports = {}
    for n in (200, 400, 800):
        exp_ = design_experiment(bsc_system, n, 0.02, 0.02, rate=rate, seed=0, trials=2000)
        reports[n] = run_experiment(bsc_system, exp_, pi_draws=10_000)
    errs = [reports[n].empirical_error for n in (200, 400, 800)]
    cis = [reports[n].error_ci for n in (200, 400, 800)]
    inversions = 0
    for a, b in ((0, 1), (1, 2)):
        if errs[b] > errs[a]:
            inversions += 1
            assert cis[b][0] <= cis[a][1], "non-monotone beyond CI overlap"
    assert inversions <= 1
    for n in (200, 400, 800):
        rep = reports[n]
        trials = len(rep.trials)
        assert rep.empirical_error <= rep.rho_n + 3 * _sigma(rep.empirical_error, trials)
        rates = rep.event_rates()
        assert rates["e3"] <= math.exp(-n * 0.02) + 3 * _sigma(rates["e3"], trials)
        assert rates["e2_not_e1"] <= math.sqrt(rep.pi1) + 3 * _sigma(rates["e2_not_e1"], trials)
    print(f"PASS acceptance 4: errors {errs[0]:.3f}/{errs[1]:.3f}/{errs[2]:.3f} at "
          f"n=200/400/800 monotone within CI and below rho_n "
          f"({reports[200].rho_n:.3f}/{reports[400].rho_n:.3f}/{reports[800].rho_n:.3f})")


def test_acceptance_5_converse_threshold(bsc_system):
    rate = 1.2 * bsc_system.i_uy
    exp_ = design_experiment(bsc_system, 800, 0.02, 0.02, rate=rate, seed=0, trials=1000)
    rep = run_experiment(bsc_system, exp_, pi_draws=10_000)
    assert rep.converse_mode
    assert rep.empirical_error >= 0.9
    print(f"PASS acceptance 5: error {rep.empirical_error:.3f} >= 0.9 at 1.2x capacity, n=800")


def test_acceptance_6_mixed_spectrum():
    """Two-component mixture separates into modes at the component MIs
    and the small-mass inf-quantile sits at the lower mode."""
    modes = (0.15, 0.55)
    mix = MixtureSpec(
        channel_components=((0.5, erasure_kernel(modes[0])), (0.5, erasure_kernel(modes[1]))),
        state_components=((1.0, UNIFORM),),
    )
    samples = mixture_spectrum_demo(mix, identity_policy(), n=2000, draws=10_000, seed=7)
    vals = samples.samples
    near = np.zeros(vals.shape, dtype=bool)
    for m in modes:
        near |= np.abs(vals - m) <= 0.05
    frac = float(near.mean())
    assert frac >= 0.95, frac
    inf_est = spectral_rate_estimate(samples, "inf", 0.01)
    assert abs(inf_est - min(modes)) <= 0.02, inf_est
    print(f"PASS acceptance 6: {frac:.3f} of spectrum mass within 0.05 of the modes, "
          f"inf-estimate {inf_est:.4f} within 0.02 of {min(modes)}")


@pytest.mark.slow
def test_acceptance_7_region_endpoints():
    systems = {
        "state-flip": state_flip_bsc(0.1),
        "state-blind": state_blind_bsc(0.1),
        "asymmetric": ChannelKernel(np.stack([bsc_matrix(0.05), bsc_matrix(0.4)])),
    }
    for name, channel in systems.items():
        pts = region_frontier(
            channel, UNIFORM, v_size=3, u_size=4,
            rd_grid=[0.0, 0.5 * math.log(2), math.log(2)], restarts=4, seed=0,
        )
        rs = [pt.r for pt in pts]
        assert rs == sorted(rs), name
        gp = gp_capacity_dm(channel, UNIFORM, seed=0).value
        both = state_at_both_capacity(channel, UNIFORM).value
        assert abs(pts[0].r - gp) <= 2e-3, (name, pts[0].r, gp)
        assert abs(pts[-1].r - both) <= 2e-3, (name, pts[-1].r, both)
        for pt in pts:
            assert region_membership(pt, channel, UNIFORM), name
        print(f"PASS acceptance 7 [{name}]: endpoints {pts[0].r:.5f}->{gp:.5f}, "
              f"{pts[-1].r:.5f}->{both:.5f} within 2e-3, frontier monotone")


@pytest.mark.slow
def test_acceptance_8_determinism(tmp_path):
    """Identical outputs, byte for byte, regardless of the worker hint."""
    spec = {
        "kind": "system",
        "state_pmf": [0.5, 0.5],
        "channel": [bsc_matrix(0.1).tolist(), bsc_matrix(0.1).tolist()],
        "policy": {"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "g": [[0, 0], [1, 1]]},
        "rate_scale": 0.5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    runner = CliRunner()
    outputs = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        for cmd in (
            ["capacity", "--spec", str(spec_path), "--out", str(out / "cap"),
             "--seed", "5", "--workers", str(workers), "--restarts", "6"],
            ["simulate", "--spec", str(spec_path), "--out", str(out / "sim"),
             "--seed", "5", "--workers", str(workers), "--n", "40", "--trials", "100", "--draws", "2000"],
        ):
            res = runner.invoke(cli_main, cmd, catch_exceptions=False)
            assert res.exit_code == 0
        outputs[workers] = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    assert outputs[1] == outputs[4] == outputs[8]
    assert {str(k) for k in outputs[1]} == {"cap/capacity.txt", "sim/trials.csv", "sim/summary.txt"}
    print("PASS acceptance 8: capacity and simulate outputs byte-identical for workers 1/4/8")
