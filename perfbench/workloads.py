"""Seeded job lists for the four benchmark workloads.

A workload is a fixed sequence of ``gpchannel`` CLI jobs built from the
workload seed alone. Each workload repeats one *round*: a stratified mix
of job kinds, so every seed gives the same amount of work of each kind
and only the random channel parameters, state laws and CLI seeds
differ. The number of rounds follows from ``--seconds`` and the nominal
round time measured on a 2-CPU Xeon (numpy kernels), so the same seed
and duration always give the same job list and exactly repeatable
work counts.

Why each workload exists:

* ``capacity`` -- the GP policy optimizer (``capacity.optimize_gp_policy``)
  on exhaustive 2-state maps, heuristic 3-state maps and 2-component
  mixtures; it dominates wall time, so map enumeration or update-rule
  changes show here first.
* ``sim_explicit`` -- the explicit-codebook decoder, whose score gather
  (``kernels.codebook_scores``) is almost all of the work; codebooks run
  from one that fits the per-core L2 to one of more than 100 MB. The
  optimizer, covering extrapolation and confusion sampling are bypassed.
* ``montecarlo`` -- implicit-mode simulation as a blocklength sweep up to
  n = 8000 plus mixture spectrum sampling: Monte-Carlo counts times
  log-table scoring, with the decoder and optimizer bypassed. The sweep
  deliberately crosses n*t1 = 700 nats, where confusion clipping makes
  every trial record E3.
* ``region`` -- the penalty-sweep region solver (scipy L-BFGS-B) on
  channels where decoder state knowledge helps, so the frontier is not
  flat; its R_d = 0 anchor also runs the capacity optimizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("capacity", "sim_explicit", "montecarlo", "region")

# A job list needs at least 11 jobs for a percentile with ten jobs beyond
# it; 14 keeps that tail percentile off the single fastest job.
MIN_JOBS = 14

# Nominal seconds per round on the reference machine; rounds per run
# are fixed from --seconds with these, never from a clock reading.
ROUND_SECONDS = {"capacity": 2.0, "sim_explicit": 2.8, "montecarlo": 1.9, "region": 0.9}

CAPACITY_RESTARTS = 1
SIM_GAMMA1 = 0.02

# sim_explicit size classes: (n, trials). With p = 0.2, gamma1 = 0.02 and
# rate 0.08 the codebook holds ceil(e^{0.08 n}) * ceil(e^{0.0727 n})
# int64 words of length n: 0.84 MB, 4.6 MB, 25 MB and 129 MB.
EXPLICIT_CLASSES = ((50, 300), (60, 100), (70, 20), (80, 4))
EXPLICIT_P = 0.2
EXPLICIT_RATE = 0.08
EXPLICIT_GAMMA2 = 0.01

# montecarlo: implicit blocklength sweep on BSC(0.1) and spectrum jobs.
IMPLICIT_P = 0.1
IMPLICIT_BLOCKLENGTHS = (500, 1000, 2000, 4000, 8000)
IMPLICIT_TRIALS = 300
SPECTRUM_N = 2000
SPECTRUM_DRAWS = 200_000
SPECTRUM_JOBS_PER_ROUND = 2

# region: (v_size, u_size, grid_points), one restart each. Larger v or
# u makes the L-BFGS-B evaluation count vary several-fold between
# channels, more than a run of this length can average out.
REGION_SHAPES = ((2, 2, 2),)
REGION_RESTARTS = 1


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``meta`` carries what its output check needs."""

    index: int
    round: int
    kind: str
    command: str
    spec: dict
    args: tuple
    cli_seed: int
    meta: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.index:03d}-{self.kind}"

    def spec_bytes(self) -> bytes:
        return (json.dumps(self.spec, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _bsc(p: float) -> list:
    return [[1.0 - p, p], [p, 1.0 - p]]


def _state_flip(p: float) -> list:
    """Y = X xor S xor Bern(p): state 1 flips the output."""
    return [_bsc(p), [row[::-1] for row in _bsc(p)]]


def _xor_policy() -> dict:
    """Uniform U independent of S with x = u xor s."""
    return {"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "g": [[0, 1], [1, 0]]}


def _r(x: float) -> float:
    return float(f"{x:.12g}")


def _binary_rows(rng, n_states: int) -> list:
    """Random binary-input binary-output rows [s][x][y]."""
    a = rng.uniform(0.02, 0.98, size=(n_states, 2))
    return [[[_r(a[s, x]), _r(1.0 - _r(a[s, x]))] for x in range(2)] for s in range(n_states)]


def _state_pmf(rng, n_states: int) -> list:
    w = rng.uniform(0.2, 1.0, size=n_states)
    w = [_r(x) for x in w / w.sum()]
    w[-1] = _r(1.0 - sum(w[:-1]))
    return w


def _job(kind, command, spec, args=(), cli_seed=None, **meta) -> dict:
    return {"kind": kind, "command": command, "spec": spec, "args": args, "cli_seed": cli_seed, "meta": meta}


def _capacity_round(rng):
    args = ("--restarts", str(CAPACITY_RESTARTS))
    p = _r(rng.uniform(0.05, 0.3))
    yield _job("cap_random2", "capacity", {"kind": "system", "state_pmf": _state_pmf(rng, 2),
                                           "channel": _binary_rows(rng, 2)}, args)
    yield _job("cap_flip2", "capacity", {"kind": "system", "state_pmf": _state_pmf(rng, 2),
                                         "channel": _state_flip(p)}, args, flip_p=p)
    yield _job("cap_random3", "capacity", {"kind": "system", "state_pmf": _state_pmf(rng, 3),
                                           "channel": _binary_rows(rng, 3)}, args)
    w = _r(rng.uniform(0.3, 0.7))
    yield _job("cap_mixture", "capacity", {
        "kind": "mixture",
        "channel_mixture": [
            {"weight": w, "channel": _binary_rows(rng, 2)},
            {"weight": _r(1.0 - w), "channel": _binary_rows(rng, 2)},
        ],
        "state_mixture": [{"weight": 1.0, "state_pmf": _state_pmf(rng, 2)}],
    }, args)


def _explicit_round(rng):
    for n, trials in EXPLICIT_CLASSES:
        spec = {
            "kind": "system",
            "state_pmf": _state_pmf(rng, 2),
            "channel": _state_flip(EXPLICIT_P),
            "policy": _xor_policy(),
            "gamma1": SIM_GAMMA1,
            "gamma2": EXPLICIT_GAMMA2,
            "rate": EXPLICIT_RATE,
        }
        args = ("--n", str(n), "--trials", str(trials), "--mode", "explicit")
        yield _job(f"explicit_n{n}", "simulate", spec, args, n=n, trials=trials, flip_p=EXPLICIT_P, gamma1=SIM_GAMMA1)


def _montecarlo_round(rng):
    for n in IMPLICIT_BLOCKLENGTHS:
        spec = {
            "kind": "system",
            "state_pmf": _state_pmf(rng, 2),
            "channel": _state_flip(IMPLICIT_P),
            "policy": _xor_policy(),
            "gamma1": SIM_GAMMA1,
            "gamma2": SIM_GAMMA1,
            "rate_scale": 0.7,
        }
        args = ("--n", str(n), "--trials", str(IMPLICIT_TRIALS), "--mode", "implicit")
        yield _job(f"implicit_n{n}", "simulate", spec, args,
                   n=n, trials=IMPLICIT_TRIALS, flip_p=IMPLICIT_P, gamma1=SIM_GAMMA1)
    for _ in range(SPECTRUM_JOBS_PER_ROUND):
        w = _r(rng.uniform(0.3, 0.7))
        p_lo, p_hi = _r(rng.uniform(0.03, 0.08)), _r(rng.uniform(0.15, 0.25))
        spec = {
            "kind": "mixture",
            "channel_mixture": [
                {"weight": w, "channel": _state_flip(p_lo)},
                {"weight": _r(1.0 - w), "channel": _state_flip(p_hi)},
            ],
            "state_mixture": [{"weight": 1.0, "state_pmf": _state_pmf(rng, 2)}],
            "policy": _xor_policy(),
        }
        args = ("--n", str(SPECTRUM_N), "--draws", str(SPECTRUM_DRAWS))
        yield _job("spectrum", "spectrum", spec, args, draws=SPECTRUM_DRAWS)


def _region_round(rng):
    for v, u, points in REGION_SHAPES:
        # a clean and a noisy state: knowing which one applies helps the
        # decoder, so C_both exceeds the encoder-only capacity
        a, b = _r(rng.uniform(0.01, 0.05)), _r(rng.uniform(0.25, 0.35))
        q = _r(rng.uniform(0.4, 0.6))
        spec = {"kind": "system", "state_pmf": [q, _r(1.0 - q)], "channel": [_bsc(a), _bsc(b)]}
        args = ("--v-size", str(v), "--u-size", str(u), "--grid-points", str(points),
                "--restarts", str(REGION_RESTARTS))
        # the CLI's default seed: the solver's random starting points drive
        # its evaluation count far more than the channel does
        yield _job(f"region_v{v}u{u}g{points}", "region", spec, args, cli_seed=0, v=v, u=u)


_ROUNDS = {
    "capacity": _capacity_round,
    "sim_explicit": _explicit_round,
    "montecarlo": _montecarlo_round,
    "region": _region_round,
}


def build_jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    """The workload's job list; a pure function of (workload, seed, seconds)."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    jobs: list[Job] = []
    r = 0
    while len(jobs) < MIN_JOBS or r < rounds:
        for fields in _ROUNDS[workload](rng):
            cli_seed = int(rng.integers(0, 2**31 - 1)) if fields["cli_seed"] is None else fields["cli_seed"]
            jobs.append(Job(index=len(jobs), round=r, **dict(fields, cli_seed=cli_seed)))
        r += 1
    return jobs


def write_specs(jobs: list[Job], spec_dir: Path) -> list[Path]:
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = spec_dir / f"{job.name}.json"
        path.write_bytes(job.spec_bytes())
        paths.append(path)
    return paths
