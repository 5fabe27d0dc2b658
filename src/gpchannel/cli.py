"""Batch command-line front door.

Subcommands bind JSON system specs to the solvers and simulators and
write CSV / structured-text artifacts. Every output file starts with a
reproducibility header (tool version, seed, spec digest) and re-running
a command with identical inputs byte-reproduces its outputs.

Exit codes: 0 success, 2 validation error, 3 budget refusal, 4 internal
invariant violation.
"""

from __future__ import annotations

import csv
import hashlib
import sys
from importlib.metadata import PackageNotFoundError, version as pkg_version
from pathlib import Path

import click
import numpy as np

from . import __version__
from .capacity import (
    SequenceSpec,
    cesaro_capacity,
    gp_capacity_dm,
    no_state_capacity,
    require_interleaved_form,
    state_at_both_capacity,
)
from .coding import TRIAL_COLUMNS, BudgetError, MemorylessSystem, design_experiment, run_experiment
from .info import DEFAULT_DELTA, SampleBudgetError, spectral_rate_estimate
from .mixture import maximize_mixed_lower_bound, mixture_spectrum_demo
from .prob import ValidationError
from .region import region_frontier, saturation_knee
from .specio import SpecError, load_spec

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

HIST_BIN_NATS = 0.005


def _tool_version() -> str:
    try:
        return pkg_version("gpchannel")
    except PackageNotFoundError:  # run from a source tree
        return __version__


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _header_lines(seed: int, spec_path) -> list[str]:
    return [
        f"# gpchannel {_tool_version()}",
        f"# seed={seed}",
        f"# spec_digest={_digest(spec_path)}",
    ]


def _write_text(path: Path, header: list[str], lines: list[str]) -> None:
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(spec_path):
    try:
        return load_spec(spec_path)
    except (SpecError, ValidationError) as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _policy_lines(policy) -> list[str]:
    lines = ["policy.u_given_s:"]
    lines += [f"  {np.array2string(row, precision=9)}" for row in policy.u_given_s.rows]
    lines.append("policy.g:")
    lines.append(f"  {np.array2string(np.asarray(policy.x_map))}")
    return lines


@click.group()
def main():
    """Capacity solvers and random-coding simulators for state-dependent channels."""


_common = [
    click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False)),
    click.option("--seed", default=0, show_default=True, type=int),
    click.option("--workers", default=1, show_default=True, type=int,
                 help="Worker hint; all merges are deterministic so results never depend on it."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@common_options
@click.option("--restarts", default=20, show_default=True, type=int)
def capacity(spec_path, out_dir, seed, workers, restarts):
    """Single-letter capacities for a system, mixture, or structured sequence."""
    spec = _load(spec_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(seed, spec_path)
    lines: list[str] = []
    try:
        if spec["kind"] == "system":
            side = spec.get("side_information", "encoder")
            u_size = spec.get("u_size")
            if side == "none":
                if spec["channel"].n_states != 1:
                    _fail(EXIT_VALIDATION, "side_information=none requires a stateless (|S|=1) channel")
                res = no_state_capacity(spec["channel"])
            elif side == "both":
                res = state_at_both_capacity(spec["channel"], spec["state"])
            elif side == "encoder":
                res = gp_capacity_dm(spec["channel"], spec["state"], u_size=u_size, restarts=restarts, seed=seed)
            else:
                _fail(EXIT_VALIDATION, f"unknown side_information {side!r}")
            lines.append(f"value_nats={res.value:.12g}")
            lines.append(f"side_information={side}")
            for k, v in sorted(res.diagnostics.items()):
                lines.append(f"diagnostics.{k}={v}")
            lines += _policy_lines(res.policy)
        elif spec["kind"] == "mixture":
            res = maximize_mixed_lower_bound(spec["mixture"], u_size=spec.get("u_size"), restarts=restarts, seed=seed)
            lines.append(f"value_nats={res.value:.12g}")
            lines.append("bound=lower")
            for k, v in sorted(res.diagnostics.items()):
                lines.append(f"diagnostics.{k}={v}")
            lines += _policy_lines(res.policy)
        elif spec["kind"] == "j-structured":
            n_max = int(spec.get("n_max", 2**16))
            seq = SequenceSpec(kind="j-structured", channels=spec["channels"], states=spec["states"])
            require_interleaved_form(seq.channels["a"], seq.channels["b"], ("channels.a", "channels.b"))
            kw = {"u_size": spec.get("u_size"), "restarts": restarts, "seed": seed}
            result = cesaro_capacity(seq, n_max, solver_kwargs=kw)
            lines.append(f"liminf_estimate_nats={result['liminf_estimate']:.12g}")
            lines.append(f"analytic_value_nats={result['analytic_value']:.12g}")
            # the closed form (interleaved_capacity) blends the same three
            # constituent capacities the Cesaro path solved, in the same order
            lines.append(f"closed_form_nats={result['analytic_value']:.12g}")
            partial = result["partial_averages"]
            _write_csv(
                out / "partial_averages.csv", header, ["n", "average_nats"],
                ((i + 1, f"{v:.12g}") for i, v in enumerate(partial)),
            )
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    _write_text(out / "capacity.txt", header, lines)
    click.echo(f"wrote {out / 'capacity.txt'}")


@main.command()
@common_options
@click.option("--n", default=2000, show_default=True, type=int)
@click.option("--draws", default=10_000, show_default=True, type=int)
@click.option("--delta", default=DEFAULT_DELTA, show_default=True, type=float)
def spectrum(spec_path, out_dir, seed, workers, n, draws, delta):
    """Information-density histogram and spectral quantile summary."""
    spec = _load(spec_path)
    if spec["kind"] != "mixture":
        _fail(EXIT_VALIDATION, "spectrum requires a mixture spec (a single system is a 1-component mixture)")
    if "policy" not in spec:
        _fail(EXIT_VALIDATION, "spectrum requires a policy in the spec")
    if draws < 1:
        _fail(EXIT_VALIDATION, "draws must be positive")
    if not 0.0 < delta < 1.0:
        _fail(EXIT_VALIDATION, f"--delta must lie in (0, 1), got {delta}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(seed, spec_path)
    try:
        samples = mixture_spectrum_demo(spec["mixture"], spec["policy"], n=n, draws=draws, seed=seed)
        inf_est = spectral_rate_estimate(samples, "inf", delta)
        sup_est = spectral_rate_estimate(samples, "sup", delta)
    except SampleBudgetError as exc:
        _fail(EXIT_BUDGET, str(exc))
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    lo = np.floor(samples.samples.min() / HIST_BIN_NATS) * HIST_BIN_NATS
    hi = np.ceil(samples.samples.max() / HIST_BIN_NATS) * HIST_BIN_NATS + HIST_BIN_NATS
    edges = np.arange(lo, hi + HIST_BIN_NATS / 2, HIST_BIN_NATS)
    counts, _ = np.histogram(samples.samples, bins=edges)
    _write_csv(
        out / "spectrum_hist.csv", header, ["bin_left_nats", "count"],
        ((f"{edges[i]:.6f}", int(c)) for i, c in enumerate(counts)),
    )
    _write_text(
        out / "spectrum_summary.txt", header,
        [
            f"n={n}", f"draws={samples.count}", f"delta={delta:.6g}",
            f"inf_rate_estimate_nats={inf_est:.12g}",
            f"sup_rate_estimate_nats={sup_est:.12g}",
            f"tail_infinite={samples.tail_infinite}",
        ],
    )
    click.echo(f"wrote {out / 'spectrum_hist.csv'}")


@main.command()
@common_options
@click.option("--n", default=200, show_default=True, type=int)
@click.option("--trials", default=1000, show_default=True, type=int)
@click.option("--draws", default=10_000, show_default=True, type=int, help="Atypicality-estimation draws.")
@click.option("--mode", default="auto", show_default=True, type=click.Choice(["auto", "explicit", "implicit"]))
def simulate(spec_path, out_dir, seed, workers, n, trials, draws, mode):
    """Random-coding trials with the rho_n bound decomposition."""
    spec = _load(spec_path)
    if spec["kind"] != "system":
        _fail(EXIT_VALIDATION, "simulate requires a system spec")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(seed, spec_path)
    try:
        if "policy" in spec:
            policy = spec["policy"]
        else:
            policy = gp_capacity_dm(spec["channel"], spec["state"], u_size=spec.get("u_size"), seed=seed).policy
        system = MemorylessSystem(spec["state"], policy, spec["channel"])
        gamma1 = float(spec.get("gamma1", 0.02))
        gamma2 = float(spec.get("gamma2", 0.02))
        rate = spec.get("rate")
        if rate is None and "rate_scale" in spec:
            rate = float(spec["rate_scale"]) * (system.i_uy - system.i_us)
        experiment = design_experiment(
            system, n, gamma1, gamma2, rate=rate, seed=seed, trials=trials
        )
        report = run_experiment(system, experiment, mode=mode, pi_draws=draws)
    except BudgetError as exc:
        _fail(EXIT_BUDGET, str(exc))
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    _write_csv(out / "trials.csv", header, TRIAL_COLUMNS, (r.csv_row() for r in report.trials))
    rates = report.event_rates()
    lines = [
        f"n={experiment.n}", f"trials={experiment.trials}", f"mode={report.mode}",
        f"rate_nats={experiment.rate:.12g}", f"rate_total_nats={experiment.rate_total:.12g}",
        f"gamma1={experiment.gamma1:.6g}", f"gamma2={experiment.gamma2:.6g}",
        f"empirical_error={report.empirical_error:.6g}",
        f"error_ci_low={report.error_ci[0]:.6g}", f"error_ci_high={report.error_ci[1]:.6g}",
        f"pi1={report.pi1:.6g}", f"pi2={report.pi2:.6g}",
    ]
    lines += [f"rho_term.{k}={v:.6g}" for k, v in report.rho_terms.items()]
    lines += [f"event_rate.{k}={v:.6g}" for k, v in rates.items()]
    lines += [
        f"error_within_bound={report.empirical_error <= report.rho_n + 3 * _bern_sigma(report.empirical_error, experiment.trials)}",
        f"converse_mode={report.converse_mode}",
    ]
    _write_text(out / "summary.txt", header, lines)
    click.echo(f"wrote {out / 'summary.txt'}")


def _bern_sigma(p: float, n: int) -> float:
    return (max(p * (1 - p), 1e-12) / n) ** 0.5


@main.command()
@common_options
@click.option("--v-size", default=None, type=int)
@click.option("--u-size", default=None, type=int)
@click.option("--restarts", default=6, show_default=True, type=int)
@click.option("--grid-points", default=9, show_default=True, type=int)
def region(spec_path, out_dir, seed, workers, v_size, u_size, restarts, grid_points):
    """(R, R_d) frontier for a rate-limited state description at the decoder."""
    spec = _load(spec_path)
    if spec["kind"] != "system":
        _fail(EXIT_VALIDATION, "region requires a system spec")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(seed, spec_path)
    import math as _math

    rd_grid = spec.get("rd_grid")
    if rd_grid is None:
        rd_grid = np.linspace(0.0, _math.log(max(spec["channel"].n_states, 2)), grid_points)
    try:
        points = region_frontier(
            spec["channel"], spec["state"], v_size=v_size, u_size=u_size,
            rd_grid=np.asarray(rd_grid, dtype=np.float64), restarts=restarts, seed=seed,
        )
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    _write_csv(
        out / "frontier.csv", header, ["r_d_nats", "r_nats"],
        ((f"{p.r_d:.12g}", f"{p.r:.12g}") for p in points),
    )
    knee = saturation_knee(points)
    lines = [f"saturation_knee_r_d={'none' if knee is None else f'{knee:.12g}'}"]
    for p in points:
        lines.append(f"point r_d={p.r_d:.12g} r={p.r:.12g}")
        lines.append(f"  v_given_s={np.array2string(p.policy.v_given_s, precision=6)}")
        lines.append(f"  u_given_vs={np.array2string(p.policy.u_given_vs, precision=6)}")
        lines.append(f"  g={np.array2string(np.asarray(p.policy.x_map))}")
    _write_text(out / "region_policies.txt", header, lines)
    click.echo(f"wrote {out / 'frontier.csv'}")


if __name__ == "__main__":
    main()
