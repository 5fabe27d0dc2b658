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
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .capacity import (
    # GP optimizer starts per relabelling class (per sampled map in heuristic
    # mode), the uniform law first, then Dirichlet draws: the default of
    # `capacity --restarts` and of the policy `simulate` solves when its
    # spec has none
    RESTARTS,
    cesaro_capacity,
    gp_capacity_dm,
    interleaved_value,
    j_structured_slots,
    no_state_capacity,
    state_at_both_capacity,
)
from .coding import TRIAL_COLUMNS, BudgetError, MemorylessSystem, design_experiment, run_experiment
from .info import DEFAULT_DELTA, SampleBudgetError, spectral_rate_estimate
from .mixture import maximize_mixed_lower_bound, mixture_spectrum_demo
from .prob import ValidationError
from .region import RESTARTS as REGION_RESTARTS, region_frontier, saturation_knee
from .specio import SpecError, load_spec

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

HIST_BIN_NATS = 0.005


def _write(out_dir, seed: int, spec_path, artifacts: dict) -> None:
    """Make out_dir and write each named artifact after the three header
    lines: a list of lines is a text file, a (columns, rows) pair a CSV
    table. Each command calls it once, after everything is computed, so a
    refused run leaves no output directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = [
        f"# gpchannel {__version__}",
        f"# seed={seed}",
        f"# spec_digest={hashlib.sha256(Path(spec_path).read_bytes()).hexdigest()[:12]}",
    ]
    for name, content in artifacts.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in header)
            if isinstance(content, tuple):
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(content[0])
                writer.writerows(content[1])
            else:
                fh.writelines(line + "\n" for line in content)
    click.echo(f"wrote {out / next(iter(artifacts))}")


def _capacity_lines(res, kind_line: str) -> list[str]:
    """value, kind line, sorted diagnostics and policy of a capacity result."""
    lines = [f"value_nats={res.value:.12g}", kind_line]
    lines += [f"diagnostics.{k}={v}" for k, v in sorted(res.diagnostics.items())]
    lines.append("policy.u_given_s:")
    lines += [f"  {np.array2string(row, precision=9, max_line_width=sys.maxsize)}" for row in res.policy.u_given_s]
    lines.append("policy.g:")
    lines += [f"  {np.array2string(row, max_line_width=sys.maxsize)}" for row in res.policy.x_map]
    return lines


class _Main(click.Group):
    """Maps the exceptions a subcommand raises to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (BudgetError, SampleBudgetError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_BUDGET)
        except Exception as exc:  # a broken invariant: one line on stderr, not a traceback
            click.echo(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Main)
def main():
    """Capacity solvers and random-coding simulators for state-dependent channels."""


_common = [
    click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False)),
    click.option("--seed", default=0, show_default=True, type=int),
    click.option("--workers", default=1, show_default=True, type=int,
                 help="Accepted, and outputs are byte-identical for every value (acceptance 8), but runs "
                      "are serial: the trial loop holds the GIL, and a 2-thread pool over trial chunks "
                      "measured slower than serial."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@common_options
@click.option("--restarts", default=RESTARTS, show_default=True, type=click.IntRange(min=1),
              help="GP optimizer starts per relabelling class of input maps (per sampled map in "
                   "heuristic mode): the uniform law first, then Dirichlet draws.")
def capacity(spec_path, out_dir, seed, workers, restarts):
    """Single-letter capacities for a system, mixture, or structured sequence."""
    spec = load_spec(spec_path)
    tables = {}
    if spec["kind"] == "system":
        side = spec.get("side_information", "encoder")
        if side == "none":
            res = no_state_capacity(spec["channel"])
        elif side == "both":
            res = state_at_both_capacity(spec["channel"], spec["state"])
        else:
            res = gp_capacity_dm(spec["channel"], spec["state"], u_size=spec.get("u_size"), restarts=restarts, seed=seed)
        lines = _capacity_lines(res, f"side_information={side}")
    elif spec["kind"] == "mixture":
        res = maximize_mixed_lower_bound(spec["mixture"], u_size=spec.get("u_size"), restarts=restarts, seed=seed)
        lines = _capacity_lines(res, "bound=lower")
    else:  # j-structured
        channels, states = spec["channels"], spec["states"]
        constituents = [(channels["a"], states["a"]), (channels["b"], states["a"]), (channels["c"], states["b"])]
        kw = {"u_size": spec.get("u_size"), "restarts": restarts, "seed": seed}
        result = cesaro_capacity(constituents, j_structured_slots(spec.get("n_max", 2**16)), solver_kwargs=kw)
        lines = [
            f"liminf_estimate_nats={result['liminf_estimate']:.12g}",
            f"analytic_value_nats={interleaved_value(*result['constituents']):.12g}",
        ]
        partial = result["partial_averages"]
        tables["partial_averages.csv"] = (["n", "average_nats"], ((i + 1, f"{v:.12g}") for i, v in enumerate(partial)))
    _write(out_dir, seed, spec_path, {"capacity.txt": lines, **tables})


@main.command()
@common_options
@click.option("--n", default=2000, show_default=True, type=click.IntRange(min=1))
@click.option("--draws", default=10_000, show_default=True, type=click.IntRange(min=1))
@click.option("--delta", default=DEFAULT_DELTA, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
def spectrum(spec_path, out_dir, seed, workers, n, draws, delta):
    """Information-density histogram and spectral quantile summary."""
    spec = load_spec(spec_path)
    if spec["kind"] != "mixture":
        raise SpecError("spectrum requires a mixture spec (a single system is a 1-component mixture)")
    if "policy" not in spec:
        raise SpecError("spectrum requires a policy in the spec")
    samples = mixture_spectrum_demo(spec["mixture"], spec["policy"], n=n, draws=draws, seed=seed)
    inf_est = spectral_rate_estimate(samples, "inf", delta)
    sup_est = spectral_rate_estimate(samples, "sup", delta)
    lo = np.floor(samples.samples.min() / HIST_BIN_NATS) * HIST_BIN_NATS
    hi = np.ceil(samples.samples.max() / HIST_BIN_NATS) * HIST_BIN_NATS + HIST_BIN_NATS
    edges = np.arange(lo, hi + HIST_BIN_NATS / 2, HIST_BIN_NATS)
    counts, _ = np.histogram(samples.samples, bins=edges)
    _write(out_dir, seed, spec_path, {
        "spectrum_hist.csv": (
            ["bin_left_nats", "count"], ((f"{edges[i]:.6f}", int(c)) for i, c in enumerate(counts)),
        ),
        "spectrum_summary.txt": [
            f"n={n}", f"draws={samples.count}", f"delta={delta:.6g}",
            f"inf_rate_estimate_nats={inf_est:.12g}",
            f"sup_rate_estimate_nats={sup_est:.12g}",
            f"tail_infinite={samples.tail_infinite}",
        ],
    })


@main.command()
@common_options
@click.option("--n", default=200, show_default=True, type=click.IntRange(min=1))
@click.option("--trials", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--draws", default=10_000, show_default=True, type=click.IntRange(min=1),
              help="Atypicality-estimation draws.")
@click.option("--mode", default="auto", show_default=True, type=click.Choice(["auto", "explicit", "implicit"]))
def simulate(spec_path, out_dir, seed, workers, n, trials, draws, mode):
    """Random-coding trials with the rho_n bound decomposition."""
    spec = load_spec(spec_path)
    if spec["kind"] != "system":
        raise SpecError("simulate requires a system spec")
    if "policy" in spec:
        policy = spec["policy"]
    else:
        policy = gp_capacity_dm(
            spec["channel"], spec["state"], u_size=spec.get("u_size"), restarts=RESTARTS, seed=seed
        ).policy
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
    rates = report.event_rates()
    lines = [
        f"n={experiment.n}", f"trials={experiment.trials}", f"mode={report.mode}",
        f"rate_nats={experiment.rate:.12g}", f"rate_total_nats={experiment.rate_total:.12g}",
        f"gamma1={experiment.gamma1:.6g}", f"gamma2={experiment.gamma2:.6g}",
        f"empirical_error={report.empirical_error:.6g}",
        f"error_ci_low={report.error_ci[0]:.6g}", f"error_ci_high={report.error_ci[1]:.6g}",
        f"pi1={report.pi['pi1']:.6g}", f"pi2={report.pi['pi2']:.6g}",
    ]
    lines += [f"rho_term.{k}={v:.6g}" for k, v in report.rho_terms.items()]
    lines += [f"event_rate.{k}={v:.6g}" for k, v in rates.items()]
    lines += [
        f"error_within_bound={report.error_within_bound}",
        f"bound_informative={report.rho_terms['rho_n'] < 1.0}",
        f"converse_mode={report.converse_mode}",
    ]
    _write(out_dir, seed, spec_path, {
        "summary.txt": lines, "trials.csv": (TRIAL_COLUMNS, (r.csv_row() for r in report.trials)),
    })


@main.command()
@common_options
@click.option("--v-size", default=None, type=click.IntRange(min=1), help="Defaults to the spec's v_size, then the cardinality bound.")
@click.option("--u-size", default=None, type=click.IntRange(min=1), help="Defaults to the spec's u_size, then the cardinality bound.")
@click.option("--restarts", default=REGION_RESTARTS, show_default=True, type=click.IntRange(min=1))
@click.option("--grid-points", default=9, show_default=True, type=click.IntRange(min=1))
def region(spec_path, out_dir, seed, workers, v_size, u_size, restarts, grid_points):
    """(R, R_d) frontier for a rate-limited state description at the decoder."""
    spec = load_spec(spec_path)
    if spec["kind"] != "system":
        raise SpecError("region requires a system spec")
    rd_grid = spec.get("rd_grid")
    if rd_grid is None:
        rd_grid = np.linspace(0.0, math.log(max(spec["channel"].n_states, 2)), grid_points)
    points = region_frontier(
        spec["channel"], spec["state"],
        v_size=spec.get("v_size") if v_size is None else v_size,
        u_size=spec.get("u_size") if u_size is None else u_size,
        rd_grid=rd_grid, restarts=restarts, seed=seed,
    )
    knee = saturation_knee(points)
    lines = [f"saturation_knee_r_d={'none' if knee is None else f'{knee:.12g}'}"]
    for p in points:
        lines.append(f"point r_d={p.r_d:.12g} r={p.r:.12g}")
        lines.append(f"  v_given_s={np.array2string(p.policy.v_given_s, precision=6)}")
        lines.append(f"  u_given_vs={np.array2string(p.policy.u_given_vs, precision=6)}")
        lines.append(f"  g={np.array2string(p.policy.x_map)}")
    _write(out_dir, seed, spec_path, {
        "frontier.csv": (["r_d_nats", "r_nats"], ((f"{p.r_d:.12g}", f"{p.r:.12g}") for p in points)),
        "region_policies.txt": lines,
    })


if __name__ == "__main__":
    main()
